"""The bytes that the determinism contract pins, and the one runner that
measures them.

``pinned_bytes.json`` maps each pinned output to the sha256 of its bytes:

- for each invocation in ``INVOCATIONS`` (its key), the UTF-8 bytes of the
  report that ``qpt <key>`` prints;
- for the invocation that writes ``{tsv}``, the bytes of that file too,
  under the key ``"{tsv} of <key>"``.

``measure`` runs every invocation in one fresh interpreter started from the
repository root: it calls ``qpt.__main__.main``, the entry of ``python -m
qpt`` and of the console script, for each, in order, with ``{tsv}`` replaced
by a temporary file. So the first call sets the CLI's one BLAS thread before
numpy loads, as a ``qpt`` process does.  It also
records which scipy modules are loaded after ``import qpt`` and after each
invocation; ``chsh``, the one subcommand that needs scipy, runs last.
Where an environment sets ``PINNED_BYTES_CPUS`` (a variable of this runner
only; qpt reads none), the interpreter first restricts itself to that many
of the CPUs it may use, before numpy loads, and the record says how many
CPUs the sampler saw.

Run as a script, ``python tests/pinned_bytes.py`` measures the checkout's
``src`` under the first of ``ENVIRONMENTS``, rewrites ``pinned_bytes.json``
and prints each key that moved, with its old and new hash.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
TABLE = HERE / "pinned_bytes.json"

KS18 = "src/qpt/fixtures/ks18-d4.rays"
KS33 = "src/qpt/fixtures/ks33-d3.rays"

#: the pinned invocations, in the order one interpreter runs them
INVOCATIONS = [
    # every subcommand's default run, in text and in JSON
    "epr",
    "epr --format json",
    "teleport",
    "teleport --format json",
    "decohere",
    "decohere --format json",
    "correspond",
    "correspond --format json",
    f"ks --rays {KS18}",
    f"ks --rays {KS18} --format json",
    f"ks --rays {KS33}",
    f"ks --rays {KS33} --format json",
    "determinate",
    "determinate --format json",
    "dynamics --trajectory-out {tsv}",
    "dynamics --format json",
    # seeded and sized runs: perfbench's seed-0 determinate, and the runs
    # that the determinism tests compared between processes
    "determinate --seed 0 --format json",
    "determinate --dim 4 --seed 5 --format json",
    "determinate --dim 6 --format json",
    # README's example of the one-label (identity) observable
    "determinate --dim 5 --observable identity --seed 3 --format json",
    # a 64- and a 200-label observable; from dim 100 on, the QR that draws
    # the observable's eigenbasis rounds differently on two BLAS threads, so
    # the dim-200 key holds in every environment only through the entry's
    # one-thread setting
    "determinate --dim 64 --format json",
    "determinate --dim 200 --format json",
    "teleport --seed 3 --samples 400 --format json",
    "decohere --n-env 3 --format json",
    "dynamics --steps 150 --trajectories 1500 --seed 2 --format json",
    "dynamics --steps 200 --trajectories 2000 --format json",
    # last: the one subcommand that loads scipy
    "chsh",
    "chsh --format json",
]

#: the environments the table must hold under.  Together they vary the BLAS
#: thread count asked for, which the entry overrides with one, and the hash
#: seed; the second also sets a stray ``QPT_EPS``, which must change nothing,
#: since ``--eps`` is the only tolerance route.
#: The third runs on one CPU, so a two-label walk that splits into one part
#: per CPU elsewhere walks as one part there (and OpenBLAS caps its threads
#: at that one CPU).
ENVIRONMENTS = {
    "1 BLAS thread, PYTHONHASHSEED=0": {
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
    },
    "2 BLAS threads, PYTHONHASHSEED=1, QPT_EPS=abc": {
        "OPENBLAS_NUM_THREADS": "2",
        "OMP_NUM_THREADS": "2",
        "PYTHONHASHSEED": "1",
        "QPT_EPS": "abc",
    },
    "1 CPU, 3 BLAS threads asked, PYTHONHASHSEED=2": {
        "PINNED_BYTES_CPUS": "1",
        "OPENBLAS_NUM_THREADS": "3",
        "OMP_NUM_THREADS": "3",
        "PYTHONHASHSEED": "2",
    },
}


def _child() -> None:
    """The fresh interpreter's side of ``measure``: run the invocations in
    ``argv[1]`` (a JSON list), with ``{tsv}`` as ``argv[2]``, and print one
    JSON record."""

    def scipy_modules():
        return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

    invocations, tsv = json.loads(sys.argv[1]), sys.argv[2]
    cpus = os.environ.get("PINNED_BYTES_CPUS")
    if cpus and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:int(cpus)])
    import qpt

    scipy = {"import qpt": scipy_modules()}
    import qpt.__main__

    sha256, exits = {}, {}
    for key in invocations:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exits[key] = qpt.__main__.main([arg.format(tsv=tsv) for arg in key.split()])
        sha256[key] = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if "{tsv}" in key:
            sha256[f"{{tsv}} of {key}"] = hashlib.sha256(Path(tsv).read_bytes()).hexdigest()
        scipy[key] = scipy_modules()
    usable_cpus = qpt._kernels._usable_cpus()
    print(json.dumps({"sha256": sha256, "exit": exits, "scipy": scipy, "usable_cpus": usable_cpus}))


def measure(env: "dict[str, str]") -> dict:
    """Every invocation's hashes from one fresh interpreter, run from the
    repository root on its ``src`` with ``env`` added to this environment.

    Returns the interpreter's ``returncode`` and ``stderr`` and, when it ran
    to the end, ``sha256`` (key -> hash), ``exit`` (invocation -> exit code)
    ``scipy`` (``"import qpt"`` and then each invocation, in run order
    -> the scipy modules loaded by then) and ``usable_cpus`` (the CPU count
    that set the sampler's part count)."""
    pythonpath = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    child = f"import sys; sys.path.insert(0, {str(HERE)!r}); import pinned_bytes; pinned_bytes._child()"
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(
            [sys.executable, "-c", child, json.dumps(INVOCATIONS), str(Path(tmp) / "paths.tsv")],
            capture_output=True,
            text=True,
            cwd=REPO,
            env={**os.environ, **env, "PYTHONPATH": pythonpath},
        )
    record = json.loads(proc.stdout) if proc.returncode == 0 else {}
    return {"returncode": proc.returncode, "stderr": proc.stderr, **record}


def load() -> "dict[str, str]":
    """The table: key -> sha256."""
    return json.loads(TABLE.read_text())


def moved(old: "dict[str, str]", new: "dict[str, str]") -> "dict[str, tuple]":
    """Each key whose hash differs between two tables, with its old and new
    hash (``None`` where one table lacks the key)."""
    return {
        key: (old.get(key), new.get(key))
        for key in sorted(old.keys() | new.keys())
        if old.get(key) != new.get(key)
    }


def main() -> int:
    """Rewrite the table from this checkout and print each key that moved."""
    run = measure(next(iter(ENVIRONMENTS.values())))
    failed = {key: code for key, code in run.get("exit", {}).items() if code != 0}
    if run["returncode"] != 0 or failed:
        print(run["stderr"] or f"nonzero exit codes: {failed}", file=sys.stderr)
        return 1
    old = load() if TABLE.exists() else {}
    TABLE.write_text(json.dumps(run["sha256"], indent=2, sort_keys=True) + "\n")
    for key, (before, after) in moved(old, run["sha256"]).items():
        print(f"{key}: {before} -> {after}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
