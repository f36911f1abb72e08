"""Inputs and operations of the four benchmark workloads.

Every input (states, Hamiltonians, observables, subspaces, argument lists) is
built here from the workload seed; the program under test only receives them.
An operation is one unit of user work.  ``run`` is what gets timed;
``record`` turns its value into the output that is checked against the
goldens and between runs, plus whether the operation's invariant holds.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import numpy as np

import qpt

#: the seed whose outputs are pinned in goldens.json
DEFAULT_SEED = 0

#: extension probes as (dim, rank of the added subspace), in pass order.  The
#: closure's shape (elements, relations, rays, depth) depends only on
#: (dim, rank), so a fixed schedule keeps the work per pass seed-independent.
PROBES = ((3, 1), (3, 2), (4, 1), (4, 3))
TOY_PROBES = ((3, 1), (3, 2))

CLI_FIXTURES = ("src/qpt/fixtures/ks18-d4.rays", "src/qpt/fixtures/ks33-d3.rays")


@dataclass(frozen=True)
class Op:
    name: str
    seeded: bool  # False: the input ignores the seed, so the golden always applies
    run: Callable[[], Any]
    record: Callable[[Any], "tuple[Any, bool]"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tv_bound(n_walkers: int) -> float:
    """The `qpt dynamics` meshing bound: max(0.02, 4 sigma + 0.01)."""
    return max(0.02, 4.0 * 0.5 / np.sqrt(n_walkers) + 0.01)


def _random_vector(dim: int, rng: np.random.Generator) -> qpt.ComplexVector:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return qpt.ComplexVector(v / np.linalg.norm(v))


def _random_subspace(dim: int, rank: int, rng: np.random.Generator) -> qpt.Subspace:
    z = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    return qpt.Subspace.from_vectors([z[:, i] for i in range(rank)], ambient_dim=dim)


def _random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# --------------------------------------------------------------------------
# extension: maximality probes (criterion 08 style) plus the decohere scenario
# --------------------------------------------------------------------------


def _probe_run(d, v):
    return qpt.extend_and_check(d, v, budget=512)


def _probe_record(rep) -> "tuple[Any, bool]":
    out = [rep.verdict, rep.n_elements, rep.n_relations, rep.n_rays, rep.closure_depth]
    return out, rep.verdict == "contradiction"


def _decohere_record(rep) -> "tuple[Any, bool]":
    return rep.to_json(), rep.all_passed


def extension(seed: int, toy: bool, **_) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for i, (dim, rank) in enumerate(TOY_PROBES if toy else PROBES):
        d = qpt.build_determinate(_random_vector(dim, rng), qpt.ObservableSpec.identity(dim))
        v = _random_subspace(dim, rank, rng)
        while qpt.contains(d, v):
            v = _random_subspace(dim, rank, rng)
        ops.append(Op(f"probe{i}.d{dim}r{rank}", True,
                      partial(_probe_run, d, v),
                      _probe_record))
    # the toy pass skips decohere's own extension demo, which needs its full
    # closure budget (256 elements, seconds of work) to reach a verdict
    n_env, kwargs = (3, {"run_extension": False}) if toy else (8, {})
    ops.append(Op("decohere", False,
                  lambda: qpt.decoherence_scenario(n_env, np.pi / 3, **kwargs),
                  _decohere_record))
    return ops


# --------------------------------------------------------------------------
# rabi and multilevel: evolve_possibility -> sample_marginals
# --------------------------------------------------------------------------


def _meshing_run(psi0, obs, spec, idx, walkers, seed):
    traj = qpt.evolve_possibility(psi0, obs, spec)
    return traj, qpt.sample_marginals(traj, seed, walkers, idx)


def _meshing_record(paths: list, closed_form, value) -> "tuple[Any, bool]":
    traj, marg = value
    if len(paths) != 1:
        raise RuntimeError(f"expected one sample_paths call, saw {len(paths)}")
    sampled = paths.pop()
    out = {
        "paths_sha256": sha256(np.ascontiguousarray(sampled).tobytes()),
        "paths_shape": list(sampled.shape),
    }
    ok = bool(np.array_equal(np.stack([np.bincount(r, minlength=marg.counts.shape[1])
                                       for r in sampled]), marg.counts))
    ok = ok and float(marg.total_variation().max()) <= tv_bound(marg.n_trajectories)
    if closed_form is not None:
        ok = ok and float(np.abs(traj.weights - closed_form(traj.times)).max()) < 1e-9
    return out, ok


def rabi(seed: int, toy: bool, paths: list, **_) -> list[Op]:
    """H = sigma_x / 2 over one period; only the sampler seed varies."""
    steps, walkers = (200, 4000) if toy else (2010, 100_000)
    h = qpt.Operator(np.array([[0.0, 0.5], [0.5, 0.0]], dtype=np.complex128))
    spec = qpt.EvolutionSpec(h, dt=2.0 * np.pi / steps, steps=steps)
    obs = qpt.ObservableSpec.from_eigenbasis(
        [np.array([1.0, 0.0]), np.array([0.0, 1.0])], labels=("up", "down"))
    psi0 = qpt.ComplexVector(np.array([1.0, 0.0], dtype=np.complex128))
    idx = np.arange(1, 11) * (steps // 10)

    def closed(t):
        return np.stack([np.cos(t / 2) ** 2, np.sin(t / 2) ** 2], axis=1)

    return [Op("rabi", True, partial(_meshing_run, psi0, obs, spec, idx, walkers, seed),
               partial(_meshing_record, paths, closed))]


def multilevel(seed: int, toy: bool, paths: list, **_) -> list[Op]:
    """Random Hermitian H in dim 6, random maximal observable (k = 6)."""
    dim = 6
    steps, walkers = (300, 2000) if toy else (3000, 10_000)
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = qpt.Operator((m + m.conj().T) / 2)
    q = _random_unitary(dim, rng)
    obs = qpt.ObservableSpec.from_eigenbasis(
        [q[:, i] for i in range(dim)], labels=tuple(f"e{i}" for i in range(dim)))
    psi0 = _random_vector(dim, rng)
    spec = qpt.EvolutionSpec(h, dt=qpt.default_timestep(h), steps=steps)
    idx = np.arange(1, 11) * (steps // 10)
    return [Op("multilevel", True, partial(_meshing_run, psi0, obs, spec, idx, walkers, seed),
               partial(_meshing_record, paths, None))]


# --------------------------------------------------------------------------
# cli: cold `python -m qpt ... --format json` invocations
# --------------------------------------------------------------------------


def cli_commands(seed: int, toy: bool) -> list[tuple[str, bool, list[str]]]:
    """(name, seeded, argv) for each subcommand invocation of a pass.

    teleport keeps its own default seed: its outcome histogram is checked
    against a 3-sigma band, which by design fails for about 1% of seeds."""
    cmds = [
        ("epr", False, ["epr"]),
        ("teleport", False, ["teleport"]),
        ("correspond", False, ["correspond"]),
        ("chsh", False, ["chsh"]),
        ("ks18", False, ["ks", "--rays", CLI_FIXTURES[0]]),
        ("ks33", False, ["ks", "--rays", CLI_FIXTURES[1]]),
        ("determinate", True, ["determinate", "--seed", str(seed)]),
    ]
    if toy:
        cmds = [c for c in cmds if c[0] in ("correspond", "determinate")]
    return [(name, seeded, argv + ["--format", "json"]) for name, seeded, argv in cmds]


def _cli_subprocess(argv: list[str], env: dict) -> "tuple[int, bytes]":
    proc = subprocess.run([sys.executable, "-m", "qpt", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=120)
    return proc.returncode, proc.stdout


def _cli_in_process(argv: list[str]) -> "tuple[int, bytes]":
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = qpt.cli.main(argv)
    return code, buf.getvalue().encode()


def _cli_record(value) -> "tuple[Any, bool]":
    code, out = value
    try:
        passed = json.loads(out)["all_passed"] is True
    except (ValueError, KeyError, TypeError):
        passed = False
    return {"exit": code, "report_sha256": sha256(out)}, code == 0 and passed


def cli(seed: int, toy: bool, in_process: bool, env: dict, **_) -> list[Op]:
    if in_process:
        import qpt.cli  # noqa: F401  (the in-process route calls qpt.cli.main)

    ops = []
    for name, seeded, argv in cli_commands(seed, toy):
        run = partial(_cli_in_process, argv) if in_process else partial(_cli_subprocess, argv, env)
        ops.append(Op(name, seeded, run, _cli_record))
    return ops


WORKLOADS = {
    "extension": extension,
    "rabi": rabi,
    "multilevel": multilevel,
    "cli": cli,
}


def build(workload: str, seed: int, *, toy: bool, in_process: bool, paths: list,
          env: dict) -> list[Op]:
    return WORKLOADS[workload](seed=seed, toy=toy, in_process=in_process, paths=paths, env=env)
