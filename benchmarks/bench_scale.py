"""Scale sweep of the ``qpt`` command, then the layer rows, in process.

The sweep runs each row of ``ROWS`` as ``python -m qpt ... --format json`` in
a cold child process, one child at a time, at doubling sizes up to the row's
ceiling. Per size it prints the exit code, the wall time and that child's
max RSS from ``os.wait4`` (``RUSAGE_CHILDREN`` keeps the maximum over all
children, so it cannot give one child's peak). On Linux a child's max RSS
starts from its parent's peak, copied at fork and kept at exec, so this
process stays small (the RSS floor it prints) and writes no ray file
itself. A row stops at the first run
over ``BUDGET`` seconds, a nonzero exit, a run killed at ``KILL_FACTOR`` budgets
(``timeout``), its ceiling, or a next size whose extrapolated wall exceeds
the kill time or whose extrapolated RSS exceeds ``RSS_CAP``. The row's
exponent is the least-squares slope of log(wall - cold start) on log(size)
over the sizes whose wall is at least twice the cold start, the least of
``COLD_RUNS`` runs of ``python -m qpt --help``. Its largest size within the
budget (else its first) runs again under two BLAS threads and another hash
seed: ``qpt.__main__`` pins one BLAS thread, so stdout, and the TSV where
there is one, should agree byte for byte.

The layer rows, best of ``REPEAT`` with ``tracemalloc`` peaks, are:

- each closure round of the (4, 1) maximality probe that ``extend_and_check``
  runs (seed ``SEED``, budget 512): results, wall and process CPU seconds,
  the seconds in ``_emit`` (dedup lookup and bookkeeping) and ``_angles``
  (the batched SVDs), each round's peak and the bytes held per relation;
  then ``_distinct_rays`` on the rays its closure ends with;
- the public ``meet`` and ``join`` on ``PAIRS`` random pairs in dims 3-6;
- ``find_assignment`` on the ks18-d4 and ks33-d3 fixtures, beside the rows
  of the relation table it searches first; ``_two_valued`` on the probe's
  last table; ``local_map_search`` on the singlet's table at the default
  ``qpt chsh`` angles and at ``0,pi/2,0,pi/2``;
- for a Rabi period (k = 2) and a seeded dim-6 chain (k = 6) of ``STEPS``
  steps: ``_transition_cumulatives`` on a fresh trajectory, the one-walker
  walk of ``jump_process``, the peak of a ``WALKERS``-walker walk, and
  ``sample_paths`` walked as one part and with one part per usable CPU.

``large_closure()``, which ``main`` does not run, is the public ``closure``
of ``LARGE_GENERATORS`` random dim-4 subspaces of rank 1 or 2 (seed
``LARGE_SEED``) at budget ``LARGE_BUDGET``: 4,096 elements and 268,296
relations. Trace it with ``traced`` and its rounds with
``traced_rounds(large_generators(), LARGE_BUDGET)``.

Usage:
    python benchmarks/bench_scale.py
"""

from __future__ import annotations

import filecmp
import multiprocessing
import os
import resource
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

import numpy as np

import qpt
from qpt import (
    BudgetExceeded,
    ObservableSpec,
    RaySet,
    Subspace,
    build_determinate,
    closure,
    contains,
    find_assignment,
    join,
    lattice,
    meet,
    nogo,
)
from qpt import _kernels
from qpt.determinate import _distinct_rays, complement_probe_rays
from qpt.dynamics import (
    EvolutionSpec,
    PossibilityTrajectory,
    _transition_cumulatives,
    default_timestep,
    evolve_possibility,
)
from qpt.lattice import _ClosureRun, _two_valued
from qpt.linalg import DEFAULT_TOL, ComplexVector, Operator
from qpt.nogo import ChshSetting, correlation_table, local_map_search, setting_ray_sets, singlet
from qpt.scenarios import N_MAX_EXACT

BUDGET = 2.0  # seconds per command
KILL_FACTOR = 10
RSS_CAP = 2**30
COLD_RUNS = 3
REPEAT = 3
SEED = 0
PAIRS = 200
STEPS = 2010
WALKERS = 20_000
NODE_CAP = 100_000
LARGE_SEED = 5
LARGE_GENERATORS = 4
LARGE_BUDGET = 4096
MIB = 2**20
FIXTURES = Path(qpt.__file__).resolve().parent / "fixtures"
#: the sweep's environment, and the byte check's
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
TWO_THREADS = {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2", "PYTHONHASHSEED": "1"}


def write_rays(path: str, kind: str, d: int) -> None:
    """The standard basis of C^d (kind "e"), or the columns of a seeded
    random unitary, the Q of a complex Gaussian's QR (kind "u"), one per line."""
    rng = np.random.default_rng(SEED)
    rays = np.eye(d) if kind == "e" else np.linalg.qr(
        rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0].T
    np.savetxt(path, rays.astype(np.complex128), fmt=",".join(["%.17g%+.17gj"] * d))


def ray_file(tmp: Path, kind: str, d: int) -> str:
    """The path of ``tmp/{kind}{d}.rays``, written once by a process of its
    own: a child inherits this process's peak RSS as its own max RSS at exec,
    so this process must not grow."""
    path = tmp / f"{kind}{d}.rays"
    if not path.exists():
        proc = multiprocessing.get_context("spawn").Process(
            target=write_rays, args=(str(path), kind, d))
        proc.start()
        proc.join()
        if proc.exitcode != 0:
            raise RuntimeError(f"writing {path.name} failed with exit code {proc.exitcode}")
    return str(path)


#: label, argv after ``python -m qpt`` at size n (ray files go to tmp, the
#: child runs in a directory of its own), first size, ceiling
ROWS = (
    ("ks standard basis", lambda n, tmp: ["ks", "--rays", ray_file(tmp, "e", n)], 64, 2**13),
    ("ks random basis", lambda n, tmp: ["ks", "--rays", ray_file(tmp, "u", n)], 64, 2**13),
    ("determinate --dim", lambda n, tmp: ["determinate", "--dim", str(n)], 16, 2**13),
    ("decohere --n-env", lambda n, tmp: ["decohere", "--n-env", str(n)], 1, 16),
    ("decohere --budget", lambda n, tmp: ["decohere", "--budget", str(n)], 256, 2**16),
    ("correspond --n-max", lambda n, tmp: ["correspond", "--n-max", str(n)], 2**16, N_MAX_EXACT),
    ("teleport --samples", lambda n, tmp: ["teleport", "--samples", str(n)], 10_000, 2**31),
    ("dynamics --steps", lambda n, tmp: ["dynamics", "--steps", str(n)], STEPS, 2**24),
    ("dynamics --trajectories", lambda n, tmp: ["dynamics", "--trajectories", str(n)],
     20_000, 2**24),
    ("dynamics --steps, TSV", lambda n, tmp: ["dynamics", "--steps", str(n),
                                              "--trajectory-out", "path.tsv"], STEPS, 2**24),
)


class Run(NamedTuple):
    status: "int | str"  # the exit code, or "timeout"
    wall: float
    max_rss: int  # bytes
    pid: int


def run_child(argv: list[str], limit: float, cwd: Path, env: dict) -> Run:
    """Run ``argv`` in ``cwd``, its stdout and stderr to files there. A child
    still running after ``limit`` seconds is killed; either way it is reaped
    before this returns."""
    with open(cwd / "stdout", "wb") as out, open(cwd / "stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
    status = "timeout"
    try:
        while time.perf_counter() - t0 < limit:
            pid, code, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                wall, status = time.perf_counter() - t0, os.waitstatus_to_exitcode(code)
                break
            time.sleep(0.002)
    finally:
        if status == "timeout":  # os.kill, not proc.kill, which may reap the child itself
            os.kill(proc.pid, signal.SIGKILL)
            _, code, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(code)  # reaped here, not by Popen
    return Run(status, wall, usage.ru_maxrss * 1024, proc.pid)  # KiB on Linux


def run_qpt(argv: list[str], limit: float, cwd: Path, extra_env: dict) -> Run:
    """``python -m qpt *argv``, with the ``qpt`` this script imported first on the path."""
    src = str(Path(qpt.__file__).resolve().parent.parent)
    env = {**os.environ, **extra_env,
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    cwd.mkdir()
    return run_child([sys.executable, "-m", "qpt", *argv], limit, cwd, env)


def exponent(runs: list[tuple[int, Run]], cold: float) -> "float | None":
    """Slope of log(wall - cold) on log(size) over the finished runs of wall >= 2 cold."""
    fit = [(n, r.wall) for n, r in runs if r.status == 0 and r.wall >= 2 * cold]
    if len(fit) < 2:
        return None
    return float(np.polyfit(np.log([n for n, _ in fit]), np.log([w - cold for _, w in fit]), 1)[0])


def sweep_row(name, argv_at, first, ceiling, cold: float, tmp: Path) -> None:
    kill, runs, n, stop = KILL_FACTOR * BUDGET, [], first, None
    while stop is None:
        run = run_qpt([*argv_at(n, tmp), "--format", "json"], kill, tmp / str(len(runs)),
                      ONE_THREAD)
        runs.append((n, run))
        print(f"{name:<24}  {n:>10}  {run.status:>7}  {run.wall:>9.3f}  {run.max_rss / MIB:>9.1f}")
        nxt, e = min(2 * n, ceiling), exponent(runs, cold)
        if run.status != 0:
            err = (tmp / str(len(runs) - 1) / "stderr").read_text(errors="replace").splitlines()
            stop = ("timeout" if run.status == "timeout"
                    else " ".join([f"exit {run.status}", *err[-1:]]))
        elif run.wall > BUDGET:
            stop = "over budget"
        elif n == ceiling:
            stop = "ceiling"
        elif e is not None and cold + (run.wall - cold) * (nxt / n) ** e > kill:
            stop = "extrapolated wall over the kill time"
        # the next doubling is taken to grow the RSS by the same ratio as this one
        elif len(runs) > 1 and run.max_rss ** 2 / runs[-2][1].max_rss > RSS_CAP:
            stop = "extrapolated RSS over the cap"
        n = nxt
    i = max((i for i, (_, r) in enumerate(runs) if r.status == 0 and r.wall <= BUDGET), default=0)
    check = run_qpt([*argv_at(runs[i][0], tmp), "--format", "json"], kill, tmp / "check",
                    TWO_THREADS)
    files = sorted(p.name for p in (tmp / str(i)).iterdir() if p.name != "stderr")
    same = check.status == runs[i][1].status and all(
        (tmp / "check" / f).is_file() and filecmp.cmp(tmp / str(i) / f, tmp / "check" / f, False)
        for f in files)
    print(f"{name:<24}  exponent {'-' if e is None else f'{e:.2f}'}, stop: {stop}; bytes at "
          f"{runs[i][0]} on two BLAS threads {'agree' if same else 'DIFFER'} ({', '.join(files)})")


def sweep() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cold = min(run_qpt(["--help"], KILL_FACTOR * BUDGET, Path(tmp) / f"cold{i}",
                           ONE_THREAD).wall
                   for i in range(COLD_RUNS))
        floor = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        print(f"sweep: budget {BUDGET:g} s, kill at {KILL_FACTOR * BUDGET:g} s, RSS cap "
              f"{RSS_CAP / MIB:.0f} MiB, cold start {cold:.3f} s, RSS floor {floor / MIB:.1f} MiB")
        print(f"{'row':<24}  {'size':>10}  {'exit':>7}  {'wall (s)':>9}  {'rss (MiB)':>9}")
        for k, row in enumerate(ROWS):
            (Path(tmp) / f"row{k}").mkdir()
            sweep_row(*row, cold, Path(tmp) / f"row{k}")


def best_of(fn) -> float:
    best = float("inf")
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def traced(fn) -> tuple[object, int]:
    """``fn()``'s result and its ``tracemalloc`` peak in bytes."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@contextmanager
def patched(owner, name: str, value):
    """``owner.name`` set to ``value`` while the block runs."""
    old = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, old)


def timed(fn, spent: dict, key: str, count: str = ""):
    """``fn``, adding its seconds to ``spent[key]`` (and the length of its
    second argument to ``spent[count]``)."""
    def wrapper(*args):
        t0 = time.perf_counter()
        out = fn(*args)
        spent[key] += time.perf_counter() - t0
        if count:
            spent[count] += len(args[1])
        return out
    return wrapper


def random_subspace(dim: int, rank: int, rng: np.random.Generator) -> Subspace:
    z = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    return Subspace.from_vectors(list(z.T), ambient_dim=dim)


def probe_generators(seed: int) -> list[Subspace]:
    """Generators of the (dim 4, rank 1) extension probe: a random state's
    sublattice generators and complement probe rays under the identity
    observable, and a random ray outside the sublattice."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    d = build_determinate(ComplexVector(v / np.linalg.norm(v)), ObservableSpec.identity(4))
    ray = random_subspace(4, 1, rng)
    while contains(d, ray):
        ray = random_subspace(4, 1, rng)
    return d.generators() + complement_probe_rays(d) + [ray]


def time_rounds(gens: list[Subspace]) -> list[list]:
    """[elements before, pairs, elements after, results, best seconds in the
    round, best process CPU seconds in the round, in ``_emit``, in
    ``_angles``] per round, run until a fixpoint or the budget refuses an
    element. ``_emit`` and ``_angles`` are timed by wrapping them, since
    cProfile misattributes time here."""
    best: list[list] = []
    for _ in range(REPEAT):
        run = _ClosureRun(gens, 512, DEFAULT_TOL)
        rows, grew = [], True
        while grew and not run.saturated:
            before, fresh = len(run), len(run) - run._processed
            spent = {"results": 0, "emit": 0.0, "angles": 0.0}
            emit = timed(_ClosureRun._emit, spent, "emit", "results")
            with patched(_ClosureRun, "_emit", emit), \
                    patched(lattice, "_angles", timed(lattice._angles, spent, "angles")):
                t0, c0 = time.perf_counter(), time.process_time()
                grew = run.step()
                t, cpu = time.perf_counter() - t0, time.process_time() - c0
            rows.append([before, fresh * (before - fresh) + fresh * (fresh - 1) // 2, len(run),
                         spent["results"], t, cpu, spent["emit"], spent["angles"]])
        best = rows if not best else [b[:4] + [min(x, y) for x, y in zip(b[4:], r[4:])]
                                      for b, r in zip(best, rows)]
    return best


def traced_rounds(gens: list[Subspace],
                  budget: int = 512) -> tuple[list[int], list[float], _ClosureRun]:
    """The ``tracemalloc`` peak of each round, in bytes above what was
    allocated when the round began, and the bytes the run holds after each
    round beyond its element stacks, per relation, from one run to a
    fixpoint or a refusal; and the finished run."""
    peaks, held, grew = [], [], True
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run = _ClosureRun(gens, budget, DEFAULT_TOL)
        while grew and not run.saturated:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            grew = run.step()
            now, peak = tracemalloc.get_traced_memory()
            peaks.append(peak - before)
            stacks = run._units.nbytes + run._projs.nbytes
            held.append((now - start - stacks) / len(run.relations))
    finally:
        tracemalloc.stop()
    return peaks, held, run


def large_generators() -> list[Subspace]:
    rng = np.random.default_rng(LARGE_SEED)
    return [random_subspace(4, int(rng.integers(1, 3)), rng) for _ in range(LARGE_GENERATORS)]


def large_closure():
    """The public closure of ``large_generators()`` at ``LARGE_BUDGET``, or
    the partial set it carries when the budget stops it."""
    try:
        return closure(large_generators(), LARGE_BUDGET)
    except BudgetExceeded as exc:
        return exc.partial


def closure_rows() -> None:
    print("closure rounds, (4, 1) extension probe, budget 512")
    print(f"{'round':>5}  {'elements':>8}  {'pairs':>7}  {'new':>5}  {'results':>7}  "
          f"{'time (s)':>10}  {'cpu (s)':>10}  {'pairs/s':>10}  {'_emit (s)':>10}  "
          f"{'_angles (s)':>11}  {'peak (MiB)':>10}  {'held/rel (B)':>12}")
    gens = probe_generators(SEED)
    rows = time_rounds(gens)
    peaks, held, run = traced_rounds(gens)
    for r, ((before, pairs, after, results, t, cpu, emit, angles), peak, per) in enumerate(
            zip(rows, peaks, held)):
        print(f"{r:>5}  {before:>8}  {pairs:>7}  {after - before:>5}  {results:>7}  "
              f"{t:>10.4f}  {cpu:>10.4f}  {pairs / t:>10.3g}  {emit:>10.4f}  {angles:>11.4f}  "
              f"{peak / MIB:>10.3f}  {per:>12.1f}")
    total = [sum(r[c] for r in rows) for c in range(8)]
    print(f"{'all':>5}  {'':>8}  {total[1]:>7}  {'':>5}  {total[3]:>7}  "
          f"{total[4]:>10.4f}  {total[5]:>10.4f}  {'':>10}  {total[6]:>10.4f}  "
          f"{total[7]:>11.4f}  {max(peaks) / MIB:>10.3f}")
    cols = run.ray_columns()
    kept, peak = traced(lambda: _distinct_rays(cols))
    print(f"_distinct_rays: {len(cols)} rays, {kept} kept, "
          f"{best_of(lambda: _distinct_rays(cols)):.6f} s, peak {peak / MIB:.3f} MiB")

    print(f"public meet/join, {PAIRS} random pairs per dim")
    print(f"{'dim':>3}  {'meet calls/s':>12}  {'join calls/s':>12}")
    rng = np.random.default_rng(SEED)
    for dim in range(3, 7):
        pairs = [(random_subspace(dim, int(rng.integers(1, dim)), rng),
                  random_subspace(dim, int(rng.integers(1, dim)), rng)) for _ in range(PAIRS)]
        m, j = (PAIRS / best_of(lambda: [op(a, b) for a, b in pairs]) for op in (meet, join))
        print(f"{dim:>3}  {m:>12.4g}  {j:>12.4g}")


def nogo_rows() -> None:
    print("find_assignment, bundled fixtures")
    print(f"{'ray set':>8}  {'rays':>4}  {'contexts':>8}  {'relations':>9}  {'result':>12}  "
          f"{'time (ms)':>9}")
    for name in ("ks18-d4", "ks33-d3"):
        rs = RaySet.from_file(FIXTURES / f"{name}.rays")
        seen = []  # the rows of each table searched; the first is over every context
        with patched(nogo, "_two_valued", lambda n, rels, node_cap: seen.append(len(rels))
                     or _two_valued(n, rels, node_cap)):
            result = type(find_assignment(rs)).__name__
        t = best_of(lambda: find_assignment(rs))
        print(f"{name:>8}  {len(rs.rays):>4}  {len(rs.contexts):>8}  {seen[0]:>9}  "
              f"{result:>12}  {t * 1e3:>9.3f}")

    print("two-valued search, last relation table of the (4, 1) extension probe")
    print(f"{'elements':>8}  {'relations':>9}  {'result':>8}  {'time (ms)':>9}")
    run, grew = _ClosureRun(probe_generators(SEED), 512, DEFAULT_TOL), True
    while grew and not run.saturated:  # until the rounds that extend_and_check searches end
        grew = run.step()
        found = _two_valued(len(run), run.relations, NODE_CAP)
        grew = grew and found is not False
    result = "map" if found else {False: "none", None: "capped"}[found]
    t = best_of(lambda: _two_valued(len(run), run.relations, NODE_CAP))
    print(f"{len(run):>8}  {len(run.relations):>9}  {result:>8}  {t * 1e3:>9.3f}")

    print("local_map_search, singlet tables")
    print(f"{'angles':>28}  {'result':>13}  {'time (ms)':>9}")
    for name, setting in (("default", ChshSetting.optimal()),
                          ("0,pi/2,0,pi/2", ChshSetting((0.0, np.pi / 2), (0.0, np.pi / 2)))):
        rs_a, rs_b = setting_ray_sets(setting)
        table = correlation_table(singlet(), setting)
        result = type(local_map_search(rs_a, rs_b, table)).__name__
        t = best_of(lambda: local_map_search(rs_a, rs_b, table))
        print(f"{name:>28}  {result:>13}  {t * 1e3:>9.3f}")


def rabi_chain():
    """H = sigma_x / 2 over one period, observable = z-basis projectors."""
    h = Operator(np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex))
    obs = ObservableSpec.from_eigenbasis([np.array([1.0, 0.0]), np.array([0.0, 1.0])],
                                         labels=["up", "down"])
    psi0 = ComplexVector(np.array([1.0, 0.0], dtype=complex))
    return psi0, obs, EvolutionSpec(hamiltonian=h, dt=2.0 * np.pi / STEPS, steps=STEPS)


def dim6_chain():
    """Random Hermitian H, maximal observable and start state in dimension 6."""
    rng = np.random.default_rng(SEED)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = Operator((m + m.conj().T) / 2)
    q, r = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    obs = ObservableSpec.from_eigenbasis([q[:, i] for i in range(6)])
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    psi0 = ComplexVector(v / np.linalg.norm(v))
    return psi0, obs, EvolutionSpec(hamiltonian=h, dt=default_timestep(h), steps=STEPS)


def sampler_rows() -> None:
    print(f"sampler chains, {STEPS} steps")
    print(f"{'chain':>6}  {'labels':>6}  {'walkers':>10}  {'CPUs':>4}  {'time (s)':>10}  "
          f"{'walker-steps/s':>14}")
    sample_idx = np.arange(0, STEPS + 1, max(1, STEPS // 10), dtype=np.int64)
    every_step = np.arange(STEPS + 1, dtype=np.int64)
    for name, chain in (("rabi", rabi_chain()), ("dim6", dim6_chain())):
        traj = evolve_possibility(*chain)
        build_s = best_of(lambda: _transition_cumulatives(
            PossibilityTrajectory(traj.spec, traj.observable, traj.times, traj.psis)))
        traj.weights  # the peak below is of building the rows from cached weights
        (cum, p0), peak = traced(lambda: _transition_cumulatives(traj))
        print(f"{name:>6}  _transition_cumulatives {build_s:.4f} s, "
              f"tracemalloc peak {peak / MIB:.2f} MiB (cum {cum.nbytes / MIB:.2f} MiB)")

        def walk(walkers, idx):
            return _kernels.sample_paths(cum, p0, walkers, SEED, idx)

        walk_s, peak = best_of(lambda: walk(1, every_step)), traced(lambda: walk(1, every_step))[1]
        print(f"{name:>6}  jump_process walk {walk_s:.4f} s, "
              f"tracemalloc peak {peak / MIB:.2f} MiB (cum {cum.nbytes / MIB:.2f} MiB)")
        out, peak = traced(lambda: walk(WALKERS, sample_idx))
        print(f"{name:>6}  ensemble walk {WALKERS} walkers, tracemalloc peak "
              f"{peak / MIB:.2f} MiB (out {out.nbytes / MIB:.2f} MiB)")
        for cpus in (1, _kernels._usable_cpus()):
            with patched(_kernels, "_usable_cpus", lambda: cpus):
                t = best_of(lambda: walk(WALKERS, sample_idx))
            print(f"{name:>6}  {cum.shape[1]:>6}  {WALKERS:>10}  {cpus:>4}  {t:>10.4f}  "
                  f"{WALKERS * STEPS / t:>14.3g}")


def main() -> None:
    sweep()
    print(f"layer rows, in process, best of {REPEAT}, seed {SEED}")
    closure_rows()
    nogo_rows()
    sampler_rows()


if __name__ == "__main__":
    main()
