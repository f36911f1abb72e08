"""Benchmark the lattice layer: closure rounds and single meet/join calls.

Times, best of ``--repeat``:

- each ``_ClosureRun.step`` round of the (4, 1) maximality probe that
  ``extend_and_check`` runs: a random dim-4 state under the identity
  observable, its sublattice generators and complement probe rays, plus a
  random ray outside the sublattice, all drawn from seed ``SEED``, budget 512;
  in wall and in process CPU seconds (CPU above wall is time spent in extra
  BLAS threads), with the results the round emitted and the time spent in
  ``_emit`` (the dedup lookup and bookkeeping) and in ``_angles`` (the batched
  SVDs), timed by wrapping both functions, since cProfile misattributes time
  here;
- the ``tracemalloc`` peak of each of those rounds above what was allocated
  when it began, and the bytes the run holds after it beyond its element
  stacks, per relation recorded so far, from one more run of its own
  (tracing slows the rounds, so the timed runs are untraced), and the time
  and ``tracemalloc`` peak of ``_distinct_rays`` on the rank-1 elements the
  probe's closure ends with;
- the public ``meet`` and ``join`` on ``PAIRS`` random pairs of subspaces of
  random rank in each of dims 3-6, as calls per second.

``large_closure()`` is a closure far larger than the extension workload
reaches: the public ``closure`` of ``LARGE_GENERATORS`` random dim-4
subspaces of rank 1 or 2 (seed ``LARGE_SEED``) at budget ``LARGE_BUDGET``,
4,096 elements and 268,296 relations. It takes seconds, so ``main`` does not
run it; trace it with ``cost_of`` and its rounds with
``traced_rounds(large_generators(), LARGE_BUDGET)``.

Usage:
    python benchmarks/bench_closure.py [--repeat 5]
"""

from __future__ import annotations

import argparse
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

from qpt import (
    BudgetExceeded,
    ObservableSpec,
    Subspace,
    build_determinate,
    closure,
    contains,
    join,
    lattice,
    meet,
)
from qpt.determinate import _distinct_rays, complement_probe_rays
from qpt.lattice import _ClosureRun
from qpt.linalg import DEFAULT_TOL, ComplexVector

SEED = 0
PAIRS = 200
LARGE_SEED = 5
LARGE_GENERATORS = 4
LARGE_BUDGET = 4096
MIB = 2**20


def random_subspace(dim: int, rank: int, rng: np.random.Generator) -> Subspace:
    z = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    return Subspace.from_vectors(list(z.T), ambient_dim=dim)


def probe_generators(seed: int) -> list[Subspace]:
    """Generators of the (dim 4, rank 1) extension probe."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    d = build_determinate(ComplexVector(v / np.linalg.norm(v)), ObservableSpec.identity(4))
    ray = random_subspace(4, 1, rng)
    while contains(d, ray):
        ray = random_subspace(4, 1, rng)
    return d.generators() + complement_probe_rays(d) + [ray]


@contextmanager
def timed_layers(spent: dict):
    """Add the results ``_emit`` records and the seconds spent in ``_emit``
    and ``_angles`` to ``spent`` while the block runs."""
    emit, angles = _ClosureRun._emit, lattice._angles

    def timed_emit(run, ops, *args):
        t0 = time.perf_counter()
        rows = emit(run, ops, *args)
        spent["results"] += len(ops)
        spent["emit"] += time.perf_counter() - t0
        return rows

    def timed_angles(*args):
        t0 = time.perf_counter()
        out = angles(*args)
        spent["angles"] += time.perf_counter() - t0
        return out

    _ClosureRun._emit, lattice._angles = timed_emit, timed_angles
    try:
        yield
    finally:
        _ClosureRun._emit, lattice._angles = emit, angles


def time_rounds(gens: list[Subspace], repeat: int) -> list[list]:
    """[elements before, pairs, elements after, results, best seconds in the
    round, best process CPU seconds in the round, in ``_emit``, in
    ``_angles``] per round, run until a fixpoint or the budget refuses an
    element."""
    best: list[list] = []
    for _ in range(repeat):
        run = _ClosureRun(gens, 512, DEFAULT_TOL)
        rows, grew = [], True
        while grew and not run.saturated:
            before, fresh = len(run), len(run) - run._processed
            spent = {"results": 0, "emit": 0.0, "angles": 0.0}
            with timed_layers(spent):
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


def cost_of(call, repeat: int) -> tuple[object, float, int]:
    """``call()``'s result and ``tracemalloc`` peak in bytes, from a first,
    traced call, and its best seconds over ``repeat`` more, untraced calls."""
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return out, best, peak


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


def time_pairs(op, pairs, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for a, b in pairs:
            op(a, b)
        best = min(best, time.perf_counter() - t0)
    return len(pairs) / best


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()

    print(f"repeat={args.repeat}  seed={SEED}")
    print("closure rounds, (4, 1) extension probe, budget 512")
    print(f"{'round':>5}  {'elements':>8}  {'pairs':>7}  {'new':>5}  {'results':>7}  "
          f"{'time (s)':>10}  {'cpu (s)':>10}  {'pairs/s':>10}  {'_emit (s)':>10}  "
          f"{'_angles (s)':>11}  {'peak (MiB)':>10}  {'held/rel (B)':>12}")
    gens = probe_generators(SEED)
    rows = time_rounds(gens, args.repeat)
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
    kept, t, peak = cost_of(lambda: _distinct_rays(cols), args.repeat)
    print(f"_distinct_rays: {len(cols)} rays, {kept} kept, {t:.6f} s, "
          f"peak {peak / MIB:.3f} MiB")

    print(f"public meet/join, {PAIRS} random pairs per dim")
    print(f"{'dim':>3}  {'meet calls/s':>12}  {'join calls/s':>12}")
    rng = np.random.default_rng(SEED)
    for dim in range(3, 7):
        pairs = [(random_subspace(dim, int(rng.integers(1, dim)), rng),
                  random_subspace(dim, int(rng.integers(1, dim)), rng))
                 for _ in range(PAIRS)]
        m = time_pairs(meet, pairs, args.repeat)
        j = time_pairs(join, pairs, args.repeat)
        print(f"{dim:>3}  {m:>12.4g}  {j:>12.4g}")


if __name__ == "__main__":
    main()
