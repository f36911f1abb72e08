"""Benchmark the lattice layer: closure rounds and single meet/join calls.

Times, best of ``--repeat``:

- each ``_ClosureRun.step`` round of the (4, 1) maximality probe that
  ``extend_and_check`` runs: a random dim-4 state under the identity
  observable, its sublattice generators and complement probe rays, plus a
  random ray outside the sublattice, all drawn from seed ``SEED``, budget 512;
- the public ``meet`` and ``join`` on ``PAIRS`` random pairs of subspaces of
  random rank in each of dims 3-6, as calls per second.

Usage:
    python benchmarks/bench_closure.py [--repeat 5]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from qpt import ObservableSpec, Subspace, build_determinate, contains, join, meet
from qpt.determinate import complement_probe_rays
from qpt.lattice import _ClosureRun
from qpt.linalg import DEFAULT_TOL, ComplexVector

SEED = 0
PAIRS = 200


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


def time_rounds(gens: list[Subspace], repeat: int) -> list[list]:
    """[elements before, pairs, elements after, best seconds] per round, run
    until a fixpoint or the budget refuses an element."""
    best: list[list] = []
    for _ in range(repeat):
        run = _ClosureRun(gens, 512, DEFAULT_TOL)
        rows, grew = [], True
        while grew and not run.saturated:
            before, fresh = len(run), len(run) - run._processed
            t0 = time.perf_counter()
            grew = run.step()
            rows.append([before, fresh * (before - fresh) + fresh * (fresh - 1) // 2, len(run),
                         time.perf_counter() - t0])
        best = rows if not best else [b[:3] + [min(b[3], r[3])] for b, r in zip(best, rows)]
    return best


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
    print(f"{'round':>5}  {'elements':>8}  {'pairs':>7}  {'new':>5}  {'time (s)':>10}  {'pairs/s':>10}")
    rows = time_rounds(probe_generators(SEED), args.repeat)
    for r, (before, pairs, after, t) in enumerate(rows):
        print(f"{r:>5}  {before:>8}  {pairs:>7}  {after - before:>5}  {t:>10.4f}  {pairs / t:>10.3g}")
    print(f"{'all':>5}  {'':>8}  {sum(r[1] for r in rows):>7}  {'':>5}  {sum(r[3] for r in rows):>10.4f}")

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
