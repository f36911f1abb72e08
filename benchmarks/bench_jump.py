"""Benchmark the stochastic jump kernel.

Builds a two-level Rabi evolution, converts it to per-step cumulative
transition matrices, and times ``sample_paths`` (best of ``--repeat``) for a
few trajectory counts.

Usage:
    python benchmarks/bench_jump.py [--steps 2010] [--walkers 20000 100000]
                                    [--repeat 3] [--seed 0]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from qpt._kernels import sample_paths
from qpt.determinate import ObservableSpec
from qpt.dynamics import EvolutionSpec, _transition_cumulatives, evolve_possibility
from qpt.linalg import ComplexVector, Operator


def build_inputs(steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rabi problem: H = sigma_x / 2, observable = z-basis projectors."""
    h = Operator(np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex))
    psi0 = ComplexVector(np.array([1.0, 0.0], dtype=complex))
    obs = ObservableSpec.from_eigenbasis(
        [np.array([1.0, 0.0]), np.array([0.0, 1.0])], labels=["up", "down"]
    )
    spec = EvolutionSpec(hamiltonian=h, dt=2.0 * np.pi / steps, steps=steps)
    traj = evolve_possibility(psi0, obs, spec)
    cum, p0 = _transition_cumulatives(traj)
    sample_idx = np.arange(0, steps + 1, max(1, steps // 10), dtype=np.int64)
    return cum, p0, sample_idx


def time_kernel(
    cum: np.ndarray,
    p0: np.ndarray,
    walkers: int,
    seed: int,
    repeat: int,
    sample_idx: np.ndarray,
) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        sample_paths(cum, p0, walkers, seed, sample_idx)
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=2010)
    ap.add_argument("--walkers", type=int, nargs="+", default=[20_000, 100_000])
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cum, p0, sample_idx = build_inputs(args.steps)
    print(f"steps={args.steps}  labels={cum.shape[1]}  repeat={args.repeat}")
    print(f"{'walkers':>10}  {'time (s)':>10}  {'walker-steps/s':>14}")
    for n in args.walkers:
        t = time_kernel(cum, p0, n, args.seed, args.repeat, sample_idx)
        print(f"{n:>10}  {t:>10.4f}  {n * args.steps / t:>14.3g}")


if __name__ == "__main__":
    main()
