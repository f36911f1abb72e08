"""Benchmark the stochastic jump kernel.

Builds two evolutions, converts each to per-step cumulative transition
matrices (printing the time of ``_transition_cumulatives`` and its
``tracemalloc`` peak), prints the time and ``tracemalloc`` peak of the walk
``jump_process`` makes (one walker over every step) and the ``tracemalloc``
peak of the ensemble walk (the largest ``--walkers`` count at the sample
indices below), and times ``sample_paths`` (best of ``--repeat``) for a few
trajectory counts, twice: walked as one part (``_usable_cpus`` set to 1)
and with the default part count (the CPUs this process may use, shown in
the ``CPUs`` column; only a two-label walk splits into parts):

- ``rabi``: a two-level Rabi period (k = 2), where each step compares all
  uniforms with two scalar thresholds and selects each walker's bit;
- ``dim6``: a random Hermitian H in dimension 6 with a random maximal
  observable (k = 6) and start state, drawn from ``--seed``, stepped at
  ``default_timestep``.  Most walkers stay on their label each step, so the
  stay test carries most of the walk.

Usage:
    python benchmarks/bench_jump.py [--steps 2010] [--walkers 20000 100000]
                                    [--repeat 3] [--seed 0]
"""

from __future__ import annotations

import argparse
import time
import tracemalloc

import numpy as np

from qpt import _kernels
from qpt._kernels import sample_paths
from qpt.determinate import ObservableSpec
from qpt.dynamics import (
    EvolutionSpec,
    _transition_cumulatives,
    default_timestep,
    evolve_possibility,
)
from qpt.linalg import ComplexVector, Operator


def rabi_spec(steps: int):
    """H = sigma_x / 2 over one period, observable = z-basis projectors."""
    h = Operator(np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex))
    psi0 = ComplexVector(np.array([1.0, 0.0], dtype=complex))
    obs = ObservableSpec.from_eigenbasis(
        [np.array([1.0, 0.0]), np.array([0.0, 1.0])], labels=["up", "down"]
    )
    return psi0, obs, EvolutionSpec(hamiltonian=h, dt=2.0 * np.pi / steps, steps=steps)


def dim6_spec(steps: int, seed: int):
    """Random Hermitian H, maximal observable and start state in dimension 6."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = Operator((m + m.conj().T) / 2)
    q, r = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    obs = ObservableSpec.from_eigenbasis([q[:, i] for i in range(6)])
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    psi0 = ComplexVector(v / np.linalg.norm(v))
    return psi0, obs, EvolutionSpec(hamiltonian=h, dt=default_timestep(h), steps=steps)


def build_inputs(psi0, obs, spec) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, int]:
    """The chain's rows, its sample indices, the time of the first build of
    the rows (the weights included) and the traced peak (bytes) of building
    them again from the cached weights."""
    traj = evolve_possibility(psi0, obs, spec)
    t0 = time.perf_counter()
    cum, p0 = _transition_cumulatives(traj)
    build_s = time.perf_counter() - t0
    tracemalloc.start()
    try:
        _transition_cumulatives(traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sample_idx = np.arange(0, spec.steps + 1, max(1, spec.steps // 10), dtype=np.int64)
    return cum, p0, sample_idx, build_s, peak


def traced_walk(
    cum: np.ndarray,
    p0: np.ndarray,
    walkers: int,
    seed: int,
    sample_idx: np.ndarray,
) -> tuple[int, int]:
    """Traced peak (bytes) of one ``sample_paths`` call, and the size of the
    labels it returns."""
    tracemalloc.start()
    try:
        out = sample_paths(cum, p0, walkers, seed, sample_idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, out.nbytes


def one_walk(cum: np.ndarray, p0: np.ndarray, seed: int) -> tuple[float, int]:
    """Time and traced peak (bytes) of one walker over every step, the walk
    of ``jump_process``; the peak comes from a second, traced walk."""
    idx = np.arange(cum.shape[0] + 1, dtype=np.int64)
    t0 = time.perf_counter()
    sample_paths(cum, p0, 1, seed, idx)
    secs = time.perf_counter() - t0
    return secs, traced_walk(cum, p0, 1, seed, idx)[0]


def time_kernel(
    cum: np.ndarray,
    p0: np.ndarray,
    walkers: int,
    seed: int,
    repeat: int,
    sample_idx: np.ndarray,
    cpus: int,
) -> float:
    """Best time of ``repeat`` ``sample_paths`` calls, walked as if the
    process could use ``cpus`` CPUs."""
    usable = _kernels._usable_cpus
    _kernels._usable_cpus = lambda: cpus
    try:
        best = float("inf")
        for _ in range(repeat):
            t0 = time.perf_counter()
            sample_paths(cum, p0, walkers, seed, sample_idx)
            best = min(best, time.perf_counter() - t0)
    finally:
        _kernels._usable_cpus = usable
    return best


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=2010)
    ap.add_argument("--walkers", type=int, nargs="+", default=[20_000, 100_000])
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(f"steps={args.steps}  repeat={args.repeat}  seed={args.seed}")
    print(f"{'chain':>6}  {'labels':>6}  {'walkers':>10}  {'CPUs':>4}  {'time (s)':>10}  "
          f"{'walker-steps/s':>14}")
    chains = (("rabi", rabi_spec(args.steps)), ("dim6", dim6_spec(args.steps, args.seed)))
    for name, chain in chains:
        cum, p0, sample_idx, build_s, peak = build_inputs(*chain)
        k = cum.shape[1]
        print(f"{name:>6}  _transition_cumulatives {build_s:.4f} s, "
              f"tracemalloc peak {peak / 2**20:.2f} MiB (cum {cum.nbytes / 2**20:.2f} MiB)")
        walk_s, walk_peak = one_walk(cum, p0, args.seed)
        print(f"{name:>6}  jump_process walk {walk_s:.4f} s, "
              f"tracemalloc peak {walk_peak / 2**20:.2f} MiB (cum {cum.nbytes / 2**20:.2f} MiB)")
        most = max(args.walkers)
        ens_peak, out_nbytes = traced_walk(cum, p0, most, args.seed, sample_idx)
        print(f"{name:>6}  ensemble walk {most} walkers, tracemalloc peak "
              f"{ens_peak / 2**20:.2f} MiB (out {out_nbytes / 2**20:.2f} MiB)")
        for n in args.walkers:
            for cpus in (1, _kernels._usable_cpus()):
                t = time_kernel(cum, p0, n, args.seed, args.repeat, sample_idx, cpus)
                print(f"{name:>6}  {k:>6}  {n:>10}  {cpus:>4}  {t:>10.4f}  "
                      f"{n * args.steps / t:>14.3g}")


if __name__ == "__main__":
    main()
