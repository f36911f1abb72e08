"""Dual dynamics: unitary evolution of the possibility structure, and a
stochastic jump process for the selected property state riding on top of it.

The possibility structure at each instant is the determinate sublattice
``D(psi_t, R)`` for a fixed observable ``R``; its projected rays move with the
state.  The selected label follows a Markov jump process whose rates are built
from the probability currents

    J[i, j](t) = 2 * Im <psi_t| P_i H P_j |psi_t>,

so that single-time marginals of the process reproduce the weights
``w_i(t) = ||P_i psi_t||^2`` in the small-step limit.  A walker on label j
jumps to i at rate ``max(J[i, j], 0) / w_j``: the minimal jump rates of
J. S. Bell, "Beables for quantum field theory" (1984), and J. C. Vink,
"Quantum mechanics in terms of discrete beables", Phys. Rev. A 48 (1993).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from ._kernels import sample_paths
from .determinate import DeterminateSublattice, ObservableSpec, build_determinate
from .errors import DimMismatch, LabelDiscontinuity, NotHermitian
from .linalg import DEFAULT_TOL, ComplexVector, Operator, Tolerance

__all__ = [
    "EvolutionSpec",
    "PossibilityTrajectory",
    "PropertyTrajectory",
    "MarginalSample",
    "default_timestep",
    "evolve_possibility",
    "jump_process",
    "sample_marginals",
    "trajectory_rows",
]

#: a label counts as present at an instant when its weight reaches this value
PRESENCE_CUTOFF = 1e-9

#: minimum squared overlap between consecutive snapshots of the same label's
#: projected ray before the step is rejected as discontinuous
MIN_RAY_OVERLAP_SQ = 0.5


def default_timestep(hamiltonian: Operator) -> float:
    """A step small on the scale set by the generator: 0.01 / ||H||."""
    return 0.01 / max(hamiltonian.spectral_norm(), 1e-12)


@dataclass(frozen=True)
class EvolutionSpec:
    """A Hamiltonian together with a step size and step count."""

    hamiltonian: Operator
    dt: float
    steps: int
    tol: Tolerance = DEFAULT_TOL

    def __post_init__(self) -> None:
        if not self.hamiltonian.is_hermitian(self.tol):
            raise NotHermitian("evolution generator must be Hermitian")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    def step_unitary(self) -> Operator:
        return Operator(scipy.linalg.expm(-1j * self.dt * self.hamiltonian.entries))


@dataclass(frozen=True)
class PossibilityTrajectory:
    """Snapshots of the determinate sublattice under unitary evolution.

    ``psis[t]`` is the (unit) state at time ``times[t]``; ``sublattices[t]``
    is ``D(psis[t], observable)``.  The observable is fixed throughout.
    """

    spec: EvolutionSpec
    observable: ObservableSpec
    times: np.ndarray
    psis: np.ndarray  # (steps + 1, dim) complex
    tol: Tolerance = DEFAULT_TOL  # for building the sublattices

    @property
    def labels(self) -> tuple[str, ...]:
        return self.observable.labels

    @cached_property
    def sublattices(self) -> tuple[DeterminateSublattice, ...]:
        """``D(psis[t], observable)`` for every snapshot, built on first use."""
        return tuple(
            build_determinate(ComplexVector(psi), self.observable, tol=self.tol)
            for psi in self.psis
        )

    @cached_property
    def weights(self) -> np.ndarray:
        """(steps + 1, k) array of ||P_i psi_t||^2, aligned with labels."""
        projs = [s.projector() for s in self.observable.eigenprojectors]
        out = np.empty((self.psis.shape[0], len(projs)))
        for i, p in enumerate(projs):
            x = self.psis @ p.T
            out[:, i] = np.einsum("td,td->t", x, x.conj()).real
        return out


def evolve_possibility(
    psi0: ComplexVector,
    observable: ObservableSpec,
    spec: EvolutionSpec,
    *,
    tol: Tolerance = DEFAULT_TOL,
) -> PossibilityTrajectory:
    dim = observable.eigenprojectors[0].ambient_dim
    if psi0.dim != dim or spec.hamiltonian.entries.shape[0] != dim:
        raise DimMismatch(
            f"state dim {psi0.dim}, generator dim "
            f"{spec.hamiltonian.entries.shape[0]}, observable dim {dim}"
        )
    u = spec.step_unitary().entries
    psis = np.empty((spec.steps + 1, dim), dtype=np.complex128)
    psis[0] = psi0.normalized().amplitudes
    for t in range(spec.steps):
        nxt = u @ psis[t]
        psis[t + 1] = nxt / np.linalg.norm(nxt)
    times = spec.dt * np.arange(spec.steps + 1)
    return PossibilityTrajectory(spec, observable, times, psis, tol)


def _currents(traj: PossibilityTrajectory) -> np.ndarray:
    """(steps, k, k) antisymmetric currents J[t, i, j] at the left endpoint."""
    projs = [s.projector() for s in traj.observable.eigenprojectors]
    h = traj.spec.hamiltonian.entries
    k = len(projs)
    steps = traj.spec.steps
    psis = traj.psis[:steps]
    # x[t, i, :] = P_i psi_t; left endpoint of each step
    x = np.stack([psis @ p.T for p in projs], axis=1)
    hx = x @ h.T  # hx[t, j] = H @ x[t, j]
    inner = np.einsum("tid,tjd->tij", x.conj(), hx)
    return 2.0 * inner.imag


def _transition_cumulatives(traj: PossibilityTrajectory) -> tuple[np.ndarray, np.ndarray]:
    """Per-step cumulative transition rows and the initial label distribution.

    Raises LabelDiscontinuity when a label's projected ray turns over too
    fast between steps (squared overlap below MIN_RAY_OVERLAP_SQ), or when a
    populated label vanishes with no outgoing current to carry its weight.
    Labels may appear (weight rising from zero) or vanish through a positive
    outflow; absent labels get frozen placeholder rows, which no walker can
    occupy.
    """
    w = traj.weights
    j = _currents(traj)
    steps, k = traj.spec.steps, w.shape[1]
    dt = traj.spec.dt
    present = w >= PRESENCE_CUTOFF

    projs = [s.projector() for s in traj.observable.eigenprojectors]
    for t in range(steps):
        both = present[t] & present[t + 1]
        for i in np.nonzero(both)[0]:
            a = projs[i] @ traj.psis[t]
            b = projs[i] @ traj.psis[t + 1]
            ovl = abs(np.vdot(a, b)) ** 2 / (w[t, i] * w[t + 1, i])
            if ovl < MIN_RAY_OVERLAP_SQ:
                raise LabelDiscontinuity(
                    f"projected ray for label {traj.labels[i]!r} turned over "
                    f"between steps (squared overlap {ovl:.3g})",
                    step=t + 1,
                )

    cum = np.zeros((steps, k, k))
    for t in range(steps):
        m = np.zeros((k, k))
        for col in range(k):
            if not present[t, col]:
                m[col, col] = 1.0  # placeholder row; unreachable
                continue
            move = dt * np.clip(j[t, :, col], 0.0, None) / w[t, col]
            move[col] = 0.0
            total = move.sum()
            if not present[t + 1, col]:
                if total <= 0.0:
                    raise LabelDiscontinuity(
                        f"label {traj.labels[col]!r} vanishes with no "
                        "outgoing current",
                        step=t + 1,
                    )
                m[col] = move / total  # all weight must leave this step
                continue
            if total > 1.0:
                move /= total  # forced-jump regime: step too coarse to stay
                total = 1.0
            m[col] = move
            m[col, col] = 1.0 - total
        cum[t] = np.cumsum(m, axis=1)
        cum[t, :, -1] = 1.0
    p0 = np.where(present[0], w[0], 0.0)
    return cum, p0 / p0.sum()


@dataclass(frozen=True)
class PropertyTrajectory:
    """One realization of the selected-label jump process."""

    times: np.ndarray
    selected_labels: tuple[str, ...]
    seed: int


@dataclass(frozen=True)
class MarginalSample:
    """Label counts of an ensemble of jump-process realizations."""

    times: np.ndarray
    labels: tuple[str, ...]
    counts: np.ndarray  # (len(times), k) int64
    n_trajectories: int
    seed: int
    expected: np.ndarray = field(repr=False)  # weights at the sampled times

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / self.n_trajectories

    def total_variation(self) -> np.ndarray:
        """Per-time total-variation distance between frequencies and weights."""
        return 0.5 * np.abs(self.frequencies - self.expected).sum(axis=1)


def jump_process(traj: PossibilityTrajectory, seed: int) -> PropertyTrajectory:
    """Sample a single property-state trajectory over the full time grid."""
    cum, p0 = _transition_cumulatives(traj)
    idx = np.arange(traj.spec.steps + 1, dtype=np.int64)
    path = sample_paths(cum, p0, 1, seed, idx)[:, 0]
    labels = tuple(traj.labels[int(i)] for i in path)
    return PropertyTrajectory(traj.times.copy(), labels, seed)


def sample_marginals(
    traj: PossibilityTrajectory,
    seed: int,
    n_trajectories: int,
    sample_indices: "np.ndarray | None" = None,
) -> MarginalSample:
    """Sample an ensemble and tabulate label counts at the given time indices
    (default: every step)."""
    cum, p0 = _transition_cumulatives(traj)
    k = cum.shape[1]
    if sample_indices is None:
        sample_indices = np.arange(traj.spec.steps + 1, dtype=np.int64)
    idx = np.asarray(sample_indices, dtype=np.int64)
    paths = sample_paths(cum, p0, n_trajectories, seed, idx)
    counts = np.stack([np.bincount(row, minlength=k) for row in paths])
    return MarginalSample(
        times=traj.times[idx],
        labels=traj.labels,
        counts=counts,
        n_trajectories=n_trajectories,
        seed=seed,
        expected=traj.weights[idx],
    )


def trajectory_rows(
    ptraj: PropertyTrajectory, traj: PossibilityTrajectory
) -> list[str]:
    """Tab-separated rows (time, selected label, comma-joined weight vector)."""
    rows = []
    for t in range(len(ptraj.times)):
        probs = ",".join(f"{p:.10g}" for p in traj.weights[t])
        rows.append(f"{ptraj.times[t]:.10g}\t{ptraj.selected_labels[t]}\t{probs}")
    return rows
