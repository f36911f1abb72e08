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

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from ._kernels import sample_index_array, sample_paths
from .errors import DimMismatch, LabelDiscontinuity, NotHermitian
from .linalg import DEFAULT_TOL, ComplexVector, Operator, Tolerance

if TYPE_CHECKING:
    from .determinate import ObservableSpec

# PRESENCE_CUTOFF and MIN_RAY_OVERLAP_SQ are fixed structural constants of the
# jump chain, not comparison tolerances: ``--eps`` (``Tolerance``) governs
# neither.  They decide which labels get placeholder rows and which
# trajectories are rejected, so changing one changes the sampled paths that a
# seed fixes.

#: a label counts as present at an instant when its weight reaches this value
PRESENCE_CUTOFF = 1e-9

#: minimum squared overlap between consecutive snapshots of the same label's
#: projected ray before the step is rejected as discontinuous
MIN_RAY_OVERLAP_SQ = 0.5

#: the weights and transition rows are built this many steps at a time, so
#: their temporaries are (_BLOCK, k, ·) arrays, not full-length ones; every
#: step's arithmetic is the same at any block length
_BLOCK = 256


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


@dataclass(frozen=True)
class PossibilityTrajectory:
    """Snapshots of the determinate sublattice under unitary evolution.

    ``psis[t]`` is the state at time ``times[t]``, of unit norm up to
    rounding.  The observable is fixed throughout.
    """

    spec: EvolutionSpec
    observable: ObservableSpec
    times: np.ndarray
    psis: np.ndarray  # (steps + 1, dim) complex

    @property
    def labels(self) -> tuple[str, ...]:
        return self.observable.labels

    @property
    def _projected(self) -> np.ndarray:
        """(steps + 1, k, dim) projected states x[t, i] = P_i psi_t, built
        anew on each read: nothing keeps this array, the largest of the chain's
        inputs.  Each label takes one full-length product; a product split by
        rows can round differently."""
        projs = [s.projector() for s in self.observable.eigenprojectors]
        x = np.empty((len(self.psis), len(projs), self.psis.shape[1]), dtype=np.complex128)
        for i, p in enumerate(projs):
            x[:, i] = self.psis @ p.T
        return x

    @cached_property
    def weights(self) -> np.ndarray:
        """(steps + 1, k) array of ||P_i psi_t||^2, aligned with labels."""
        x = self._projected
        w = np.empty(x.shape[:2])
        for lo in range(0, len(x), _BLOCK):
            xb = x[lo:lo + _BLOCK]
            w[lo:lo + _BLOCK] = np.einsum("tid,tid->ti", xb, xb.conj()).real
        return w

    @cached_property
    def _chain(self) -> tuple[np.ndarray, np.ndarray]:
        """The jump chain ``(cum, p0)`` of ``_transition_cumulatives``, built
        once and walked by every sampler of this trajectory."""
        return _transition_cumulatives(self)


def evolve_possibility(
    psi0: ComplexVector,
    observable: ObservableSpec,
    spec: EvolutionSpec,
) -> PossibilityTrajectory:
    """Evolve ``psi0`` (normalised first) under ``spec`` from one
    eigendecomposition ``H = V diag(lam) V^H``:
    ``psis[t] = V (exp(-i lam times[t]) * V^H psi0)``, with no step-by-step
    propagation, so rounding does not accumulate over the steps.  ``H`` is
    replaced by its Hermitian part ``(H + H^H) / 2``, which is ``H`` itself
    when it is exactly Hermitian.  Each entry of ``psis`` is a sum over the
    eigen-index in index order, so filling ``_BLOCK`` times at a time moves
    no byte."""
    dim = observable.eigenprojectors[0].ambient_dim
    h = spec.hamiltonian.entries
    if psi0.dim != dim or h.shape[0] != dim:
        raise DimMismatch(
            f"state dim {psi0.dim}, generator dim {h.shape[0]}, observable dim {dim}"
        )
    lam, v = np.linalg.eigh((h + h.conj().T) / 2)
    c = v.conj().T @ psi0.normalized(spec.tol).amplitudes
    times = spec.dt * np.arange(spec.steps + 1)
    psis = np.zeros((spec.steps + 1, dim), dtype=np.complex128)
    for lo in range(0, len(times), _BLOCK):
        ph = np.exp(-1j * np.multiply.outer(times[lo:lo + _BLOCK], lam))
        blk = psis[lo:lo + _BLOCK]
        for j in range(dim):
            blk += (ph[:, j] * c[j])[:, None] * v[:, j]
    return PossibilityTrajectory(spec, observable, times, psis)


def _currents(traj: PossibilityTrajectory, x: np.ndarray) -> np.ndarray:
    """(len(x), k, k) antisymmetric currents J[t, i, j] at the projected
    states ``x``, a run of time slices of ``traj._projected``."""
    hx = x @ traj.spec.hamiltonian.entries.T  # hx[t, j] = H @ x[t, j]
    inner = np.einsum("tid,tjd->tij", x.conj(), hx)
    return 2.0 * inner.imag


def _transition_cumulatives(traj: PossibilityTrajectory) -> tuple[np.ndarray, np.ndarray]:
    """Per-step cumulative transition rows and the initial label distribution.

    Raises LabelDiscontinuity when a label's projected ray turns over too
    fast between steps (squared overlap below MIN_RAY_OVERLAP_SQ), or when a
    populated label vanishes with no outgoing current to carry its weight;
    at the first step where either happens, and there at the first offending
    label, a turn-over going before a vanishing label.
    Labels may appear (weight rising from zero) or vanish through a positive
    outflow; absent labels get frozen placeholder rows, which no walker can
    occupy.  The rows are built _BLOCK steps at a time, in step order.
    """
    w, x = traj.weights, traj._projected
    steps, k = w.shape[0] - 1, w.shape[1]
    cum = np.empty((steps, k, k))
    for lo in range(0, steps, _BLOCK):
        hi = min(lo + _BLOCK, steps)
        _block_cumulatives(traj, x[lo:hi + 1], w[lo:hi + 1], lo, cum[lo:hi])
    p0 = np.where(w[0] >= PRESENCE_CUTOFF, w[0], 0.0)
    return cum, p0 / p0.sum()


def _block_cumulatives(
    traj: PossibilityTrajectory, x: np.ndarray, w: np.ndarray, first: int, out: np.ndarray
) -> None:
    """Write into ``out`` the cumulative rows of the steps ``first`` to
    ``first + len(out) - 1``, from the projected states ``x`` and weights
    ``w`` at their ``len(out) + 1`` instants; raise as
    ``_transition_cumulatives`` does, with the trajectory's step number."""
    j = _currents(traj, x[:-1])
    k = w.shape[1]
    present = w >= PRESENCE_CUTOFF
    now, nxt = present[:-1], present[1:]
    both = now & nxt

    ovl = np.abs(np.einsum("tid,tid->ti", x[:-1].conj(), x[1:])) ** 2
    ovl /= np.where(both, w[:-1] * w[1:], 1.0)
    turned = both & (ovl < MIN_RAY_OVERLAP_SQ)

    # move[t, col, i]: probability of jumping col -> i within step t.  Rows
    # are contiguous, so each row total sums in the order of a 1-D sum.
    move = np.ascontiguousarray(j.transpose(0, 2, 1))
    move = traj.spec.dt * np.clip(move, 0.0, None) / np.where(now, w[:-1], 1.0)[:, :, None]
    diag = np.arange(k)
    move[:, diag, diag] = 0.0
    total = move.sum(axis=-1)
    stuck = now & ~nxt & (total <= 0.0)
    broken = turned.any(axis=1) | stuck.any(axis=1)
    if broken.any():
        t = int(np.argmax(broken))
        if turned[t].any():
            i = int(np.argmax(turned[t]))
            raise LabelDiscontinuity(
                f"projected ray for label {traj.labels[i]!r} turned over "
                f"between steps (squared overlap {ovl[t, i]:.3g})",
                step=first + t + 1,
            )
        col = int(np.argmax(stuck[t]))
        raise LabelDiscontinuity(
            f"label {traj.labels[col]!r} vanishes with no outgoing current",
            step=first + t + 1,
        )
    # a vanishing label sends all its weight away; a step too coarse to stay
    # (total > 1) is the forced-jump regime; both rescale the row to sum 1
    scaled = now & (~nxt | (total > 1.0))
    np.divide(move, total[:, :, None], out=move, where=scaled[:, :, None])
    move[~now] = 0.0  # absent labels: identity placeholder rows, unreachable
    move[:, diag, diag] = np.where(now, np.where(scaled, 0.0, 1.0 - total), 1.0)
    # a row total may round one ulp above 1: clip so that the row is a
    # cumulative distribution, every transition diff(cum) >= 0.  A walker's
    # uniform is below 1, so the clip moves no sampled path
    np.minimum(np.cumsum(move, axis=-1, out=out), 1.0, out=out)
    out[..., -1] = 1.0


def _forward_marginals(cum: np.ndarray, p0: np.ndarray) -> np.ndarray:
    """(steps + 1, k) exact label marginals of the chain that ``sample_paths``
    walks, with no sampling: ``p[t + 1] = p[t] @ M_t``, where
    ``M_t = diff(cum[t])`` holds the transition probabilities of step t."""
    trans = np.diff(cum, axis=-1, prepend=0.0)
    p = np.empty((cum.shape[0] + 1, cum.shape[1]))
    p[0] = p0
    for t, m in enumerate(trans):
        p[t + 1] = p[t] @ m
    return p


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
    cum, p0 = traj._chain
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
    cum, p0 = traj._chain
    k = cum.shape[1]
    if sample_indices is None:
        idx = np.arange(traj.spec.steps + 1, dtype=np.int64)
    else:
        idx = sample_index_array(sample_indices, traj.spec.steps)
    paths = sample_paths(cum, p0, n_trajectories, seed, idx)
    counts = np.array([np.bincount(row, minlength=k) for row in paths], dtype=np.int64)
    counts = counts.reshape(-1, k)  # (0, k) when no index is sampled
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
) -> Iterator[str]:
    """Tab-separated rows (time, selected label, comma-joined weight vector),
    yielded one at a time, so that a writer holds one row, not all of them."""
    for t, label, w in zip(ptraj.times, ptraj.selected_labels, traj.weights):
        probs = ",".join(f"{p:.10g}" for p in w)
        yield f"{t:.10g}\t{label}\t{probs}"
