"""Determinate sublattice of a state relative to a preferred observable:
construction, analytic membership, property states (2-valued homomorphisms,
each the index of the projected ray it selects), Born-measure verification,
and the extension/contradiction check."""
from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    AlreadyMember,
    DimMismatch,
    NotInSublattice,
    NotResolutionOfIdentity,
    ZeroVector,
)
from .lattice import Subspace, _ClosureRun, _two_valued, orthocomplement
from .linalg import DEFAULT_TOL, ComplexVector, Tolerance, canonical_phase


@dataclass(frozen=True, eq=False)
class ObservableSpec:
    """A labeled resolution of the identity: eigenspace i is spanned by the orthonormal
    columns of ``blocks[i]``, a read-only column view of one array ``[B_1 | ... | B_k]``."""

    labels: tuple[str, ...]
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        labels = tuple(str(x) for x in self.labels)
        blocks = [np.asarray(b, dtype=np.complex128) for b in self.blocks]
        if len(labels) != len(blocks) or not blocks:
            raise ValueError("labels and blocks must align and be nonempty")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate eigenvalue labels")
        for b in blocks:
            if b.ndim != 2:
                raise ValueError(f"basis block of shape {b.shape} is not 2-D")
            if b.shape[0] != blocks[0].shape[0]:
                raise DimMismatch(f"ambient dims {blocks[0].shape[0]} vs {b.shape[0]}")
        # B = [B_1 | ... | B_k]: each B_aᴴB_a is I, P_a P_b = B_a (B_aᴴ B_b) B_bᴴ, and ΣP_a = B Bᴴ
        b, eps = np.concatenate(blocks, axis=1), DEFAULT_TOL.eps * blocks[0].shape[0]
        ranks = [x.shape[1] for x in blocks]
        block = np.repeat(np.arange(len(blocks)), ranks)
        gram = np.abs(b.conj().T @ b - np.eye(len(block)))
        # not (max <= tol): a NaN diagonal, which any non-finite entry gives, fails here
        if not gram[block[:, None] == block].max(initial=0.0) <= 1e-7:
            raise ValueError("basis columns are not orthonormal")
        if gram[block[:, None] != block].max(initial=0.0) > eps:
            raise NotResolutionOfIdentity("eigenprojectors are not mutually orthogonal")
        if float(np.abs(b @ b.conj().T - np.eye(len(b))).max()) > eps:
            raise NotResolutionOfIdentity("eigenprojectors do not sum to the identity")
        b.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "blocks", tuple(np.split(b, np.cumsum(ranks)[:-1], axis=1)))

    @property
    def ambient_dim(self) -> int:
        return self.blocks[0].shape[0]

    @classmethod
    def identity(cls, dim: int) -> "ObservableSpec":
        return cls(("any",), (np.eye(dim, dtype=np.complex128),))

    @classmethod
    def from_eigenbasis(cls, vectors, labels=None, tol: Tolerance = DEFAULT_TOL) -> "ObservableSpec":
        """Maximal observable whose eigenvectors are the given orthonormal basis.

        Accepts ``ComplexVector`` instances or anything ``np.asarray`` can
        coerce to a complex vector."""
        coerced = [
            v if isinstance(v, ComplexVector)
            else ComplexVector(np.asarray(v, dtype=np.complex128))
            for v in vectors
        ]
        cols = [canonical_phase(v.normalized(tol).amplitudes.reshape(-1, 1)) for v in coerced]
        if labels is None:
            labels = tuple(f"e{i}" for i in range(len(cols)))
        return cls(tuple(labels), tuple(cols))


@dataclass(frozen=True, eq=False)
class DeterminateSublattice:
    """The sublattice generated by the state's nonzero eigenspace projections
    together with all rays of their orthocomplement K. Members are exactly
    span(subset of projected rays) + (subspace of K). Projected ray i is the
    column ``rays[:, i]`` of a read-only (n, m) array, of label ``labels[i]``
    and weight ``weights[i]`` (a read-only (m,) array)."""

    psi: ComplexVector
    labels: tuple[str, ...]
    rays: np.ndarray
    weights: np.ndarray
    complement: Subspace

    @property
    def ambient_dim(self) -> int:
        return self.psi.dim

    @functools.cached_property
    def _complement_psi(self) -> np.ndarray:
        """P_K·psi, the state's component in the complement block."""
        return self.complement.projector() @ self.psi.amplitudes

    def generators(self) -> list[Subspace]:
        """Lattice generators: one ray per projection plus the K block."""
        gens = [Subspace.ray(ComplexVector(c)) for c in self.rays.T]
        gens.append(self.complement)
        return gens

    def to_report(self) -> dict:
        """Structured summary consumed by the CLI."""
        return {
            "ambient_dim": self.ambient_dim,
            "ray_labels": list(self.labels),
            "weights": self.weights.tolist(),
            "complement_dim": self.complement.rank,
            "small_complement": self.complement.rank <= 2,
        }


def build_determinate(
    psi: ComplexVector,
    observable: ObservableSpec,
    tol: Tolerance = DEFAULT_TOL,
) -> DeterminateSublattice:
    """Project the state onto each eigenspace; keep the nonzero projections
    (squared norm >= eps) as weighted rays; K is the orthocomplement of their span."""
    if psi.dim != observable.ambient_dim:
        raise DimMismatch(f"state dim {psi.dim} vs observable dim {observable.ambient_dim}")
    unit = psi.normalized(tol)
    kept = []
    for label, b in zip(observable.labels, observable.blocks):
        x = (b @ b.conj().T) @ unit.amplitudes
        w = float(np.real(np.vdot(x, x)))
        if w >= tol.eps:
            kept.append((label, canonical_phase(x / np.sqrt(w)), w))
    if not kept:
        raise ZeroVector("all eigenspace projections fell below eps")
    labels, cols, weights = zip(*kept)
    span = Subspace.from_vectors(cols, ambient_dim=psi.dim, tol=tol)
    # stacked after the span, so that the stack and from_vectors' copies never coexist
    rays, weights = np.stack(cols, axis=1), np.array(weights)
    for a in (rays, weights):
        a.setflags(write=False)
    return DeterminateSublattice(unit, labels, rays, weights, orthocomplement(span))


def _ray_masks(d: DeterminateSublattice, v: Subspace,
               tol: Tolerance) -> tuple[np.ndarray, bool]:
    """Which projected rays lie in v (``|P_v r - r| <= eps * n``), and whether
    v is a member: every ray lies in v or is orthogonal to it
    (``|Bᴴ r| <= eps * n`` for v's orthonormal basis B, as ``|P_v r| = |Bᴴ r|``).
    That suffices, since P_v then commutes with each ray's projector R_i, so
    P_v = sum of the inside R_i + P_v P_K, and P_v P_K projects onto v meet K.

    Residuals are formed only for the rays not orthogonal to v. The rays are
    orthonormal, so at most rank(v) of them lie in v: with more left, v is no
    member. Testing "inside" as ``1 - |Bᴴ r|² <= (eps * n)²`` instead would
    subtract numbers of order 1 to find one of order eps², lost to rounding."""
    if v.ambient_dim != d.ambient_dim:
        raise DimMismatch(f"subspace dim {v.ambient_dim} vs ambient {d.ambient_dim}")
    o = v.basis.conj().T @ d.rays
    eps = tol.eps * d.ambient_dim
    near = np.flatnonzero(np.linalg.norm(o, axis=0) > eps)
    inside = np.zeros(len(d.labels), dtype=bool)
    if len(near) > v.rank:
        return inside, False
    inside[near] = np.linalg.norm(v.basis @ o[:, near] - d.rays[:, near], axis=0) <= eps
    return inside, bool(inside[near].all())


def contains(d: DeterminateSublattice, v: Subspace, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Analytic membership: every projected ray lies in v or orthogonal to it,
    so v decomposes as span(inside rays) + (v meet K)."""
    return _ray_masks(d, v, tol)[1]


def truth_value(
    selected: int,
    d: DeterminateSublattice,
    v: Subspace,
    tol: Tolerance = DEFAULT_TOL,
) -> bool:
    """Truth of the member v under property state ``selected``, which selects
    projected ray ``selected`` with probability ``d.weights[selected]``: true
    iff that ray lies inside v."""
    i = operator.index(selected)
    if not 0 <= i < len(d.labels):
        raise ValueError(f"no ray {i}: the sublattice has {len(d.labels)} rays")
    inside, member = _ray_masks(d, v, tol)
    if not member:
        raise NotInSublattice("subspace is not a member of the sublattice")
    return bool(inside[i])


class BornProbabilities(NamedTuple):
    measure_prob: float
    born_prob: float


def born_check(
    d: DeterminateSublattice,
    v: Subspace,
    tol: Tolerance = DEFAULT_TOL,
) -> BornProbabilities:
    """Probability of v as a measure over property states (the weights of the
    projected rays inside v) vs the state-vector probability <psi|P_v|psi>
    less <psi|P_v P_K|psi>: for a member, P_v P_K projects onto v meet K, so
    that term is the weight inside v of the labels dropped below eps."""
    inside, member = _ray_masks(d, v, tol)
    if not member:
        raise NotInSublattice("subspace is not a member of the sublattice")
    measure = sum(d.weights[inside].tolist(), 0.0)
    amps, pv = d.psi.amplitudes, v.projector()
    born = float(np.real(np.vdot(amps, pv @ amps)))
    born -= float(np.real(np.vdot(amps, pv @ d._complement_psi)))
    return BornProbabilities(measure_prob=measure, born_prob=born)


def complement_probe_rays(d: DeterminateSublattice) -> list[Subspace]:
    """Deterministic sample of rays inside K (all of which are members):
    an orthonormal basis plus two-element combinations at four relative phases."""
    k = d.complement
    cols = [k.basis[:, i] for i in range(k.rank)]
    probes = [Subspace.ray(ComplexVector(c)) for c in cols]
    for a, b in itertools.combinations(range(len(cols)), 2):
        for phase in (1.0, -1.0, 1.0j, -1.0j):
            v = (cols[a] + phase * cols[b]) / np.sqrt(2.0)
            probes.append(Subspace.ray(ComplexVector(v)))
    return probes


@dataclass(frozen=True)
class ExtensionReport:
    """Outcome of extending the sublattice by a non-member subspace.

    verdict "contradiction": the meet/join/complement relations recorded by
    the bounded closure of the generators plus the new subspace admit no
    2-valued homomorphism (zero false, full space true, every relation kept).
    verdict "inconclusive": such a map exists on the bounded fragment, or the
    search hit its node cap; either way nothing is decided about the full
    lattice. ``n_rays`` counts the closure's rank-1 elements that are pairwise
    distinct at |<a, b>| < 1 - 1e-6.
    """

    verdict: str
    closure_depth: int
    reached_fixpoint: bool
    n_elements: int
    n_relations: int
    n_rays: int


def extend_and_check(
    d: DeterminateSublattice,
    v: Subspace,
    budget: int = 512,
    tol: Tolerance = DEFAULT_TOL,
) -> ExtensionReport:
    """Close the sublattice generators plus v under bounded lattice closure,
    then test whether any 2-valued map survives on the result.

    The closure runs round by round; after each round the recorded relations
    are searched for a 2-valued map, so a contradiction exits early.
    K-interior probe rays are included among the generators (they are
    members) to give the closure enough raw material.
    """
    if budget < 2:  # the closure always holds the zero and full subspaces
        raise ValueError(f"closure budget must be >= 2, got {budget}")
    if v.ambient_dim != d.ambient_dim:
        raise DimMismatch(f"subspace dim {v.ambient_dim} vs ambient {d.ambient_dim}")
    if d.ambient_dim < 3:
        raise ValueError("extension check requires ambient dim >= 3")
    if contains(d, v, tol):
        raise AlreadyMember("subspace already belongs to the sublattice")

    run = _ClosureRun(d.generators() + complement_probe_rays(d) + [v], budget, tol)
    while True:
        grew = run.step()
        # the closure inserts the zero and full subspaces first, as elements 0 and 1
        unsat = _two_valued(len(run), run.relations, node_cap=100000) is False
        if unsat or run.saturated or not grew:
            break
    return ExtensionReport(
        verdict="contradiction" if unsat else "inconclusive",
        closure_depth=run.depth,
        reached_fixpoint=not (unsat or run.saturated or grew),
        n_elements=len(run),
        n_relations=len(run.relations),
        n_rays=_distinct_rays(run.ray_columns()),
    )


#: rays per block of ``_distinct_rays``' overlap pass; bounds its scratch memory
_RAY_BLOCK = 64


def _distinct_rays(cols: np.ndarray) -> int:
    """Number of rays, given as the rows of ``cols``, left by a greedy
    first-kept pass that drops any ray with |<a, b>| >= 1 - 1e-6 to an earlier
    kept one (a fixed threshold, stricter than the closure's own dedup).

    The pass runs over blocks of ``_RAY_BLOCK`` rows, each compared with
    itself and the rows before it, so it holds one (block, m) overlap table
    rather than m x m. Every earlier row's verdict is final when its block is
    reached."""
    m = len(cols)
    kept = np.zeros(m, dtype=bool)
    for lo in range(0, m, _RAY_BLOCK):
        hi = min(lo + _RAY_BLOCK, m)
        # row t of the block is ray lo + t; only the rays before it count
        dup = np.tril(np.abs(cols[lo:hi].conj() @ cols[:hi].T) >= 1.0 - 1e-6, lo - 1)
        # a ray with no earlier near-duplicate is kept; only the others need the
        # earlier rays' verdicts, which are final by the time each is reached
        kept[lo:hi] = ~dup.any(axis=1)
        for t in np.flatnonzero(~kept[lo:hi]).tolist():
            kept[lo + t] = not (dup[t] & kept[:hi]).any()
    return int(kept.sum())
