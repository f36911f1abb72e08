"""Determinate sublattice of a state relative to a preferred observable:
construction, analytic membership, property states (2-valued homomorphisms),
Born-measure verification, and the extension/contradiction check."""
from __future__ import annotations

import itertools
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
from .lattice import Subspace, _ClosureRun, meet, orthocomplement
from .linalg import DEFAULT_TOL, ComplexVector, Tolerance, canonical_phase


@dataclass(frozen=True)
class ObservableSpec:
    """A labeled resolution of the identity (eigenspace projectors)."""

    labels: tuple[str, ...]
    eigenprojectors: tuple[Subspace, ...]

    def __post_init__(self) -> None:
        labels = tuple(str(x) for x in self.labels)
        projs = tuple(self.eigenprojectors)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "eigenprojectors", projs)
        if len(labels) != len(projs) or not projs:
            raise ValueError("labels and eigenprojectors must align and be nonempty")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate eigenvalue labels")
        n = projs[0].ambient_dim
        tol = DEFAULT_TOL
        total = np.zeros((n, n), dtype=np.complex128)
        for s in projs:
            if s.ambient_dim != n:
                raise DimMismatch(f"ambient dims {n} vs {s.ambient_dim}")
            total += s.projector()
        for a, b in itertools.combinations(projs, 2):
            if float(np.abs(a.projector() @ b.projector()).max()) > tol.eps * n:
                raise NotResolutionOfIdentity("eigenprojectors are not mutually orthogonal")
        if float(np.abs(total - np.eye(n)).max()) > tol.eps * n:
            raise NotResolutionOfIdentity("eigenprojectors do not sum to the identity")

    @property
    def ambient_dim(self) -> int:
        return self.eigenprojectors[0].ambient_dim

    @classmethod
    def identity(cls, dim: int) -> "ObservableSpec":
        return cls(("any",), (Subspace.full(dim),))

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
        rays = [Subspace.ray(v, tol) for v in coerced]
        if labels is None:
            labels = tuple(f"e{i}" for i in range(len(rays)))
        return cls(tuple(labels), tuple(rays))


@dataclass(frozen=True)
class ProjectedRay:
    """One nonzero normalized projection of the state onto an eigenspace."""

    label: str
    vector: ComplexVector
    weight: float


@dataclass(frozen=True)
class DeterminateSublattice:
    """The sublattice generated by the state's nonzero eigenspace projections
    together with all rays of their orthocomplement K. Members are exactly
    span(subset of projected rays) + (subspace of K)."""

    psi: ComplexVector
    observable: ObservableSpec
    projected_rays: tuple[ProjectedRay, ...]
    complement: Subspace

    @property
    def ambient_dim(self) -> int:
        return self.psi.dim

    def generators(self) -> list[Subspace]:
        """Lattice generators: one ray per projection plus the K block."""
        gens = [Subspace.ray(r.vector) for r in self.projected_rays]
        gens.append(self.complement)
        return gens

    def to_report(self) -> dict:
        """Structured summary consumed by the CLI."""
        return {
            "ambient_dim": self.ambient_dim,
            "ray_labels": [r.label for r in self.projected_rays],
            "weights": [r.weight for r in self.projected_rays],
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
    nrm = psi.norm()
    if nrm <= tol.eps:
        raise ZeroVector("state vector is (near-)zero")
    unit = psi.amplitudes / nrm
    rays = []
    for label, space in zip(observable.labels, observable.eigenprojectors):
        x = space.projector() @ unit
        w = float(np.real(np.vdot(x, x)))
        if w >= tol.eps:
            vec = ComplexVector(canonical_phase(x / np.sqrt(w)))
            rays.append(ProjectedRay(label=label, vector=vec, weight=w))
    if not rays:
        raise ZeroVector("all eigenspace projections fell below eps")
    span = Subspace.from_vectors([r.vector for r in rays], ambient_dim=psi.dim, tol=tol)
    return DeterminateSublattice(
        psi=ComplexVector(unit),
        observable=observable,
        projected_rays=tuple(rays),
        complement=orthocomplement(span, tol),
    )


def contains(d: DeterminateSublattice, v: Subspace, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Analytic membership: every projected ray lies in v or orthogonal to it,
    and v decomposes as span(inside rays) + (v meet K)."""
    if v.ambient_dim != d.ambient_dim:
        raise DimMismatch(f"subspace dim {v.ambient_dim} vs ambient {d.ambient_dim}")
    inside = []
    for r in d.projected_rays:
        if v.contains_vector(r.vector, tol):
            inside.append(r.vector)
        elif not v.orthogonal_to_vector(r.vector, tol):
            return False
    span = Subspace.from_vectors(inside, ambient_dim=d.ambient_dim, tol=tol)
    w = meet(v, d.complement, tol)
    recomposed = span.projector() + w.projector()
    dist = float(np.linalg.norm(v.projector() - recomposed))
    return dist <= tol.eps * d.ambient_dim


@dataclass(frozen=True)
class PropertyState:
    """One 2-valued homomorphism on the sublattice: selects a projected ray."""

    selected: int
    probability: float

    def __post_init__(self) -> None:
        if not (0.0 < self.probability <= 1.0 + 1e-12):
            raise ValueError(f"probability {self.probability} outside (0, 1]")


def property_states(d: DeterminateSublattice) -> tuple[PropertyState, ...]:
    return tuple(
        PropertyState(selected=i, probability=r.weight)
        for i, r in enumerate(d.projected_rays)
    )


def truth_value(
    state: PropertyState,
    d: DeterminateSublattice,
    v: Subspace,
    tol: Tolerance = DEFAULT_TOL,
) -> bool:
    """Truth of the member v under the property state: true iff the selected
    ray lies inside v."""
    if not contains(d, v, tol):
        raise NotInSublattice("subspace is not a member of the sublattice")
    ray = d.projected_rays[state.selected].vector
    return v.contains_vector(ray, tol)


class BornProbabilities(NamedTuple):
    measure_prob: float
    born_prob: float


def born_check(
    d: DeterminateSublattice,
    v: Subspace,
    tol: Tolerance = DEFAULT_TOL,
) -> BornProbabilities:
    """Probability of v as a measure over property states vs the state-vector
    probability <psi|P_v|psi> less the K-internal part (identically zero for a
    normalized input, kept explicit for the contract)."""
    if not contains(d, v, tol):
        raise NotInSublattice("subspace is not a member of the sublattice")
    measure = 0.0
    for s in property_states(d):
        if v.contains_vector(d.projected_rays[s.selected].vector, tol):
            measure += s.probability
    amps = d.psi.amplitudes
    born = float(np.real(np.vdot(amps, v.projector() @ amps)))
    w = meet(v, d.complement, tol)
    born -= float(np.real(np.vdot(amps, w.projector() @ amps)))
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

    verdict "contradiction": the bounded closure of the generators plus the
    new subspace admits no 2-valued map (checked two ways: noncontextual
    coloring of the emitted rays, and satisfiability of the recorded
    meet/join/complement relations). verdict "inconclusive": a map was found
    on the bounded fragment, which decides nothing about the full lattice.
    """

    verdict: str
    closure_depth: int
    reached_fixpoint: bool
    n_elements: int
    n_relations: int
    n_rays: int
    ray_coloring_unsat: bool
    relations_unsat: bool

    @property
    def is_contradiction(self) -> bool:
        return self.verdict == "contradiction"


def _relations_satisfiable(n_elems: int, relations, zero_idx: int, full_idx: int,
                           node_cap: int = 100000) -> "bool | None":
    """Search for a {0,1} assignment on elements satisfying every recorded
    relation as a logic gate. None means the node cap was hit."""
    val = [-1] * n_elems
    val[zero_idx], val[full_idx] = 0, 1
    if zero_idx == full_idx:
        return False
    nodes = 0

    def propagate() -> bool:
        changed = True
        while changed:
            changed = False
            for op, a, b, c in relations:
                va, vb, vc = val[a], val[b], val[c]
                if op == "complement":
                    if va != -1 and vc == -1:
                        val[c] = 1 - va
                        changed = True
                    elif vc != -1 and va == -1:
                        val[a] = 1 - vc
                        changed = True
                    elif va != -1 and vc != -1 and va + vc != 1:
                        return False
                elif op == "meet":
                    if va != -1 and vb != -1 and vc != -1:
                        if vc != (va & vb):
                            return False
                    elif va == 1 and vb == 1:
                        val[c] = 1
                        changed = True
                    elif va == 0 or vb == 0:
                        if vc == 1:
                            return False
                        if vc == -1:
                            val[c] = 0
                            changed = True
                    elif vc == 1:
                        if va == -1:
                            val[a] = 1
                            changed = True
                        if vb == -1:
                            val[b] = 1
                            changed = True
                    elif vc == 0 and va == 1 and vb == -1:
                        val[b] = 0
                        changed = True
                    elif vc == 0 and vb == 1 and va == -1:
                        val[a] = 0
                        changed = True
                else:  # join
                    if va != -1 and vb != -1 and vc != -1:
                        if vc != (va | vb):
                            return False
                    elif va == 0 and vb == 0:
                        val[c] = 0
                        changed = True
                    elif va == 1 or vb == 1:
                        if vc == 0:
                            return False
                        if vc == -1:
                            val[c] = 1
                            changed = True
                    elif vc == 0:
                        if va == -1:
                            val[a] = 0
                            changed = True
                        if vb == -1:
                            val[b] = 0
                            changed = True
                    elif vc == 1 and va == 0 and vb == -1:
                        val[b] = 1
                        changed = True
                    elif vc == 1 and vb == 0 and va == -1:
                        val[a] = 1
                        changed = True
        return True

    def search() -> "bool | None":
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            return None
        snapshot = val[:]
        if not propagate():
            val[:] = snapshot
            return False
        try:
            pivot = val.index(-1)
        except ValueError:
            return True
        for choice in (1, 0):
            inner = val[:]
            val[pivot] = choice
            sub = search()
            if sub:
                return True
            if sub is None:
                return None
            val[:] = inner
        val[:] = snapshot
        return False

    return search()


def extend_and_check(
    d: DeterminateSublattice,
    v: Subspace,
    budget: int = 512,
    tol: Tolerance = DEFAULT_TOL,
) -> ExtensionReport:
    """Close the sublattice generators plus v under bounded lattice closure,
    then test whether any 2-valued map survives on the result.

    The closure runs round by round; after each round both checks run on what
    has been emitted so far, so a contradiction exits early. K-interior probe
    rays are included among the generators (they are members) to give the
    closure enough raw material.
    """
    from .nogo import RaySet, NoAssignment, find_assignment  # local: avoid cycle

    if budget < 2:  # the closure always holds the zero and full subspaces
        raise ValueError(f"closure budget must be >= 2, got {budget}")
    if v.ambient_dim != d.ambient_dim:
        raise DimMismatch(f"subspace dim {v.ambient_dim} vs ambient {d.ambient_dim}")
    if d.ambient_dim < 3:
        raise ValueError("extension check requires ambient dim >= 3")
    if contains(d, v, tol):
        raise AlreadyMember("subspace already belongs to the sublattice")

    gens = d.generators() + complement_probe_rays(d) + [v]
    run = _ClosureRun(gens, budget, tol)

    def emitted() -> list[ComplexVector]:
        # drop near-duplicates: the closure dedup threshold is looser than the
        # ray-set distinctness requirement
        rays: list[ComplexVector] = []
        for e in run.elements:
            if e.rank != 1:
                continue
            cand = ComplexVector(e.basis[:, 0])
            if all(abs(cand.inner(r)) < 1.0 - 1e-6 for r in rays):
                rays.append(cand)
        return rays

    while True:
        grew = run.step()
        zero_idx = next(i for i, e in enumerate(run.elements) if e.rank == 0)
        full_idx = next(i for i, e in enumerate(run.elements) if e.rank == d.ambient_dim)
        rel_sat = _relations_satisfiable(len(run.elements), run.relations,
                                         zero_idx, full_idx)
        rays = emitted()
        coloring_unsat = False
        if len(rays) >= d.ambient_dim:
            outcome = find_assignment(RaySet(tuple(rays)), tol)
            coloring_unsat = isinstance(outcome, NoAssignment)
        if rel_sat is False or coloring_unsat:
            return ExtensionReport(
                verdict="contradiction",
                closure_depth=run.depth,
                reached_fixpoint=False,
                n_elements=len(run.elements),
                n_relations=len(run.relations),
                n_rays=len(rays),
                ray_coloring_unsat=coloring_unsat,
                relations_unsat=rel_sat is False,
            )
        if run.saturated or not grew:
            return ExtensionReport(
                verdict="inconclusive",
                closure_depth=run.depth,
                reached_fixpoint=not run.saturated and not grew,
                n_elements=len(run.elements),
                n_relations=len(run.relations),
                n_rays=len(rays),
                ray_coloring_unsat=False,
                relations_unsat=False,
            )
