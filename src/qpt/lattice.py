"""Subspaces of a finite-dimensional complex space and the lattice operations
meet (intersection), join (span), and orthocomplement, with bounded closure."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded, DimMismatch, NotClosed
from .linalg import (
    DEFAULT_TOL,
    ComplexVector,
    Tolerance,
    canonical_phase,
    orthonormalize,
)


@dataclass(frozen=True, eq=False)
class Subspace:
    """A closed subspace, represented by an orthonormal column basis.

    rank 0 (zero subspace) is a valid value with an (n, 0) basis.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self) -> None:
        b = np.array(self.basis, dtype=np.complex128, copy=True)
        if b.ndim != 2 or b.shape[0] != self.ambient_dim or b.shape[1] > self.ambient_dim:
            raise ValueError(f"basis shape {b.shape} invalid for ambient dim {self.ambient_dim}")
        if b.shape[1]:
            gram = b.conj().T @ b
            if np.abs(gram - np.eye(b.shape[1])).max() > 1e-7:
                raise ValueError("basis columns are not orthonormal")
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.zeros((ambient_dim, 0), dtype=np.complex128))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.eye(ambient_dim, dtype=np.complex128))

    @classmethod
    def ray(cls, v: ComplexVector, tol: Tolerance = DEFAULT_TOL) -> "Subspace":
        u = v.normalized(tol)
        return cls(v.dim, canonical_phase(u.amplitudes).reshape(-1, 1))

    @classmethod
    def from_projector(cls, ambient_dim: int, proj: np.ndarray) -> "Subspace":
        """Range of a Hermitian idempotent, read off its eigendecomposition."""
        vals, vecs = np.linalg.eigh(proj)
        keep = vals > 0.5
        return cls(ambient_dim, np.ascontiguousarray(vecs[:, keep]))

    @classmethod
    def from_vectors(cls, vectors, ambient_dim: "int | None" = None,
                     tol: Tolerance = DEFAULT_TOL) -> "Subspace":
        cols = orthonormalize(vectors, tol)
        if not cols:
            if ambient_dim is None:
                vecs = list(vectors)
                if not vecs:
                    raise ValueError("need ambient_dim for an empty generating set")
                first = vecs[0]
                ambient_dim = first.dim if isinstance(first, ComplexVector) else len(first)
            return cls.zero(ambient_dim)
        mat = np.column_stack([c.amplitudes for c in cols])
        return cls(mat.shape[0], mat)

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        if not hasattr(self, "_proj"):
            if self.rank:
                p = self.basis @ self.basis.conj().T
            else:
                p = np.zeros((self.ambient_dim, self.ambient_dim), dtype=np.complex128)
            p.setflags(write=False)
            object.__setattr__(self, "_proj", p)
        return self._proj

    def contains_vector(self, v: ComplexVector, tol: Tolerance = DEFAULT_TOL) -> bool:
        if v.dim != self.ambient_dim:
            raise DimMismatch(f"vector dim {v.dim} vs ambient {self.ambient_dim}")
        n = v.norm()
        if n == 0.0:
            return True
        resid = self.projector() @ v.amplitudes - v.amplitudes
        return float(np.linalg.norm(resid)) <= tol.eps * self.ambient_dim * n

    def orthogonal_to_vector(self, v: ComplexVector, tol: Tolerance = DEFAULT_TOL) -> bool:
        if v.dim != self.ambient_dim:
            raise DimMismatch(f"vector dim {v.dim} vs ambient {self.ambient_dim}")
        n = v.norm()
        if n == 0.0:
            return True
        proj = self.projector() @ v.amplitudes
        return float(np.linalg.norm(proj)) <= tol.eps * self.ambient_dim * n

    def isclose(self, other: "Subspace", tol: Tolerance = DEFAULT_TOL) -> bool:
        """Identity as subspaces: projector Frobenius distance <= eps * ambient_dim."""
        if self.ambient_dim != other.ambient_dim:
            raise DimMismatch(f"ambient dims {self.ambient_dim} vs {other.ambient_dim}")
        d = float(np.linalg.norm(self.projector() - other.projector()))
        return d <= tol.eps * self.ambient_dim

    def leq(self, other: "Subspace", tol: Tolerance = DEFAULT_TOL) -> bool:
        """Subspace inclusion self <= other."""
        if self.ambient_dim != other.ambient_dim:
            raise DimMismatch(f"ambient dims {self.ambient_dim} vs {other.ambient_dim}")
        p, q = self.projector(), other.projector()
        return float(np.linalg.norm(q @ p - p)) <= tol.eps * self.ambient_dim


def _check_dims(a: Subspace, b: Subspace) -> None:
    if a.ambient_dim != b.ambient_dim:
        raise DimMismatch(f"ambient dims {a.ambient_dim} vs {b.ambient_dim}")


def orthocomplement(a: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    n = a.ambient_dim
    if a.rank == 0:
        return Subspace.full(n)
    if a.rank == n:
        return Subspace.zero(n)
    w, vecs = np.linalg.eigh(np.eye(n) - a.projector())
    cols = [canonical_phase(vecs[:, i]) for i in range(n) if w[i] > 0.5]
    if not cols:
        return Subspace.zero(n)
    return Subspace(n, np.column_stack(cols))


def join(a: Subspace, b: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Closed span of the union."""
    _check_dims(a, b)
    if a.rank == 0:
        return b
    if b.rank == 0:
        return a
    cols = orthonormalize(list(a.basis.T) + list(b.basis.T), tol)
    return Subspace(a.ambient_dim, np.column_stack([c.amplitudes for c in cols]))


def meet(a: Subspace, b: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Intersection, via the common-nullspace construction (a^ v b^)^."""
    _check_dims(a, b)
    return orthocomplement(join(orthocomplement(a, tol), orthocomplement(b, tol), tol), tol)


def commutes(a: Subspace, b: Subspace, tol: Tolerance = DEFAULT_TOL) -> bool:
    _check_dims(a, b)
    p, q = a.projector(), b.projector()
    return float(np.abs(p @ q - q @ p).max()) <= tol.eps * a.ambient_dim


@dataclass(frozen=True)
class SublatticeSet:
    """A finite family of subspaces, canonically ordered.

    ``relations`` is the op table harvested while the set was generated:
    tuples (op, i, j, k) recording that applying ``op`` ("meet", "join",
    "complement") to elements i, j produced element k. For complements j == i.
    """

    elements: tuple[Subspace, ...]
    closed_under: frozenset[str]
    closure_depth: int
    relations: tuple[tuple[str, int, int, int], ...] = field(default_factory=tuple)

    @property
    def is_closed(self) -> bool:
        return self.closed_under >= {"meet", "join", "complement"}


def _canonical_key(s: Subspace) -> tuple:
    p = np.round(s.projector(), 9) + 0.0  # normalize -0.0
    return (s.rank,) + tuple(float(x) for x in p.view(np.float64).ravel())


class _ClosureRun:
    """Incremental bounded closure with deduplication and op recording."""

    def __init__(self, generators, max_new: int, tol: Tolerance):
        gens = list(generators)
        if not gens:
            raise ValueError("need at least one generator")
        n = gens[0].ambient_dim
        for g in gens:
            if g.ambient_dim != n:
                raise DimMismatch(f"ambient dims {n} vs {g.ambient_dim}")
        self.n = n
        self.tol = tol
        self.budget = int(max_new)
        self.elements: list[Subspace] = []
        self.relations: list[tuple[str, int, int, int]] = []
        self._buckets: dict[tuple, list[int]] = {}
        self.depth = 0
        self._processed = 0  # elements whose pair/complement ops have been emitted
        self.saturated = False  # budget refused an element
        self._add(Subspace.zero(n))
        self._add(Subspace.full(n))
        for g in gens:
            self._add(g)

    def _bucket_key(self, s: Subspace) -> tuple:
        diag = np.round(s.projector().diagonal().real, 5) + 0.0
        return (s.rank,) + tuple(float(x) for x in diag)

    def _find(self, s: Subspace) -> "int | None":
        for i in self._buckets.get(self._bucket_key(s), []):
            if self.elements[i].isclose(s, self.tol):
                return i
        return None

    def _add(self, s: Subspace) -> "int | None":
        found = self._find(s)
        if found is not None:
            return found
        if len(self.elements) >= self.budget:
            self.saturated = True
            return None
        self._buckets.setdefault(self._bucket_key(s), []).append(len(self.elements))
        self.elements.append(s)
        return len(self.elements) - 1

    def _record(self, op: str, i: int, j: int, s: Subspace) -> None:
        k = self._add(s)
        if k is not None:
            self.relations.append((op, i, j, k))

    def step(self) -> bool:
        """Run one closure round. Returns True if new elements appeared."""
        base = len(self.elements)
        for i in range(self._processed, base):
            self._record("complement", i, i, orthocomplement(self.elements[i], self.tol))
        for i in range(base):
            jstart = max(i + 1, self._processed)
            for j in range(jstart, base):
                a, b = self.elements[i], self.elements[j]
                self._record("meet", i, j, meet(a, b, self.tol))
                self._record("join", i, j, join(a, b, self.tol))
        self._processed = base
        self.depth += 1
        return len(self.elements) > base

    def finished(self) -> bool:
        return self._processed == len(self.elements)

    def result(self) -> SublatticeSet:
        order = sorted(range(len(self.elements)),
                       key=lambda i: _canonical_key(self.elements[i]))
        remap = {old: new for new, old in enumerate(order)}
        rels = tuple(sorted((op, remap[i], remap[j], remap[k])
                            for op, i, j, k in self.relations))
        flags = frozenset() if self.saturated or not self.finished() else frozenset(
            {"meet", "join", "complement"})
        return SublatticeSet(
            elements=tuple(self.elements[i] for i in order),
            closed_under=flags,
            closure_depth=self.depth,
            relations=rels,
        )


def closure(generators, max_new: int = 512, tol: Tolerance = DEFAULT_TOL) -> SublatticeSet:
    """Close a generating set under meet/join/complement, up to ``max_new``
    total elements. Raises BudgetExceeded (carrying the partial set) when the
    budget is hit before a fixpoint."""
    run = _ClosureRun(generators, max_new, tol)
    while True:
        grew = run.step()
        if run.saturated:
            raise BudgetExceeded(
                f"no fixpoint within {max_new} elements", run.result())
        if not grew:
            return run.result()


def is_boolean(s: SublatticeSet, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff all pairs commute and distributivity holds on all triples."""
    if not s.is_closed:
        raise NotClosed("is_boolean requires a set closed under meet/join/complement")
    elems = s.elements
    m = len(elems)
    for i in range(m):
        for j in range(i + 1, m):
            if not commutes(elems[i], elems[j], tol):
                return False
    meets = [[meet(elems[i], elems[j], tol) for j in range(m)] for i in range(m)]
    joins = [[join(elems[i], elems[j], tol) for j in range(m)] for i in range(m)]
    for i in range(m):
        for j in range(m):
            for k in range(m):
                lhs = meet(elems[i], joins[j][k], tol)
                rhs = join(meets[i][j], meets[i][k], tol)
                if not lhs.isclose(rhs, tol):
                    return False
    return True
