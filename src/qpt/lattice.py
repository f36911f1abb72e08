"""Subspaces of a finite-dimensional complex space and the lattice operations
meet (intersection), join (span), and orthocomplement, with bounded closure."""
from __future__ import annotations

import itertools
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
            if not np.abs(gram - np.eye(b.shape[1])).max() <= 1e-7:  # NaN fails too
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
    def from_vectors(cls, vectors, ambient_dim: int, tol: Tolerance = DEFAULT_TOL) -> "Subspace":
        vecs = [v.amplitudes if isinstance(v, ComplexVector) else np.asarray(v) for v in vectors]
        if any(v.shape != (ambient_dim,) for v in vecs):
            shapes = sorted({v.shape for v in vecs})
            raise ValueError(f"vectors of shapes {shapes} in ambient dim {ambient_dim}")
        cols = [c.amplitudes for c in orthonormalize(vecs, tol)]
        return cls(ambient_dim, np.column_stack(cols)) if cols else cls.zero(ambient_dim)

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        """The n x n orthogonal projector B Bᴴ, computed anew on each call."""
        return self.basis @ self.basis.conj().T

    def isclose(self, other: "Subspace", tol: Tolerance = DEFAULT_TOL) -> bool:
        """Identity as subspaces: projector Frobenius distance <= eps * ambient_dim."""
        _check_dims(self, other)
        d = float(np.linalg.norm(self.projector() - other.projector()))
        return d <= tol.eps * self.ambient_dim


def _check_dims(a: Subspace, b: Subspace) -> None:
    if a.ambient_dim != b.ambient_dim:
        raise DimMismatch(f"ambient dims {a.ambient_dim} vs {b.ambient_dim}")


def orthocomplement(a: Subspace) -> Subspace:
    n = a.ambient_dim
    if a.rank == 0:
        return Subspace.full(n)
    if a.rank == n:
        return Subspace.zero(n)
    w, vecs = np.linalg.eigh(np.eye(n) - a.projector())
    # 0 < rank < n and a basis orthonormal to 1e-7: exactly n - rank
    # eigenvalues of I - P lie above 0.5
    return Subspace(n, canonical_phase(vecs[:, w > 0.5]))


def _angles(ci: np.ndarray, bj: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One SVD of ``M = C_iᴴ B_j`` per pair of a batch with one (r_i, r_j):
    ``ci`` (g, n, n - r_i) spans i's orthocomplement, ``bj`` (g, n, r_j) j's
    basis. The singular values of M are the sines of the principal angles
    between i and j (Bjorck & Golub, Math. Comp. 27, 1973; Knyazev &
    Argentati, SIAM J. Sci. Comput. 23, 2002). With ``c`` above eps, the join
    is [B_i | C_i U_live], its complement C_i U_dead; the meet is B_j V_dead,
    its complement [C_j | B_j V_live]. Returns C_i U (live columns first),
    B_j V (dead columns first) and c; an empty M (r_i = n or r_j = 0) has c = 0.

    The cut is sin(theta) > eps. The SVD of [B_i | B_j] it replaced cut at
    sqrt(2) sin(theta/2) > eps: the two differ only for theta within a factor
    sqrt(2) of eps, and a shared direction has a rounding angle (~1e-16) far
    below the eps floor 1e-13."""
    u, s, vh = np.linalg.svd(ci.conj().transpose(0, 2, 1) @ bj)
    c = np.count_nonzero(s > eps, axis=1)
    return ci @ u, bj @ vh.conj().transpose(0, 2, 1)[:, :, ::-1], c


def _complement(s: Subspace) -> np.ndarray:
    """Orthocomplement basis: the left singular vectors past the rank."""
    return np.linalg.svd(s.basis)[0][:, s.rank:]


def join(a: Subspace, b: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Closed span of the union: a's basis, then b's directions outside a."""
    _check_dims(a, b)
    ciu, _, c = _angles(_complement(a)[None], b.basis[None], tol.eps)
    return Subspace(a.ambient_dim, canonical_phase(np.concatenate((a.basis, ciu[0, :, :c[0]]), axis=1)))


def meet(a: Subspace, b: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Intersection: the directions of b at angle zero to a."""
    _check_dims(a, b)
    _, bjv, c = _angles(_complement(a)[None], b.basis[None], tol.eps)
    return Subspace(a.ambient_dim, canonical_phase(bjv[0, :, :b.rank - c[0]]))


def commutes(a: Subspace, b: Subspace, tol: Tolerance = DEFAULT_TOL) -> bool:
    _check_dims(a, b)
    p, q = a.projector(), b.projector()
    return float(np.abs(p @ q - q @ p).max()) <= tol.eps * a.ambient_dim


#: op codes of a relation row (op, i, j, k), numbered in name order, so that
#: sorted rows list the relations as sorted (name, i, j, k) tuples would
COMPLEMENT, JOIN, MEET = 0, 1, 2


def _no_relations() -> np.ndarray:
    return np.zeros((0, 4), dtype=np.int32)


@dataclass(frozen=True)
class SublatticeSet:
    """A finite family of subspaces, canonically ordered.

    ``relations`` is the op table harvested while the set was generated: a
    read-only (m, 4) int32 array of sorted rows (op, i, j, k), each recording
    that applying op (``COMPLEMENT`` 0, ``JOIN`` 1, ``MEET`` 2) to elements i,
    j produced element k. For complements j == i. The table takes no part in
    ``==`` or the hash.
    ``is_closed``: the set is closed under all three ops (the closure reached
    a fixpoint within its budget).
    """

    elements: tuple[Subspace, ...]
    is_closed: bool
    closure_depth: int
    relations: np.ndarray = field(default_factory=_no_relations, compare=False)


def _gate_table() -> list:
    """Unit propagation for the relations c = op(a, b), one entry per op code
    and partial state (a, b, c) of values in {-1, 0, 1}, -1 meaning unknown,
    at index 27 op + 9a + 3b + c. That index runs from -13 to 67, and Python's
    negative indices fold the 13 below 0 onto the end of the 81 entries, so
    the sweep adds no offset. An entry lists the (slot, value) pairs that
    every completion consistent with the state shares, or is None when no
    completion exists."""
    table: list = [None] * 81
    gates = {COMPLEMENT: lambda a, b: 1 - a, JOIN: lambda a, b: a | b, MEET: lambda a, b: a & b}
    for op, gate in gates.items():
        for state in itertools.product((-1, 0, 1), repeat=3):
            fits = [abc for abc in itertools.product((0, 1), repeat=3)
                    if abc[2] == gate(abc[0], abc[1])
                    and all(s in (-1, v) for s, v in zip(state, abc))]
            table[27 * op + 9 * state[0] + 3 * state[1] + state[2]] = None if not fits else tuple(
                (slot, fits[0][slot]) for slot in range(3)
                if state[slot] == -1 and len({f[slot] for f in fits}) == 1)
    return table


_GATES = _gate_table()


def _propagate(val: list, rows: memoryview) -> bool:
    """Sweep the gates of the flat relation rows ``rows`` (op, a, b, c, op,
    ...) over the partial values ``val`` (-1 unknown), writing every value a
    gate forces, until none forces one. False on a conflict."""
    gates = _GATES
    changed = True
    while changed:
        changed = False
        it = iter(rows)
        for op, a, b, c in zip(it, it, it, it):
            forced = gates[27 * op + 9 * val[a] + 3 * val[b] + val[c]]
            if forced:
                abc = (a, b, c)
                for slot, v in forced:
                    val[abc[slot]] = v
                changed = True
            elif forced is None:
                return False
    return True


def _two_valued(n: int, relations: np.ndarray, node_cap: "int | None") -> "list[int] | bool | None":
    """A two-valued homomorphism on elements 0..n-1: a {0,1} value per
    element, element 0 (the zero element) false and element 1 (the full
    element) true, that keeps every (op, i, j, k) row of the int table
    ``relations`` as a logic gate (meet = and, join = or, complement = not
    i). Returns the values, False when none exists, or None when the search
    would visit more than ``node_cap`` nodes (no cap when None). The sweeps
    read the table in place, one Python int at a time.

    Depth-first: propagate until no gate forces a value, then branch on the
    lowest unvalued element, trying 0 before 1, so the first map found is the
    lexicographically first. Each pass of the loop is one node. ``untried``
    holds, innermost last, each open branch's pivot and the values before the
    pivot was set to 0; a conflict resumes the innermost one at 1."""
    rows = memoryview(relations.ravel())
    val = [-1] * n
    val[0], val[1] = 0, 1
    untried = []
    nodes = 0
    while node_cap is None or nodes < node_cap:
        nodes += 1
        if _propagate(val, rows):
            if -1 not in val:
                return val
            pivot = val.index(-1)
            untried.append((pivot, val[:]))
            val[pivot] = 0
        elif untried:
            pivot, val = untried.pop()
            val[pivot] = 1
        else:
            return False
    return None


def _canonical_order(elements: list[Subspace]) -> np.ndarray:
    """Indices that sort ``elements`` by rank, then by the entries of their
    projectors rounded to 9 decimals (real and imaginary parts, row-major),
    ties kept in input order. The keys are one float row per element, so
    they hold no Python object per entry."""
    p = np.array([s.projector().view(np.float64).ravel() for s in elements])
    keys = np.column_stack((np.array([s.rank for s in elements], dtype=np.float64),
                            np.round(p, 9) + 0.0))  # normalize -0.0
    return np.lexsort(keys.T[::-1])


#: pairs per batched SVD in a closure round; bounds a round's scratch memory
_CHUNK = 256


def _round_pairs(base: int, done: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j) a round evaluates, i < j < base and j >= done, i-major
    and j ascending: only the rows of the upper triangle that hold a new
    member, with no pair an earlier round evaluated."""
    left, right = np.nonzero(np.arange(done, base) > np.arange(base)[:, None])
    right += done
    return left, right


class _ClosureRun:
    """Incremental bounded closure with deduplication and op recording.

    Elements live only in arrays: each one's rank, a unitary and its
    projector, in (capacity, n, n) stacks, so a round's meets and joins are
    batched SVDs over gathered pairs. Element k's leading ``rank`` columns
    (in canonical phase) span it and the rest span its orthocomplement: the
    SVD that makes an element gives both (see ``_angles``), and a complement
    is its source's columns rotated by the source's rank. ``result()`` is
    the only place that builds ``Subspace`` objects.

    Dedup: an element is filed under the cell ``floor(<W, P> / width)`` of its
    projector P's projection on a fixed weight matrix W, with width =
    2*n*|W|_F*max(eps, 1e-12), kept in the int64 array ``_cell`` parallel to
    ``_ranks``. Two projectors within the ``Subspace.isclose`` distance eps*n
    have projections at most eps*n*|W|_F apart, half a cell, so a lookup
    probes cells k-1, k, k+1 and confirms with that distance; it returns the
    smallest matching index. The 1e-12 floor keeps a cell wider than the
    rounding error of <W, P> (and the cell index within int64) for any eps;
    it only coarsens the filter.

    Relations are rows (op, i, j, k) of one int32 table, ``relations``, in
    emission order. Each batch returns its kept rows and a round joins them
    to the table once, so between rounds the table holds 16 bytes a relation
    and nothing more.

    Memory: beside the stacks and the relation table, a round holds one
    ``_CHUNK`` of pairs at a time (their gathered blocks, SVDs and results),
    per-element index arrays and ``_round_pairs``' indices of only the pairs
    it evaluates: 16 bytes a pair, and a one-byte mask entry per (element,
    new member), against the two relation rows of 16 bytes each that a pair
    records. No array outgrows the relations the round adds.
    """

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
        self.relations = _no_relations()
        self.depth = 0
        self._processed = 0  # elements whose pair/complement ops have been emitted
        self.saturated = False  # budget refused an element
        self._ranks: list[int] = []
        # stacks grow geometrically: the budget may be far above what a run reaches
        self._units = np.zeros((0, n, n), dtype=np.complex128)
        self._projs = np.zeros_like(self._units)
        # any fixed weights do; generic ones put distinct projectors in distinct cells
        w = np.random.default_rng(0).standard_normal((2, n, n))
        self._weights = (w[0] - 1j * w[1]).ravel()  # conjugated W
        self._width = 2.0 * n * float(np.linalg.norm(w)) * max(tol.eps, 1e-12)
        self._cell = np.zeros(0, dtype=np.int64)
        seeds = [Subspace.zero(n), Subspace.full(n), *gens]
        self._file(np.stack([g.projector() for g in seeds]),
                   np.stack([np.concatenate((g.basis, _complement(g)), axis=1) for g in seeds]),
                   np.array([g.rank for g in seeds]))

    def __len__(self) -> int:
        return len(self._ranks)

    def ray_columns(self) -> np.ndarray:
        """(m, n) basis columns of the rank-1 elements, in insertion order."""
        return self._units[:len(self)][np.array(self._ranks) == 1, :, 0]

    def _cells_of(self, projs: np.ndarray) -> np.ndarray:
        # einsum, not a matrix-vector product: OpenBLAS threads the latter
        keys = np.einsum("kx,x->k", projs.reshape(len(projs), self.n ** 2),
                         self._weights).real / self._width
        return np.floor(keys).astype(np.int64)

    @staticmethod
    def _near(cells: np.ndarray, filed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every pair (t, f) with ``filed[f]`` within one of ``cells[t]``, t
        ascending: one ``searchsorted`` range per t over the sorted cells."""
        order = np.argsort(filed, kind="stable")
        keys = filed[order]
        # cells are integers: the range ends before the first key >= cell + 2
        lo, hi = np.searchsorted(keys, np.concatenate((cells - 1, cells + 2))).reshape(2, -1)
        count = hi - lo
        t = np.repeat(np.arange(len(cells)), count)
        return t, order[np.arange(len(t)) + np.repeat(lo - np.cumsum(count) + count, count)]

    def _file(self, projs: np.ndarray, us: np.ndarray, rank: np.ndarray) -> np.ndarray:
        """Element index of each result, in order, or -1 where the budget
        refused it. Result t has projector ``projs[t]`` and is spanned by the
        leading ``rank[t]`` columns of ``us[t]``, its orthocomplement by the
        rest. It takes the smallest index within isclose distance in cells
        c-1..c+1, elements made by earlier results included, else a new
        element while the budget allows."""
        m, eps = len(self), self.tol.eps * self.n
        cells = self._cells_of(projs)
        t, f = self._near(cells, self._cell)
        close = np.linalg.norm(self._projs[f] - projs[t], axis=(1, 2)) <= eps
        match = np.full(len(cells), m, dtype=np.int64)
        np.minimum.at(match, t[close], f[close])
        # a miss matches nothing filed before this batch: its match, if any,
        # is the element made by the earliest close miss before it
        miss = np.flatnonzero(match == m)
        if not len(miss) or m >= self.budget:  # no room left: every miss is refused
            self.saturated |= len(miss) > 0
            match[miss] = -1
            return match
        t, f = self._near(cells[miss], cells[miss])
        t, f = t[f < t], f[f < t]
        close = np.linalg.norm(projs[miss[f]] - projs[miss[t]], axis=(1, 2)) <= eps
        prior: dict[int, list[int]] = {}
        for a, b in zip(t[close].tolist(), f[close].tolist()):
            prior.setdefault(a, []).append(b)
        made, got, k = [-1] * len(miss), [], m
        for q in range(len(miss)):
            hit = min([made[p] for p in prior[q] if made[p] >= 0], default=-1) if q in prior else -1
            if hit < 0 and k < self.budget:
                hit = made[q] = k
                k += 1
            got.append(hit)
        self.saturated |= -1 in got
        match[miss] = got
        if k > m:
            new = miss[np.array(made) >= 0]
            self._store(projs[new], cells[new], us[new], rank[new])
        return match

    def _store(self, projs: np.ndarray, cells: np.ndarray, us: np.ndarray,
               rank: np.ndarray) -> None:
        """Append new elements, each in one slice of every stack."""
        m, n = len(self), self.n
        k = m + len(rank)
        if k > len(self._units):
            cap = len(self._units)
            while cap < k:
                cap += max(8, cap)
            grow = np.zeros((cap - len(self._units), n, n), dtype=np.complex128)
            self._units, self._projs = (
                np.concatenate((a, grow)) for a in (self._units, self._projs))
        self._units[m:k] = np.where((np.arange(n) < rank[:, None])[:, None], canonical_phase(us), us)
        self._projs[m:k] = projs
        self._cell = np.concatenate((self._cell, cells))
        self._ranks.extend(rank.tolist())

    def _emit(self, ops, lhs, rhs, us: np.ndarray, rank: np.ndarray) -> np.ndarray:
        """File results in emission order and return their relation rows,
        result t as (ops[t], lhs[t], rhs[t], its element) unless the budget
        refused it. Result t is spanned by the leading ``rank[t]`` columns of
        ``us[t]``; the other columns span its orthocomplement."""
        spans = us * (np.arange(self.n) < rank[:, None])[:, None, :]
        projs = spans @ spans.conj().transpose(0, 2, 1)
        match = self._file(projs, us, rank)
        return np.column_stack((ops, lhs, rhs, match)).astype(np.int32)[match >= 0]

    def step(self) -> bool:
        """Run one closure round. Returns True if new elements appeared.

        Emission order: complements of the elements new since the last round,
        then every pair i < j with j new, meet before join."""
        base, done, n = len(self), self._processed, self.n
        fresh = np.arange(done, base)
        # a complement's columns are its source's rotated by the source's rank
        ranks = np.array(self._ranks, dtype=np.int64)
        turn = (np.arange(n) + ranks[done:base, None]) % n
        batches = [self._emit(np.full(len(fresh), COMPLEMENT), fresh, fresh,
                              np.take_along_axis(self._units[done:base], turn[:, None], axis=2),
                              n - ranks[done:base])]
        left, right = _round_pairs(base, done)
        for lo in range(0, len(left), _CHUNK):
            i, j = left[lo:lo + _CHUNK], right[lo:lo + _CHUNK]
            # result 2p is meet(pair p), 2p + 1 is join(pair p): the leading
            # rank columns of its us. One SVD per (r_i, r_j) group: zero-padding
            # the blocks to one shape would mix their null directions with the meet's
            us = np.empty((2 * len(i), n, n), dtype=np.complex128)
            rank = np.empty(2 * len(i), dtype=np.int64)
            groups, at = np.unique(ranks[i] * (n + 1) + ranks[j], return_inverse=True)
            for g, key in enumerate(groups.tolist()):
                ri, rj = divmod(key, n + 1)
                p = np.flatnonzero(at == g)
                gi, gj = i[p], j[p]
                ciu, bjv, c = _angles(self._units[gi, :, ri:], self._units[gj, :, :rj],
                                      self.tol.eps)
                us[2 * p] = np.concatenate((bjv, self._units[gj, :, rj:]), axis=2)
                us[2 * p + 1] = np.concatenate((self._units[gi, :, :ri], ciu), axis=2)
                rank[2 * p], rank[2 * p + 1] = rj - c, ri + c
            batches.append(self._emit(np.tile((MEET, JOIN), len(i)), np.repeat(i, 2),
                                      np.repeat(j, 2), us, rank))
        self.relations = np.concatenate((self.relations, *batches))
        self._processed = base
        self.depth += 1
        return len(self) > base

    def finished(self) -> bool:
        return self._processed == len(self)

    def result(self) -> SublatticeSet:
        """The set in canonical element order, with its relations remapped and
        sorted. The table is rewritten in place one column at a time, so it
        is never held twice; the run hands it over and has none afterwards."""
        elements = [Subspace(self.n, self._units[k, :, :r]) for k, r in enumerate(self._ranks)]
        order = _canonical_order(elements)
        remap = np.empty(len(order), dtype=np.int32)
        remap[order] = np.arange(len(order))
        rels = self.relations
        del self.relations
        for col in (1, 2, 3):
            rels[:, col] = remap[rels[:, col]]
        by_row = np.lexsort(rels.T[::-1])
        for col in range(4):
            rels[:, col] = rels[by_row, col]
        rels.setflags(write=False)
        return SublatticeSet(
            elements=tuple(elements[i] for i in order.tolist()),
            is_closed=not self.saturated and self.finished(),
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
    """True iff all pairs of elements commute. In an orthomodular lattice,
    such as the subspaces of a Hilbert space, pairwise-commuting elements
    generate a Boolean subalgebra (Foulis-Holland theorem; Kalmbach,
    *Orthomodular Lattices*, 1983), so distributivity follows."""
    if not s.is_closed:
        raise NotClosed("is_boolean requires a set closed under meet/join/complement")
    return all(commutes(a, b, tol) for a, b in itertools.combinations(s.elements, 2))
