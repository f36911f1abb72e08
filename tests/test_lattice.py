"""Subspace lattice operations, closure, and Boolean detection."""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpt import (
    DEFAULT_TOL,
    BudgetExceeded,
    ComplexVector,
    Subspace,
    basis_vector,
    closure,
    commutes,
    is_boolean,
    join,
    meet,
    orthocomplement,
)
from qpt.lattice import (
    _GATES,
    _angles,
    _canonical_order,
    _ClosureRun,
    _round_pairs,
    _two_valued,
)
from qpt.linalg import canonical_phase, orthonormalize
from conftest import random_subspace, random_unitary, random_vector

seeds = st.integers(0, 2**32 - 1)


def _proj_close(a: Subspace, b: Subspace, tol: float = 1e-9) -> bool:
    return np.abs(a.projector() - b.projector()).max() < tol


class TestSubspaceBasics:
    def test_ray_rank_and_projector(self, rng):
        v = random_vector(4, rng)
        s = Subspace.ray(v)
        p = s.projector()
        assert s.rank == 1
        assert np.abs(p @ p - p).max() < 1e-12
        assert np.abs(p - p.conj().T).max() < 1e-12
        assert np.abs(p @ v.amplitudes - v.amplitudes).max() < 1e-12

    def test_zero_and_full(self):
        z, f = Subspace.zero(3), Subspace.full(3)
        assert z.rank == 0 and f.rank == 3
        assert np.abs(z.projector()).max() == 0.0
        assert np.abs(f.projector() - np.eye(3)).max() == 0.0

    def test_from_vectors_rejects_a_mismatched_ambient_dim(self):
        with pytest.raises(ValueError):
            Subspace.from_vectors([np.ones(3)], ambient_dim=4)

    @pytest.mark.parametrize("vecs", [[np.zeros(3)], [np.ones(3), np.ones(4)],
                                      [np.ones(4), np.zeros(3)]])
    def test_from_vectors_rejects_vectors_of_another_dim(self, vecs):
        # vanishing or mixed inputs too: one ValueError for every wrong length
        with pytest.raises(ValueError, match="ambient dim 4"):
            Subspace.from_vectors(vecs, ambient_dim=4)

    def test_from_vectors_takes_a_generator(self, rng):
        for vecs, rank in (([random_vector(4, rng).amplitudes for _ in range(2)], 2),
                           ([np.zeros(4)], 0)):
            listed = Subspace.from_vectors(vecs, ambient_dim=4)
            generated = Subspace.from_vectors(iter(vecs), ambient_dim=4)
            assert generated.rank == listed.rank == rank
            assert generated.basis.tobytes() == listed.basis.tobytes()

    def test_contains_vector_via_projector(self, rng):
        s = random_subspace(4, 2, rng)
        inside = s.basis[:, 0] + 2j * s.basis[:, 1]
        p = s.projector()
        assert np.linalg.norm(p @ inside - inside) < 1e-10


class TestLatticeOps:
    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_de_morgan(self, seed):
        rng = np.random.default_rng(seed)
        a = random_subspace(4, int(rng.integers(1, 4)), rng)
        b = random_subspace(4, int(rng.integers(1, 4)), rng)
        lhs = orthocomplement(join(a, b))
        rhs = meet(orthocomplement(a), orthocomplement(b))
        assert _proj_close(lhs, rhs, 1e-8)

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_double_complement(self, seed):
        rng = np.random.default_rng(seed)
        a = random_subspace(5, int(rng.integers(0, 6)), rng)
        assert _proj_close(orthocomplement(orthocomplement(a)), a, 1e-9)

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_orthomodularity(self, seed):
        # A <= B implies B = A v (B ^ A')
        rng = np.random.default_rng(seed)
        cols = [random_vector(5, rng) for _ in range(3)]
        a = Subspace.from_vectors(cols[:1], ambient_dim=5)
        b = Subspace.from_vectors(cols, ambient_dim=5)
        rebuilt = join(a, meet(b, orthocomplement(a)))
        assert _proj_close(rebuilt, b, 1e-8)

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_unitary_covariance(self, seed):
        rng = np.random.default_rng(seed)
        a = random_subspace(4, 2, rng)
        b = random_subspace(4, 2, rng)
        u = random_unitary(4, rng)

        def push(s: Subspace) -> Subspace:
            cols = [u @ s.basis[:, i] for i in range(s.rank)]
            return Subspace.from_vectors(cols, ambient_dim=4)

        assert _proj_close(push(meet(a, b)), meet(push(a), push(b)), 1e-8)
        assert _proj_close(push(join(a, b)), join(push(a), push(b)), 1e-8)

    def test_meet_join_of_rays(self, rng):
        e0, e1 = basis_vector(3, 0), basis_vector(3, 1)
        r0, r1 = Subspace.ray(e0), Subspace.ray(e1)
        assert meet(r0, r1).rank == 0
        assert join(r0, r1).rank == 2
        assert meet(r0, r0).rank == 1

    def test_nested_meet_is_smaller(self, rng):
        big = random_subspace(5, 3, rng)
        small = Subspace.from_vectors([big.basis[:, 0]], ambient_dim=5)
        assert _proj_close(meet(big, small), small)
        assert _proj_close(join(big, small), big)


class TestCommutes:
    def test_orthogonal_subspaces_commute(self):
        a = Subspace.ray(basis_vector(3, 0))
        b = Subspace.ray(basis_vector(3, 1))
        assert commutes(a, b)

    def test_nested_subspaces_commute(self, rng):
        big = random_subspace(4, 3, rng)
        small = Subspace.from_vectors([big.basis[:, 1]], ambient_dim=4)
        assert commutes(big, small)

    def test_skew_rays_do_not_commute(self):
        a = Subspace.ray(basis_vector(2, 0))
        c = ComplexVector(np.array([1.0, 1.0]) / np.sqrt(2))
        assert not commutes(a, Subspace.ray(c))


class TestClosure:
    def test_orthogonal_rays_close_to_boolean_block(self):
        gens = [Subspace.ray(basis_vector(3, i)) for i in range(3)]
        out = closure(gens)
        assert out.is_closed
        assert is_boolean(out)
        # 2^3 subsets of the three atoms
        assert len(out.elements) == 8

    def test_skew_rays_in_dim2_close_without_boolean(self):
        r0 = Subspace.ray(basis_vector(2, 0))
        r1 = Subspace.ray(ComplexVector(np.array([0.6, 0.8], dtype=complex)))
        out = closure([r0, r1])
        assert out.is_closed
        # {0, r0, r0', r1, r1', full}
        assert len(out.elements) == 6
        assert not is_boolean(out)

    @given(seeds, st.integers(2, 4), st.floats(0.1, np.pi / 2 - 0.1))
    @settings(max_examples=20, deadline=None)
    def test_basis_closure_is_boolean_until_a_skew_ray_joins(self, seed, dim, angle):
        q = random_unitary(dim, np.random.default_rng(seed))
        rays = [Subspace.ray(ComplexVector(q[:, i])) for i in range(dim)]
        out = closure(rays)
        assert len(out.elements) == 2 ** dim
        assert is_boolean(out)
        # a ray in the plane of the first two basis rays commutes with neither
        skew = np.cos(angle) * q[:, 0] + np.exp(1j * seed) * np.sin(angle) * q[:, 1]
        assert not is_boolean(closure(rays + [Subspace.ray(ComplexVector(skew))]))

    def test_budget_exhaustion_carries_partial_result(self, rng):
        gens = [Subspace.ray(random_vector(3, rng)) for _ in range(3)]
        with pytest.raises(BudgetExceeded) as exc:
            closure(gens, max_new=8)
        partial = exc.value.partial
        assert partial is not None
        assert len(partial.elements) >= 8

    def test_zero_budget_refuses_every_element(self):
        with pytest.raises(BudgetExceeded) as exc:
            closure([Subspace.ray(basis_vector(3, 0))], max_new=0)
        assert exc.value.partial.elements == ()

    def test_relations_refer_to_valid_indices(self):
        gens = [Subspace.ray(basis_vector(3, i)) for i in range(2)]
        out = closure(gens)
        n = len(out.elements)
        for op, i, j, k in out.relations:
            assert op in {"meet", "join", "complement"}
            assert 0 <= i < n and 0 <= j < n and 0 <= k < n


def reference_join(a: Subspace, b: Subspace, tol=DEFAULT_TOL) -> Subspace:
    """Gram-Schmidt span of the union, one pair at a time."""
    if a.rank == 0:
        return b
    if b.rank == 0:
        return a
    cols = orthonormalize(list(a.basis.T) + list(b.basis.T), tol)
    return Subspace(a.ambient_dim, np.column_stack([c.amplitudes for c in cols]))


def reference_meet(a: Subspace, b: Subspace, tol=DEFAULT_TOL) -> Subspace:
    return orthocomplement(reference_join(orthocomplement(a), orthocomplement(b), tol))


def reference_closure(generators, budget: int, tol=DEFAULT_TOL):
    """The per-pair closure loop: rounds of complements of the new elements,
    then meet and join of every pair i < j with j new, until a round adds
    nothing or the budget refuses an element. A result joins the first
    element within ``Subspace.isclose`` distance, found by a linear scan.
    Returns (elements, relations) in emission order."""
    n = generators[0].ambient_dim
    elements: list[Subspace] = []
    projs = np.zeros((budget, n, n), dtype=np.complex128)
    relations = []
    saturated = False

    def add(s: Subspace):
        nonlocal saturated
        m = len(elements)
        hits = np.flatnonzero(
            np.linalg.norm(projs[:m] - s.projector(), axis=(1, 2)) <= tol.eps * n)
        if len(hits):
            return int(hits[0])
        if m >= budget:
            saturated = True
            return None
        projs[m] = s.projector()
        elements.append(s)
        return m

    def record(op, i, j, s):
        k = add(s)
        if k is not None:
            relations.append((op, i, j, k))

    for s in [Subspace.zero(n), Subspace.full(n), *generators]:
        add(s)
    processed = 0
    while True:
        base = len(elements)
        for i in range(processed, base):
            record("complement", i, i, orthocomplement(elements[i]))
        for i in range(base):
            for j in range(max(i + 1, processed), base):
                record("meet", i, j, reference_meet(elements[i], elements[j], tol))
                record("join", i, j, reference_join(elements[i], elements[j], tol))
        processed = base
        if saturated or len(elements) == base:
            return elements, relations


class TestReferenceAgreement:
    """The batched closure against the per-pair loop it replaced."""

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_closure_matches_per_pair_reference(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(3, 5))
        gens = [random_subspace(dim, int(rng.integers(1, dim)), rng)
                for _ in range(int(rng.integers(2, 5)))]
        budget = int(rng.integers(8, 65))
        try:
            got = closure(gens, max_new=budget)
        except BudgetExceeded as exc:
            got = exc.partial
        elems, rels = reference_closure(gens, budget)
        order = sorted(range(len(elems)), key=lambda i: canonical_key(elems[i]))
        remap = {old: new for new, old in enumerate(order)}
        assert len(got.elements) == len(elems)
        assert got.relations == tuple(sorted(
            (op, remap[i], remap[j], remap[k]) for op, i, j, k in rels))
        for mine, ref in zip(got.elements, (elems[i] for i in order)):
            assert _proj_close(mine, ref, 1e-9)


def related_pair(kind: str, dim: int, rng: np.random.Generator) -> tuple[Subspace, Subspace]:
    """Two subspaces of C^dim in the relation ``kind``, each with its own
    random basis."""
    q = random_unitary(dim, rng)

    def span(cols) -> Subspace:
        if not len(cols):
            return Subspace.zero(dim)
        w = random_unitary(len(cols), rng)  # a basis other than q's columns
        return Subspace(dim, q[:, cols] @ w)

    ra, rb = (int(r) for r in rng.integers(0, dim + 1, size=2))
    if kind == "equal":
        return span(range(ra)), span(range(ra))
    if kind == "orthogonal":
        return span(range(ra)), span(range(ra, min(dim, ra + rb)))
    if kind == "comparable":
        a, b = span(range(min(ra, rb))), span(range(max(ra, rb)))
        return (a, b) if rng.random() < 0.5 else (b, a)
    if kind == "commuting":
        return (span(np.flatnonzero(rng.random(dim) < 0.5)),
                span(np.flatnonzero(rng.random(dim) < 0.5)))
    other = random_subspace(dim, int(rng.integers(1, dim)), rng)
    if kind == "zero":
        return Subspace.zero(dim), other
    if kind == "full":
        return other, Subspace.full(dim)
    return other, random_subspace(dim, int(rng.integers(1, dim)), rng)


class TestPairKernel:
    """Meet and join of one pair from one SVD of ``C_aᴴ B_b``."""

    @given(seeds, st.integers(2, 6),
           st.sampled_from(["random", "equal", "orthogonal", "comparable", "commuting",
                            "zero", "full"]))
    @settings(max_examples=120, deadline=None)
    def test_meet_and_join_against_the_reference(self, seed, dim, kind):
        a, b = related_pair(kind, dim, np.random.default_rng(seed))
        m, j = meet(a, b), join(a, b)
        assert m.rank + j.rank == a.rank + b.rank
        assert _proj_close(m, reference_meet(a, b), 1e-12)
        assert _proj_close(j, reference_join(a, b), 1e-12)
        # the closure's columns: each result's basis, then its orthocomplement's
        ca, cb = (np.linalg.svd(s.basis)[0][:, s.rank:] for s in (a, b))
        ciu, bjv, c = _angles(ca[None], b.basis[None], DEFAULT_TOL.eps)
        eye = np.eye(dim)
        for cols, result in ((np.concatenate((bjv[0], cb), axis=1), m),
                             (np.concatenate((a.basis, ciu[0]), axis=1), j)):
            assert np.abs(cols.conj().T @ cols - eye).max() < 1e-12
            basis = cols[:, :result.rank]
            assert np.abs(basis @ basis.conj().T - result.projector()).max() < 1e-12

    @pytest.mark.parametrize("scale, rank", [(10.0, 2), (0.1, 1)])
    def test_rays_at_a_small_angle(self, scale, rank):
        # the rank cut is the sine of the principal angle against eps
        theta = scale * DEFAULT_TOL.eps
        a = Subspace.ray(basis_vector(3, 0))
        b = Subspace.ray(ComplexVector(np.array([np.cos(theta), np.sin(theta), 0.0])))
        assert join(a, b).rank == rank
        assert meet(a, b).rank == 2 - rank


class TestClosureRunState:
    """The arrays a closure run keeps, checked after every round."""

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_basis_and_complement_split_the_space(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 6))
        gens = [random_subspace(dim, int(rng.integers(1, dim)), rng)
                for _ in range(int(rng.integers(1, 4)))]
        run = _ClosureRun(gens, int(rng.integers(2, 129)), DEFAULT_TOL)
        eye = np.eye(dim)
        while True:
            grew = run.step()
            assert len(run) == len(run._ranks)
            for k, r in enumerate(run._ranks):
                u = run._units[k]
                b, c = u[:, :r], u[:, r:]
                # orthonormal columns, the basis orthogonal to the complement
                assert np.abs(u.conj().T @ u - eye).max() < 1e-12
                assert np.abs(b @ b.conj().T + c @ c.conj().T - eye).max() < 1e-12
                assert np.abs(b @ b.conj().T - run._projs[k]).max() < 1e-12
            if run.saturated or not grew:
                break


class TestPairSchedule:
    """The pairs a round evaluates, against the filtered upper triangle."""

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_lists_the_triangle_pairs_with_a_new_member_in_order(self, data):
        base = data.draw(st.one_of(st.integers(0, 600),
                                   st.sampled_from([255, 256, 257, 511, 512, 513])))
        done = data.draw(st.one_of(st.sampled_from([0, min(1, base), max(base - 1, 0)]),
                                   st.integers(0, base)))
        left, right = np.triu_indices(base, 1)
        keep = right >= done
        i, j = _round_pairs(base, done)
        np.testing.assert_array_equal(i, left[keep])
        np.testing.assert_array_equal(j, right[keep])


def canonical_key(s: Subspace) -> tuple:
    """The canonical sort key of one element as a tuple of Python numbers:
    rank, then the projector's entries rounded to 9 decimals."""
    p = np.round(s.projector(), 9) + 0.0
    return (s.rank,) + tuple(float(x) for x in p.view(np.float64).ravel())


class TestCanonicalOrder:
    @given(seeds, st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_matches_a_stable_sort_on_tuple_keys(self, seed, dim):
        """Random elements with repeats, the zero and full spaces, and basis
        rays and their complements, whose projectors tie on exact zeros."""
        rng = np.random.default_rng(seed)
        pool = [random_subspace(dim, int(rng.integers(0, dim + 1)), rng) for _ in range(4)]
        pool += [Subspace.zero(dim), Subspace.full(dim)]
        rays = [Subspace.ray(basis_vector(dim, i)) for i in range(dim)]
        pool += rays + [orthocomplement(r) for r in rays]
        elements = [pool[k] for k in rng.integers(0, len(pool), size=int(rng.integers(0, 30)))]
        want = sorted(range(len(elements)), key=lambda i: canonical_key(elements[i]))
        assert _canonical_order(elements).tolist() == want


class TestBoundedMemory:
    def test_pair_schedule_builds_no_triangle(self):
        """Listing a round's pairs at base = 4000 with done = 3990 (39,945
        pairs) peaks under 1 MiB: a 4000 x 10 mask and two index arrays of
        one int64 a pair. The upper triangle's two index arrays would take
        about 128 MB."""
        tracemalloc.start()
        try:
            i, _ = _round_pairs(4000, 3990)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(i) == 3990 * 10 + 45
        assert peak < 2**20

    def test_result_does_not_copy_the_relations(self):
        """``result()`` on a run of 800 elements and 40,219 relations peaks
        within 16 bytes a relation plus 2 KiB an element above what the run
        held: the sorted list's and the returned tuple's pointers, the
        elements and their keys. A remapped copy beside the run's list adds
        about 100 bytes a relation."""
        rng = np.random.default_rng(5)
        gens = [random_subspace(4, int(rng.integers(1, 4)), rng) for _ in range(4)]
        run = _ClosureRun(gens, 800, DEFAULT_TOL)
        while run.step() and not run.saturated:
            pass
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = run.result()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert (len(out.elements), len(out.relations)) == (800, 40219)
        assert peak < 16 * len(out.relations) + 2048 * len(out.elements)


def reference_emit(run: _ClosureRun, ops, lhs, rhs, us: np.ndarray, rank: np.ndarray) -> None:
    """``_ClosureRun._emit`` as a loop over results in emission order: each
    takes the smallest filed index within cells c-1..c+1 and the isclose
    distance, elements made by earlier results included, else a new element
    while the budget allows, else it is refused and records nothing."""
    n = run.n
    spans = us * (np.arange(n) < rank[:, None])[:, None, :]
    projs = spans @ spans.conj().transpose(0, 2, 1)
    cells = run._cells_of(projs)
    for t in range(len(us)):
        m, r = len(run), int(rank[t])
        near = [k for k in range(m) if abs(run._cell[k] - cells[t]) <= 1
                and np.linalg.norm(run._projs[k] - projs[t]) <= run.tol.eps * n]
        if near:
            k = near[0]
        elif m < run.budget:
            k = m
            if k == len(run._units):
                grow = np.zeros((max(8, k), n, n), dtype=np.complex128)
                run._units, run._projs = (
                    np.concatenate((a, grow)) for a in (run._units, run._projs))
            for c in range(r):
                run._units[k, :, c] = canonical_phase(us[t, :, c])
            run._units[k, :, r:] = us[t, :, r:]
            run._projs[k] = projs[t]
            run._cell = np.append(run._cell, cells[t])
            run._ranks.append(r)
        else:
            run.saturated = True
            continue
        run.relations.append((ops[t], lhs[t], rhs[t], k))


class _ReferenceRun(_ClosureRun):
    _emit = reference_emit


def assert_same_run(a: _ClosureRun, b: _ClosureRun) -> None:
    assert a.relations == b.relations
    assert a._ranks == b._ranks and a.saturated == b.saturated
    for stack in ("_units", "_projs"):
        assert getattr(a, stack).tobytes() == getattr(b, stack).tobytes(), stack


class TestBatchedLookup:
    """The batched dedup lookup of ``_emit`` against the per-result loop."""

    @given(seeds, st.integers(2, 5), st.integers(2, 40), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_per_result_loop(self, seed, dim, budget, commuting):
        # small budgets refuse elements part-way through a batch; spans of
        # one basis's columns make many results of a batch the same new
        # subspace, which a random subspace then skews
        rng = np.random.default_rng(seed)
        q = random_unitary(dim, rng)
        gens = [Subspace(dim, q[:, rng.random(dim) < 0.5]) if commuting else
                random_subspace(dim, int(rng.integers(1, dim)), rng)
                for _ in range(int(rng.integers(1, 4)))]
        gens += [random_subspace(dim, 1, rng)] if commuting and rng.random() < 0.5 else []
        run, ref = _ClosureRun(gens, budget, DEFAULT_TOL), _ReferenceRun(gens, budget, DEFAULT_TOL)
        while True:
            grew, ref_grew = run.step(), ref.step()
            assert grew == ref_grew
            assert_same_run(run, ref)
            if run.saturated or not grew:
                break

    @pytest.mark.parametrize("budget, got", [(6, [3, 4, 3]), (4, [3, -1, 3]), (3, [-1, -1, -1])])
    def test_one_new_subspace_twice_in_a_batch(self, budget, got):
        # the plane e1 v e2, then the plane e0 v e1, then e1 v e2 again in
        # another basis: the third result must find the element the first
        # one made, whatever the budget refused in between
        e = np.eye(3, dtype=np.complex128)
        s = np.sqrt(0.5)
        us = np.stack([np.stack([e[1], e[2], e[0]], axis=1),
                       np.stack([e[0], e[1], e[2]], axis=1),
                       np.stack([s * (e[1] + e[2]), s * (e[1] - e[2]), e[0]], axis=1)])
        rank = np.array([2, 2, 2])
        ops, lhs, rhs = ["join"] * 3, [0, 1, 2], [0, 1, 2]
        gens = [Subspace.ray(basis_vector(3, 0))]
        run, ref = _ClosureRun(gens, budget, DEFAULT_TOL), _ReferenceRun(gens, budget, DEFAULT_TOL)
        run._emit(ops, lhs, rhs, us, rank)
        ref._emit(ops, lhs, rhs, us, rank)
        assert_same_run(run, ref)
        assert run.relations == [("join", t, t, k) for t, k in enumerate(got) if k >= 0]
        assert len(run) == min(budget, 5) and run.saturated == (-1 in got)

    @pytest.mark.parametrize("first", [0.0, 1.0])
    def test_a_result_between_two_elements_takes_the_smaller_index(self, first):
        # rays at projector distance 1.5 eps * n are two elements; a ray
        # halfway between is within eps * n of both and must take element 2
        def ray(t: float) -> np.ndarray:
            return np.array([np.cos(t), np.sin(t), 0.0], dtype=np.complex128)

        step = 1.5 * DEFAULT_TOL.eps * 3 / np.sqrt(2)
        angles = (first * step, (1 - first) * step)
        run = _ClosureRun([Subspace(3, ray(a)[:, None]) for a in angles], 8, DEFAULT_TOL)
        assert len(run) == 4
        mid = np.stack([ray(step / 2), ray(step / 2 + np.pi / 2), np.eye(3)[2]], axis=1)
        run._emit(["complement"], [0], [0], mid[None], np.array([1]))
        assert run.relations == [("complement", 0, 0, 2)] and len(run) == 4


class TestDedup:
    @given(st.integers(1000, 99000))
    @settings(max_examples=30, deadline=None)
    def test_rays_straddling_a_rounding_boundary_are_one_element(self, k):
        # |v0|^2 = b -/+ 1e-10 with b on a 5-decimal rounding boundary: the
        # two rays' projectors are well within the isclose distance eps * n
        b = (k + 0.5) / 1e5
        rays = [Subspace.ray(ComplexVector(np.array([np.sqrt(b + d), np.sqrt(1 - b - d), 0.0])))
                for d in (-1e-10, 1e-10)]
        assert rays[0].isclose(rays[1])
        out = closure(rays)
        # zero, full, the ray and its complement
        assert len(out.elements) == 4

    def test_rays_straddling_a_dedup_cell_boundary_are_one_element(self):
        # bisect along a great circle until two rays 1e-11 apart file under
        # adjacent dedup cells: the lookup must probe the neighbouring cell
        def ray(t: float) -> Subspace:
            return Subspace.ray(ComplexVector(np.array([np.cos(t), np.sin(t), 0.0])))

        run = _ClosureRun([ray(0.0)], 4, DEFAULT_TOL)

        def cell(t: float) -> int:
            return run._cells_of(ray(t).projector()[None])[0]

        lo, hi = 0.3, 0.3 + 1e-6
        assert cell(lo) != cell(hi)
        while hi - lo > 1e-11:
            mid = 0.5 * (lo + hi)
            if cell(mid) == cell(lo):
                lo = mid
            else:
                hi = mid
        assert cell(hi) - cell(lo) in (-1, 1)
        assert len(closure([ray(lo), ray(hi)]).elements) == 4


GATES = {"meet": lambda a, b: a & b, "join": lambda a, b: a | b, "complement": lambda a, b: 1 - a}


@st.composite
def relation_tables(draw):
    """(n, relations) over at most 8 elements in the SublatticeSet format,
    operands drawn freely, so they repeat (meet(i, i) = k, k = i, ...)."""
    n = draw(st.integers(2, 8))
    elem = st.integers(0, n - 1)
    rels = draw(st.lists(st.tuples(st.sampled_from(sorted(GATES)), elem, elem, elem), max_size=12))
    return n, [(op, i, i if op == "complement" else j, k) for op, i, j, k in rels]


class TestTwoValuedSearch:
    """The homomorphism search behind the extension check and the ray-set
    assignment search, against brute force over all {0,1} maps."""

    @settings(max_examples=200, deadline=None)
    @given(relation_tables())
    def test_against_brute_force(self, table):
        n, rels = table
        # every map with element 0 false and element 1 true that keeps the relations,
        # in lexicographic order
        maps = [v for bits in itertools.product((0, 1), repeat=n - 2) for v in [[0, 1, *bits]]
                if all(v[k] == GATES[op](v[i], v[j]) for op, i, j, k in rels)]
        found = _two_valued(n, rels, node_cap=None)
        capped = _two_valued(n, rels, node_cap=1)
        if not maps:
            assert found is False and capped in (False, None)
            return
        # a returned map keeps every relation, and 0 is tried before 1, so it
        # is the first one listed
        assert found == maps[0]
        if len(maps) > 1:
            # propagation never values an element two maps disagree on, so
            # the search must branch, and its second node is over the cap
            assert capped is None
        else:
            assert capped in (None, maps[0])

    #: c for each (a, b), written out row by row rather than from a formula;
    #: a complement relation (complement, i, i, k) has a == b, and c = not a
    TRUTH = {
        "meet": {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1},
        "join": {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1},
        "complement": {(0, 0): 1, (0, 1): 1, (1, 0): 0, (1, 1): 0},
    }

    @pytest.mark.parametrize("op", sorted(TRUTH))
    def test_gate_tables_force_what_every_completion_shares(self, op):
        # a table that forces less only makes the search branch more, which the
        # brute-force test above cannot see; the node cap can
        for state in itertools.product((-1, 0, 1), repeat=3):
            fits = [(a, b, c) for (a, b), c in self.TRUTH[op].items()
                    if all(s in (-1, v) for s, v in zip(state, (a, b, c)))]
            entry = _GATES[op][9 * state[0] + 3 * state[1] + state[2] + 13]
            if not fits:
                assert entry is None, (op, state)
                continue
            shared = {slot: fits[0][slot] for slot in range(3)
                      if state[slot] == -1 and all(f[slot] == fits[0][slot] for f in fits)}
            assert entry is not None and dict(entry) == shared, (op, state, entry)

    @pytest.mark.parametrize("relation, values", [
        (("meet", 1, 1, 2), [0, 1, 1]),
        (("join", 0, 0, 2), [0, 1, 0]),
        (("complement", 1, 1, 2), [0, 1, 0]),
    ])
    def test_propagation_decides_without_branching(self, relation, values):
        assert _two_valued(3, [relation], node_cap=1) == values

    def test_depth_is_not_bounded_by_the_recursion_limit(self):
        # no relation forces anything, so every element past 1 opens a branch
        # and the search runs one branch deep per element
        assert _two_valued(3000, [], node_cap=None) == [0, 1] + [0] * 2998
