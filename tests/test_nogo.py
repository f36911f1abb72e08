"""Ray sets, noncontextual-assignment search, fixtures, and CHSH/LHV checks."""

from __future__ import annotations

import itertools
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpt
from qpt import (
    Assignment,
    ChshSetting,
    ComplexVector,
    DimMismatch,
    NoAssignment,
    RayFileError,
    RaySet,
    Satisfiable,
    TableShapeMismatch,
    Unsatisfiable,
    chsh_lhv_bound,
    chsh_value,
    correlation_table,
    correlator,
    find_assignment,
    local_map_search,
    measurement_rays,
    setting_ray_sets,
    singlet,
    spin_observable,
)
from qpt.nogo import FEASIBILITY_TOL, _dim_cliques, _local_strategies
from conftest import random_unitary

FIXTURES = Path(qpt.__file__).resolve().parent / "fixtures"

angles = st.floats(0, np.pi, allow_nan=False, exclude_max=True)


def dim2_rays(angle_list):
    return [np.array([np.cos(a), np.sin(a)], dtype=complex) for a in angle_list]


class TestRaySet:
    def test_contexts_derived_from_orthogonality(self):
        vecs = dim2_rays([0.0, np.pi / 2, np.pi / 4, 3 * np.pi / 4])
        rs = RaySet.from_vectors(vecs)
        assert len(rs.rays) == 4
        assert sorted(rs.contexts) == [(0, 1), (2, 3)]

    def test_coincident_rays_rejected(self):
        v = np.array([0.6, 0.8], dtype=complex)
        with pytest.raises(ValueError):
            RaySet.from_vectors([v, np.exp(1j) * v])

    def test_empty_ray_set_rejected(self):
        with pytest.raises(ValueError):
            RaySet(())

    def test_mixed_dims_rejected(self):
        with pytest.raises(DimMismatch):
            RaySet((ComplexVector(np.array([1.0, 0.0])), ComplexVector(np.array([1.0, 0.0, 0.0]))))

    def test_non_unit_rays_rejected(self):
        with pytest.raises(ValueError):
            RaySet((ComplexVector(np.array([2.0, 0.0])),))

    def test_orthogonal_predicate(self):
        rs = RaySet.from_vectors(dim2_rays([0.0, np.pi / 2, np.pi / 4]))
        assert rs.orthogonal(0, 1)
        assert not rs.orthogonal(0, 2)


class TestRayFiles:
    def test_comments_blanks_and_complex_components(self, tmp_path):
        f = tmp_path / "demo.rays"
        f.write_text(
            "# demo file\n"
            "\n"
            "1,0\n"
            "0,1\n"
            "0.5+0.5j,0.5-0.5j\n"
        )
        rs = RaySet.from_file(f)
        assert len(rs.rays) == 3
        assert rs.dim == 2

    def test_malformed_component_reports_line(self, tmp_path):
        f = tmp_path / "bad.rays"
        f.write_text("1,0\nfoo,1\n")
        with pytest.raises(RayFileError) as exc:
            RaySet.from_file(f)
        assert "2" in str(exc.value)

    def test_inconsistent_dimension_rejected(self, tmp_path):
        f = tmp_path / "bad.rays"
        f.write_text("1,0\n1,0,0\n")
        with pytest.raises(RayFileError):
            RaySet.from_file(f)

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "empty.rays"
        f.write_text("# nothing here\n")
        with pytest.raises(RayFileError):
            RaySet.from_file(f)

    def test_one_component_rays_rejected(self, tmp_path):
        f = tmp_path / "one.rays"
        f.write_text("1\n")
        with pytest.raises(RayFileError, match="at least 2 components"):
            RaySet.from_file(f)

    def test_zero_ray_rejected(self, tmp_path):
        f = tmp_path / "zero.rays"
        f.write_text("1,0\n0,0\n")
        with pytest.raises(RayFileError):
            RaySet.from_file(f)


class TestBundledFixtures:
    def test_18_ray_dim4_structure(self):
        rs = RaySet.from_file(FIXTURES / "ks18-d4.rays")
        assert rs.dim == 4
        assert len(rs.rays) == 18
        assert len(rs.contexts) == 9
        degree = [0] * 18
        for ctx in rs.contexts:
            assert len(ctx) == 4
            for i in ctx:
                degree[i] += 1
        assert degree == [2] * 18

    def test_18_ray_dim4_has_no_assignment_quickly(self):
        rs = RaySet.from_file(FIXTURES / "ks18-d4.rays")
        t0 = time.perf_counter()
        out = find_assignment(rs)
        assert time.perf_counter() - t0 < 1.0
        assert isinstance(out, NoAssignment)
        # the witness really is unsatisfiable on its own
        again = find_assignment(rs, restrict_to=out.witness)
        assert isinstance(again, NoAssignment)

    def test_33_ray_dim3_uncolorable(self):
        rs = RaySet.from_file(FIXTURES / "ks33-d3.rays")
        assert rs.dim == 3
        assert len(rs.rays) == 33
        assert len(rs.contexts) == 16
        assert isinstance(find_assignment(rs), NoAssignment)

    def test_witness_is_deletion_minimal(self):
        rs = RaySet.from_file(FIXTURES / "ks18-d4.rays")
        out = find_assignment(rs)
        for drop in out.witness:
            sub = tuple(c for c in out.witness if c != drop)
            assert isinstance(find_assignment(rs, restrict_to=sub), Assignment)


class TestContextOracle:
    """Independent route: derive contexts as maximal cliques of the
    orthogonality graph with networkx and compare."""

    @pytest.mark.parametrize("name", ["ks18-d4.rays", "ks33-d3.rays"])
    def test_contexts_match_external_clique_finder(self, name):
        nx = pytest.importorskip("networkx")
        rs = RaySet.from_file(FIXTURES / name)
        g = nx.Graph()
        g.add_nodes_from(range(len(rs.rays)))
        for i, j in itertools.combinations(range(len(rs.rays)), 2):
            if rs.orthogonal(i, j):
                g.add_edge(i, j)
        cliques = {
            tuple(sorted(c)) for c in nx.find_cliques(g) if len(c) == rs.dim
        }
        assert set(rs.contexts) == cliques

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_contexts_are_the_maximal_dim_cliques(self, data):
        # random orthogonality graphs, some with a planted (dim + 1)-clique
        # whose size-dim subsets are cliques but not maximal ones
        dim, m = data.draw(st.integers(2, 5)), data.draw(st.integers(0, 10))
        orth = np.zeros((m, m), dtype=bool)
        orth[np.triu_indices(m, 1)] = data.draw(
            st.lists(st.booleans(), min_size=m * (m - 1) // 2, max_size=m * (m - 1) // 2))
        if m > dim and data.draw(st.booleans()):
            planted = data.draw(st.lists(st.integers(0, m - 1), min_size=dim + 1,
                                         max_size=dim + 1, unique=True))
            orth[np.ix_(planted, planted)] = True
        orth |= orth.T
        np.fill_diagonal(orth, False)
        brute = tuple(
            c for c in itertools.combinations(range(m), dim)
            if all(orth[i, j] for i, j in itertools.combinations(c, 2))
            and not any(all(orth[v, i] for i in c) for v in range(m) if v not in c)
        )
        assert _dim_cliques(orth, dim) == brute


class TestFindAssignment:
    def test_single_basis_lexicographic_minimum(self):
        # dim 40: one context among the 2^40 subsets of a complete
        # orthogonality graph, which the context search must not walk
        for dim in (3, 40):
            rs = RaySet.from_vectors(list(np.eye(dim, dtype=complex)))
            assert rs.contexts == (tuple(range(dim)),)
            out = find_assignment(rs)
            assert isinstance(out, Assignment)
            assert out.values == (0,) * (dim - 1) + (1,)

    def test_lexicographic_first_against_brute_force(self):
        # two overlapping dim-3 contexts sharing one ray
        e = np.eye(3, dtype=complex)
        s = 1 / np.sqrt(2)
        vecs = [e[:, 0], e[:, 1], e[:, 2],
                np.array([0, s, s], dtype=complex),
                np.array([0, s, -s], dtype=complex)]
        rs = RaySet.from_vectors(vecs)
        out = find_assignment(rs)
        assert isinstance(out, Assignment)

        def valid(vals):
            for ctx in rs.contexts:
                if sum(vals[i] for i in ctx) != 1:
                    return False
            for i, j in itertools.combinations(range(len(vecs)), 2):
                if vals[i] == vals[j] == 1 and rs.orthogonal(i, j):
                    return False
            return True

        best = min(v for v in itertools.product((0, 1), repeat=len(vecs)) if valid(v))
        assert out.values == best

    @given(st.lists(angles, min_size=2, max_size=7, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_dim2_always_colorable_and_sound(self, angle_list):
        try:
            rs = RaySet.from_vectors(dim2_rays(angle_list))
        except ValueError:
            return  # nearly coincident draws
        out = find_assignment(rs)
        assert isinstance(out, Assignment)
        for ctx in rs.contexts:
            assert sum(out.values[i] for i in ctx) == 1
        for i, j in itertools.combinations(range(len(rs.rays)), 2):
            if rs.orthogonal(i, j):
                assert out.values[i] + out.values[j] <= 1

    def test_restrict_to_ignores_outside_contexts(self):
        rs = RaySet.from_file(FIXTURES / "ks18-d4.rays")
        out = find_assignment(rs, restrict_to=(0,))
        assert isinstance(out, Assignment)


def brute_force_strategies(rs: RaySet) -> list[tuple[int, ...]]:
    """Per-context outcomes of every {0,1} assignment of the rays with exactly
    one 1 per context and no two orthogonal rays both 1."""
    m = len(rs.rays)
    out = set()
    for vals in itertools.product((0, 1), repeat=m):
        if any(vals[i] == vals[j] == 1 and rs.orthogonal(i, j)
               for i, j in itertools.combinations(range(m), 2)):
            continue
        ones = [[k for k, ray in enumerate(ctx) if vals[ray] == 1] for ctx in rs.contexts]
        if all(len(o) == 1 for o in ones):
            out.add(tuple(o[0] for o in ones))
    return sorted(out)


class TestLocalStrategies:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(1, 3), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, seed, dim, n_bases, stray):
        # bases after the first share its first ray when dim > 2, so
        # contexts overlap; a stray ray lies in no context
        rng = np.random.default_rng(seed)
        q = random_unitary(dim, rng)
        vecs = [q[:, i] for i in range(dim)]
        for _ in range(n_bases - 1):
            if dim > 2:
                rest = q[:, 1:] @ random_unitary(dim - 1, rng)
                vecs += [rest[:, i] for i in range(dim - 1)]
            else:
                u = random_unitary(dim, rng)
                vecs += [u[:, i] for i in range(dim)]
        if stray:
            vecs.append(random_unitary(dim, rng)[:, 0])
        try:
            rs = RaySet.from_vectors(vecs)
        except ValueError:
            return  # nearly coincident draws
        assert _local_strategies(rs) == brute_force_strategies(rs)


class TestChsh:
    def test_lhv_bound_is_exactly_two(self):
        assert chsh_lhv_bound() == 2.0

    def test_singlet_correlator_closed_form(self):
        psi = singlet()
        for a, b in [(0.0, 0.3), (1.1, 2.0), (np.pi / 4, -np.pi / 3)]:
            assert correlator(psi, a, b) == pytest.approx(-np.cos(a - b), abs=1e-12)

    def test_optimal_setting_reaches_tsirelson(self):
        v = chsh_value(singlet(), ChshSetting.optimal())
        assert v == pytest.approx(2 * np.sqrt(2), abs=1e-12)

    @given(angles, angles, angles, angles)
    @settings(max_examples=50, deadline=None)
    def test_tsirelson_ceiling(self, a1, a2, b1, b2):
        v = chsh_value(singlet(), ChshSetting((a1, a2), (b1, b2)))
        assert v <= 2 * np.sqrt(2) + 1e-9

    @given(angles, st.floats(-2, 2, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_singlet_value_invariant_under_joint_rotation(self, delta, base):
        s0 = ChshSetting((base, base + 1.1), (base + 0.4, base - 0.7))
        s1 = ChshSetting(
            tuple(a + delta for a in s0.alice_angles),
            tuple(b + delta for b in s0.bob_angles),
        )
        assert chsh_value(singlet(), s0) == pytest.approx(
            chsh_value(singlet(), s1), abs=1e-10
        )

    def test_spin_observable_eigenrays(self):
        theta = 0.8
        m = spin_observable(theta).entries
        plus, minus = measurement_rays(theta)
        assert np.linalg.norm(m @ plus.amplitudes - plus.amplitudes) < 1e-12
        assert np.linalg.norm(m @ minus.amplitudes + minus.amplitudes) < 1e-12


class TestCorrelationTable:
    def test_rows_are_distributions(self):
        tbl = correlation_table(singlet(), ChshSetting.optimal())
        assert tbl.shape == (2, 2, 2, 2)
        assert (tbl >= -1e-12).all()
        for i, j in itertools.product(range(2), repeat=2):
            assert tbl[i, j].sum() == pytest.approx(1.0, abs=1e-12)

    def test_no_signalling_marginals(self):
        tbl = correlation_table(singlet(), ChshSetting.optimal())
        for i in range(2):
            ma0 = tbl[i, 0].sum(axis=1)
            ma1 = tbl[i, 1].sum(axis=1)
            assert np.abs(ma0 - ma1).max() < 1e-12
        for j in range(2):
            mb0 = tbl[0, j].sum(axis=0)
            mb1 = tbl[1, j].sum(axis=0)
            assert np.abs(mb0 - mb1).max() < 1e-12

    def test_setting_ray_sets_align_with_axes(self):
        setting = ChshSetting.optimal()
        rs_a, rs_b = setting_ray_sets(setting)
        assert rs_a.contexts == ((0, 1), (2, 3))
        assert rs_b.contexts == ((0, 1), (2, 3))
        for rs, angs in ((rs_a, setting.alice_angles), (rs_b, setting.bob_angles)):
            for k, th in enumerate(angs):
                plus, minus = measurement_rays(th)
                for offset, ref in ((0, plus), (1, minus)):
                    got = rs.rays[2 * k + offset].amplitudes
                    assert abs(abs(np.vdot(got, ref.amplitudes)) - 1.0) < 1e-12


class TestLocalMapSearch:
    def test_singlet_optimal_table_has_no_local_model(self):
        setting = ChshSetting.optimal()
        tbl = correlation_table(singlet(), setting)
        rs_a, rs_b = setting_ray_sets(setting)
        out = local_map_search(rs_a, rs_b, tbl)
        assert isinstance(out, Unsatisfiable)
        assert out.residual > 1e-6

    def test_product_state_table_is_satisfiable(self):
        setting = ChshSetting.optimal()
        up = np.array([1.0, 0.0], dtype=complex)
        tbl = correlation_table(ComplexVector(np.kron(up, up)), setting)
        rs_a, rs_b = setting_ray_sets(setting)
        out = local_map_search(rs_a, rs_b, tbl)
        assert isinstance(out, Satisfiable)
        w = np.asarray(out.weights)
        assert (w >= -1e-9).all()
        assert w.sum() == pytest.approx(1.0, abs=1e-8)

    def test_deterministic_strategy_mixture_is_satisfiable(self, rng):
        # build an explicitly local table: mixture of deterministic strategies
        setting = ChshSetting((0.2, 1.3), (0.7, 2.1))
        rs_a, rs_b = setting_ray_sets(setting)
        tbl = np.zeros((2, 2, 2, 2))
        strategies = [((0, 1), (1, 0)), ((1, 1), (0, 0)), ((0, 0), (1, 1))]
        mix = np.array([0.5, 0.3, 0.2])
        for w, (fa, fb) in zip(mix, strategies):
            for i, j in itertools.product(range(2), repeat=2):
                tbl[i, j, fa[i], fb[j]] += w
        out = local_map_search(rs_a, rs_b, tbl)
        assert isinstance(out, Satisfiable)

    def test_more_than_four_settings_rejected(self):
        # five orthonormal pairs in dim 2: five contexts on side a
        thetas = np.linspace(0.0, np.pi / 2, 5, endpoint=False)
        rs_a = RaySet.from_vectors(dim2_rays(np.concatenate((thetas, thetas + np.pi / 2))))
        rs_b = setting_ray_sets(ChshSetting.optimal())[1]
        assert len(rs_a.contexts) == 5
        with pytest.raises(ValueError, match="4 settings"):
            local_map_search(rs_a, rs_b, np.zeros((5, 2, 2, 2)))

    def test_wrong_shape_rejected(self):
        setting = ChshSetting.optimal()
        rs_a, rs_b = setting_ray_sets(setting)
        with pytest.raises(TableShapeMismatch):
            local_map_search(rs_a, rs_b, np.zeros((2, 2, 2)))

    def test_subclassical_value_still_quantum_table(self):
        # at equal angles the reported sum is 0, but the largest of the four
        # CHSH sums is exactly 2: the table lies on the boundary of the local
        # polytope, where a local model still exists
        setting = ChshSetting((0.0, np.pi / 2), (0.0, np.pi / 2))
        tbl = correlation_table(singlet(), setting)
        rs_a, rs_b = setting_ray_sets(setting)
        assert isinstance(local_map_search(rs_a, rs_b, tbl), Satisfiable)

    def test_interior_table_is_satisfiable(self):
        # largest CHSH sum sqrt(2): strictly inside the local polytope
        angles = (0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4)
        assert largest_chsh_sum(*angles) <= 1.9
        setting = ChshSetting(angles[:2], angles[2:])
        tbl = correlation_table(singlet(), setting)
        rs_a, rs_b = setting_ray_sets(setting)
        assert isinstance(local_map_search(rs_a, rs_b, tbl), Satisfiable)


def largest_chsh_sum(a1, a2, b1, b2) -> float:
    """max |Σ − 2E_xy| over the singlet's closed-form correlators -cos(a - b)."""
    corr = [-np.cos(a - b) for a in (a1, a2) for b in (b1, b2)]
    return max(abs(sum(corr) - 2 * e) for e in corr)


def random_bases(settings: int, dim: int, rng) -> RaySet:
    """A ray set whose contexts are ``settings`` random real orthonormal bases."""
    return RaySet.from_vectors([v for _ in range(settings)
                                for v in np.linalg.qr(rng.normal(size=(dim, dim)))[0].T])


class TestOneLocalityProgram:
    """``local_map_search`` against Fine's theorem: a 2x2 no-signalling table
    has a local model iff all four CHSH sums are at most 2."""

    @given(angles, angles, angles, angles)
    @settings(max_examples=60, deadline=None)
    def test_singlet_verdict_follows_the_largest_chsh_sum(self, a1, a2, b1, b2):
        s = largest_chsh_sum(a1, a2, b1, b2)
        if abs(s - 2.0) <= 1e-5:
            return  # within the program's resolution either verdict is right
        setting = ChshSetting((a1, a2), (b1, b2))
        try:
            rs_a, rs_b = setting_ray_sets(setting)
        except ValueError:
            return  # nearly coincident draws
        out = local_map_search(rs_a, rs_b, correlation_table(singlet(), setting))
        assert isinstance(out, Satisfiable) == (s < 2.0)
        if isinstance(out, Unsatisfiable):
            assert 0.0 < out.residual < float("inf")

    @given(angles, angles, angles, angles)
    @settings(max_examples=40, deadline=None)
    def test_singlet_table_is_no_signalling(self, a1, a2, b1, b2):
        tbl = correlation_table(singlet(), ChshSetting((a1, a2), (b1, b2)))
        alice, bob = tbl.sum(axis=3), tbl.sum(axis=2)
        assert np.abs(alice[:, 0] - alice[:, 1]).max() <= 1e-12
        assert np.abs(bob[0] - bob[1]).max() <= 1e-12

    @pytest.mark.parametrize("sides", [((2, 2), (2, 2)), ((3, 2), (2, 2)), ((2, 3), (2, 3)),
                                       ((3, 3), (3, 2)), ((4, 2), (3, 3))])
    @pytest.mark.parametrize("seed", range(4))
    def test_strategy_mixture_weights_reproduce_the_table(self, sides, seed):
        # (settings, outcomes) per side; a local table must give an optimum
        # of exactly 0, since a round-off residual would read Unsatisfiable
        rng = np.random.default_rng(seed)
        rs_a, rs_b = (random_bases(n, dim, rng) for n, dim in sides)
        pairs = list(itertools.product(_local_strategies(rs_a), _local_strategies(rs_b)))
        assert len(pairs) == (sides[0][1] ** sides[0][0]) * (sides[1][1] ** sides[1][0])
        shape = (sides[0][0], sides[1][0], sides[0][1], sides[1][1])

        def table_of(weights):
            tbl = np.zeros(shape)
            for w, (sa, sb) in zip(weights, pairs):
                for x, y in itertools.product(range(shape[0]), range(shape[1])):
                    tbl[x, y, sa[x], sb[y]] += w
            return tbl

        tbl = table_of(rng.dirichlet(np.full(len(pairs), 0.1 if seed % 2 else 1.0)))
        out = local_map_search(rs_a, rs_b, tbl)
        assert isinstance(out, Satisfiable)
        w = np.asarray(out.weights)
        assert len(w) == len(pairs) and (w >= 0.0).all()
        assert w.sum() == pytest.approx(1.0, abs=1e-8)
        assert np.abs(table_of(w) - tbl).max() <= 1e-6

    def test_one_linear_program_per_search(self, monkeypatch):
        import scipy.optimize

        calls = []
        solve = scipy.optimize.linprog

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return solve(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", counted)
        for setting in (ChshSetting.optimal(), ChshSetting((0.0, np.pi / 2), (0.0, np.pi / 2))):
            calls.clear()
            local_map_search(*setting_ray_sets(setting), correlation_table(singlet(), setting))
            assert len(calls) == 1
            assert calls[0]["options"] == {"primal_feasibility_tolerance": FEASIBILITY_TOL}
