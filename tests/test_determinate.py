"""Determinate sublattice: membership, property states, Born measure,
and the extension contradiction machinery."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpt import (
    AlreadyMember,
    ComplexVector,
    DimMismatch,
    NotInSublattice,
    NotResolutionOfIdentity,
    ObservableSpec,
    Subspace,
    ZeroVector,
    basis_vector,
    born_check,
    build_determinate,
    complement_probe_rays,
    contains,
    extend_and_check,
    join,
    orthocomplement,
    property_states,
    truth_value,
)
from qpt.determinate import _RAY_BLOCK, _distinct_rays
from qpt.linalg import Tolerance
from conftest import maximal_observable, random_subspace, random_unitary, random_vector

seeds = st.integers(0, 2**32 - 1)


def split_observable(dim: int, rng) -> ObservableSpec:
    """Degenerate observable: one rank-2 eigenspace, the rest rays."""
    q = random_unitary(dim, rng)
    spaces = [Subspace.from_vectors([q[:, 0], q[:, 1]], ambient_dim=dim)]
    spaces += [Subspace.from_vectors([q[:, i]], ambient_dim=dim) for i in range(2, dim)]
    labels = [f"s{i}" for i in range(len(spaces))]
    return ObservableSpec(tuple(labels), tuple(spaces))


class TestObservableSpecChecks:
    def test_labels_must_align_with_eigenprojectors(self):
        with pytest.raises(ValueError):
            ObservableSpec(("a",), (Subspace.full(2), Subspace.zero(2)))

    def test_duplicate_labels_rejected(self):
        rays = tuple(Subspace.ray(basis_vector(2, i)) for i in range(2))
        with pytest.raises(ValueError):
            ObservableSpec(("a", "a"), rays)

    def test_mixed_dims_rejected(self):
        with pytest.raises(DimMismatch):
            ObservableSpec(("a", "b"), (Subspace.full(2), Subspace.full(3)))

    def test_overlapping_eigenprojectors_rejected(self):
        tilted = ComplexVector(np.array([1.0, 1.0]) / np.sqrt(2))
        with pytest.raises(NotResolutionOfIdentity, match="orthogonal"):
            ObservableSpec(("a", "b"), (Subspace.ray(basis_vector(2, 0)), Subspace.ray(tilted)))

    def test_eigenprojectors_must_sum_to_identity(self):
        with pytest.raises(NotResolutionOfIdentity, match="identity"):
            ObservableSpec(("a",), (Subspace.ray(basis_vector(2, 0)),))


class TestBuildDeterminate:
    def test_every_projection_below_eps_rejected(self):
        # weights 1/3 each, all below eps = 0.4
        psi = ComplexVector(np.ones(3) / np.sqrt(3))
        with pytest.raises(ZeroVector, match="all eigenspace projections"):
            build_determinate(psi, ObservableSpec.from_eigenbasis(np.eye(3)), Tolerance(0.4))

    def test_weights_sum_to_one(self, rng):
        d = build_determinate(random_vector(5, rng), maximal_observable(5, rng))
        assert sum(r.weight for r in d.projected_rays) == pytest.approx(1.0, abs=1e-12)

    def test_rays_are_normalized(self, rng):
        d = build_determinate(random_vector(4, rng), maximal_observable(4, rng))
        for r in d.projected_rays:
            assert np.linalg.norm(r.vector.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_maximal_observable_generic_state_has_trivial_complement(self, rng):
        d = build_determinate(random_vector(4, rng), maximal_observable(4, rng))
        assert len(d.projected_rays) == 4
        assert d.complement.rank == 0

    def test_vanishing_weight_drops_label_and_grows_complement(self, rng):
        obs = ObservableSpec.from_eigenbasis(
            [basis_vector(3, i) for i in range(3)], labels=["x", "y", "z"]
        )
        psi = ComplexVector(np.array([0.6, 0.8, 0.0], dtype=complex))
        d = build_determinate(psi, obs)
        assert [r.label for r in d.projected_rays] == ["x", "y"]
        assert d.complement.rank == 1
        # K is the z axis
        assert abs(d.complement.basis[2, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_identity_observable_keeps_only_the_state_ray(self, rng):
        psi = random_vector(4, rng)
        d = build_determinate(psi, ObservableSpec.identity(4))
        assert len(d.projected_rays) == 1
        assert d.complement.rank == 3
        assert abs(abs(psi.inner(d.projected_rays[0].vector)) - 1.0) < 1e-12

    def test_degenerate_observable_projects_into_eigenspace(self, rng):
        obs = split_observable(4, rng)
        psi = random_vector(4, rng)
        d = build_determinate(psi, obs)
        assert len(d.projected_rays) == 3
        p = obs.eigenprojectors[0].projector()
        x = p @ psi.amplitudes
        x = x / np.linalg.norm(x)
        got = d.projected_rays[0].vector.amplitudes
        assert abs(abs(np.vdot(x, got)) - 1.0) < 1e-10

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimMismatch):
            build_determinate(random_vector(3, rng), maximal_observable(4, rng))


class TestMembership:
    def test_generators_and_their_lattice_are_members(self, rng):
        psi = random_vector(5, rng)
        d = build_determinate(psi, split_observable(5, rng))
        for g in d.generators():
            assert contains(d, g)
            assert contains(d, orthocomplement(g))
        r01 = join(Subspace.ray(d.projected_rays[0].vector),
                   Subspace.ray(d.projected_rays[1].vector))
        assert contains(d, r01)
        assert contains(d, join(r01, d.complement))

    def test_zero_and_full_are_members(self, rng):
        d = build_determinate(random_vector(4, rng), maximal_observable(4, rng))
        assert contains(d, Subspace.zero(4))
        assert contains(d, Subspace.full(4))

    def test_random_ray_is_not_member(self, rng):
        d = build_determinate(random_vector(4, rng), maximal_observable(4, rng))
        assert not contains(d, Subspace.ray(random_vector(4, rng)))

    def test_subspace_of_complement_is_member(self, rng):
        psi = ComplexVector(np.array([0.6, 0.8, 0.0, 0.0], dtype=complex))
        obs = ObservableSpec.from_eigenbasis([basis_vector(4, i) for i in range(4)])
        d = build_determinate(psi, obs)
        assert d.complement.rank == 2
        k_ray = Subspace.from_vectors([d.complement.basis[:, 0]], ambient_dim=4)
        assert contains(d, k_ray)
        # superposition of a kept ray and a K direction is NOT a member ray
        mix = d.projected_rays[0].vector.amplitudes + d.complement.basis[:, 0]
        assert not contains(d, Subspace.from_vectors([mix], ambient_dim=4))

    def test_membership_closed_under_complement(self, rng):
        d = build_determinate(random_vector(4, rng), maximal_observable(4, rng))
        v = join(Subspace.ray(d.projected_rays[1].vector),
                 Subspace.ray(d.projected_rays[3].vector))
        assert contains(d, v) and contains(d, orthocomplement(v))


def blocked_state(dim: int, rng) -> tuple[ComplexVector, ObservableSpec]:
    """An observable whose eigenspaces are random blocks of one random basis,
    and a state with no weight in at least one of them, so K != 0."""
    q = random_unitary(dim, rng)
    cuts = rng.choice(np.arange(1, dim), size=int(rng.integers(0, dim)), replace=False)
    blocks = np.split(np.arange(dim), np.sort(cuts))
    obs = ObservableSpec(tuple(f"b{i}" for i in range(len(blocks))),
                         tuple(Subspace(dim, q[:, b]) for b in blocks))
    # drop one block of two or more; a lone block (rank dim >= 3) leaves K
    # of rank dim - 1
    dropped = rng.random(len(blocks)) < 0.4
    dropped[int(rng.integers(len(blocks)))] = len(blocks) > 1
    dropped[int(np.argmin(dropped))] = False
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    for b, drop in zip(blocks, dropped):
        z[b] *= not drop
    return ComplexVector(q @ z / np.linalg.norm(z)), obs


class TestMembersWithComplement:
    """Members span(S) + W, S a set of projected rays and W a subspace of K."""

    @given(seeds, st.integers(3, 6))
    @settings(max_examples=60, deadline=None)
    def test_member_truth_values_and_born_measure(self, seed, dim):
        rng = np.random.default_rng(seed)
        psi, obs = blocked_state(dim, rng)
        d = build_determinate(psi, obs)
        k = d.complement.basis
        assert k.shape[1] > 0
        chosen = rng.random(len(d.projected_rays)) < 0.5
        rays = np.stack([r.vector.amplitudes for r in d.projected_rays], axis=1)[:, chosen]
        w = k @ random_unitary(k.shape[1], rng)[:, :int(rng.integers(0, k.shape[1] + 1))]
        cols = np.concatenate((rays, w), axis=1)
        # a basis that mixes the rays with W, so no column is a projected ray
        v = Subspace(dim, np.linalg.qr(cols @ random_unitary(cols.shape[1], rng))[0]
                     if cols.shape[1] else cols)
        assert contains(d, v)
        for s in property_states(d):
            assert truth_value(s, d, v) == bool(chosen[s.selected])
        out = born_check(d, v)
        assert out.measure_prob == pytest.approx(out.born_prob, abs=1e-10)
        assert out.measure_prob == pytest.approx(
            sum(r.weight for r, c in zip(d.projected_rays, chosen) if c), abs=1e-12)
        # a kept ray r tilted toward K: r is neither inside that ray nor orthogonal to it
        t = rng.uniform(0.01, np.pi / 2 - 0.01)
        r = d.projected_rays[int(rng.integers(len(d.projected_rays)))].vector.amplitudes
        tilted = Subspace.ray(ComplexVector(np.cos(t) * r + np.sin(t) * k[:, 0]))
        assert not contains(d, tilted)

    def test_born_weight_of_a_label_dropped_below_eps_is_subtracted(self):
        # |psi_z|^2 = 2.5e-5 < eps: label z is dropped and its direction joins
        # K, so span(x) + K holds weight 2.5e-5 that no property state carries
        tol = Tolerance(1e-4)
        psi = ComplexVector(np.array([0.6, 0.8, 0.005], dtype=complex))
        obs = ObservableSpec.from_eigenbasis([basis_vector(3, i) for i in range(3)],
                                             labels=["x", "y", "z"])
        d = build_determinate(psi, obs, tol)
        assert [r.label for r in d.projected_rays] == ["x", "y"]
        v = join(Subspace.ray(d.projected_rays[0].vector), d.complement)
        assert contains(d, v, tol)
        out = born_check(d, v, tol)
        direct = float(np.real(np.vdot(d.psi.amplitudes, v.projector() @ d.psi.amplitudes)))
        assert direct - out.measure_prob == pytest.approx(0.005 ** 2 / 1.000025, rel=1e-9)
        assert out.born_prob == pytest.approx(out.measure_prob, abs=1e-14)


class TestPropertyStates:
    @given(seeds, st.integers(3, 8))
    @settings(max_examples=25, deadline=None)
    def test_one_state_per_ray_probabilities_are_weights(self, seed, dim):
        rng = np.random.default_rng(seed)
        d = build_determinate(random_vector(dim, rng), maximal_observable(dim, rng))
        states = property_states(d)
        assert len(states) == len(d.projected_rays)
        assert sum(s.probability for s in states) == pytest.approx(1.0, abs=1e-10)
        for s in states:
            assert s.probability == pytest.approx(
                d.projected_rays[s.selected].weight, abs=1e-12
            )

    def test_truth_values_follow_selected_ray(self, rng):
        d = build_determinate(random_vector(4, rng), maximal_observable(4, rng))
        states = property_states(d)
        v = join(Subspace.ray(d.projected_rays[0].vector),
                 Subspace.ray(d.projected_rays[2].vector))
        for s in states:
            assert truth_value(s, d, v) == (s.selected in (0, 2))

    def test_truth_value_rejects_non_member(self, rng):
        d = build_determinate(random_vector(4, rng), maximal_observable(4, rng))
        s = property_states(d)[0]
        with pytest.raises(NotInSublattice):
            truth_value(s, d, Subspace.ray(random_vector(4, rng)))

    def test_complement_block_is_false_in_every_state(self, rng):
        psi = ComplexVector(np.array([0.6, 0.0, 0.8, 0.0], dtype=complex))
        obs = ObservableSpec.from_eigenbasis([basis_vector(4, i) for i in range(4)])
        d = build_determinate(psi, obs)
        assert d.complement.rank == 2
        for s in property_states(d):
            assert not truth_value(s, d, d.complement)


class TestBornCheck:
    @given(seeds, st.integers(3, 8))
    @settings(max_examples=30, deadline=None)
    def test_measure_equals_born_weight_on_members(self, seed, dim):
        rng = np.random.default_rng(seed)
        psi = random_vector(dim, rng)
        d = build_determinate(psi, maximal_observable(dim, rng))
        picks = rng.random(len(d.projected_rays)) < 0.5
        rays = [Subspace.ray(r.vector) for r, p in zip(d.projected_rays, picks) if p]
        if not rays:
            v = Subspace.zero(dim)
        else:
            v = rays[0]
            for r in rays[1:]:
                v = join(v, r)
        out = born_check(d, v)
        assert out.measure_prob == pytest.approx(out.born_prob, abs=1e-10)
        direct = float(np.real(np.vdot(psi.amplitudes, v.projector() @ psi.amplitudes)))
        assert out.born_prob == pytest.approx(direct, abs=1e-10)

    def test_non_member_rejected(self, rng):
        d = build_determinate(random_vector(4, rng), maximal_observable(4, rng))
        with pytest.raises(NotInSublattice):
            born_check(d, Subspace.ray(random_vector(4, rng)))

    def test_complement_contributions_have_zero_measure(self, rng):
        psi = ComplexVector(np.array([0.6, 0.8, 0.0, 0.0], dtype=complex))
        obs = ObservableSpec.from_eigenbasis([basis_vector(4, i) for i in range(4)])
        d = build_determinate(psi, obs)
        out = born_check(d, d.complement)
        assert out.measure_prob == 0.0
        assert out.born_prob == pytest.approx(0.0, abs=1e-12)


class TestExtendAndCheck:
    def test_member_raises_already_member(self, rng):
        d = build_determinate(random_vector(3, rng), maximal_observable(3, rng))
        with pytest.raises(AlreadyMember):
            extend_and_check(d, Subspace.ray(d.projected_rays[0].vector))

    def test_dim_two_rejected(self, rng):
        d = build_determinate(random_vector(2, rng), maximal_observable(2, rng))
        v = Subspace.ray(random_vector(2, rng))
        with pytest.raises(ValueError):
            extend_and_check(d, v)

    def test_dim_mismatch(self, rng):
        d = build_determinate(random_vector(3, rng), maximal_observable(3, rng))
        with pytest.raises(DimMismatch):
            extend_and_check(d, Subspace.ray(random_vector(4, rng)))

    @pytest.mark.parametrize("dim", [3, 4])
    def test_random_nonmember_ray_contradicts(self, dim, rng):
        psi = random_vector(dim, rng)
        d = build_determinate(psi, ObservableSpec.identity(dim))
        v = Subspace.ray(random_vector(dim, rng))
        assert not contains(d, v)
        rep = extend_and_check(d, v)
        assert rep.verdict == "contradiction"
        assert rep.n_elements >= 2
        assert rep.closure_depth >= 1

    def test_report_counts_are_consistent(self, rng):
        d = build_determinate(random_vector(3, rng), maximal_observable(3, rng))
        v = Subspace.ray(random_vector(3, rng))
        rep = extend_and_check(d, v)
        assert rep.n_relations >= 0 and rep.n_rays >= 1
        # the zero and full elements are not rays
        assert rep.n_rays <= rep.n_elements - 2

    def test_probe_rays_live_in_complement(self, rng):
        psi = random_vector(5, rng)
        d = build_determinate(psi, ObservableSpec.identity(5))
        pk = d.complement.projector()
        for probe in complement_probe_rays(d):
            b = probe.basis[:, 0]
            assert np.linalg.norm(pk @ b - b) < 1e-10


def greedy_reference(cols: np.ndarray) -> int:
    """The greedy first-kept ray count from the full m x m overlap table."""
    dup = np.abs(cols.conj() @ cols.T) >= 1.0 - 1e-6
    kept: list[int] = []
    for i in range(len(cols)):
        if not dup[i, kept].any():
            kept.append(i)
    return len(kept)


class TestDistinctRays:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_greedy_pass(self, seed, dim, count):
        # copies of earlier rays, nudged within and beyond the 1 - 1e-6
        # overlap threshold and rephased, so that chains of near-duplicates
        # leave some rays dropped and some kept
        rng = np.random.default_rng(seed)
        rays = []
        for _ in range(count):
            if rays and rng.random() < 0.6:
                v = rays[int(rng.integers(len(rays)))] + rng.choice([1e-5, 1e-3]) * (
                    rng.normal(size=dim) + 1j * rng.normal(size=dim))
            else:
                v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            rays.append(np.exp(1j * rng.uniform(0, 2 * np.pi)) * v / np.linalg.norm(v))
        cols = np.array(rays, dtype=np.complex128).reshape(count, dim)
        assert _distinct_rays(cols) == greedy_reference(cols)

    @given(seeds, st.integers(2, 5),
           st.sampled_from([0, 1, _RAY_BLOCK - 1, _RAY_BLOCK, _RAY_BLOCK + 1, 3 * _RAY_BLOCK + 5]))
    @settings(max_examples=60, deadline=None)
    def test_blocks_match_the_full_table(self, seed, dim, count):
        # copies of rays from the block before, the same block or any earlier
        # one, so near-duplicates straddle block edges; each copy is nudged by
        # at most 1e-9 (a duplicate) or at least 1e-2 (a new ray), so that no
        # overlap sits near the 1 - 1e-6 threshold
        rng = np.random.default_rng(seed)
        rays = []
        for r in range(count):
            if rays and rng.random() < 0.5:
                lo = rng.choice([max(r - 2 * _RAY_BLOCK, 0), r - r % _RAY_BLOCK, 0])
                src = rays[int(rng.integers(min(lo, r - 1), r))]
                v = src + rng.choice([0.0, 1e-10, 1e-2, 0.3]) * (
                    rng.normal(size=dim) + 1j * rng.normal(size=dim))
            else:
                v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            rays.append(np.exp(1j * rng.uniform(0, 2 * np.pi)) * v / np.linalg.norm(v))
        cols = np.array(rays, dtype=np.complex128).reshape(count, dim)
        assert _distinct_rays(cols) == greedy_reference(cols)


class TestBoundedMemory:
    def test_distinct_rays_holds_one_block_of_overlaps(self):
        """Counting 3,000 random dim-4 rays peaks within 3 * B * m * 16
        bytes (B = ``_RAY_BLOCK``): one block's complex overlaps, their
        moduli and the comparison. The full m x m Gram and its moduli would
        take about 206 MiB."""
        m = 3000
        rng = np.random.default_rng(0)
        cols = rng.normal(size=(m, 4)) + 1j * rng.normal(size=(m, 4))
        cols /= np.linalg.norm(cols, axis=1, keepdims=True)
        tracemalloc.start()
        try:
            count = _distinct_rays(cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == m
        assert peak < 3 * _RAY_BLOCK * m * 16
