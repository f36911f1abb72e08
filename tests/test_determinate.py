"""Determinate sublattice: membership, property states, Born measure,
and the extension contradiction machinery."""

from __future__ import annotations

import tracemalloc
from pathlib import Path

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
    canonical_phase,
    build_determinate,
    complement_probe_rays,
    contains,
    extend_and_check,
    join,
    orthocomplement,
    truth_value,
)
from qpt.determinate import _RAY_BLOCK, _distinct_rays
from qpt.linalg import DEFAULT_TOL, Tolerance
from conftest import maximal_observable, random_subspace, random_unitary, random_vector

seeds = st.integers(0, 2**32 - 1)


def split_observable(dim: int, rng) -> ObservableSpec:
    """Degenerate observable: one rank-2 eigenspace, the rest rays."""
    q = random_unitary(dim, rng)
    spaces = [Subspace.from_vectors([q[:, 0], q[:, 1]], ambient_dim=dim)]
    spaces += [Subspace.from_vectors([q[:, i]], ambient_dim=dim) for i in range(2, dim)]
    labels = [f"s{i}" for i in range(len(spaces))]
    return ObservableSpec(tuple(labels), [s.basis for s in spaces])


class TestObservableSpecChecks:
    def test_labels_must_align_with_eigenprojectors(self):
        with pytest.raises(ValueError):
            ObservableSpec(("a",), (np.eye(2), np.zeros((2, 0))))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            ObservableSpec(("a", "a"), (np.eye(2)[:, :1], np.eye(2)[:, 1:]))

    def test_mixed_dims_rejected(self):
        with pytest.raises(DimMismatch):
            ObservableSpec(("a", "b"), (np.eye(2), np.eye(3)))

    def test_overlapping_eigenprojectors_rejected(self):
        tilted = np.array([[1.0], [1.0]]) / np.sqrt(2)
        with pytest.raises(NotResolutionOfIdentity, match="orthogonal"):
            ObservableSpec(("a", "b"), (np.eye(2)[:, :1], tilted))

    @pytest.mark.parametrize("factor, accepted", [(2.0, False), (0.5, True)])
    def test_orthogonality_is_read_from_the_overlaps(self, factor, accepted):
        # rays of C^3 spread over every coordinate (|entries| = 1/sqrt(3)),
        # the second tilted toward the first so that |<a, b>| = factor * eps * n
        q = np.fft.fft(np.eye(3)) / np.sqrt(3)
        delta = factor * DEFAULT_TOL.eps * 3
        tilted = np.sqrt(1 - delta**2) * q[:, 1] + delta * q[:, 0]
        rays = tuple(Subspace.ray(ComplexVector(v)).basis for v in (q[:, 0], tilted, q[:, 2]))
        assert abs(np.vdot(rays[0], rays[1])) == pytest.approx(delta, rel=1e-6)
        if accepted:
            ObservableSpec(("a", "b", "c"), rays)
        else:
            with pytest.raises(NotResolutionOfIdentity, match="orthogonal"):
                ObservableSpec(("a", "b", "c"), rays)

    def test_eigenprojectors_must_sum_to_identity(self):
        with pytest.raises(NotResolutionOfIdentity, match="identity"):
            ObservableSpec(("a",), (np.eye(2)[:, :1],))


    def test_non_orthonormal_columns_in_a_block_rejected(self):
        # a plane whose two columns overlap, and a ray of norm 2; the blocks
        # span orthogonal subspaces, so only each block's own Gram matrix fails
        skew = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]) / np.array([1.0, np.sqrt(2)])
        with pytest.raises(ValueError, match="not orthonormal"):
            ObservableSpec(("plane", "axis"), (skew, np.eye(3)[:, 2:]))
        with pytest.raises(ValueError, match="not orthonormal"):
            ObservableSpec(("a", "b"), (2 * np.eye(2)[:, :1], np.eye(2)[:, 1:]))

    def test_nan_block_rejected(self):
        # a NaN maximum compares False with any bound: each check must read it as failed
        with pytest.raises(ValueError, match="not orthonormal"):
            ObservableSpec(("a", "b"), (np.array([[np.nan], [0.0]]), np.eye(2)[:, 1:]))

    def test_block_of_one_dimension_rejected(self):
        with pytest.raises(ValueError, match="not 2-D"):
            ObservableSpec(("a", "b"), (np.array([1.0, 0.0]), np.array([0.0, 1.0])))


def per_ray_route(vectors, labels=None, tol: Tolerance = DEFAULT_TOL) -> ObservableSpec:
    """``from_eigenbasis`` through one ``Subspace.ray`` per vector, the
    construction it replaced."""
    coerced = [v if isinstance(v, ComplexVector) else ComplexVector(np.asarray(v, dtype=complex))
               for v in vectors]
    rays = [Subspace.ray(v, tol) for v in coerced]
    if labels is None:
        labels = tuple(f"e{i}" for i in range(len(rays)))
    return ObservableSpec(tuple(labels), [r.basis for r in rays])


def outcome(build, *args):
    """The observable's labels and block bytes, or the error's type and text."""
    try:
        obs = build(*args)
    except Exception as exc:  # the routes must fail alike, whatever the error
        return type(exc), str(exc)
    return obs.labels, [(b.shape, b.tobytes()) for b in obs.blocks]


class TestObservableArrays:
    """An observable is one basis array, read as per-label column blocks."""

    @given(seeds, st.integers(1, 5), st.floats(-3, 200),
           st.sampled_from(["valid", "empty", "zero", "nonfinite", "mixed"]))
    @settings(max_examples=150, deadline=None)
    def test_from_eigenbasis_matches_the_per_ray_route(self, seed, dim, log_scale, fault):
        rng = np.random.default_rng(seed)
        q = random_unitary(dim, rng) * 10.0**log_scale
        cols = [q[:, i] if rng.random() < 0.5 else ComplexVector(q[:, i]) for i in range(dim)]
        at = int(rng.integers(dim))
        if fault == "empty":
            cols = []
        elif fault == "zero":
            cols[at] = np.zeros(dim)
        elif fault == "nonfinite":
            cols[at] = np.where(np.arange(dim) == 0, np.nan, q[:, at])
        elif fault == "mixed":
            cols[at] = np.ones(dim + 1)
        ours = outcome(ObservableSpec.from_eigenbasis, cols)
        assert ours == outcome(per_ray_route, cols)
        assert isinstance(ours[0], tuple) == (fault == "valid")

    def test_blocks_are_read_only_views_of_one_array(self, rng):
        q = random_unitary(5, rng)
        obs = ObservableSpec(("a", "b", "c", "d"), (q[:, :2], q[:, 2:2], q[:, 2:3], q[:, 3:]))
        assert [b.shape for b in obs.blocks] == [(5, 2), (5, 0), (5, 1), (5, 2)]

        def root(a):
            while a.base is not None:
                a = a.base
            return a

        whole = root(obs.blocks[0])
        assert whole.shape == (5, 5) and not whole.flags.writeable
        assert all(root(b) is whole for b in obs.blocks)
        assert np.array_equal(whole, q)
        assert not np.shares_memory(whole, q)
        for b in obs.blocks:
            assert not b.flags.owndata
            if b.size:
                with pytest.raises(ValueError, match="read-only"):
                    b[0, 0] = 0.0


def quick_start_block() -> str:
    """The first fenced python block under README's ``## Quick start (API)``."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start (API)", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs_and_gives_its_comments_values():
    namespace: dict = {}
    exec(compile(quick_start_block(), "README.md quick start", "exec"), namespace)
    d, v = namespace["d"], namespace["v"]
    assert d.labels == ("e0", "e1")
    assert d.weights.tolist() == pytest.approx([0.36, 0.64], abs=1e-12)
    assert d.rays.shape == (3, 2)
    assert [truth_value(i, d, v) for i in range(len(d.labels))] == [True, False]
    assert contains(d, v) is True
    bc = born_check(d, v)
    assert bc.measure_prob == pytest.approx(0.36, abs=1e-12)
    assert bc.born_prob == pytest.approx(0.36, abs=1e-12)
    plane = namespace["plane"]
    assert plane.labels == ("plane",) and plane.weights.tolist() == pytest.approx([1.0])
    assert plane.complement.rank == 2

class TestBuildDeterminate:
    def test_every_projection_below_eps_rejected(self):
        # weights 1/3 each, all below eps = 0.4
        psi = ComplexVector(np.ones(3) / np.sqrt(3))
        with pytest.raises(ZeroVector, match="all eigenspace projections"):
            build_determinate(psi, ObservableSpec.from_eigenbasis(np.eye(3)), Tolerance(0.4))

    def test_weights_sum_to_one(self, rng):
        d = build_determinate(random_vector(5, rng), maximal_observable(5, rng))
        assert sum(d.weights.tolist()) == pytest.approx(1.0, abs=1e-12)

    def test_rays_are_normalized(self, rng):
        d = build_determinate(random_vector(4, rng), maximal_observable(4, rng))
        for i in range(len(d.labels)):
            assert np.linalg.norm(d.rays[:, i]) == pytest.approx(1.0, abs=1e-12)

    def test_maximal_observable_generic_state_has_trivial_complement(self, rng):
        d = build_determinate(random_vector(4, rng), maximal_observable(4, rng))
        assert len(d.labels) == 4
        assert d.complement.rank == 0

    def test_vanishing_weight_drops_label_and_grows_complement(self, rng):
        obs = ObservableSpec.from_eigenbasis(
            [basis_vector(3, i) for i in range(3)], labels=["x", "y", "z"]
        )
        psi = ComplexVector(np.array([0.6, 0.8, 0.0], dtype=complex))
        d = build_determinate(psi, obs)
        assert d.labels == ("x", "y")
        assert d.complement.rank == 1
        # K is the z axis
        assert abs(d.complement.basis[2, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_identity_observable_keeps_only_the_state_ray(self, rng):
        psi = random_vector(4, rng)
        d = build_determinate(psi, ObservableSpec.identity(4))
        assert len(d.labels) == 1
        assert d.complement.rank == 3
        assert abs(abs(np.vdot(psi.amplitudes, d.rays[:, 0])) - 1.0) < 1e-12

    def test_degenerate_observable_projects_into_eigenspace(self, rng):
        obs = split_observable(4, rng)
        psi = random_vector(4, rng)
        d = build_determinate(psi, obs)
        assert len(d.labels) == 3
        p = obs.blocks[0] @ obs.blocks[0].conj().T
        x = p @ psi.amplitudes
        x = x / np.linalg.norm(x)
        got = d.rays[:, 0]
        assert abs(abs(np.vdot(x, got)) - 1.0) < 1e-10

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimMismatch):
            build_determinate(random_vector(3, rng), maximal_observable(4, rng))


def per_label_route(psi: ComplexVector, observable: ObservableSpec):
    """The sublattice as one (label, ray, weight) triple per kept label, plus
    its complement K: the per-label arithmetic of ``build_determinate``, with
    each block's projector formed by ``Subspace.projector()`` from a
    contiguous copy of its columns, and each ray kept as its own
    ``ComplexVector``."""
    unit = psi.normalized()
    kept = []
    for label, b in zip(observable.labels, observable.blocks):
        x = Subspace(psi.dim, b).projector() @ unit.amplitudes
        w = float(np.real(np.vdot(x, x)))
        if w >= DEFAULT_TOL.eps:
            kept.append((label, ComplexVector(canonical_phase(x / np.sqrt(w))), w))
    span = Subspace.from_vectors([v for _, v, _ in kept], ambient_dim=psi.dim)
    return kept, orthocomplement(span)


def random_blocks(dim: int, rng) -> list[np.ndarray]:
    """A random partition of range(dim) into blocks of random sizes, empty
    blocks among them, over a random order of the columns."""
    cuts = np.sort(rng.integers(0, dim + 1, size=int(rng.integers(0, dim + 1))))
    return np.split(rng.permutation(dim), cuts)


class TestArrays:
    """The rays and weights are held as one array each."""

    @given(seeds, st.integers(2, 7), st.booleans(),
           st.sampled_from(["maximal", "degenerate", "identity", "random"]))
    @settings(max_examples=120, deadline=None)
    def test_arrays_match_the_per_label_route(self, seed, dim, standard, kind):
        # over the standard basis, the zeroed coordinates give labels of weight
        # exactly 0; over a random one, weights near 0 that fall below eps.
        # The observable's blocks are column slices of one array, the route's
        # projectors products of contiguous copies: the rays must agree bit for bit
        rng = np.random.default_rng(seed)
        q = np.eye(dim, dtype=complex) if standard else random_unitary(dim, rng)
        blocks = random_blocks(dim, rng) if kind == "random" else {
            "maximal": [[i] for i in range(dim)],
            "degenerate": [[0, 1], *([i] for i in range(2, dim))],
            "identity": [list(range(dim))]}[kind]
        obs = ObservableSpec(tuple(f"b{i}" for i in range(len(blocks))),
                             [q[:, b] for b in blocks])
        z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        z[rng.random(dim) < 0.4] = 0.0
        z[int(rng.integers(dim))] += 1.0
        psi = ComplexVector(q @ z)

        d = build_determinate(psi, obs)
        kept, complement = per_label_route(psi, obs)
        labels = tuple(label for label, _, _ in kept)
        rays = np.stack([v.amplitudes for _, v, _ in kept], axis=1)
        weights = [w for _, _, w in kept]
        assert d.labels == labels
        assert np.array_equal(d.rays, rays) and d.rays.tolist() == rays.tolist()
        assert np.array_equal(d.weights, weights) and d.weights.tolist() == weights
        assert np.array_equal(d.complement.basis, complement.basis)
        assert d.to_report() == {
            "ambient_dim": dim,
            "ray_labels": list(labels),
            "weights": weights,
            "complement_dim": complement.rank,
            "small_complement": complement.rank <= 2,
        }

    def test_rays_and_weights_are_read_only(self, rng):
        d = build_determinate(random_vector(4, rng), maximal_observable(4, rng))
        assert d.rays.shape == (4, 4) and d.weights.shape == (4,)
        with pytest.raises(ValueError, match="read-only"):
            d.rays[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            d.weights[0] = 0.0


class TestMembership:
    def test_generators_and_their_lattice_are_members(self, rng):
        psi = random_vector(5, rng)
        d = build_determinate(psi, split_observable(5, rng))
        for g in d.generators():
            assert contains(d, g)
            assert contains(d, orthocomplement(g))
        r01 = join(Subspace.ray(ComplexVector(d.rays[:, 0])),
                   Subspace.ray(ComplexVector(d.rays[:, 1])))
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
        mix = d.rays[:, 0] + d.complement.basis[:, 0]
        assert not contains(d, Subspace.from_vectors([mix], ambient_dim=4))

    def test_membership_closed_under_complement(self, rng):
        d = build_determinate(random_vector(4, rng), maximal_observable(4, rng))
        v = join(Subspace.ray(ComplexVector(d.rays[:, 1])),
                 Subspace.ray(ComplexVector(d.rays[:, 3])))
        assert contains(d, v) and contains(d, orthocomplement(v))


def blocked_state(dim: int, rng) -> tuple[ComplexVector, ObservableSpec]:
    """An observable whose eigenspaces are random blocks of one random basis,
    and a state with no weight in at least one of them, so K != 0."""
    q = random_unitary(dim, rng)
    cuts = rng.choice(np.arange(1, dim), size=int(rng.integers(0, dim)), replace=False)
    blocks = np.split(np.arange(dim), np.sort(cuts))
    obs = ObservableSpec(tuple(f"b{i}" for i in range(len(blocks))),
                         [q[:, b] for b in blocks])
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
        chosen = rng.random(len(d.labels)) < 0.5
        rays = d.rays[:, chosen]
        w = k @ random_unitary(k.shape[1], rng)[:, :int(rng.integers(0, k.shape[1] + 1))]
        cols = np.concatenate((rays, w), axis=1)
        # a basis that mixes the rays with W, so no column is a projected ray
        v = Subspace(dim, np.linalg.qr(cols @ random_unitary(cols.shape[1], rng))[0]
                     if cols.shape[1] else cols)
        assert contains(d, v)
        for i in range(len(d.labels)):
            assert truth_value(i, d, v) == bool(chosen[i])
        out = born_check(d, v)
        assert out.measure_prob == pytest.approx(out.born_prob, abs=1e-10)
        assert out.measure_prob == pytest.approx(
            sum(d.weights[chosen].tolist()), abs=1e-12)
        # a kept ray r tilted toward K: r is neither inside that ray nor orthogonal to it
        t = rng.uniform(0.01, np.pi / 2 - 0.01)
        r = d.rays[:, int(rng.integers(len(d.labels)))]
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
        assert d.labels == ("x", "y")
        v = join(Subspace.ray(ComplexVector(d.rays[:, 0])), d.complement)
        assert contains(d, v, tol)
        out = born_check(d, v, tol)
        direct = float(np.real(np.vdot(d.psi.amplitudes, v.projector() @ d.psi.amplitudes)))
        assert direct - out.measure_prob == pytest.approx(0.005 ** 2 / 1.000025, rel=1e-9)
        assert out.born_prob == pytest.approx(out.measure_prob, abs=1e-14)


class TestPropertyStates:
    @given(seeds, st.integers(3, 8))
    @settings(max_examples=25, deadline=None)
    def test_one_state_per_ray_probabilities_are_weights(self, seed, dim):
        # property state i selects ray i with probability d.weights[i]
        rng = np.random.default_rng(seed)
        d = build_determinate(random_vector(dim, rng), maximal_observable(dim, rng))
        assert d.weights.shape == (len(d.labels),)
        assert sum(d.weights.tolist()) == pytest.approx(1.0, abs=1e-10)
        assert (d.weights > 0).all() and (d.weights <= 1.0 + 1e-12).all()

    def test_truth_values_follow_selected_ray(self, rng):
        d = build_determinate(random_vector(4, rng), maximal_observable(4, rng))
        v = join(Subspace.ray(ComplexVector(d.rays[:, 0])),
                 Subspace.ray(ComplexVector(d.rays[:, 2])))
        for i in range(len(d.labels)):
            assert truth_value(i, d, v) == (i in (0, 2))

    def test_truth_value_rejects_non_member(self, rng):
        d = build_determinate(random_vector(4, rng), maximal_observable(4, rng))
        with pytest.raises(NotInSublattice):
            truth_value(0, d, Subspace.ray(random_vector(4, rng)))

    def test_negative_selection_rejected(self, rng):
        # plain indexing would select the last ray
        d = build_determinate(random_vector(4, rng), maximal_observable(4, rng))
        with pytest.raises(ValueError, match="no ray -1: the sublattice has 4 rays"):
            truth_value(-1, d, d.complement)

    def test_truth_value_rejects_a_selection_past_the_last_ray(self):
        psi = ComplexVector(np.array([0.6, 0.8, 0.0], dtype=complex))
        d = build_determinate(psi, ObservableSpec.from_eigenbasis(np.eye(3)))
        assert len(d.labels) == 2
        with pytest.raises(ValueError, match="2 rays"):
            truth_value(2, d, d.complement)

    def test_truth_value_takes_an_integer_index(self, rng):
        d = build_determinate(random_vector(4, rng), maximal_observable(4, rng))
        v = Subspace.ray(ComplexVector(d.rays[:, 1]))
        assert truth_value(np.int64(1), d, v) and not truth_value(np.intp(0), d, v)
        with pytest.raises(TypeError):
            truth_value(1.0, d, v)

    @given(seeds, st.integers(3, 6))
    @settings(max_examples=25, deadline=None)
    def test_born_measure_sums_the_weights_of_the_states_that_make_a_member_true(
            self, seed, dim):
        rng = np.random.default_rng(seed)
        psi, obs = blocked_state(dim, rng)
        d = build_determinate(psi, obs)
        chosen = np.flatnonzero(rng.random(len(d.labels)) < 0.5)
        v = join(Subspace.from_vectors(list(d.rays[:, chosen].T), ambient_dim=dim)
                 if len(chosen) else Subspace.zero(dim), d.complement)
        true = [i for i in range(len(d.labels)) if truth_value(i, d, v)]
        assert true == chosen.tolist()
        assert born_check(d, v).measure_prob == sum(d.weights[true].tolist(), 0.0)

    def test_complement_block_is_false_in_every_state(self, rng):
        psi = ComplexVector(np.array([0.6, 0.0, 0.8, 0.0], dtype=complex))
        obs = ObservableSpec.from_eigenbasis([basis_vector(4, i) for i in range(4)])
        d = build_determinate(psi, obs)
        assert d.complement.rank == 2
        for i in range(len(d.labels)):
            assert not truth_value(i, d, d.complement)


class TestBornCheck:
    @given(seeds, st.integers(3, 8))
    @settings(max_examples=30, deadline=None)
    def test_measure_equals_born_weight_on_members(self, seed, dim):
        rng = np.random.default_rng(seed)
        psi = random_vector(dim, rng)
        d = build_determinate(psi, maximal_observable(dim, rng))
        picks = rng.random(len(d.labels)) < 0.5
        rays = [Subspace.ray(ComplexVector(d.rays[:, i])) for i in np.flatnonzero(picks)]
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
            extend_and_check(d, Subspace.ray(ComplexVector(d.rays[:, 0])))

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

    def test_observable_keeps_no_projector_per_label(self):
        """A 64-label observable and its determinate sublattice, built under
        ``tracemalloc``, peak well below one n x n complex array per label
        (k n^2 16 bytes = 4 MiB): each projector is a transient."""
        n = 64
        psi = ComplexVector(np.ones(n) / np.sqrt(n))
        tracemalloc.start()
        try:
            d = build_determinate(psi, ObservableSpec.from_eigenbasis(np.eye(n)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(d.labels) == n
        assert peak < n * n * n * 16 / 4
