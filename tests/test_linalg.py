"""Vectors, operators, register layouts, embeddings, and reduced states."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpt import (
    ComplexVector,
    NotDensityOperator,
    Operator,
    RegisterLayout,
    Subspace,
    Tolerance,
    UnknownFactor,
    ZeroVector,
    basis_vector,
    canonical_phase,
    embed,
    orthonormalize,
    partial_trace,
    random_state,
    reduced_state,
    tensor,
)
from conftest import random_unitary, random_vector


def complex_arrays(dim: int):
    elems = st.floats(-5, 5, allow_nan=False, allow_infinity=False, width=32)
    return st.lists(
        st.tuples(elems, elems), min_size=dim, max_size=dim
    ).map(lambda ps: np.array([complex(a, b) for a, b in ps]))


class TestTolerance:
    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValueError):
            Tolerance(eps)


class TestComplexVector:
    def test_normalized_has_unit_norm(self, rng):
        v = ComplexVector(rng.normal(size=5) + 1j * rng.normal(size=5))
        assert v.normalized().norm() == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            ComplexVector(np.zeros(3, dtype=complex)).normalized()

    def test_inner_is_conjugate_linear_in_first_slot(self, rng):
        a, b = random_vector(4, rng), random_vector(4, rng)
        lhs = ComplexVector(2j * a.amplitudes).inner(b)
        assert lhs == pytest.approx(np.conj(2j) * a.inner(b))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_normalized_survives_an_overflowing_sum_of_squares(self):
        # 1e200 squared overflows a float, the norm 1e200 does not
        v = ComplexVector(np.array([1e200, 0.0])).normalized()
        assert np.array_equal(v.amplitudes, [1.0, 0.0])
        # |1.5e308 (1 + i)| overflows too
        w = ComplexVector(np.array([1.5e308 * (1 + 1j), 0.0])).normalized()
        assert np.allclose(w.amplitudes, [(1 + 1j) / np.sqrt(2), 0.0], rtol=0, atol=1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_norm_survives_an_overflowing_sum_of_squares(self):
        assert ComplexVector(np.array([1e200, 0.0])).norm() == 1e200
        assert ComplexVector(np.array([3e300, 4e300j])).norm() == pytest.approx(5e300, rel=1e-15)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_norm_of_a_finite_sum_of_squares_is_the_plain_norm(self, seed, dim):
        rng = np.random.default_rng(seed)
        amps = (rng.normal(size=dim) + 1j * rng.normal(size=dim)) * 10.0 ** rng.integers(-150, 150)
        assert ComplexVector(amps).norm() == float(np.linalg.norm(amps))

    def test_amplitudes_are_immutable(self):
        v = basis_vector(3, 0)
        with pytest.raises((ValueError, RuntimeError)):
            v.amplitudes[0] = 5.0


def scalar_phase(v: np.ndarray) -> np.ndarray:
    """The one-vector rule, spelled with Python scalars: divide by the phase
    of the first component above 1e-12 times the largest."""
    mags = np.abs(v)
    if mags.max() <= 1e-12:
        return v
    lead = v[int(np.argmax(mags > 1e-12 * mags.max()))]
    return v / (lead / abs(lead))


class TestCanonicalPhase:
    @given(complex_arrays(4), st.floats(0, 2 * np.pi, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_global_phase_removed(self, arr, phase):
        if np.abs(arr).max() < 1e-6:
            return
        u = arr / np.linalg.norm(arr)
        a = canonical_phase(u)
        b = canonical_phase(u * np.exp(1j * phase))
        assert np.abs(a - b).max() < 1e-9

    def test_first_significant_component_real_positive(self, rng):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        c = canonical_phase(v / np.linalg.norm(v))
        lead = c[np.argmax(np.abs(c) > 1e-12)]
        assert abs(lead.imag) < 1e-12 and lead.real > 0

    def test_idempotent(self, rng):
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        once = canonical_phase(v)
        assert np.abs(canonical_phase(once) - once).max() < 1e-14

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 6), st.integers(0, 6))
    @settings(max_examples=80, deadline=None)
    def test_stack_equals_per_column(self, seed, g, n, m):
        # zero, -0.0, tiny (<= PHASE_CUT), real-valued and generic columns
        rng = np.random.default_rng(seed)
        stack = rng.normal(size=(g, n, m)) + 1j * rng.normal(size=(g, n, m))
        kind = np.broadcast_to(rng.integers(0, 5, size=(g, 1, m)), stack.shape)
        stack[kind == 0] = 0.0
        stack[kind == 1] = complex(-0.0, -0.0)
        stack[kind == 2] *= 1e-14
        stack[kind == 3] = stack[kind == 3].real
        stack[:, rng.random(n) < 0.3, :] = 0.0  # leading or inner zero rows
        for arr in (stack, stack.real.copy()):
            out = canonical_phase(arr)
            for a, b in itertools.product(range(g), range(m)):
                col = arr[a, :, b]
                assert out[a, :, b].tobytes() == canonical_phase(col).tobytes()
                assert out[a, :, b].tobytes() == scalar_phase(col).tobytes()
            assert out[0].tobytes() == canonical_phase(arr[0]).tobytes()

    def test_tiny_vector_comes_back_unchanged(self):
        # largest component at most PHASE_CUT: no phase is read off it
        for v in (np.array([complex(-0.0, -0.0), 1e-13j, complex(0.0, -0.0)]),
                  np.array([-0.0, 5e-13, -1e-12]),
                  np.zeros(3, dtype=complex)):
            assert canonical_phase(v).tobytes() == v.tobytes()
            cols = np.stack([v, v], axis=1)
            assert canonical_phase(cols).tobytes() == cols.tobytes()


class TestTensor:
    def test_variadic_vector_tensor_matches_kron(self, rng):
        a, b, c = (random_vector(d, rng) for d in (2, 3, 2))
        t = tensor(a, b, c)
        expect = np.kron(np.kron(a.amplitudes, b.amplitudes), c.amplitudes)
        assert np.abs(t.amplitudes - expect).max() < 1e-14

    def test_operator_tensor_matches_kron(self, rng):
        u = Operator(random_unitary(2, rng))
        w = Operator(random_unitary(3, rng))
        t = tensor(u, w)
        assert np.abs(t.entries - np.kron(u.entries, w.entries)).max() < 1e-14

    def test_needs_at_least_two_factors(self):
        with pytest.raises(TypeError):
            tensor(basis_vector(2, 0))


class TestOrthonormalize:
    def test_output_is_orthonormal_and_spans(self, rng):
        vecs = [rng.normal(size=5) + 1j * rng.normal(size=5) for _ in range(3)]
        out = orthonormalize(vecs)
        m = np.stack([v.amplitudes for v in out], axis=1)
        gram = m.conj().T @ m
        assert np.abs(gram - np.eye(3)).max() < 1e-10
        # original vectors lie in the span
        proj = m @ m.conj().T
        for v in vecs:
            assert np.linalg.norm(proj @ v - v) < 1e-10

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rank_survives_an_overflowing_sum_of_squares(self):
        # the rank cut is relative to the largest norm: (0, 1) is 1e-200 of
        # it and drops, a second vector of the same scale is kept
        small = Subspace.from_vectors([[1e200, 0], [0, 1]], 2)
        assert small.rank == 1 and np.array_equal(small.basis[:, 0], [1.0, 0.0])
        assert Subspace.from_vectors([[1e200, 0], [0, 1e200]], 2).rank == 2
        assert Subspace.from_vectors([[1.5e308 * (1 + 1j), 0], [0, 1e308]], 2).rank == 2

    def test_dependent_vectors_dropped(self, rng):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        out = orthonormalize([v, 2.5 * v, 1j * v])
        assert len(out) == 1


class TestRegisterLayout:
    def test_dim_is_product(self):
        lay = RegisterLayout((("a", 2), ("b", 3), ("c", 5)))
        assert lay.dim == 30

    def test_unknown_factor(self):
        lay = RegisterLayout((("a", 2), ("b", 3)))
        with pytest.raises(UnknownFactor):
            lay.axis("zz")

    def test_embed_on_each_axis_matches_kron(self, rng):
        lay = RegisterLayout((("a", 2), ("b", 3)))
        u = random_unitary(2, rng)
        w = random_unitary(3, rng)
        ea = embed(Operator(u), lay, ("a",)).entries
        eb = embed(Operator(w), lay, ("b",)).entries
        assert np.abs(ea - np.kron(u, np.eye(3))).max() < 1e-12
        assert np.abs(eb - np.kron(np.eye(2), w)).max() < 1e-12

    def test_embed_non_adjacent_factors(self, rng):
        lay = RegisterLayout((("a", 2), ("mid", 3), ("c", 2)))
        u4 = random_unitary(4, rng)
        full = embed(Operator(u4), lay, ("a", "c")).entries
        # act by hand: row index (x, y) over (a, c), identity on mid
        t = u4.reshape(2, 2, 2, 2)
        psi = (rng.normal(size=12) + 1j * rng.normal(size=12)).reshape(2, 3, 2)
        out = (full @ psi.reshape(-1)).reshape(2, 3, 2)
        expect = np.einsum("xyac,amc->xmy", t, psi)
        assert np.abs(out - expect).max() < 1e-12


class TestReducedState:
    def test_matches_partial_trace_of_projector(self, rng):
        lay = RegisterLayout((("a", 2), ("b", 3), ("c", 2)))
        psi = random_vector(12, rng)
        rho_full = Operator(np.outer(psi.amplitudes, psi.amplitudes.conj()))
        for keep in (("a",), ("b",), ("a", "c"), ("b", "c")):
            direct = reduced_state(psi, lay, keep).entries
            traced = partial_trace(rho_full, lay, keep).entries
            assert np.abs(direct - traced).max() < 1e-12

    def test_reduced_state_is_density(self, rng):
        lay = RegisterLayout((("a", 2), ("b", 4)))
        rho = reduced_state(random_vector(8, rng), lay, ("a",)).entries
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-12

    def test_partial_trace_rejects_non_density(self):
        lay = RegisterLayout((("a", 2), ("b", 2)))
        with pytest.raises(NotDensityOperator):
            partial_trace(Operator(np.eye(4, dtype=complex)), lay, ("a",))

    def test_product_state_reduces_to_factor(self, rng):
        lay = RegisterLayout((("a", 3), ("b", 2)))
        a, b = random_vector(3, rng), random_vector(2, rng)
        rho_a = reduced_state(tensor(a, b), lay, ("a",)).entries
        expect = np.outer(a.amplitudes, a.amplitudes.conj())
        assert np.abs(rho_a - expect).max() < 1e-12


def test_random_state_is_seeded_and_normalized():
    a = random_state(6, np.random.default_rng(3))
    b = random_state(6, np.random.default_rng(3))
    assert a.norm() == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(a.amplitudes, b.amplitudes)
