"""Stochastic path kernel: agreement with a plain-Python reference walker,
determinism, and validation."""

from __future__ import annotations

import numpy as np
import pytest

from qpt import ComplexVector, EvolutionSpec, ObservableSpec, Operator, evolve_possibility
from qpt._kernels import CHUNK, sample_paths
from qpt.dynamics import _transition_cumulatives


def random_cumulatives(steps: int, k: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Valid per-step cumulative transition rows and an initial distribution."""
    probs = rng.random((steps, k, k)) ** 2
    probs /= probs.sum(axis=2, keepdims=True)
    cum = np.cumsum(probs, axis=2)
    cum[..., -1] = 1.0
    p0 = rng.random(k)
    p0 /= p0.sum()
    return np.ascontiguousarray(cum), p0


def full_grid(steps: int) -> np.ndarray:
    return np.arange(steps + 1, dtype=np.int64)


def _first_unreached(u: float, row, k: int) -> int:
    """The selection rule: the first label j < k - 1 whose cumulative
    threshold ``u`` does not reach, else the last label."""
    j = 0
    while j < k - 1 and u >= row[j]:
        j += 1
    return j


def reference_walk(cum, start, uniforms, sample_idx) -> np.ndarray:
    """One walker at a time, one step at a time, in plain Python."""
    steps, k, _ = cum.shape
    cum, uniforms, sample_idx = cum.tolist(), uniforms.tolist(), list(sample_idx)
    out = np.empty((len(sample_idx), len(start)), dtype=np.int64)
    for w, lab in enumerate(start):
        labels = [lab]
        for t in range(steps):
            lab = _first_unreached(uniforms[t][w], cum[t][lab], k)
            labels.append(lab)
        out[:, w] = [labels[t] for t in sample_idx]
    return out


def reference_paths(cum, p0, n_walkers: int, seed: int, sample_idx) -> np.ndarray:
    """``reference_walk`` fed in ``sample_paths``' draw order: chunks of
    ``CHUNK`` walkers from one PCG64 stream, each chunk drawing one start
    uniform per walker, then a (steps, c) block of step uniforms."""
    steps, k, _ = cum.shape
    cum_p0 = np.cumsum(p0).tolist()
    cum_p0[-1] = 1.0
    rng = np.random.default_rng(seed)
    pieces = []
    for done in range(0, n_walkers, CHUNK):
        c = min(CHUNK, n_walkers - done)
        start = [_first_unreached(u, cum_p0, k) for u in rng.random(c).tolist()]
        uniforms = rng.random((steps, c))
        pieces.append(reference_walk(cum, start, uniforms, sample_idx))
    return np.concatenate(pieces, axis=1)


class TestReferenceAgreement:
    @pytest.mark.parametrize("n_walkers", [1, 7, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5])
    def test_bit_identical_paths_across_chunk_boundaries(self, n_walkers):
        rng = np.random.default_rng(42)
        cum, p0 = random_cumulatives(25, 3, rng)
        idx = full_grid(25)
        a = sample_paths(cum, p0, n_walkers, seed=9, sample_idx=idx)
        b = reference_paths(cum, p0, n_walkers, seed=9, sample_idx=idx)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("k", [2, 5, 9])
    def test_bit_identical_across_label_counts(self, k):
        rng = np.random.default_rng(k)
        cum, p0 = random_cumulatives(40, k, rng)
        idx = np.array([0, 13, 40], dtype=np.int64)
        a = sample_paths(cum, p0, 500, seed=1, sample_idx=idx)
        b = reference_paths(cum, p0, 500, seed=1, sample_idx=idx)
        assert np.array_equal(a, b)

    def test_rabi_marginal_counts_match_reference(self):
        steps = 120
        h = Operator(np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex))
        spec = EvolutionSpec(hamiltonian=h, dt=2 * np.pi / steps, steps=steps)
        obs = ObservableSpec.from_eigenbasis(
            [np.array([1.0, 0.0]), np.array([0.0, 1.0])], labels=["up", "down"]
        )
        traj = evolve_possibility(ComplexVector(np.array([1.0 + 0j, 0.0])), obs, spec)
        cum, p0 = _transition_cumulatives(traj)
        idx = np.array([40, 120], dtype=np.int64)
        a = sample_paths(cum, p0, 3000, seed=5, sample_idx=idx)
        b = reference_paths(cum, p0, 3000, seed=5, sample_idx=idx)
        assert np.array_equal(a, b)


class TestDeterminismAndShape:
    def test_same_seed_same_paths(self):
        rng = np.random.default_rng(0)
        cum, p0 = random_cumulatives(30, 4, rng)
        idx = full_grid(30)
        a = sample_paths(cum, p0, 300, seed=5, sample_idx=idx)
        b = sample_paths(cum, p0, 300, seed=5, sample_idx=idx)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(0)
        cum, p0 = random_cumulatives(30, 4, rng)
        idx = full_grid(30)
        a = sample_paths(cum, p0, 300, seed=5, sample_idx=idx)
        b = sample_paths(cum, p0, 300, seed=6, sample_idx=idx)
        assert not np.array_equal(a, b)

    def test_output_shape_and_range(self):
        rng = np.random.default_rng(1)
        cum, p0 = random_cumulatives(20, 3, rng)
        idx = np.array([0, 10, 20], dtype=np.int64)
        out = sample_paths(cum, p0, 111, seed=0, sample_idx=idx)
        assert out.shape == (3, 111)
        assert out.dtype == np.int64
        assert (out >= 0).all() and (out < 3).all()

    def test_identity_transitions_freeze_labels(self):
        steps, k = 15, 4
        probs = np.zeros((steps, k, k))
        probs[:, np.arange(k), np.arange(k)] = 1.0
        cum = np.cumsum(probs, axis=2)
        cum[..., -1] = 1.0
        p0 = np.array([0.25, 0.25, 0.25, 0.25])
        out = sample_paths(cum, p0, 500, seed=3, sample_idx=full_grid(steps))
        assert (out == out[0]).all()

    def test_absorbing_chain_reaches_sink(self):
        steps, k = 60, 3
        probs = np.zeros((steps, k, k))
        # every label drifts to 2 with prob 0.35 per step, else stays
        for j in range(k):
            probs[:, j, j] = 0.65
            probs[:, j, 2] += 0.35
        probs[:, 2] = 0.0
        probs[:, 2, 2] = 1.0
        cum = np.cumsum(probs, axis=2)
        cum[..., -1] = 1.0
        p0 = np.array([0.5, 0.5, 0.0])
        out = sample_paths(cum, p0, 2000, seed=8, sample_idx=full_grid(steps))
        assert (out[-1] == 2).mean() > 0.999

    def test_start_distribution_respected(self):
        rng = np.random.default_rng(2)
        cum, _ = random_cumulatives(1, 3, rng)
        p0 = np.array([0.0, 1.0, 0.0])
        out = sample_paths(cum, p0, 400, seed=4, sample_idx=np.array([0], dtype=np.int64))
        assert (out[0] == 1).all()


class TestValidation:
    def test_out_of_range_sample_index_rejected(self):
        rng = np.random.default_rng(0)
        cum, p0 = random_cumulatives(5, 2, rng)
        bad = np.array([0, 6], dtype=np.int64)
        with pytest.raises(ValueError):
            sample_paths(cum, p0, 10, seed=0, sample_idx=bad)

    def test_nonpositive_walkers_rejected(self):
        rng = np.random.default_rng(0)
        cum, p0 = random_cumulatives(5, 2, rng)
        with pytest.raises(ValueError):
            sample_paths(cum, p0, 0, seed=0, sample_idx=full_grid(5))

