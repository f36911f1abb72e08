"""Stochastic path kernel: agreement with a plain-Python reference walker,
determinism, and validation."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpt import (
    ComplexVector,
    EvolutionSpec,
    ObservableSpec,
    Operator,
    evolve_possibility,
    jump_process,
)
from qpt import _kernels
from qpt._kernels import BLOCK_DOUBLES, CHUNK, sample_index_array, sample_paths
from qpt.dynamics import _transition_cumulatives

from conftest import rabi_trajectory

REPO = Path(__file__).resolve().parent.parent

#: sha256 of ``sample_paths(cum, p0, 1, 7, full_grid(300))`` on the chain of
#: ``random_cumulatives(300, k, default_rng(100 + k))`` with ``p0[k // 2]``
#: set to zero (for k > 1) and the rest renormalised
ONE_WALKER_PATH_SHA256 = {
    1: "5d81987966a0197c8a663d8800d87b97c0c5ea4f619d42f44e22bf5321d14cbb",
    2: "3a5d371213149f4b5d59133d39dc8d60eb25926f82b4c24e08001c4ac2de449c",
    3: "42ed0e21cf17759e6fc6126f0cd05f7399f95ca4b0c12cb41a7af62452596cfe",
    6: "976cea36924434a833f31d01d11bf6ada44259841d4d615cb33a407df4d70f3c",
    9: "68aea3ce362d1619ca1b5028a4476d3c57e317162c51caa7ff93e13c192c3c58",
}


def random_cumulatives(steps: int, k: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Valid per-step cumulative transition rows and an initial distribution."""
    probs = rng.random((steps, k, k)) ** 2
    probs /= probs.sum(axis=2, keepdims=True)
    cum = np.cumsum(probs, axis=2)
    cum[..., -1] = 1.0
    p0 = rng.random(k)
    p0 /= p0.sum()
    return np.ascontiguousarray(cum), p0


def stay_heavy_cumulatives(steps: int, k: int, rng, ties) -> tuple[np.ndarray, np.ndarray]:
    """Diagonally dominant cumulative rows, where most walkers stay on their
    label, mixed with the rows ``_transition_cumulatives`` also makes:
    identity placeholder rows, forced-jump rows (diagonal 0, the rest
    rescaled to sum 1), zero-width stay slots (the diagonal's weight moved to
    a neighbour), and rows whose threshold k - 2 rounds above 1.0.  In about
    a third of the stay-heavy rows an edge of the label's own slot is set to
    one of ``ties[t]``, uniforms the walkers draw at step t, so that walkers
    land exactly on a threshold."""
    diag = np.arange(k)
    move = rng.random((steps, k, k)) ** 2 / k
    move *= rng.choice([1e-3, 1e-2, 1e-1], size=(steps, k, 1))
    move[:, diag, diag] = 0.0
    kind = rng.choice(5, size=(steps, k), p=[0.8, 0.05, 0.05, 0.05, 0.05])
    move[kind == 1] = 0.0
    forced = kind == 2
    move[forced] /= move[forced].sum(axis=-1, keepdims=True)
    move[:, diag, diag] = np.where(forced, 0.0, 1.0 - move.sum(axis=-1))
    t, i = np.nonzero(kind == 3)
    move[t, i, (i + 1) % k] += move[t, i, i]
    move[t, i, i] = 0.0
    cum = np.cumsum(move, axis=-1)
    cum[kind == 4, k - 2] = np.nextafter(1.0, 2.0)
    cum[..., -1] = 1.0
    for t, i in zip(*np.nonzero((kind == 0) & (rng.random((steps, k)) < 0.3))):
        j = min(max(i - rng.integers(2), 0), k - 2)
        u = rng.choice(ties[t])
        cum[t, i, :j] = np.minimum(cum[t, i, :j], u)
        cum[t, i, j] = u
        cum[t, i, j + 1:k - 1] = np.maximum(cum[t, i, j + 1:k - 1], u)
    return cum, rng.dirichlet(np.ones(k))


def first_chunk_uniforms(n_walkers: int, steps: int, seed: int) -> np.ndarray:
    """The step uniforms of the first chunk, in the order sample_paths draws
    them, so that a threshold set to one of ``ties[t]`` is hit exactly."""
    rng = np.random.default_rng(seed)
    c = min(n_walkers, CHUNK)
    rng.random(c)
    return rng.random((steps, c))


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

    @given(
        st.integers(1, 3 * CHUNK + 7),
        st.integers(1, 40),
        st.integers(2, 9),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    @settings(max_examples=15, deadline=None)
    def test_bit_identical_to_reference_for_any_shape(self, n_walkers, steps, k, seed, subset):
        rng = np.random.default_rng(seed)
        cum, p0 = random_cumulatives(steps, k, rng)
        idx = full_grid(steps)
        if subset:
            idx = idx[rng.random(steps + 1) < 0.3]
        a = sample_paths(cum, p0, n_walkers, seed=seed, sample_idx=idx)
        b = reference_paths(cum, p0, n_walkers, seed=seed, sample_idx=idx)
        assert a.shape == (idx.size, n_walkers)
        assert np.array_equal(a, b)

    @given(
        st.integers(1, CHUNK + 40),
        st.integers(1, 30),
        st.integers(2, 9),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_bit_identical_to_reference_when_walkers_stay(self, n_walkers, steps, k, seed):
        # the uniforms of the first chunk, in the order sample_paths draws them
        rng = np.random.default_rng(seed)
        c = min(n_walkers, CHUNK)
        rng.random(c)
        ties = rng.random((steps, c))
        cum, p0 = stay_heavy_cumulatives(steps, k, np.random.default_rng(seed + 1), ties)
        idx = full_grid(steps)
        a = sample_paths(cum, p0, n_walkers, seed=seed, sample_idx=idx)
        b = reference_paths(cum, p0, n_walkers, seed=seed, sample_idx=idx)
        assert np.array_equal(a, b)


class TestLabelCountRoutes:
    """``_walk`` has a boolean route for k = 2 and the stay-first route for
    every other k; both must give the reference walker's paths."""

    @given(
        st.sampled_from([1, 7, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5]),
        st.integers(1, 30),
        st.integers(0, 2**32 - 1),
        st.sampled_from([None, (1.0, 0.0), (0.0, 1.0)]),
    )
    @settings(max_examples=20, deadline=None)
    def test_two_labels_bit_identical_to_reference(self, n_walkers, steps, seed, start):
        ties = first_chunk_uniforms(n_walkers, steps, seed)
        rng = np.random.default_rng(seed + 1)
        cum, p0 = stay_heavy_cumulatives(steps, 2, rng, ties)
        # crossed rows, cum[t, 1, 0] >= cum[t, 0, 0], which stay-heavy rows
        # never are: half are forced jumps from both labels, and the rest put
        # both thresholds on uniforms the walkers draw at step t
        crossed = rng.random(steps) < 0.3
        pick = rng.integers(ties.shape[1], size=(steps, 2))
        edges = np.sort(ties[np.arange(steps)[:, None], pick])
        edges[rng.random(steps) < 0.5] = (0.0, 1.0)
        cum[crossed, 0, 0], cum[crossed, 1, 0] = edges[crossed, 0], edges[crossed, 1]
        if start is not None:
            p0 = np.array(start)
        idx = full_grid(steps)
        a = sample_paths(cum, p0, n_walkers, seed=seed, sample_idx=idx)
        b = reference_paths(cum, p0, n_walkers, seed=seed, sample_idx=idx)
        assert a.dtype == np.int64
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_one_walker_jump_process_matches_reference(self, seed):
        traj = rabi_trajectory(200)
        cum, p0 = _transition_cumulatives(traj)
        path = reference_paths(cum, p0, 1, seed, full_grid(200))[:, 0]
        assert jump_process(traj, seed).selected_labels == tuple(traj.labels[i] for i in path)

    @pytest.mark.parametrize("n_walkers", [1, CHUNK + 1])
    def test_three_labels_take_the_stay_first_route(self, n_walkers):
        steps, seed = 30, 4
        ties = first_chunk_uniforms(n_walkers, steps, seed)
        cum, p0 = stay_heavy_cumulatives(steps, 3, np.random.default_rng(seed + 1), ties)
        idx = full_grid(steps)
        a = sample_paths(cum, p0, n_walkers, seed=seed, sample_idx=idx)
        b = reference_paths(cum, p0, n_walkers, seed=seed, sample_idx=idx)
        assert np.array_equal(a, b)

    def test_one_label_stays_at_zero(self):
        cum, p0 = np.ones((12, 1, 1)), np.array([1.0])
        out = sample_paths(cum, p0, CHUNK + 3, seed=2, sample_idx=full_grid(12))
        assert out.shape == (13, CHUNK + 3)
        assert not out.any()


class TestStartDraw:
    """The start label is drawn as the chain's step 0: zero-probability
    start labels and start uniforms that land exactly on a threshold of
    ``cumsum(p0)`` give the reference walker's labels."""

    @given(
        st.integers(1, 9),
        st.sampled_from([1, 7, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5]),
        st.integers(1, 12),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["first", "last", "both", "one-hot", "tie"]),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_start_labels_match_reference(self, k, n_walkers, steps, seed, zeros, start_only):
        rng = np.random.default_rng(seed + 1)
        cum, p0 = random_cumulatives(steps, k, rng)
        if zeros == "one-hot":
            p0 = np.zeros(k)
            p0[rng.integers(k)] = 1.0
        elif zeros == "tie" and k > 1:
            # zeros, then a start uniform of chunk 0, then the rest, so that
            # cumsum(p0)[j] is exactly that uniform
            starts = np.random.default_rng(seed).random(min(n_walkers, CHUNK))
            j = rng.integers(k - 1)
            p0 = np.zeros(k)
            p0[j] = rng.choice(starts)
            p0[j + 1:] = (1.0 - p0[j]) * rng.dirichlet(np.ones(k - 1 - j))
        else:
            lo = rng.integers(k) if zeros in ("first", "both") else 0
            hi = rng.integers(lo + 1, k + 1) if zeros in ("last", "both") else k
            p0[:lo] = p0[hi:] = 0.0
            p0 /= p0.sum()
        idx = np.array([0]) if start_only else full_grid(steps)
        a = sample_paths(cum, p0, n_walkers, seed=seed, sample_idx=idx)
        b = reference_paths(cum, p0, n_walkers, seed=seed, sample_idx=idx)
        assert np.array_equal(a, b)
        # below the last label, a label of zero start probability has an
        # empty slot [cumsum(p0)[j - 1], cumsum(p0)[j]), so no walker lands there
        assert not np.isin(a[0], np.flatnonzero(p0[:-1] == 0.0)).any()

    @pytest.mark.parametrize("k", sorted(ONE_WALKER_PATH_SHA256))
    def test_one_walker_full_grid_path_pinned(self, k):
        cum, p0 = random_cumulatives(300, k, np.random.default_rng(100 + k))
        if k > 1:
            p0[k // 2] = 0.0
            p0 /= p0.sum()
        out = sample_paths(cum, p0, 1, 7, full_grid(300))
        assert hashlib.sha256(out.tobytes()).hexdigest() == ONE_WALKER_PATH_SHA256[k]


class TestDrawBlocks:
    """The walk builds its thresholds, stay slots and sampled rows one draw
    block at a time; where the blocks end moves no path."""

    @pytest.mark.parametrize("k", [1, 2, 3, 6, 9])
    @pytest.mark.parametrize("n_walkers", [1, CHUNK - 1, CHUNK + 1])
    def test_block_length_moves_no_path(self, monkeypatch, k, n_walkers):
        steps, rows = 30, 7  # rows per block in the mid-chain case
        cum, p0 = random_cumulatives(steps, k, np.random.default_rng(k))
        if k > 1:
            p0[k // 2] = 0.0
            p0 /= p0.sum()
        grid = -(-n_walkers // CHUNK) * min(n_walkers, CHUNK)  # walkers with padding
        # row 0, the first and last rows of blocks 2 and 4, and the last row,
        # which ends the short last block
        idx = np.array([0, rows, 2 * rows - 1, 3 * rows, 4 * rows - 1, steps])
        paths = []
        for block_doubles in (1, rows * grid, BLOCK_DOUBLES):
            monkeypatch.setattr(_kernels, "BLOCK_DOUBLES", block_doubles)
            paths.append([sample_paths(cum, p0, n_walkers, 11, i) for i in (idx, full_grid(steps))])
        for other in paths[1:]:
            assert all(np.array_equal(a, b) for a, b in zip(paths[0], other))
        assert np.array_equal(paths[0][1][idx], paths[0][0])


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

    @pytest.mark.parametrize("bad", [[0.5, 3.9], [1, 2.5], [[0, 1], [2, 3]], [[1]], [np.nan]])
    def test_fractional_or_multidimensional_sample_indices_rejected(self, bad):
        rng = np.random.default_rng(0)
        cum, p0 = random_cumulatives(5, 2, rng)
        with pytest.raises(ValueError):
            sample_paths(cum, p0, 10, seed=0, sample_idx=bad)

    @pytest.mark.parametrize("bad", [[3, 1], [2, 2]])
    def test_non_increasing_sample_indices_rejected(self, bad):
        rng = np.random.default_rng(0)
        cum, p0 = random_cumulatives(5, 2, rng)
        with pytest.raises(ValueError, match="strictly increasing"):
            sample_paths(cum, p0, 10, seed=0, sample_idx=bad)

    def test_empty_and_integer_valued_sample_indices_accepted(self):
        rng = np.random.default_rng(0)
        cum, p0 = random_cumulatives(5, 2, rng)
        assert sample_paths(cum, p0, 10, seed=0, sample_idx=[]).shape == (0, 10)
        a = sample_paths(cum, p0, 10, seed=0, sample_idx=[1.0, 4.0])
        b = sample_paths(cum, p0, 10, seed=0, sample_idx=np.array([1, 4]))
        assert np.array_equal(a, b)

    def test_int64_indices_are_used_without_a_copy(self):
        idx = np.arange(6, dtype=np.int64)
        assert np.shares_memory(sample_index_array(idx, 5), idx)
        for other in (idx.astype(np.int32), idx.astype(np.uint16), idx.astype(float)):
            out = sample_index_array(other, 5)
            assert out.dtype == np.int64 and np.array_equal(out, idx)

    @pytest.mark.parametrize("case", ["short p0", "long p0", "2-D p0", "one threshold column",
                                      "2-D cum", "no labels"])
    def test_mismatched_chain_shapes_rejected(self, case):
        # a p0 or a threshold column that numpy would broadcast across the
        # labels must be refused, not walked
        cum, p0 = random_cumulatives(5, 2, np.random.default_rng(0))
        cum, p0 = {
            "short p0": (cum, [1.0]),
            "long p0": (cum, [0.5, 0.25, 0.25]),
            "2-D p0": (cum, p0[None, :]),
            "one threshold column": (cum[:, :, :1], p0),
            "2-D cum": (cum[:, 0], p0),
            "no labels": (np.ones((5, 0, 0)), np.ones(0)),
        }[case]
        with pytest.raises(ValueError, match="must have shape"):
            sample_paths(cum, p0, 4, seed=0, sample_idx=full_grid(5))

    def test_nonpositive_walkers_rejected(self):
        rng = np.random.default_rng(0)
        cum, p0 = random_cumulatives(5, 2, rng)
        with pytest.raises(ValueError):
            sample_paths(cum, p0, 0, seed=0, sample_idx=full_grid(5))


def run_script(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=env,
        timeout=120,
    )


class TestBenchmarkScript:
    def test_bench_jump_runs(self):
        out = run_script("benchmarks/bench_jump.py",
                         "--steps", "50", "--walkers", "100", "--repeat", "1")
        assert out.returncode == 0, out.stderr
        assert "walker-steps/s" in out.stdout
        assert "_transition_cumulatives" in out.stdout and "tracemalloc peak" in out.stdout
        assert out.stdout.count("jump_process walk") == 2  # one line per chain
        assert out.stdout.count("ensemble walk 100 walkers, tracemalloc peak") == 2

    def test_bench_closure_runs(self):
        out = run_script("benchmarks/bench_closure.py", "--repeat", "1")
        assert out.returncode == 0, out.stderr
        assert "closure rounds, (4, 1) extension probe, budget 512" in out.stdout
        assert "_emit (s)" in out.stdout and "_angles (s)" in out.stdout
        assert "cpu (s)" in out.stdout
        assert "public meet/join, 200 random pairs per dim" in out.stdout

    def test_bench_nogo_runs(self):
        out = run_script("benchmarks/bench_nogo.py", "--repeat", "1")
        assert out.returncode == 0, out.stderr
        assert "find_assignment, bundled fixtures" in out.stdout
        assert "two-valued search, last relation table of the (4, 1) extension probe" in out.stdout
        assert "local_map_search, singlet tables" in out.stdout
