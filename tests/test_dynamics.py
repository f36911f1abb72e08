"""Unitary possibility evolution, the stochastic jump process, and meshing."""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import qpt.dynamics
from qpt import _kernels
from qpt import (
    ComplexVector,
    DimMismatch,
    EvolutionSpec,
    LabelDiscontinuity,
    NotHermitian,
    ObservableSpec,
    Operator,
    PossibilityTrajectory,
    RegisterLayout,
    Subspace,
    Tolerance,
    ZeroVector,
    basis_vector,
    build_determinate,
    default_timestep,
    embed,
    evolve_possibility,
    jump_process,
    sample_marginals,
    tensor,
)
from qpt._kernels import CHUNK, sample_paths
from qpt.dynamics import (
    _BLOCK,
    PRESENCE_CUTOFF,
    _forward_marginals,
    _transition_cumulatives,
    trajectory_rows,
)
from qpt.scenarios import _position_observable

from conftest import SX, maximal_observable, rabi_trajectory, random_vector, z_observable


def paths_sha256(paths: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(paths).tobytes()).hexdigest()


class TestEvolutionSpec:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            EvolutionSpec(hamiltonian=Operator(np.array([[0, 1], [0, 0]], dtype=complex)),
                          dt=0.1, steps=5)

    def test_rejects_nonpositive_dt_and_steps(self):
        h = Operator(SX)
        with pytest.raises(ValueError):
            EvolutionSpec(hamiltonian=h, dt=0.0, steps=5)
        with pytest.raises(ValueError):
            EvolutionSpec(hamiltonian=h, dt=0.1, steps=0)

    def test_default_timestep_scales_inversely_with_norm(self):
        h1 = Operator(SX)
        h2 = Operator(10 * SX)
        assert default_timestep(h2) == pytest.approx(default_timestep(h1) / 10)


class TestEvolvePossibility:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_states_match_expm_and_keep_unit_norm(self, seed, dim, steps):
        # both routes round at O(dim * eps * (1 + ||H|| t)), with eps = 2.2e-16
        # and ||H|| t <= 40 * 0.25 here; 300 draws at 40 steps reached 7.9e-15
        # and 1.3e-15 off unit norm, so 1e-12 leaves a margin over 100x
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = Operator((m + m.conj().T) / 2)
        psi0 = random_vector(dim, rng)
        spec = EvolutionSpec(h, dt=0.25 / h.spectral_norm(), steps=steps)
        traj = evolve_possibility(psi0, maximal_observable(dim, rng), spec)
        for t, psi in zip(traj.times, traj.psis):
            expected = scipy.linalg.expm(-1j * t * h.entries) @ psi0.amplitudes
            assert np.abs(psi - expected).max() < 1e-12
        assert np.abs(np.linalg.norm(traj.psis, axis=1) - 1.0).max() < 1e-12

    def test_norms_and_snapshot_counts(self):
        traj = rabi_trajectory(50)
        assert traj.psis.shape == (51, 2)
        assert np.abs(np.linalg.norm(traj.psis, axis=1) - 1.0).max() < 1e-12

    def test_rabi_weights_match_closed_form(self):
        traj = rabi_trajectory(600)
        t = traj.times
        assert np.abs(traj.weights[:, 0] - np.cos(t / 2) ** 2).max() < 1e-9
        assert np.abs(traj.weights[:, 1] - np.sin(t / 2) ** 2).max() < 1e-9

    def test_commuting_hamiltonian_freezes_labels_and_weights(self):
        # H diagonal in the observable eigenbasis: possibility structure static
        h = Operator(np.diag([0.7, -0.4]).astype(complex))
        spec = EvolutionSpec(hamiltonian=h, dt=0.05, steps=40)
        psi0 = ComplexVector(np.array([0.6, 0.8], dtype=complex))
        traj = evolve_possibility(psi0, z_observable(), spec)
        assert traj.labels == ("up", "down")
        assert np.abs(traj.weights - traj.weights[0]).max() < 1e-12
        for psi in traj.psis:
            d = build_determinate(ComplexVector(psi), traj.observable, tol=spec.tol)
            assert d.labels == ("up", "down")

    def test_dim_mismatch(self):
        spec = EvolutionSpec(hamiltonian=Operator(SX), dt=0.1, steps=2)
        with pytest.raises(DimMismatch):
            evolve_possibility(ComplexVector(np.ones(3) / np.sqrt(3)), z_observable(), spec)

    def test_zero_norm_check_uses_the_spec_tolerance(self):
        spec = EvolutionSpec(hamiltonian=Operator(SX), dt=0.1, steps=2, tol=Tolerance(1e-13))
        small = ComplexVector(np.array([0.6e-11, 0.8e-11], dtype=complex))
        traj = evolve_possibility(small, z_observable(), spec)
        assert np.abs(traj.psis[0] - [0.6, 0.8]).max() < 1e-12
        with pytest.raises(ZeroVector):
            evolve_possibility(ComplexVector(np.array([1e-14, 0j])), z_observable(), spec)


class TestJumpProcess:
    def test_zero_hamiltonian_never_jumps(self):
        h = Operator(np.zeros((2, 2), dtype=complex))
        spec = EvolutionSpec(hamiltonian=h, dt=0.1, steps=30)
        psi0 = ComplexVector(np.array([0.6, 0.8], dtype=complex))
        traj = evolve_possibility(psi0, z_observable(), spec)
        pt = jump_process(traj, seed=12)
        assert len(set(pt.selected.tolist())) == 1

    def test_path_labels_are_observable_labels(self):
        traj = rabi_trajectory(80)
        pt = jump_process(traj, seed=3)
        assert len(pt.selected) == 81 and pt.labels == ("up", "down")
        assert set(pt.selected.tolist()) <= {0, 1}

    def test_same_seed_reproduces_path(self):
        traj = rabi_trajectory(60)
        a = jump_process(traj, seed=7)
        b = jump_process(traj, seed=7)
        assert np.array_equal(a.selected, b.selected)

    def test_swinging_ray_inside_degenerate_eigenspace_raises(self):
        # rank-2 eigenspace; a large step swings the projected ray by ~1 rad
        obs = ObservableSpec(
            ("plane", "axis"),
            (
                Subspace.from_vectors(
                    [basis_vector(3, 0), basis_vector(3, 1)], ambient_dim=3
                ).basis,
                Subspace.ray(basis_vector(3, 2)).basis,
            ),
        )
        h3 = np.zeros((3, 3), dtype=complex)
        h3[:2, :2] = SX
        spec = EvolutionSpec(hamiltonian=Operator(h3), dt=1.2, steps=4)
        traj = evolve_possibility(ComplexVector(np.array([1.0 + 0j, 0, 0])), obs, spec)
        with pytest.raises(LabelDiscontinuity) as exc:
            jump_process(traj, seed=0)
        assert exc.value.step == 1

    def test_trajectory_rows_format(self):
        traj = rabi_trajectory(20)
        pt = jump_process(traj, seed=1)
        rows = list(trajectory_rows(pt, traj))
        assert len(rows) == 21
        first = rows[0].split("\t")
        assert len(first) == 3
        assert first[0] == "0"
        assert first[1] in ("up", "down")
        assert len(first[2].split(",")) == 2

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_block_rows_match_one_f_string_per_number(self, extra):
        # rows read a block at a time against the f-strings they replaced, at
        # one block's edge; near its zero crossing a Rabi weight is written
        # in exponent form
        traj = rabi_trajectory(_BLOCK + extra - 1)
        pt = jump_process(traj, seed=3)
        want = [f"{t:.10g}\t{label}\t" + ",".join(f"{p:.10g}" for p in w)
                for t, label, w in zip(pt.times, [pt.labels[i] for i in pt.selected],
                                       traj.weights)]
        assert len(want) == _BLOCK + extra and any("e-" in row for row in want)
        assert list(trajectory_rows(pt, traj)) == want

    @pytest.mark.parametrize("make", [lambda: rabi_trajectory(600),
                                      lambda: multilevel_trajectory(0, steps=700),
                                      lambda: multilevel_trajectory(5, steps=700)],
                             ids=["rabi", "multilevel0", "multilevel5"])
    def test_selection_is_a_read_only_index_array_and_rows_keep_their_bytes(self, make):
        traj = make()
        pt = jump_process(traj, seed=4)
        assert pt.selected.dtype == np.int64 and pt.selected.shape == (traj.spec.steps + 1,)
        assert not pt.selected.flags.writeable and pt.labels == traj.labels
        with pytest.raises(ValueError):
            pt.selected[0] = 0
        # the rows of one label string per step, the walked column looked up at once
        cum, p0 = traj._chain
        path = sample_paths(cum, p0, 1, 4, np.arange(traj.spec.steps + 1))[:, 0]
        labels = tuple(traj.labels[int(i)] for i in path)
        fmt = "%.10g\t%s\t" + ",".join(["%.10g"] * traj.weights.shape[1])
        want = [fmt % (t, label, *w) for t, label, w in
                zip(traj.times.tolist(), labels, traj.weights.tolist())]
        assert list(trajectory_rows(pt, traj)) == want


def frozen_trajectory(rows, obs=None) -> PossibilityTrajectory:
    """Snapshots given by hand (unnormalised amplitudes in the computational
    basis) under H = 0, so that no probability current flows.  The observable
    defaults to the computational basis, labelled a, b, c, ..."""
    psis = np.array(rows, dtype=complex)
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)
    steps, dim = psis.shape[0] - 1, psis.shape[1]
    if obs is None:
        obs = ObservableSpec.from_eigenbasis(
            [basis_vector(dim, i) for i in range(dim)], labels="abcd"[:dim]
        )
    spec = EvolutionSpec(hamiltonian=Operator(np.zeros((dim, dim), dtype=complex)),
                         dt=0.1, steps=steps)
    return PossibilityTrajectory(spec, obs, spec.dt * np.arange(steps + 1), psis)


class TestLabelDiscontinuity:
    def test_label_vanishing_without_outflow_raises(self):
        tiny = np.sqrt(PRESENCE_CUTOFF / 2)  # weight below the presence cutoff
        traj = frozen_trajectory([[1, 1], [1, 1], [1, tiny], [1, 0]])
        assert traj.weights[2, 1] < PRESENCE_CUTOFF <= traj.weights[1, 1]
        with pytest.raises(LabelDiscontinuity) as exc:
            _transition_cumulatives(traj)
        assert exc.value.step == 2
        assert str(exc.value) == "label 'b' vanishes with no outgoing current"

    @pytest.mark.parametrize(
        "rows, step, label",
        [
            # c vanishes at step 1, a (a lower index) only at step 2
            ([[1, 1, 1], [1, 1, 0], [0, 1, 0]], 1, "c"),
            # b and c vanish together at step 2
            ([[1, 1, 1], [1, 1, 1], [1, 0, 0]], 2, "b"),
        ],
    )
    def test_first_offender_in_step_then_label_order(self, rows, step, label):
        with pytest.raises(LabelDiscontinuity) as exc:
            _transition_cumulatives(frozen_trajectory(rows))
        assert exc.value.step == step
        assert str(exc.value) == f"label {label!r} vanishes with no outgoing current"

    @staticmethod
    def plane_and_ray(order) -> ObservableSpec:
        """Label p is the (e0, e1) plane, in which a projected ray can turn
        over; label r is the ray e2. ``order`` gives the label order."""
        spaces = {
            "p": Subspace.from_vectors([basis_vector(3, 0), basis_vector(3, 1)], ambient_dim=3),
            "r": Subspace.ray(basis_vector(3, 2)),
        }
        return ObservableSpec(order, [spaces[label].basis for label in order])

    @pytest.mark.parametrize(
        "rows, order, message",
        [
            # r vanishes at step 1; p's ray rotates by 90 degrees at step 2
            ([[1, 0, 1], [1, 0, 0], [0, 1, 0]], ("p", "r"),
             "label 'r' vanishes with no outgoing current"),
            # the mirror case: p turns over at step 1, r vanishes at step 2
            ([[1, 0, 1], [0, 1, 1], [0, 1, 0]], ("p", "r"),
             "projected ray for label 'p' turned over between steps (squared overlap 0)"),
            # both at step 1: the turn-over goes first, although the
            # vanishing label comes first in label order
            ([[1, 0, 1], [0, 1, 0]], ("r", "p"),
             "projected ray for label 'p' turned over between steps (squared overlap 0)"),
        ],
        ids=["vanishing_first", "turn_over_first", "same_step"],
    )
    def test_first_broken_step_across_both_routes(self, rows, order, message):
        with pytest.raises(LabelDiscontinuity) as exc:
            _transition_cumulatives(frozen_trajectory(rows, self.plane_and_ray(order)))
        assert exc.value.step == 1
        assert str(exc.value) == message


def multilevel_trajectory(seed: int, steps: int = 3000, dt_scale: float = 1.0):
    """A random dim-6 Hamiltonian, maximal observable (k = 6) and start
    state, drawn in the order of the ``multilevel`` benchmark workload."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = Operator((m + m.conj().T) / 2)
    obs = maximal_observable(6, rng)
    psi0 = random_vector(6, rng)
    return evolve_possibility(psi0, obs, EvolutionSpec(h, dt_scale * default_timestep(h), steps))


class TestCumulativeRows:
    """``sample_paths`` tests a walker's stay slot before it sweeps the
    thresholds, which is exact only if the thresholds ``cum[t, i, :k - 1]``
    never decrease."""

    @staticmethod
    def assert_thresholds_nondecreasing(traj):
        cum, _ = _transition_cumulatives(traj)
        assert (np.diff(cum[..., :-1], axis=-1) >= 0.0).all()

    @pytest.mark.parametrize("seed", range(8))
    def test_multilevel(self, seed):
        self.assert_thresholds_nondecreasing(multilevel_trajectory(seed))

    @pytest.mark.parametrize("seed", range(8))
    def test_transitions_nonnegative(self, seed):
        # a row total one ulp above 1 once left the pinned last entry below
        # its predecessor: a -2.2e-16 probability into the last label
        cum, _ = _transition_cumulatives(multilevel_trajectory(seed))
        trans = np.diff(cum, axis=-1, prepend=0.0)
        assert trans.min() >= 0.0

    def test_entangling(self):
        self.assert_thresholds_nondecreasing(entangling_trajectory(200))

    def test_forced_jumps(self):
        # at ten times the default step many rows must jump: their diagonal is 0
        traj = multilevel_trajectory(0, steps=200, dt_scale=10.0)
        cum, _ = _transition_cumulatives(traj)
        stay = np.diagonal(np.diff(cum, axis=-1, prepend=0.0), axis1=1, axis2=2)
        assert ((stay == 0.0) & (traj.weights[:-1] >= PRESENCE_CUTOFF)).any()
        self.assert_thresholds_nondecreasing(traj)


class TestForwardMarginals:
    def test_marginals_stay_distributions(self):
        traj = entangling_trajectory(200)
        p = _forward_marginals(*_transition_cumulatives(traj))
        assert p.shape == traj.weights.shape
        assert (p >= 0).all()
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4))
    @settings(max_examples=20, deadline=None)
    def test_defect_halves_with_the_step(self, seed, dim):
        # Bell's minimal rates carry the Born weights exactly in the
        # continuum limit: the chain's marginals miss them at first order in dt
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = Operator((m + m.conj().T) / 2)
        obs = maximal_observable(dim, rng)
        psi0 = random_vector(dim, rng)
        base = default_timestep(h)
        defects = []
        for scale in (4, 2, 1):  # a fixed span of 400 default steps
            steps = 400 // scale
            traj = evolve_possibility(psi0, obs, EvolutionSpec(h, dt=scale * base, steps=steps))
            p = _forward_marginals(*_transition_cumulatives(traj))
            defects.append(np.abs(p - traj.weights).max())
        ratios = [defects[1] / defects[0], defects[2] / defects[1]]
        assert all(0.45 <= r <= 0.55 for r in ratios), (defects, ratios)


class TestMeshing:
    def test_rabi_marginals_match_weights(self):
        traj = rabi_trajectory(600)
        idx = np.arange(1, 11) * 60
        marg = sample_marginals(traj, seed=0, n_trajectories=20_000, sample_indices=idx)
        assert marg.counts.shape == (10, 2)
        assert (marg.counts.sum(axis=1) == 20_000).all()
        assert marg.total_variation().max() < 0.02

    def test_expected_equals_possibility_weights(self):
        traj = rabi_trajectory(100)
        idx = np.array([0, 50, 100], dtype=np.int64)
        marg = sample_marginals(traj, seed=2, n_trajectories=500, sample_indices=idx)
        assert np.abs(marg.expected - traj.weights[idx]).max() < 1e-12

    @pytest.mark.parametrize("bad", [[0.5, 10.9], [[0, 10], [20, 30]]])
    def test_fractional_or_multidimensional_indices_rejected(self, bad):
        # a fractional index used to be truncated to the step below it
        traj = rabi_trajectory(100)
        with pytest.raises(ValueError):
            sample_marginals(traj, seed=0, n_trajectories=100, sample_indices=bad)

    def test_default_indices_sample_every_step(self):
        traj = rabi_trajectory(50)
        marg = sample_marginals(traj, seed=3, n_trajectories=200)
        every = sample_marginals(traj, seed=3, n_trajectories=200, sample_indices=np.arange(51))
        assert marg.counts.shape == (51, 2)
        assert np.array_equal(marg.counts, every.counts)
        assert np.array_equal(marg.times, traj.times)

    def test_one_sample_paths_call_through_the_module_binding(self, monkeypatch):
        # the benchmark taps the sampled paths by replacing this binding
        seen = []

        def tap(*args, **kwargs):
            seen.append(sample_paths(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(qpt.dynamics, "sample_paths", tap)
        marg = sample_marginals(rabi_trajectory(100), seed=0, n_trajectories=50,
                                sample_indices=[10, 90])
        assert len(seen) == 1 and seen[0].shape == (2, 50)
        assert np.array_equal([np.bincount(r, minlength=2) for r in seen[0]], marg.counts)

    def test_samplers_share_one_chain_per_trajectory(self, monkeypatch):
        # the trajectory builds its chain once, for every sampler that walks it
        builds = []
        build = qpt.dynamics._transition_cumulatives
        monkeypatch.setattr(qpt.dynamics, "_transition_cumulatives",
                            lambda traj: builds.append(1) or build(traj))
        traj, idx = rabi_trajectory(100), [10, 50, 90]
        shared = [sample_marginals(traj, seed=s, n_trajectories=300, sample_indices=idx)
                  for s in (0, 1)]
        path = jump_process(traj, seed=2)
        assert len(builds) == 1
        for s, marg in zip((0, 1), shared):
            fresh = sample_marginals(rabi_trajectory(100), seed=s, n_trajectories=300,
                                     sample_indices=idx)
            assert np.array_equal(marg.counts, fresh.counts)
        assert np.array_equal(path.selected, jump_process(rabi_trajectory(100), seed=2).selected)

    def test_empty_indices_give_no_counts(self):
        marg = sample_marginals(rabi_trajectory(100), seed=0, n_trajectories=100,
                                sample_indices=[])
        assert marg.counts.shape == (0, 2)
        assert marg.times.shape == (0,)

    def test_sampled_paths_match_golden(self):
        # a seed fixes the paths, so their digest is pinned
        traj = rabi_trajectory(600)
        cum, p0 = _transition_cumulatives(traj)
        paths = sample_paths(cum, p0, 2 * CHUNK + 5, 0, np.arange(601))
        assert paths.shape == (601, 2 * CHUNK + 5)
        assert paths_sha256(paths) == (
            "a55edefc93146f2430c906c2307cf63dd6e974333ca95e3e4b4634b390227b89"
        )


def entangling_trajectory(steps: int = 200) -> "PossibilityTrajectory":
    """Continuous entangling evolution: spin-controlled pointer shift, run as
    a Hamiltonian flow reaching the premeasurement unitary at t=1.  The
    position observable has k = 9 labels, eight of them absent at t=0."""
    layout = RegisterLayout((("spin1", 2), ("spin2", 2), ("pos1", 3), ("pos2", 3)))
    shift_up = np.roll(np.eye(3), 1, axis=0)
    shift_dn = np.roll(np.eye(3), -1, axis=0)
    p_up = np.diag([1.0, 0.0])
    p_dn = np.diag([0.0, 1.0])
    u_local = np.kron(p_up, shift_up) + np.kron(p_dn, shift_dn)
    u_pre = embed(Operator(u_local.astype(complex)), layout, ("spin1", "pos1"))

    logu = scipy.linalg.logm(u_pre.entries)
    h = Operator(1j / 2 * (logu - logu.conj().T) / 1.0)

    singlet = np.zeros((2, 2), dtype=complex)
    singlet[0, 1], singlet[1, 0] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    r0 = np.array([0.0, 1.0, 0.0], dtype=complex)
    psi0 = np.einsum("ab,p,q->abpq", singlet, r0, r0).reshape(-1)

    sym = ["-", "0", "+"]
    obs = _position_observable(layout, ("pos1", "pos2"), [sym, sym])
    spec = EvolutionSpec(hamiltonian=h, dt=1.0 / steps, steps=steps)
    return evolve_possibility(ComplexVector(psi0), obs, spec)


class TestEntanglingPremeasurement:
    def test_endpoint_labels_split_half_half(self):
        steps = 200
        traj = entangling_trajectory(steps)
        w_end = traj.weights[-1]
        lab = list(traj.labels)
        i_minus = lab.index("(-,0)")
        i_plus = lab.index("(+,0)")
        assert w_end[i_minus] == pytest.approx(0.5, abs=1e-9)
        assert w_end[i_plus] == pytest.approx(0.5, abs=1e-9)

        idx = np.array([steps], dtype=np.int64)
        marg = sample_marginals(traj, seed=1, n_trajectories=4000, sample_indices=idx)
        freq = marg.frequencies[0]
        assert freq[i_minus] == pytest.approx(0.5, abs=0.05)
        assert freq[i_plus] == pytest.approx(0.5, abs=0.05)
        others = [f for k, f in enumerate(freq) if k not in (i_minus, i_plus)]
        assert max(others) < 0.02

    def test_sampled_paths_match_golden(self):
        # absent labels get placeholder rows that no walker may enter
        traj = entangling_trajectory(200)
        cum, p0 = _transition_cumulatives(traj)
        assert cum.shape == (200, 9, 9)
        assert np.count_nonzero(p0) == 1
        paths = sample_paths(cum, p0, 4000, 1, np.arange(201))
        assert paths_sha256(paths) == (
            "2a9dc4edf8caecaca7f7b553d5fe2f34f222f95fbc3fec56586ca5c3fdd87f87"
        )


#: the block length patched in below: small, so that short chains cross blocks
B = 8


def chain_bytes(traj: PossibilityTrajectory) -> tuple[bytes, bytes, bytes, bytes]:
    cum, p0 = _transition_cumulatives(traj)
    return traj.psis.tobytes(), cum.tobytes(), p0.tobytes(), traj.weights.tobytes()


CHAINS = {
    "rabi": rabi_trajectory,
    "multilevel": lambda steps: multilevel_trajectory(3, steps),
    "entangling": entangling_trajectory,
}


class TestTimeBlocks:
    """``weights`` and ``_transition_cumulatives`` work ``_BLOCK`` steps at a
    time; where the blocks fall moves no byte and no reported step."""

    @pytest.mark.parametrize("steps", [B - 1, B, B + 1, 2 * B + 1])
    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_bytes_match_a_single_block(self, monkeypatch, chain, steps):
        monkeypatch.setattr(qpt.dynamics, "_BLOCK", steps + 1)
        whole = chain_bytes(CHAINS[chain](steps))
        monkeypatch.setattr(qpt.dynamics, "_BLOCK", B)
        assert chain_bytes(CHAINS[chain](steps)) == whole

    @staticmethod
    def discontinuity(rows, order) -> tuple[int, str]:
        obs = TestLabelDiscontinuity.plane_and_ray(order)
        with pytest.raises(LabelDiscontinuity) as exc:
            _transition_cumulatives(frozen_trajectory(rows, obs))
        return exc.value.step, str(exc.value)

    @pytest.mark.parametrize(
        "rows, order, message",
        [
            # r vanishes at step 10, in the second block
            ([[1, 0, 1]] * 10 + [[1, 0, 0]], ("p", "r"),
             "label 'r' vanishes with no outgoing current"),
            # p turns over at step 10
            ([[1, 0, 1]] * 10 + [[0, 1, 1]], ("p", "r"),
             "projected ray for label 'p' turned over between steps (squared overlap 0)"),
            # r vanishes at step 10; p turns over only at step 20, a block later
            ([[1, 0, 1]] * 10 + [[1, 0, 0]] * 10 + [[0, 1, 0]], ("p", "r"),
             "label 'r' vanishes with no outgoing current"),
            # both at step 10: the turn-over goes first
            ([[1, 0, 1]] * 10 + [[0, 1, 0]], ("r", "p"),
             "projected ray for label 'p' turned over between steps (squared overlap 0)"),
        ],
        ids=["vanishing", "turn_over", "vanishing_a_block_before_turn_over", "same_step"],
    )
    def test_discontinuity_in_the_second_block(self, monkeypatch, rows, order, message):
        monkeypatch.setattr(qpt.dynamics, "_BLOCK", len(rows))
        whole = self.discontinuity(rows, order)
        monkeypatch.setattr(qpt.dynamics, "_BLOCK", B)
        assert self.discontinuity(rows, order) == whole == (10, message)


class TestBoundedMemory:
    def test_chain_holds_no_full_length_temporaries(self):
        """Building the weights and the transition rows of a k = 2 chain of
        200,000 steps peaks at what outlives the call (``cum`` and the cached
        weights) plus one projected-state array and 1 MB for the per-block
        temporaries; after it, no projected-state array is kept."""
        steps = 200_000
        spec = EvolutionSpec(hamiltonian=Operator(SX / 2), dt=2 * np.pi / steps, steps=steps)
        times = spec.dt * np.arange(steps + 1)
        psis = np.stack([np.cos(times / 2), -1j * np.sin(times / 2)], axis=1)
        traj = PossibilityTrajectory(spec, z_observable(), times, psis)
        projected_nbytes = psis.nbytes * 2  # (steps + 1, k, dim) complex, k = dim = 2
        tracemalloc.start()
        try:
            traj.weights
            cum, _ = _transition_cumulatives(traj)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = cum.nbytes + traj.weights.nbytes
        assert peak < kept + projected_nbytes + 2**20
        assert current < kept + 2**20

    def test_one_walker_walk_keeps_no_per_step_index(self, monkeypatch):
        """Walking one walker over every step of a chain of 4,000 steps peaks
        at the walk's own arrays plus 64 KiB, whatever k: the sampled rows,
        and one draw block's uniforms and threshold slab, each at most
        ``BLOCK_DOUBLES`` doubles.  No copy of the chain is held, and the
        block holds fewer rows as k grows."""
        block = 4096
        monkeypatch.setattr(_kernels, "BLOCK_DOUBLES", block)
        steps = 4_000
        idx = np.arange(steps + 1)
        rng = np.random.default_rng(9)
        for k in (2, 6, 9):
            cum = np.cumsum(rng.random((steps, k, k)), axis=-1)
            cum /= cum[..., -1:]
            tracemalloc.start()
            try:
                sample_paths(cum, np.full(k, 1 / k), 1, 0, idx)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            out = (steps + 1) * 8  # one int64 label per sampled time
            assert peak < out + 2 * block * 8 + 2**16, k

    def test_ensemble_walk_memory_does_not_grow_with_the_chain(self):
        """The traced peak of a k = 6 walk of 100 walkers, beyond its output,
        is the same for a chain of 3,000 steps and one of 30,000 (within
        0.25 MiB): the walk holds one draw block's state, not the chain's."""
        rng = np.random.default_rng(6)
        extra = []
        for steps in (3_000, 30_000):
            cum = np.cumsum(rng.random((steps, 6, 6)), axis=-1)
            cum /= cum[..., -1:]
            idx = np.linspace(0, steps, 11).astype(np.int64)
            tracemalloc.start()
            try:
                out = sample_paths(cum, np.full(6, 1 / 6), 100, 0, idx)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra.append(peak - out.nbytes)
        assert abs(extra[1] - extra[0]) < 2**18
