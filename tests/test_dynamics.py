"""Unitary possibility evolution, the stochastic jump process, and meshing."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
import scipy.linalg

from qpt import (
    ComplexVector,
    DimMismatch,
    EvolutionSpec,
    LabelDiscontinuity,
    NotHermitian,
    ObservableSpec,
    Operator,
    RegisterLayout,
    Subspace,
    basis_vector,
    default_timestep,
    embed,
    evolve_possibility,
    jump_process,
    sample_marginals,
    tensor,
)
from qpt._kernels import CHUNK, sample_paths
from qpt.dynamics import _transition_cumulatives, trajectory_rows
from qpt.scenarios import _position_observable

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def z_observable() -> ObservableSpec:
    return ObservableSpec.from_eigenbasis(
        [np.array([1.0, 0.0]), np.array([0.0, 1.0])], labels=["up", "down"]
    )


def paths_sha256(paths: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(paths).tobytes()).hexdigest()


def rabi_trajectory(steps: int = 600) -> "PossibilityTrajectory":
    spec = EvolutionSpec(
        hamiltonian=Operator(SX / 2), dt=2 * np.pi / steps, steps=steps
    )
    return evolve_possibility(ComplexVector(np.array([1.0 + 0j, 0.0])), z_observable(), spec)


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

    def test_step_unitary_is_unitary(self):
        spec = EvolutionSpec(hamiltonian=Operator(SX), dt=0.3, steps=3)
        u = spec.step_unitary().entries
        assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-12

    def test_default_timestep_scales_inversely_with_norm(self):
        h1 = Operator(SX)
        h2 = Operator(10 * SX)
        assert default_timestep(h2) == pytest.approx(default_timestep(h1) / 10)


class TestEvolvePossibility:
    def test_norms_and_snapshot_counts(self):
        traj = rabi_trajectory(50)
        assert traj.psis.shape == (51, 2)
        assert len(traj.sublattices) == 51
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
        for d in traj.sublattices:
            assert [r.label for r in d.projected_rays] == ["up", "down"]

    def test_dim_mismatch(self):
        spec = EvolutionSpec(hamiltonian=Operator(SX), dt=0.1, steps=2)
        with pytest.raises(DimMismatch):
            evolve_possibility(ComplexVector(np.ones(3) / np.sqrt(3)), z_observable(), spec)


class TestJumpProcess:
    def test_zero_hamiltonian_never_jumps(self):
        h = Operator(np.zeros((2, 2), dtype=complex))
        spec = EvolutionSpec(hamiltonian=h, dt=0.1, steps=30)
        psi0 = ComplexVector(np.array([0.6, 0.8], dtype=complex))
        traj = evolve_possibility(psi0, z_observable(), spec)
        pt = jump_process(traj, seed=12)
        assert len(set(pt.selected_labels)) == 1

    def test_path_labels_are_observable_labels(self):
        traj = rabi_trajectory(80)
        pt = jump_process(traj, seed=3)
        assert len(pt.selected_labels) == 81
        assert set(pt.selected_labels) <= {"up", "down"}

    def test_same_seed_reproduces_path(self):
        traj = rabi_trajectory(60)
        a = jump_process(traj, seed=7)
        b = jump_process(traj, seed=7)
        assert a.selected_labels == b.selected_labels

    def test_swinging_ray_inside_degenerate_eigenspace_raises(self):
        # rank-2 eigenspace; a large step swings the projected ray by ~1 rad
        obs = ObservableSpec(
            ("plane", "axis"),
            (
                Subspace.from_vectors(
                    [basis_vector(3, 0), basis_vector(3, 1)], ambient_dim=3
                ),
                Subspace.ray(basis_vector(3, 2)),
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
        rows = trajectory_rows(pt, traj)
        assert len(rows) == 21
        first = rows[0].split("\t")
        assert len(first) == 3
        assert first[0] == "0"
        assert first[1] in ("up", "down")
        assert len(first[2].split(",")) == 2


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
