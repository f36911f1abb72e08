"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from qpt import (
    ComplexVector,
    EvolutionSpec,
    ObservableSpec,
    Operator,
    PossibilityTrajectory,
    Subspace,
    evolve_possibility,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_vector(dim: int, rng: np.random.Generator) -> ComplexVector:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return ComplexVector(v / np.linalg.norm(v))


def maximal_observable(dim: int, rng: np.random.Generator) -> ObservableSpec:
    """Nondegenerate observable with a random orthonormal eigenbasis."""
    q = random_unitary(dim, rng)
    return ObservableSpec.from_eigenbasis([q[:, i] for i in range(dim)])


def random_subspace(dim: int, rank: int, rng: np.random.Generator) -> Subspace:
    z = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    return Subspace.from_vectors([z[:, i] for i in range(rank)], ambient_dim=dim)


def z_observable() -> ObservableSpec:
    return ObservableSpec.from_eigenbasis(
        [np.array([1.0, 0.0]), np.array([0.0, 1.0])], labels=["up", "down"]
    )


def rabi_trajectory(steps: int = 600) -> PossibilityTrajectory:
    """H = sigma_x / 2 over one period from |up>, observed in the z basis."""
    spec = EvolutionSpec(
        hamiltonian=Operator(SX / 2), dt=2 * np.pi / steps, steps=steps
    )
    return evolve_possibility(ComplexVector(np.array([1.0 + 0j, 0.0])), z_observable(), spec)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)
