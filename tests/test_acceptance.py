"""Acceptance gate: one test per acceptance criterion, each at its stated
tolerance.  Run with ``pytest -v tests/test_acceptance.py`` to get one
pass/fail line per criterion.

Criterion 11 is split, and both halves run against ``qpt.scenarios._ratio``.
11a asserts the exact small-n anchor and the single-step (m=1) bound
2/(n-3).  11b asserts the uniform-in-m claim in its true form.  Since
ratio = n(2n-m)/(2(n-m)^2), the defect is ratio - 1 = m(3n-2m)/(2(n-m)^2);
for m = 2 the bound 2/(n-3) would need (3n-4)(n-3) <= 2(n-2)^2, that is
n^2 - 5n + 4 <= 0, false for every n >= 5 (m = 3 fails the same way).  So
11b pins the closed form, pins that 2/(n-3) is violated exactly at m in
{2, 3}, and asserts the bound 2*3/(n-3) that holds uniformly for m <= 3.
"""

from __future__ import annotations

import itertools
import time

import numpy as np
import pytest

from qpt import (
    BudgetExceeded,
    ChshSetting,
    NoAssignment,
    ObservableSpec,
    RaySet,
    Subspace,
    Unsatisfiable,
    born_check,
    build_determinate,
    chsh_lhv_bound,
    chsh_value,
    closure,
    contains,
    correlation_table,
    extend_and_check,
    find_assignment,
    join,
    local_map_search,
    property_states,
    setting_ray_sets,
    singlet,
)
from qpt.scenarios import (
    _ratio,
    decoherence_scenario,
    epr_scenario,
    teleportation_scenario,
)
from conftest import maximal_observable, random_subspace, random_vector

from pathlib import Path

import qpt

FIXTURES = Path(qpt.__file__).resolve().parent / "fixtures"


def _checks(rep) -> dict:
    return {c.name: c for c in rep.checks}


def test_criterion_01_teleportation_fidelity_is_unity():
    """100 random normalized input amplitudes; in all four pointer branches
    the corrected receiver state reduces to the input within 1e-10."""
    rng = np.random.default_rng(101)
    for k in range(100):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        z /= np.linalg.norm(z)
        rep = teleportation_scenario(complex(z[0]), complex(z[1]), seed=k, samples=2)
        by = _checks(rep)
        for r in range(1, 5):
            c = by[f"fidelity_r{r}"]
            assert c.passed, f"case {k}: {c.render()}"
            assert c.tolerance <= 1e-10


def test_criterion_02_teleportation_outcome_statistics():
    """10^4 seeded protocol runs: each of the four pointer outcomes has
    frequency 1/4 within a 3-sigma binomial band."""
    rep = teleportation_scenario(0.6, 0.8, seed=0, samples=10_000)
    c = _checks(rep)["outcome_histogram_uniform"]
    assert c.passed, c.render()


def test_criterion_03_epr_membership_flip_and_no_signalling():
    """Premeasurement on side 1 makes side 2's z-spin projectors determinate
    (they were not before), while side 2's reduced state moves by <= 1e-12."""
    rep = epr_scenario()
    by = _checks(rep)
    assert by["side2_zspin_member_before"].passed
    assert by["side2_zspin_member_after"].passed
    ns = by["no_signalling_rho_side2"]
    assert ns.passed and ns.tolerance <= 1e-12, ns.render()


def test_criterion_04_born_measure_equivalence():
    """200 random (state, maximal observable) pairs in dims 3-8: the measure
    over 2-valued homomorphisms of any member equals <psi|P_V|psi> within
    1e-10."""
    rng = np.random.default_rng(404)
    dims = [3, 4, 5, 6, 7, 8]
    for case in range(200):
        dim = dims[case % len(dims)]
        psi = random_vector(dim, rng)
        d = build_determinate(psi, maximal_observable(dim, rng))
        picks = rng.random(len(d.projected_rays)) < 0.5
        v = Subspace.zero(dim)
        for r, p in zip(d.projected_rays, picks):
            if p:
                v = join(v, Subspace.ray(r.vector))
        out = born_check(d, v)
        direct = float(np.real(np.vdot(psi.amplitudes, v.projector() @ psi.amplitudes)))
        assert abs(out.measure_prob - out.born_prob) <= 1e-10, case
        assert abs(out.born_prob - direct) <= 1e-10, case


def test_criterion_05_closure_cross_validation():
    """Bounded closure (budget 512) of the sublattice generators in dims 3-5:
    every emitted element passes the analytic membership test."""
    rng = np.random.default_rng(505)
    discrepancies = []
    for dim in (3, 4, 5):
        observables = [
            maximal_observable(dim, rng),
            ObservableSpec.identity(dim),
        ]
        for obs in observables:
            psi = random_vector(dim, rng)
            d = build_determinate(psi, obs)
            try:
                out = closure(d.generators(), max_new=512)
            except BudgetExceeded as exc:
                out = exc.partial
            for e in out.elements:
                if not contains(d, e):
                    discrepancies.append((dim, obs.labels, e.rank))
    assert discrepancies == []


def test_criterion_06_kochen_specker_fixture_and_dim2_escape():
    """The bundled 18-ray dim-4 fixture is uncolorable in under a second;
    dim-2 ray sets are always colorable."""
    rs = RaySet.from_file(FIXTURES / "ks18-d4.rays")
    t0 = time.perf_counter()
    out = find_assignment(rs)
    elapsed = time.perf_counter() - t0
    assert isinstance(out, NoAssignment)
    assert elapsed < 1.0, f"took {elapsed:.3f}s"

    rng = np.random.default_rng(606)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        angs = np.sort(rng.random(n) * np.pi)
        if np.min(np.diff(angs), initial=np.pi) < 1e-3:
            continue
        vecs = [np.array([np.cos(a), np.sin(a)], dtype=complex) for a in angs]
        got = find_assignment(RaySet.from_vectors(vecs))
        assert not isinstance(got, NoAssignment)


def test_criterion_07_chsh_lhv_bound_and_tsirelson_point():
    """Brute-force LHV bound is exactly 2; the singlet at optimal angles
    reaches 2*sqrt(2) within 1e-9, and that table admits no local model."""
    assert chsh_lhv_bound() == 2.0
    setting = ChshSetting.optimal()
    psi = singlet()
    assert abs(chsh_value(psi, setting) - 2 * np.sqrt(2)) <= 1e-9
    rs_a, rs_b = setting_ray_sets(setting)
    out = local_map_search(rs_a, rs_b, correlation_table(psi, setting))
    assert isinstance(out, Unsatisfiable)


#: (verdict, n_elements, n_relations, n_rays, closure_depth) of the 20
#: criterion-08 cases, as the per-pair closure produced them
CRITERION_08_SHAPES = [
    ("contradiction", 19, 121, 9, 1),
    ("contradiction", 25, 121, 8, 1),
    ("contradiction", 25, 121, 8, 1),
    ("contradiction", 19, 121, 9, 1),
    ("contradiction", 25, 121, 8, 1),
    ("contradiction", 19, 121, 9, 1),
    ("contradiction", 19, 121, 9, 1),
    ("contradiction", 19, 121, 9, 1),
    ("contradiction", 25, 121, 8, 1),
    ("contradiction", 19, 121, 9, 1),
    ("contradiction", 512, 9566, 337, 2),
    ("contradiction", 512, 9566, 337, 2),
    ("contradiction", 512, 9097, 151, 2),
    ("contradiction", 512, 9566, 337, 2),
    ("contradiction", 512, 9097, 151, 2),
    ("contradiction", 512, 9097, 151, 2),
    ("contradiction", 352, 6889, 175, 2),
    ("contradiction", 512, 9097, 151, 2),
    ("contradiction", 512, 9566, 337, 2),
    ("contradiction", 352, 6889, 175, 2),
]


def test_criterion_08_extension_contradictions():
    """Extending the orthodox sublattice D(psi, identity) by a random
    non-member subspace in dims 3-4 yields a contradiction in at least 19 of
    20 cases within the search budget; inconclusive cases are surfaced."""
    rng = np.random.default_rng(808)
    outcomes, shapes = [], []
    for case in range(20):
        dim = 3 if case < 10 else 4
        psi = random_vector(dim, rng)
        d = build_determinate(psi, ObservableSpec.identity(dim))
        while True:
            rank = int(rng.integers(1, dim))
            v = random_subspace(dim, rank, rng)
            if not contains(d, v):
                break
        rep = extend_and_check(d, v, budget=512)
        outcomes.append((case, dim, rank, rep.verdict))
        shapes.append((rep.verdict, rep.n_elements, rep.n_relations, rep.n_rays,
                       rep.closure_depth))
    n_contradictions = sum(1 for *_, v in outcomes if v == "contradiction")
    inconclusive = [o for o in outcomes if o[3] != "contradiction"]
    assert n_contradictions >= 19, f"non-contradictions: {inconclusive}"
    assert shapes == CRITERION_08_SHAPES


def test_criterion_09_dynamics_meshing_rabi():
    """Two-level Rabi flow, 10^5 stochastic trajectories: total-variation
    distance between empirical marginals and (cos^2, sin^2) is <= 0.02 at
    each of 10 sampled times."""
    from qpt import ComplexVector, EvolutionSpec, Operator, evolve_possibility, sample_marginals

    steps = 2010
    spec = EvolutionSpec(
        hamiltonian=Operator(np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)),
        dt=2 * np.pi / steps,
        steps=steps,
    )
    obs = ObservableSpec.from_eigenbasis(
        [np.array([1.0, 0.0]), np.array([0.0, 1.0])], labels=["up", "down"]
    )
    traj = evolve_possibility(ComplexVector(np.array([1.0 + 0j, 0.0])), obs, spec)
    idx = np.arange(1, 11) * (steps // 10)
    closed = np.stack(
        [np.cos(traj.times[idx] / 2) ** 2, np.sin(traj.times[idx] / 2) ** 2], axis=1
    )
    assert np.abs(traj.weights[idx] - closed).max() < 1e-9
    marg = sample_marginals(traj, seed=0, n_trajectories=100_000, sample_indices=idx)
    tv = marg.total_variation()
    assert tv.shape == (10,)
    assert tv.max() <= 0.02, f"worst TV {tv.max():.4f}"


def test_criterion_10_decoherence_suppression_power_law():
    """Reduced off-diagonal magnitude equals |cos(theta)|^N within 1e-12 for
    every environment width N <= 30."""
    for angle in (1.0, np.pi / 3):
        for n in range(31):
            rep = decoherence_scenario(n, angle, run_extension=False)
            by = _checks(rep)
            c = by["suppression_matches_power_law"]
            assert c.passed and c.tolerance <= 1e-12, (n, angle, c.render())
            if "dense_partial_trace_agrees" in by:
                assert by["dense_partial_trace_agrees"].passed, (n, angle)


def test_criterion_11a_correspondence_anchor_and_single_step_bound():
    """The lowest transition ratio is exactly 3.0, and for single-step
    transitions |ratio - 1| <= 2/(n-3) for every 10 <= n <= 500."""
    assert _ratio(2, 1) == 3.0
    for n in range(10, 501):
        assert abs(_ratio(n, 1) - 1.0) <= 2.0 / (n - 3), n
    # scaled bound: the m-step defect obeys |ratio - 1| <= 2m/(n-3) throughout
    for n in range(10, 501):
        for m in (1, 2, 3):
            assert abs(_ratio(n, m) - 1.0) <= 2.0 * m / (n - 3), (n, m)


def test_criterion_11b_correspondence_uniform_bound_all_m():
    """Uniform-in-m convergence for 10 <= n <= 500 and every m <= 3.

    The literal claim |ratio - 1| <= 2/(n-3) for all m <= 3 is false: the
    defect has the closed form ratio - 1 = m(3n-2m)/(2(n-m)^2), and for
    m = 2 the bound reduces to n^2 - 5n + 4 <= 0, false for every n >= 5
    (m = 3 likewise).  The test asserts what is true instead:
    (a) the defect equals the closed form within 1e-12;
    (b) the pairs violating 2/(n-3) are exactly those with m in {2, 3}, so
        the literal bound holds for m = 1 only;
    (c) |ratio - 1| <= 2*3/(n-3) uniformly in m (worst ratio to it 6/7)."""
    pairs = [(n, m) for n in range(10, 501) for m in (1, 2, 3)]

    form_err = max(
        abs((_ratio(n, m) - 1.0) - m * (3 * n - 2 * m) / (2.0 * (n - m) ** 2))
        for n, m in pairs
    )
    assert form_err <= 1e-12, form_err

    violations = {(n, m) for n, m in pairs if abs(_ratio(n, m) - 1.0) > 2.0 / (n - 3)}
    multi_step = {(n, m) for n, m in pairs if m in (2, 3)}
    assert violations == multi_step, sorted(violations ^ multi_step)[:3]

    uniform = [(n, m) for n, m in pairs if abs(_ratio(n, m) - 1.0) > 2.0 * 3 / (n - 3)]
    assert not uniform, f"{len(uniform)} violations of 2*3/(n-3), e.g. {uniform[:3]}"
