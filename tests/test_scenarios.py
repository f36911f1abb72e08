"""End-to-end scenario drivers: every emitted check must pass, and the
reports must be deterministic for fixed parameters."""

from __future__ import annotations

import hashlib
import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pinned_bytes
import qpt.dynamics
import qpt.scenarios
from qpt import (
    ExtensionReport,
    NotNormalized,
    ObservableSpec,
    RayFileError,
    RegisterLayout,
    Subspace,
    correspondence_scenario,
    decoherence_scenario,
    epr_scenario,
    teleportation_scenario,
)
from qpt.scenarios import (
    _position_observable,
    chsh_scenario,
    determinate_scenario,
    dynamics_scenario,
    ks_scenario,
)

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "qpt" / "fixtures"


def check_names(rep) -> list[str]:
    return [c.name for c in rep.checks]


def mask_route(layout, factor_names, symbols) -> ObservableSpec:
    """``_position_observable`` through one reading mask and one ``Subspace``
    per combination of indices, the construction it replaced."""
    dims = [layout.dims[layout.axis(n)] for n in factor_names]
    readings = np.indices(layout.dims).reshape(len(layout.dims), -1)
    readings = readings[[layout.axis(n) for n in factor_names]]
    eye = np.eye(layout.dim, dtype=np.complex128)
    labels, spaces = [], []
    for combo in np.ndindex(*dims):
        mask = (readings == np.array(combo)[:, None]).all(axis=0)
        spaces.append(Subspace(layout.dim, eye[:, mask]))
        names = [symbols[k][c] for k, c in enumerate(combo)]
        labels.append(names[0] if len(dims) == 1 else "(" + ",".join(names) + ")")
    return ObservableSpec(tuple(labels), [s.basis for s in spaces])


class TestPositionObservable:
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_mask_route(self, dims, rnd):
        layout = RegisterLayout(tuple((f"r{i}", d) for i, d in enumerate(dims)))
        names = rnd.sample(layout.names, rnd.randint(1, len(dims)))
        symbols = [[f"{n}:{c}" for c in range(layout.dims[layout.axis(n)])] for n in names]
        ours = _position_observable(layout, tuple(names), symbols)
        ref = mask_route(layout, tuple(names), symbols)
        assert ours.labels == ref.labels
        assert [(b.shape, b.tobytes()) for b in ours.blocks] == [
            (b.shape, b.tobytes()) for b in ref.blocks]


class TestEpr:
    def test_all_checks_pass(self):
        rep = epr_scenario()
        assert rep.all_passed, rep.render_text()

    def test_membership_flip_is_reported(self):
        rep = epr_scenario()
        by = {c.name: c for c in rep.checks}
        assert by["side2_zspin_member_before"].actual is False
        assert by["side2_zspin_member_after"].actual is True

    def test_two_equal_branches_after_premeasurement(self):
        rep = epr_scenario()
        q = {x.name: x.value for x in rep.quantities}
        assert q["ray_weights_after"] == [0.5, 0.5]
        assert len(q["ray_labels_after"]) == 2

    def test_deterministic_output(self):
        assert epr_scenario().to_json() == epr_scenario().to_json()


class TestTeleportation:
    def test_all_checks_pass(self):
        rep = teleportation_scenario(0.6, 0.8, seed=0)
        assert rep.all_passed, rep.render_text()

    def test_complex_amplitudes_supported(self):
        rep = teleportation_scenario(0.6j, -0.8, seed=1, samples=500)
        by = {c.name: c for c in rep.checks}
        for k in range(1, 5):
            assert by[f"fidelity_r{k}"].passed

    def test_random_inputs_reconstruct(self, rng):
        for _ in range(5):
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            z /= np.linalg.norm(z)
            rep = teleportation_scenario(complex(z[0]), complex(z[1]),
                                         seed=2, samples=200)
            by = {c.name: c for c in rep.checks}
            for k in range(1, 5):
                assert by[f"fidelity_r{k}"].passed
            assert by["bell_reconstruction"].passed
            assert by["correction_is_local"].passed

    def test_unnormalized_input_rejected(self):
        with pytest.raises(NotNormalized):
            teleportation_scenario(1.0, 1.0, seed=0)

    def test_seeded_determinism(self):
        a = teleportation_scenario(0.6, 0.8, seed=9, samples=300).to_json()
        b = teleportation_scenario(0.6, 0.8, seed=9, samples=300).to_json()
        assert a == b

    def test_four_equiprobable_outcomes(self):
        rep = teleportation_scenario(0.28, 0.96, seed=4, samples=400)
        by = {c.name: c for c in rep.checks}
        assert by["four_property_states"].passed
        assert by["outcome_probabilities_quarter"].passed

    @pytest.mark.parametrize("offset", [(1, -1), (1, 0), (1, 1), (2, 3)])
    def test_block_draws_match_one_array_of_draws(self, monkeypatch, offset):
        # samples = block - 1, block, block + 1 and 2 block + 3, against one
        # random(samples + 1) array compared as a whole
        samples = offset[0] * qpt.scenarios._N_BLOCK + offset[1]
        built = []
        build = qpt.scenarios.build_determinate
        monkeypatch.setattr(qpt.scenarios, "build_determinate",
                            lambda *a, **k: built.append(build(*a, **k)) or built[-1])
        rep = teleportation_scenario(0.6, 0.8, seed=5, samples=samples)
        d = built[0]
        cum = np.cumsum(d.weights)
        cum[-1] = 1.0
        picks = (np.random.default_rng(5).random(samples + 1)[:, None] >= cum[:-1]).sum(axis=1)
        q = {x.name: x.value for x in rep.quantities}
        assert q["selected_outcome"] == d.labels[picks[0]]
        assert q["outcome_counts"] == {
            label: int((picks[1:] == i).sum()) for i, label in enumerate(d.labels)}

    def test_draw_memory_does_not_grow_with_samples(self):
        teleportation_scenario(0.6, 0.8, seed=0, samples=100)  # imports and caches
        tracemalloc.start()
        try:
            teleportation_scenario(0.6, 0.8, seed=0, samples=2**22)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_samples_past_two_to_the_forty_rejected_at_once(self):
        with pytest.raises(ValueError, match=r"\[1, 2\*\*40\]"):
            teleportation_scenario(0.6, 0.8, seed=0, samples=2**40 + 1)


class TestDecoherence:
    def test_all_checks_pass_with_extension(self):
        rep = decoherence_scenario(6, np.pi / 3)
        assert rep.all_passed, rep.render_text()
        assert "pointer_branch_not_addable" in check_names(rep)

    def test_inconclusive_at_a_fixpoint_still_fails(self, monkeypatch):
        # a closed fragment that admits a 2-valued map is a real FAIL
        import qpt.scenarios

        undecided = ExtensionReport("inconclusive", 3, True, 10, 20, 4)
        monkeypatch.setattr(qpt.scenarios, "extend_and_check", lambda *a, **k: undecided)
        rep = decoherence_scenario(2, 0.4)
        by = {c.name: c for c in rep.checks}
        assert not by["pointer_branch_not_addable"].passed
        assert not rep.all_passed

    def test_extension_can_be_skipped(self):
        rep = decoherence_scenario(6, np.pi / 3, run_extension=False)
        assert rep.all_passed
        assert "pointer_branch_not_addable" not in check_names(rep)

    def test_suppression_follows_power_law(self):
        for n in (0, 1, 4, 9, 25):
            rep = decoherence_scenario(n, 1.0, run_extension=False)
            by = {c.name: c for c in rep.checks}
            assert by["suppression_matches_power_law"].passed
            q = {x.name: x.value for x in rep.quantities}
            assert q["suppression_ratio"] == pytest.approx(
                abs(np.cos(1.0)) ** n, abs=1e-12
            )

    def test_dense_route_only_at_small_width(self):
        assert "dense_partial_trace_agrees" in check_names(
            decoherence_scenario(5, 0.9, run_extension=False)
        )
        assert "dense_partial_trace_agrees" not in check_names(
            decoherence_scenario(20, 0.9, run_extension=False)
        )

    def test_orthogonal_tags_kill_interference_exactly(self):
        rep = decoherence_scenario(3, np.pi / 2, run_extension=False)
        q = {x.name: x.value for x in rep.quantities}
        assert q["suppression_ratio"] == pytest.approx(0.0, abs=1e-15)
        assert rep.all_passed


class TestCorrespondence:
    def test_all_checks_pass_at_depth(self):
        rep = correspondence_scenario(n_max=200)
        assert rep.all_passed, rep.render_text()

    def test_anchor_ratio_is_exactly_three(self):
        rep = correspondence_scenario(n_max=10)
        by = {c.name: c for c in rep.checks}
        assert by["small_n_gross_disagreement"].actual == 3.0

    def test_bound_checks_need_enough_levels(self):
        shallow = check_names(correspondence_scenario(n_max=5))
        assert "single_step_bound" not in shallow
        deep = check_names(correspondence_scenario(n_max=30))
        assert "single_step_bound" in deep and "convergence_to_unity" in deep

    def test_too_small_n_max_rejected(self):
        with pytest.raises(ValueError):
            correspondence_scenario(n_max=2)

    def test_n_max_past_the_exact_range_rejected(self):
        limit = qpt.scenarios.N_MAX_EXACT
        assert limit**2 < 2**53 <= (limit + 1) ** 2
        with pytest.raises(ValueError, match="94906265"):
            correspondence_scenario(n_max=limit + 1)

    @staticmethod
    def scalar_maxima(n_max: int) -> "tuple[float, float, float]":
        """``_defect_maxima`` as Python loops over ints, one n at a time."""
        ratio = qpt.scenarios._ratio
        worst_form = 0.0
        for n in range(2, n_max + 1):
            for m in range(1, min(3, n - 1) + 1):
                form = 1.0 + m * (3 * n - 2 * m) / (2.0 * (n - m) ** 2)
                worst_form = max(worst_form, abs(ratio(n, m) - form))
        tail = range(10, n_max + 1)
        worst_m1 = max((abs(ratio(n, 1) - 1.0) * (n - 3) / 2.0 for n in tail), default=0.0)
        worst_scaled = max((abs(ratio(n, m) - 1.0) * (n - 3) / (2.0 * m)
                            for n in tail for m in (1, 2, 3)), default=0.0)
        return worst_form, worst_m1, worst_scaled

    @pytest.mark.parametrize("block", [1, 7, 64, qpt.scenarios._N_BLOCK])
    @pytest.mark.parametrize("n_max", [3, 4, 9, 10, 11, 16, 71, 2000])
    def test_block_sweep_equals_the_scalar_route(self, monkeypatch, block, n_max):
        monkeypatch.setattr(qpt.scenarios, "_N_BLOCK", block)
        assert qpt.scenarios._defect_maxima(n_max) == self.scalar_maxima(n_max)

    def test_ratio_of_an_array_rounds_as_python_ints_do(self):
        # up to n = 94,906,265, the last n with n^2 < 2^53, every step of the
        # array route rounds as the int route does, n^3 included
        rng = np.random.default_rng(0)
        n = np.concatenate([np.arange(4, 200), [208063, 208064, 2**21, 2**21 + 1, 94906265],
                            rng.integers(4, 94906266, size=2000)])
        for m in (1, 2, 3):
            scalar = [qpt.scenarios._ratio(int(x), m) for x in n]
            assert qpt.scenarios._ratio(n.astype(np.float64), m).tolist() == scalar


class TestKs:
    def test_uncolorable_fixture_reports_its_core(self):
        rep = ks_scenario(FIXTURES / "ks18-d4.rays")
        assert rep.all_passed, rep.render_text()
        assert check_names(rep) == ["exhaustive_search_complete", "witness_core_unsatisfiable"]
        assert {q.name: q.value for q in rep.quantities}["result"] == "NoAssignment"

    def test_colorable_set_reports_a_verified_assignment(self, tmp_path):
        rays = tmp_path / "triad.rays"
        rays.write_text("1,0,0\n0,1,0\n0,0,1\n1,1,0\n1,-1,0\n")
        rep = ks_scenario(rays)
        assert rep.all_passed, rep.render_text()
        assert check_names(rep) == ["one_per_context", "orthogonal_exclusivity"]

    @pytest.mark.parametrize("text", ["1,0,0\n0,1,0\n0,0,1\n1,1,0\n1,-1,0\n", "1,0,0\n0,1,0\n"])
    def test_assignment_checks_match_the_pairwise_loops(self, tmp_path, monkeypatch, text):
        # every {0,1} map, the valid and the invalid, reported as if the
        # search had found it: the array checks give the per-context and
        # per-pair loops' verdicts (the second set has no complete context)
        rays = tmp_path / "set.rays"
        rays.write_text(text)
        rs = qpt.RaySet.from_file(rays)
        m = len(rs.rays)
        for vals in itertools.product((0, 1), repeat=m):
            monkeypatch.setattr(qpt.scenarios, "find_assignment",
                                lambda rs, restrict_to=None, vals=vals: qpt.Assignment(vals))
            verdicts = {c.name: c.passed for c in ks_scenario(rays).checks}
            assert verdicts == {
                "one_per_context": all(sum(vals[i] for i in ctx) == 1 for ctx in rs.contexts),
                "orthogonal_exclusivity": not any(
                    vals[i] and vals[j] and rs.orth[i, j]
                    for i, j in itertools.combinations(range(m), 2)),
            }, vals

    def test_coincident_rays_are_a_file_error(self, tmp_path):
        rays = tmp_path / "dup.rays"
        rays.write_text("1,0\n1,0\n")
        with pytest.raises(RayFileError):
            ks_scenario(rays)


class TestChsh:
    def test_value_at_the_classical_bound_accepts_either_local_model_verdict(self):
        # four distinct settings whose CHSH value is 2 to rounding
        rep = chsh_scenario((0.0, np.pi / 2, -0.35831957700497175, -np.pi / 4))
        assert rep.all_passed, rep.render_text()
        assert abs({q.name: q.value for q in rep.quantities}["chsh_value"] - 2.0) <= 1e-9
        by = {c.name: c for c in rep.checks}
        assert "at the classical boundary" in by["local_model_consistency"].note

    @given(*[st.floats(-np.pi, np.pi, allow_nan=False)] * 4)
    @settings(max_examples=60, deadline=None)
    def test_local_model_check_passes_at_any_angles(self, a1, a2, b1, b2):
        try:
            rep = chsh_scenario((a1, a2, b1, b2))
        except ValueError:
            return  # coincident rays on one side
        assert rep.all_passed, rep.render_text()

    def test_dual_route_tolerance_bounds_the_gap_at_large_angles(self):
        # angle magnitudes log-uniform up to 1e12: the two routes stay within
        # the tolerance, which overstates the worst gap by less than 10x
        rng = np.random.default_rng(0)
        ratios = []
        for _ in range(100):
            angles = rng.choice([-1.0, 1.0], 4) * 10.0 ** rng.uniform(-3, 12, 4)
            by = {c.name: c for c in chsh_scenario(tuple(angles.tolist())).checks}
            check = by["dual_route_value"]
            assert check.passed, check
            ratios.append(abs(check.actual - check.expected) / check.tolerance)
        assert 0.1 < max(ratios) <= 1.0

    def test_another_chsh_sum_above_two_expects_no_local_model(self):
        # the reported sum is 1.732, but |Σ − 2E_11| is 2.218
        rep = chsh_scenario((0.0, 0.3, 0.2, 1.1))
        by = {c.name: c for c in rep.checks}
        assert rep.all_passed, rep.render_text()
        assert by["local_model_consistency"].expected == "Unsatisfiable"
        assert "largest CHSH sum 2.218" in by["local_model_consistency"].note

    def test_violation_below_the_resolution_is_at_the_boundary(self):
        # S − 2 = 1e-8, inside 16 * FEASIBILITY_TOL
        rep = chsh_scenario((0.0, 1.5707963267948966, 0.42773379081198704, 0.28759495435893545))
        assert rep.all_passed, rep.render_text()
        by = {c.name: c for c in rep.checks}
        assert "at the classical boundary, within 1.6e-06" in by["local_model_consistency"].note


class TestDeterminateScenario:
    def test_unknown_observable_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            determinate_scenario(3, 0, "bogus")


class TestDynamicsScenario:
    def test_trajectory_rows_written_on_request(self, tmp_path):
        out = tmp_path / "paths.tsv"
        rep = dynamics_scenario(40, 400, 0, trajectory_out=out)
        assert rep.all_passed, rep.render_text()
        assert len(out.read_text().splitlines()) == 41  # one row per time

    def test_too_few_steps_rejected(self):
        with pytest.raises(ValueError):
            dynamics_scenario(4, 100, 0)

    def test_default_trajectory_tsv_bytes_pinned(self, tmp_path):
        # a seed fixes the written path and the weights beside it; the same
        # file that the default cli run writes with --trajectory-out
        out = tmp_path / "paths.tsv"
        dynamics_scenario(trajectory_out=out)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            pinned_bytes.load()["{tsv} of dynamics --trajectory-out {tsv}"]
        )

    def test_trajectory_out_builds_the_chain_once(self, tmp_path, monkeypatch):
        calls = {"_transition_cumulatives": 0, "sample_paths": 0}

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[fn.__name__] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(qpt.dynamics, "_transition_cumulatives",
                            counted(qpt.dynamics._transition_cumulatives))
        monkeypatch.setattr(qpt.dynamics, "sample_paths", counted(qpt.dynamics.sample_paths))
        dynamics_scenario(40, 400, 0, trajectory_out=tmp_path / "paths.tsv")
        # one build, walked by the ensemble and by the written path
        assert calls == {"_transition_cumulatives": 1, "sample_paths": 2}


class TestReportShape:
    @pytest.mark.parametrize(
        "rep_fn",
        [
            lambda: epr_scenario(),
            lambda: teleportation_scenario(0.6, 0.8, seed=0, samples=100),
            lambda: decoherence_scenario(4, 1.0, run_extension=False),
            lambda: correspondence_scenario(n_max=20),
            lambda: ks_scenario(FIXTURES / "ks33-d3.rays"),
            lambda: chsh_scenario((0.0, 0.3, 0.1, 0.2)),
            lambda: dynamics_scenario(20, 200, 1),
            lambda: determinate_scenario(3, 1, "identity"),
        ],
    )
    def test_reports_parse_as_json_with_schema(self, rep_fn):
        rep = rep_fn()
        doc = json.loads(rep.to_json())
        assert doc["schema"] == 1
        assert {"scenario", "parameters", "quantities", "checks", "all_passed"} <= set(doc)
        for chk in doc["checks"]:
            assert {"name", "passed", "expected", "actual", "tolerance", "note"} == set(chk)
