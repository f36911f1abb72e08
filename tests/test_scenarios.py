"""End-to-end scenario drivers: every emitted check must pass, and the
reports must be deterministic for fixed parameters."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpt.dynamics
import qpt.scenarios
from qpt import (
    ExtensionReport,
    NotNormalized,
    RayFileError,
    correspondence_scenario,
    decoherence_scenario,
    epr_scenario,
    teleportation_scenario,
)
from qpt.scenarios import chsh_scenario, determinate_scenario, dynamics_scenario, ks_scenario

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "qpt" / "fixtures"


def check_names(rep) -> list[str]:
    return [c.name for c in rep.checks]


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
        # a seed fixes the written path and the weights beside it
        out = tmp_path / "paths.tsv"
        dynamics_scenario(trajectory_out=out)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "fd4dee360311636cdb84b0d44871a1be9d3e127a6ba7e99f69ef87e1f60d58a8"
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
