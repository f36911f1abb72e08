"""Structured report containers: dict/JSON schema and text rendering."""

from __future__ import annotations

import json

import numpy as np
import pytest

from qpt import Check, Quantity, SCHEMA_VERSION, ScenarioReport
from qpt.report import close_check, exact_check, format_complex


class TestQuantity:
    def test_dict_always_carries_tolerance_and_note(self):
        d = Quantity("x", 1.5).to_dict()
        assert set(d) == {"name", "value", "tolerance", "note"}
        assert d["tolerance"] is None and d["note"] == ""
        d2 = Quantity("y", 2, tolerance=1e-9, note="why").to_dict()
        assert d2["tolerance"] == 1e-9 and d2["note"] == "why"

    def test_numpy_values_become_plain_json_types(self):
        d = Quantity("arr", np.array([1.0, 2.0])).to_dict()
        assert d["value"] == [1.0, 2.0]
        assert type(Quantity("n", np.int64(3)).to_dict()["value"]) is int
        assert type(Quantity("f", np.float64(0.5)).to_dict()["value"]) is float

    def test_complex_values_formatted_as_ray_file_notation(self):
        d = Quantity("z", 0.5 - 0.25j).to_dict()
        assert d["value"] == format_complex(0.5 - 0.25j)
        assert "j" in d["value"]


class TestCheck:
    def test_close_check_passes_within_tolerance(self):
        assert close_check("a", 1.0, 1.0 + 5e-11, 1e-10).passed
        assert not close_check("a", 1.0, 1.0 + 2e-10, 1e-10).passed

    def test_render_marks_pass_and_fail(self):
        good = close_check("good", 1.0, 1.0, 1e-12).render()
        bad = close_check("bad", 1.0, 2.0, 1e-12).render()
        assert good.startswith("[PASS] good:")
        assert bad.startswith("[FAIL] bad:")

    @pytest.mark.parametrize(
        "expected, same, other",
        [(4, 4, 3), (True, True, False), (False, False, True),
         ("NoAssignment", "NoAssignment", "Assignment")],
    )
    def test_exact_check_passes_only_on_equality(self, expected, same, other):
        good = exact_check("n", expected=expected, actual=same, note="why")
        bad = exact_check("n", expected=expected, actual=other)
        assert good.passed is True and bad.passed is False
        assert good.tolerance == bad.tolerance == 0.0
        assert good.render() == f"[PASS] n: actual={same} expected={expected} tol=0  (why)"
        assert bad.render() == f"[FAIL] n: actual={other} expected={expected} tol=0"
        assert good.to_dict() == {"name": "n", "passed": True, "expected": expected,
                                  "actual": same, "tolerance": 0.0, "note": "why"}

    def test_dict_schema(self):
        d = Check("n", True, 1, 1, tolerance=0.0, note="k").to_dict()
        assert set(d) == {"name", "passed", "expected", "actual", "tolerance", "note"}


class TestScenarioReport:
    def make(self) -> ScenarioReport:
        return ScenarioReport(
            scenario="demo",
            parameters={"b": 2, "a": 1},
            quantities=(Quantity("q", 3.0),),
            checks=(close_check("c1", 1.0, 1.0, 1e-9),
                    close_check("c2", 1.0, 5.0, 1e-9)),
        )

    def test_all_passed_reflects_checks(self):
        rep = self.make()
        assert not rep.all_passed
        only_good = ScenarioReport("d", {}, (), (close_check("c", 0, 0, 1e-9),))
        assert only_good.all_passed

    def test_json_roundtrip_matches_dict(self):
        rep = self.make()
        parsed = json.loads(rep.to_json())
        assert parsed == json.loads(json.dumps(rep.to_dict()))
        assert parsed["schema"] == SCHEMA_VERSION
        assert parsed["scenario"] == "demo"
        assert parsed["all_passed"] is False

    def test_json_is_deterministic_and_newline_terminated(self):
        rep = self.make()
        assert rep.to_json() == rep.to_json()
        assert rep.to_json().endswith("\n")

    def test_text_render_contains_summary_line(self):
        text = self.make().render_text()
        assert "scenario: demo" in text
        assert "summary: 1/2 checks passed" in text
