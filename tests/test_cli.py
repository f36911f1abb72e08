"""Command-line interface: exit codes, determinism, and output formats."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def run(*args: str, cwd: Path = REPO):
    return subprocess.run(
        [sys.executable, "-m", "qpt", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


class TestExitCodes:
    def test_all_scenarios_exit_zero(self):
        for args in (
            ("epr",),
            ("teleport", "--samples", "500", "--seed", "0"),
            ("decohere", "--n-env", "4"),
            ("correspond", "--n-max", "30"),
            ("chsh",),
            ("determinate", "--dim", "3", "--seed", "1"),
            ("dynamics", "--steps", "200", "--trajectories", "2000"),
            ("ks", "--rays", "src/qpt/fixtures/ks18-d4.rays"),
        ):
            out = run(*args)
            assert out.returncode == 0, (args, out.stderr, out.stdout[-400:])

    def test_failed_check_exits_one(self):
        # 12 samples at this seed land outside the 3-sigma band
        out = run("teleport", "--samples", "12", "--seed", "74")
        assert out.returncode == 1
        assert "[FAIL]" in out.stdout

    def test_invalid_input_exits_two(self, tmp_path):
        assert run("teleport", "--c-plus", "5+0j").returncode == 2
        assert run("epr", "--eps", "5").returncode == 2
        assert run("epr", "--eps", "-1e-9").returncode == 2
        assert run("dynamics", "--steps", "4").returncode == 2
        assert run("correspond", "--n-max", "1").returncode == 2
        # sizes the scenarios themselves reject: usage errors, not crashes
        for args in (
            ("teleport", "--samples", "0"),
            ("decohere", "--budget", "0"),
            ("decohere", "--budget", "1"),
        ):
            out = run(*args)
            assert out.returncode == 2, (args, out.stderr)
            lines = out.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (args, out.stderr)

    def test_file_problems_exit_three(self, tmp_path):
        missing = run("ks", "--rays", str(tmp_path / "nope.rays"))
        assert missing.returncode == 3

        empty = tmp_path / "empty.rays"
        empty.write_text("# comment only\n")
        assert run("ks", "--rays", str(empty)).returncode == 3

        bad = tmp_path / "bad.rays"
        bad.write_text("1,0\nwat,3\n")
        out = run("ks", "--rays", str(bad))
        assert out.returncode == 3
        assert "2" in out.stderr  # offending line number

    def test_unknown_subcommand_exits_two(self):
        assert run("frobnicate").returncode == 2


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("epr",),
            ("teleport", "--seed", "3", "--samples", "400"),
            ("dynamics", "--steps", "150", "--trajectories", "1500", "--seed", "2"),
            ("determinate", "--dim", "4", "--seed", "5"),
            ("chsh",),
        ],
    )
    def test_identical_invocations_are_byte_identical(self, args):
        a = run(*args, "--format", "json")
        b = run(*args, "--format", "json")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_different_seeds_change_sampled_output(self):
        a = run("teleport", "--seed", "1", "--samples", "400", "--format", "json")
        b = run("teleport", "--seed", "2", "--samples", "400", "--format", "json")
        assert a.stdout != b.stdout


class TestOutputs:
    def test_json_format_parses_and_carries_tolerances(self):
        out = run("epr", "--format", "json")
        doc = json.loads(out.stdout)
        assert doc["scenario"] == "epr"
        for chk in doc["checks"]:
            assert "tolerance" in chk
        for q in doc["quantities"]:
            assert "tolerance" in q

    def test_output_flag_writes_file(self, tmp_path):
        target = tmp_path / "report.json"
        out = run("correspond", "--n-max", "20", "--format", "json",
                  "--output", str(target))
        assert out.returncode == 0
        assert out.stdout == ""
        doc = json.loads(target.read_text())
        assert doc["scenario"] == "correspond"

    def test_text_format_has_summary(self):
        out = run("decohere", "--n-env", "3")
        assert "summary:" in out.stdout
        assert "scenario: decohere" in out.stdout

    def test_ks_assignment_branch(self, tmp_path):
        f = tmp_path / "basis.rays"
        f.write_text("1,0,0\n0,1,0\n0,0,1\n0,0.70710678118654752,0.70710678118654752\n")
        out = run("ks", "--rays", str(f))
        assert out.returncode == 0
        assert "assignment_found" in out.stdout or "one_per_context" in out.stdout

    def test_dynamics_trajectory_out(self, tmp_path):
        target = tmp_path / "path.tsv"
        out = run("dynamics", "--steps", "60", "--trajectories", "500",
                  "--trajectory-out", str(target))
        assert out.returncode == 0
        lines = target.read_text().strip().split("\n")
        assert len(lines) == 61
        assert all(len(ln.split("\t")) == 3 for ln in lines)

    def test_chsh_angles_flag(self):
        out = run("chsh", "--angles", "0,1.5707963267948966,0.7853981633974483,-0.7853981633974483",
                  "--format", "json")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        vals = {q["name"]: q["value"] for q in doc["quantities"]}
        assert abs(vals["chsh_value"] - 2 * 2 ** 0.5) < 1e-9

    def test_chsh_subclassical_angles_report_satisfiable(self):
        # shared angle grid gives a CHSH value of 0: a local model must exist
        out = run("chsh", "--angles",
                  "0,1.5707963267948966,0,1.5707963267948966", "--format", "json")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        by = {c["name"]: c for c in doc["checks"]}
        assert by["local_model_consistency"]["passed"]

    def test_chsh_coincident_angles_rejected(self):
        assert run("chsh", "--angles", "0,0,0,0").returncode == 2
