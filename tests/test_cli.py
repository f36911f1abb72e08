"""Command-line interface: exit codes, determinism, and output formats."""

from __future__ import annotations

import argparse
import ast
import contextlib
import inspect
import io
import json
import os
import re
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pinned_bytes
from qpt import _kernels, cli
from qpt.linalg import DEFAULT_TOL

REPO = Path(__file__).resolve().parent.parent


def spawn(*args: str) -> subprocess.CompletedProcess:
    """``python -m qpt`` in a fresh interpreter, for tests of the process itself."""
    return subprocess.run(
        [sys.executable, "-m", "qpt", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
    )


def run(*args: str) -> subprocess.CompletedProcess:
    """``cli.main`` in this process from the repository root, with the
    captured output of ``spawn``; argparse's ``SystemExit`` gives the code."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(REPO)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(args))
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


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
        out = spawn("teleport", "--samples", "12", "--seed", "74")
        assert out.returncode == 1
        assert "[FAIL]" in out.stdout

    def test_invalid_input_exits_two(self, tmp_path):
        assert run("teleport", "--c-plus", "5+0j").returncode == 2
        assert run("epr", "--eps", "-1e-9").returncode == 2
        # one --eps range, above the ceiling and below the floor alike
        above, below = run("epr", "--eps", "5"), run("epr", "--eps", "1e-300")
        assert above.returncode == below.returncode == 2
        ranges = {re.search(r"must lie in (.*), got", out.stderr).group(1) for out in (above, below)}
        assert len(ranges) == 1, (above.stderr, below.stderr)
        assert run("dynamics", "--steps", "4").returncode == 2
        assert run("correspond", "--n-max", "1").returncode == 2
        # sizes the scenarios themselves reject: usage errors, not crashes
        for args in (
            ("teleport", "--samples", "0"),
            # amplitudes whose squares overflow a float
            ("teleport", "--c-plus", "1e155", "--c-minus", "1"),
            ("teleport", "--c-plus", "1e200", "--c-minus", "1"),
            ("decohere", "--budget", "0"),
            ("decohere", "--budget", "1"),
            # past the level numbers whose squares are exact doubles
            ("correspond", "--n-max", "94906266"),
            # an --eps below the floor 1e-13 on a well-formed file: the
            # tolerance is at fault, not the file
            ("ks", "--rays", "src/qpt/fixtures/ks18-d4.rays", "--eps", "1e-300"),
        ):
            out = run(*args)
            assert out.returncode == 2, (args, out.stderr)
            lines = out.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (args, out.stderr)

    def test_large_n_max_passes_the_closed_form_check(self):
        # the direct ratio's rounding grows with n; a fixed 1e-12 failed here
        out = run("correspond", "--n-max", "20000")
        assert out.returncode == 0, out.stdout
        assert "[PASS] defect_closed_form" in out.stdout

    @pytest.mark.parametrize("angles", ["0.1,100000.3,0.7,1.3", "0.1,1000000.3,0.7,1.3",
                                        "0.1,1e9,0.7,1.3", "0,1e17,0,1", "0,1e308,0,1"])
    def test_large_angles_pass_the_dual_route_check(self, angles):
        # the rounding of the closed form's a - b grows with the angles, past 1e-12 here
        out = run("chsh", "--angles", angles)
        assert out.returncode == 0, out.stdout
        assert "[PASS] dual_route_value" in out.stdout

    def test_saturated_extension_budget_exits_two(self):
        # budget 64 saturates the closure before a verdict: the budget is too
        # small to decide, which is bad input, not a failed check
        out = run("decohere", "--n-env", "2", "--angle", "0.4", "--budget", "64")
        assert out.returncode == 2 and out.stdout == ""
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr
        assert "budget 64" in lines[0]

    def test_eps_below_the_floor_exits_two(self):
        # below 1e-13 rounding noise counts as rank: join(a, a) of a ray
        # would be the full space, so the lattice would be nonsense
        out = run("decohere", "--eps", "1e-300")
        assert out.returncode == 2, out.stderr
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr

    def test_eps_governs_ray_contexts(self, tmp_path):
        # |<r0, r1>| = 1e-11: orthogonal within the default eps * dim (3e-9),
        # not within 1e-13 * dim, where the three rays form no context
        rays = tmp_path / "near.rays"
        rays.write_text("1,0,0\n1e-11,1,0\n0,0,1\n")
        for eps, n_contexts in ((["--eps", "1e-13"], 0), ([], 1)):
            out = run("ks", "--rays", str(rays), *eps, "--format", "json")
            assert out.returncode == 0, out.stderr
            doc = json.loads(out.stdout)
            assert {q["name"]: q["value"] for q in doc["quantities"]}["n_contexts"] == n_contexts

    def test_eps_at_the_floor_still_decides_the_extension(self):
        out = run("decohere", "--eps", "1e-13")
        assert out.returncode == 0, out.stderr
        assert "[PASS] pointer_branch_not_addable" in out.stdout

    def test_file_problems_exit_three(self, tmp_path):
        missing = spawn("ks", "--rays", str(tmp_path / "nope.rays"))
        assert missing.returncode == 3

        empty = tmp_path / "empty.rays"
        empty.write_text("# comment only\n")
        assert run("ks", "--rays", str(empty)).returncode == 3

        bad = tmp_path / "bad.rays"
        bad.write_text("1,0\nwat,3\n")
        out = run("ks", "--rays", str(bad))
        assert out.returncode == 3
        assert "2" in out.stderr  # offending line number

        one = tmp_path / "one.rays"
        one.write_text("1\n")
        out = run("ks", "--rays", str(one))
        assert out.returncode == 3
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr

        latin = tmp_path / "latin.rays"
        latin.write_bytes("1,0\n0,1 # \u00e9\n".encode("latin-1"))
        out = run("ks", "--rays", str(latin))
        assert out.returncode == 3
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr

        out = run("epr", "--output", str(tmp_path / "missing" / "report.json"))
        assert out.returncode == 3
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr

    @pytest.mark.parametrize("argv", [
        ["teleport", "--samples", str(10**15)],
        ["decohere", "--n-env", str(10**15)],
    ])
    def test_unallocatable_size_exits_two(self, argv):
        # teleport refuses more than 2**40 samples at once; decohere's arrays
        # are beyond the address space, so numpy fails at once whatever the
        # overcommit mode; the size is bad input, not a crash
        out = run(*argv)
        assert out.returncode == 2 and out.stdout == ""
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr

    @pytest.mark.parametrize("angle", ["inf", "nan"])
    def test_non_finite_angle_exits_two_before_any_work(self, angle):
        # rejected before cos/sin of the angle run, so numpy warns of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = run("decohere", "--angle", angle)
        assert out.returncode == 2 and out.stdout == ""
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr

    def test_unallocatable_walker_count_fails_before_building_streams(self, monkeypatch):
        # one PCG64 stream per CHUNK walkers would be ~5e11 generators here:
        # the sampler must refuse its output array before it builds any
        def never(*args):
            pytest.fail("chunk streams built before the walker arrays were allocated")

        monkeypatch.setattr(_kernels, "_chunk_streams", never)
        out = run("dynamics", "--trajectories", str(10**15), "--steps", "10")
        assert out.returncode == 2 and out.stdout == ""
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr

    def test_unknown_subcommand_exits_two(self):
        assert spawn("frobnicate").returncode == 2


def _flag(name: str, values) -> st.SearchStrategy:
    """[] or [name, value] for one optional flag."""
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


SMALL_FLOATS = st.sampled_from([0.0, 0.5, -1.0, 1e-11, 3.0, float("nan"), float("inf")])
AMPLITUDES = st.sampled_from(["0.6", "0.8j", "1", "0", "5+0j", "0.6-0.8j", "nan", "1e155",
                              "1e200j"])

#: each subcommand's own arguments, at sizes that keep one call under ~0.1 s
SUBCOMMAND_ARGS = {
    "epr": st.just([]),
    "teleport": st.tuples(_flag("--c-plus", AMPLITUDES), _flag("--c-minus", AMPLITUDES),
                          _flag("--seed", st.integers(-1, 99)),
                          _flag("--samples", st.integers(-1, 300))),
    "decohere": st.tuples(_flag("--n-env", st.integers(-1, 4)), _flag("--angle", SMALL_FLOATS),
                          _flag("--budget", st.integers(-1, 40))),
    "correspond": st.tuples(_flag("--n-max", st.integers(-2, 60))),
    "chsh": st.tuples(_flag("--angles", st.lists(SMALL_FLOATS, min_size=3, max_size=5).map(
        lambda a: ",".join(map(str, a))))),
    "dynamics": st.tuples(_flag("--steps", st.integers(0, 60)),
                          _flag("--trajectories", st.integers(0, 200)),
                          _flag("--seed", st.integers(0, 99))),
    "determinate": st.tuples(_flag("--dim", st.integers(-1, 5)), _flag("--seed", st.integers(0, 99)),
                             _flag("--observable", st.sampled_from(["maximal", "identity"]))),
}

#: ray-file components: unit, zero, complex and tiny entries
RAY_COMPONENTS = st.sampled_from(["0", "1", "-1", "0.5", "1j", "1-2j", "1e-11"])


@st.composite
def ray_file(draw) -> str:
    """A small ray file: up to six rays of one dimension 1-4, where one file
    in four has a line with an extra component, zero or unparsable."""
    dim = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(RAY_COMPONENTS, min_size=dim, max_size=dim), max_size=6))
    if rows and draw(st.integers(0, 3)) == 0:
        rows[draw(st.integers(0, len(rows) - 1))].append(draw(st.sampled_from(["0", "wat"])))
    return "".join(",".join(row) + "\n" for row in rows)


class TestExitCodeFuzz:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_every_input_keeps_the_exit_code_contract(self, data, tmp_path_factory):
        command = data.draw(st.sampled_from(sorted(SUBCOMMAND_ARGS) + ["ks"]))
        if command == "ks":
            rays = tmp_path_factory.getbasetemp() / "fuzz.rays"
            rays.write_text(data.draw(ray_file()))
            argv = ["ks", "--rays", str(rays)]
        else:
            argv = [command, *[a for flag in data.draw(SUBCOMMAND_ARGS[command]) for a in flag]]
        argv += data.draw(_flag("--eps", st.sampled_from([1e-300, 1e-13, 1e-9, 1e-3, 0.5, -1e-9])))
        out = run(*argv)
        code = out.returncode
        # argparse rejecting an argument exits through SystemExit after its usage
        parsed = not out.stderr.startswith("usage: ")
        assert code in (0, 1, 2, 3), (argv, code)
        assert (code == 1) == ("[FAIL]" in out.stdout), (argv, out.stdout)
        if parsed and code in (2, 3):
            lines = out.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, out.stderr)


@pytest.fixture(scope="module")
def pinned_runs() -> dict:
    """``pinned_bytes.measure`` under each of its environments, run once for
    this module: environment name -> the fresh interpreter's record."""
    return {name: pinned_bytes.measure(env) for name, env in pinned_bytes.ENVIRONMENTS.items()}


def _pinned_hashes(pinned_runs: dict, key: str) -> "dict[str, str]":
    """Environment name -> the sha256 that its run printed for ``key``, after
    asserting that the interpreter and the invocation both exited 0."""
    hashes = {}
    for name, run in pinned_runs.items():
        assert run["returncode"] == 0, (name, run["stderr"])
        assert run["exit"][key] == 0, (name, key)
        hashes[name] = run["sha256"][key]
    return hashes


class TestDeterminism:
    def test_pinned_bytes_hold_in_every_environment(self, pinned_runs):
        # each environment's fresh interpreter reproduces the whole table; the
        # failure lists every key that moved, with its pinned and new hash
        table = pinned_bytes.load()
        problems = {}
        for name, run in pinned_runs.items():
            failed = {key: code for key, code in run.get("exit", {}).items() if code}
            moved = pinned_bytes.moved(table, run.get("sha256", {}))
            if run["returncode"] or run["stderr"] or failed or moved:
                problems[name] = {"returncode": run["returncode"], "stderr": run["stderr"],
                                  "exit": failed, "moved": moved}
        assert not problems, json.dumps(problems, indent=1)

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
    def test_identical_invocations_are_byte_identical(self, pinned_runs, args):
        # every fresh interpreter prints the pinned bytes, so any two agree
        key = " ".join((*args, "--format", "json"))
        assert _pinned_hashes(pinned_runs, key) == {name: pinned_bytes.load()[key] for name in pinned_runs}

    def test_environment_sets_no_tolerance(self, pinned_runs):
        # --eps is the only tolerance route: a stray QPT_EPS changes nothing
        stray = [name for name, env in pinned_bytes.ENVIRONMENTS.items() if env.get("QPT_EPS") == "abc"]
        assert stray and len(stray) < len(pinned_runs)
        hashes = _pinned_hashes(pinned_runs, "epr --format json")
        assert set(hashes.values()) == {pinned_bytes.load()["epr --format json"]}
        for name in stray:
            assert pinned_runs[name]["stderr"] == "", name

    def test_blas_threads_and_hash_seed_leave_bytes_unchanged(self, pinned_runs):
        envs = pinned_bytes.ENVIRONMENTS.values()
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "PYTHONHASHSEED"):
            assert len({env[var] for env in envs}) == len(envs), var
        table = pinned_bytes.load()
        for key in (
            "decohere --n-env 3 --format json",
            "determinate --dim 6 --format json",
            # differs between one and two BLAS threads unless the entry
            # overrides the thread count asked for
            "determinate --dim 200 --format json",
            "ks --rays src/qpt/fixtures/ks33-d3.rays --format json",
        ):
            assert set(_pinned_hashes(pinned_runs, key).values()) == {table[key]}, key

    def test_sampler_part_count_leaves_bytes_unchanged(self, pinned_runs):
        # the default dynamics run walks 20,000 walkers on two labels, which
        # split into one part per usable CPU: one part in the one-CPU
        # environment, more wherever this machine has more CPUs
        cpus = {name: run.get("usable_cpus") for name, run in pinned_runs.items()}
        if hasattr(os, "sched_setaffinity"):
            assert 1 in cpus.values(), cpus
        if _kernels._usable_cpus() > 1:
            assert max(cpus.values()) > 1, cpus
        table = pinned_bytes.load()
        for key in ("dynamics --format json", "dynamics --trajectory-out {tsv}"):
            assert set(_pinned_hashes(pinned_runs, key).values()) == {table[key]}, key
        tsv = "{tsv} of dynamics --trajectory-out {tsv}"
        assert {run["sha256"][tsv] for run in pinned_runs.values()} == {table[tsv]}

    def test_every_subcommand_is_pinned_in_text_and_json(self):
        forms = {name: set() for name in _subcommands()}
        for key in pinned_bytes.load():
            if key.split()[0] in forms:
                forms[key.split()[0]].add("json" if "--format json" in key else "text")
        assert forms == {name: {"text", "json"} for name in forms}

    def test_the_cli_goldens_of_perfbench_agree_with_the_table(self):
        # perfbench keeps its own copy of the cli report hashes; the two
        # copies must move together
        workloads = runpy.run_path(str(REPO / "perfbench" / "workloads.py"))
        goldens = json.loads((REPO / "perfbench" / "goldens.json").read_text())["cli"]
        table = pinned_bytes.load()
        commands = workloads["cli_commands"](workloads["DEFAULT_SEED"], False)
        assert {name for name, _, _ in commands} == set(goldens)
        for name, _, argv in commands:
            assert table[" ".join(argv)] == goldens[name]["report_sha256"], name

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
        # the reported CHSH value is 0, but the largest of the four sums is
        # exactly 2: on the boundary of the local polytope, still local
        out = run("chsh", "--angles",
                  "0,1.5707963267948966,0,1.5707963267948966", "--format", "json")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        by = {c["name"]: c for c in doc["checks"]}
        assert by["local_model_consistency"]["passed"]

    def test_chsh_coincident_angles_rejected(self):
        assert run("chsh", "--angles", "0,0,0,0").returncode == 2


#: scripts run each in a fresh interpreter: ``import qpt`` defers every
#: module to the first use of one of its names
LAZY_IMPORT_SCRIPTS = {
    "import_loads_no_module": (
        "import sys, qpt\n"
        "assert [m for m in sys.modules if m.startswith('qpt.')] == []\n"
        "assert 'numpy' not in sys.modules\n"
    ),
    "one_name_loads_only_its_home_and_its_imports": (
        "import sys, qpt\n"
        "qpt.Subspace\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('qpt.'))\n"
        "assert loaded == ['qpt.errors', 'qpt.lattice', 'qpt.linalg'], loaded\n"
    ),
    "dynamics_loads_no_determinate_layer": (
        "import sys, qpt.dynamics\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'qpt')\n"
        "assert loaded == ['qpt', 'qpt._kernels', 'qpt.dynamics', 'qpt.errors',"
        " 'qpt.linalg'], loaded\n"
    ),
    "submodule_resolves": (
        "import sys, qpt\n"
        "assert qpt._kernels is sys.modules['qpt._kernels']\n"
    ),
    "unknown_name_raises_attribute_error": (
        "import qpt\n"
        "try:\n"
        "    qpt.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise AssertionError('no AttributeError')\n"
        "assert not hasattr(qpt, 'no.such.module')\n"
    ),
    "import_error_inside_a_module_propagates": (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import qpt\n"
        "try:\n"
        "    qpt.lattice\n"
        "except ModuleNotFoundError as exc:\n"
        "    assert exc.name == 'numpy', exc\n"
        "else:\n"
        "    raise AssertionError('import error swallowed')\n"
    ),
    "cli_import_changes_no_environment": (
        "import os\n"
        "before = dict(os.environ)\n"
        "import qpt.cli, qpt.__main__\n"
        "assert dict(os.environ) == before\n"
    ),
    "entry_sets_one_blas_thread_before_numpy_loads": (
        "import contextlib, io, os, sys\n"
        "import qpt.__main__ as entry\n"
        "os.environ['OPENBLAS_NUM_THREADS'] = '2'\n"
        "assert 'numpy' not in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert entry.main(['epr']) == 0\n"
        "for var in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS'):\n"
        "    assert os.environ[var] == '1', var\n"
    ),
    "replaced_function_is_read_afresh": (
        "import qpt, qpt.lattice as home\n"
        "original = home.meet\n"
        "def stand_in(a, b):\n"
        "    return None\n"
        "home.meet = stand_in\n"
        "assert qpt.meet is stand_in\n"
        "home.meet = original\n"
        "assert qpt.meet is original and 'meet' not in vars(qpt)\n"
    ),
}


class TestColdStart:
    @pytest.mark.parametrize("name", sorted(LAZY_IMPORT_SCRIPTS))
    def test_lazy_package_namespace(self, name):
        out = subprocess.run(
            [sys.executable, "-c", LAZY_IMPORT_SCRIPTS[name]],
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        assert out.returncode == 0, out.stderr

    def test_console_script_enters_like_python_dash_m(self):
        scripts = (REPO / "pyproject.toml").read_text().split("[project.scripts]\n")[1]
        assert scripts.split("\n\n")[0] == 'qpt = "qpt.__main__:main"'

    def test_cli_module_is_no_second_entry(self):
        # only qpt.__main__.main pins one BLAS thread; running the cli module
        # as a script must not print a report computed on two
        out = subprocess.run(
            [sys.executable, "-m", "qpt.cli", "determinate", "--dim", "200", "--format", "json"],
            capture_output=True,
            text=True,
            cwd=REPO,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "2"},
        )
        assert (out.returncode, out.stdout) == (0, ""), out.stderr

    def test_star_import_binds_every_public_name_from_its_home(self):
        import qpt

        namespace: dict = {}
        exec("from qpt import *", namespace)
        assert qpt.__all__ == sorted(qpt.__all__)
        assert "trajectory_rows" in qpt.__all__
        for name in qpt.__all__:
            home = sys.modules[f"qpt.{qpt._HOME[name]}"]
            assert namespace[name] is getattr(home, name), name
        assert set(qpt.__all__) <= set(dir(qpt))

    def test_scipy_free_commands_never_load_scipy(self, pinned_runs):
        # the pinned-bytes run of a fresh interpreter (this session has scipy
        # loaded already): chsh, the one command that needs scipy, runs last
        seen = next(iter(pinned_runs.values()))["scipy"]
        names = [key.split()[0] for key in seen]
        first_chsh = names.index("chsh")
        assert set(names[first_chsh:]) == {"chsh"}
        loaded = [key for key, mods in list(seen.items())[:first_chsh] if mods]
        assert loaded == [], f"scipy is loaded from {loaded[0]!r} on: {seen[loaded[0]]}"

    def test_dynamics_report_bytes_pinned(self, pinned_runs):
        # captured with the states evolved from one eigendecomposition of H; a
        # step-by-step propagation moves them in their last bits and changes
        # the float fields of this report
        key = "dynamics --steps 200 --trajectories 2000 --format json"
        assert set(_pinned_hashes(pinned_runs, key).values()) == {pinned_bytes.load()[key]}


def _subcommands() -> dict:
    """Subcommand name -> its subparser, as ``cli`` builds them."""
    parser = cli._build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


#: every option of every subcommand, besides --help, --format and --output
SUBCOMMAND_OPTIONS = {
    "epr": {"--eps"},
    "teleport": {"--eps", "--c-plus", "--c-minus", "--seed", "--samples"},
    "decohere": {"--eps", "--n-env", "--angle", "--budget"},
    "correspond": {"--n-max"},
    "ks": {"--eps", "--rays"},
    "chsh": {"--angles"},
    "dynamics": {"--eps", "--steps", "--trajectories", "--seed", "--trajectory-out"},
    "determinate": {"--eps", "--dim", "--seed", "--observable"},
}

KS18 = str(REPO / "src" / "qpt" / "fixtures" / "ks18-d4.rays")


class TestSubcommandScenarios:
    """``cli.main`` calls the scenario each subparser names with the options
    given, so every default lives in the scenario's signature."""

    def test_every_option_is_a_keyword_of_its_scenario(self):
        for name, sub in _subcommands().items():
            params = inspect.signature(sub.get_default("scenario")).parameters
            dests = {a.dest for a in sub._actions} - {"help", "format", "output"}
            assert {"tol" if d == "eps" else d for d in dests} <= set(params), name
            assert ("eps" in dests) == ("tol" in params), name

    def test_scenario_defaults_are_the_command_defaults(self):
        for name, sub in _subcommands().items():
            scenario = sub.get_default("scenario")
            argv, args = ([name, "--rays", KS18], (KS18,)) if name == "ks" else ([name], ())
            out = run(*argv, "--format", "json")
            assert out.stdout == scenario(*args).to_json(), name

    @pytest.mark.parametrize("command", ["chsh", "correspond"])
    def test_eps_is_a_usage_error_where_the_scenario_takes_no_tolerance(self, command):
        out = run(command, "--eps", "1e-6")
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr.startswith("usage: ")
        assert "unrecognized arguments: --eps" in out.stderr

    def test_every_scenario_is_a_public_name(self):
        import qpt
        from qpt import scenarios

        names = [n for n, obj in vars(scenarios).items()
                 if n.endswith("_scenario") and inspect.isfunction(obj)]
        assert len(names) == 8
        for name in names:
            assert name in qpt.__all__, name
            assert getattr(qpt, name) is getattr(scenarios, name), name

    @pytest.mark.parametrize("angles, side, pair", [
        ("0,0.0001,0.3,0.5", "alice", "0 and 0.0001"),
        ("0,1.5,0.3,0.30001", "bob", "0.3 and 0.30001"),
        ("0,3.14159265,0.3,0.5", "alice", "0 and 3.14159265"),
    ])
    def test_near_coincident_chsh_angles_name_the_side(self, angles, side, pair):
        out = run("chsh", "--angles", angles)
        assert out.returncode == 2 and out.stdout == ""
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {side}'s angles {pair} "), out.stderr


class TestHelpSmoke:
    def test_top_level_help_names_every_subcommand(self):
        out = spawn("--help")
        assert out.returncode == 0, out.stderr
        for name in SUBCOMMAND_OPTIONS:
            assert name in out.stdout, name

    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_OPTIONS))
    def test_subcommand_help_names_every_option(self, command):
        out = run(command, "--help")
        assert out.returncode == 0, out.stderr
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out.stdout))
        assert named == SUBCOMMAND_OPTIONS[command] | {"--help", "--format", "--output"}

    @pytest.mark.parametrize("command, option", [
        ("chsh", "--eps"), ("correspond", "--eps"), ("epr", "--bogus"),
    ])
    def test_unrecognized_arguments_show_the_subcommand_usage(self, command, option):
        out = run(command, option, "1e-6")
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr.startswith(f"usage: qpt {command} [-h]")
        errors = [line for line in out.stderr.splitlines() if "error:" in line]
        assert errors == [f"qpt {command}: error: unrecognized arguments: {option} 1e-6"]

    def test_eps_help_states_the_default_tolerance(self):
        out = run("epr", "--help")
        assert f"default {DEFAULT_TOL.eps:g} " in " ".join(out.stdout.split())

    def test_the_package_holds_the_one_list_of_public_names(self):
        # qpt._EXPORTS gives qpt.__all__; a module's own __all__ would be a
        # second list that can disagree with it
        for path in sorted((REPO / "src" / "qpt").glob("*.py")):
            if path.name == "__init__.py":
                continue
            bound = {
                node.id
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
            }
            assert "__all__" not in bound, path.name
