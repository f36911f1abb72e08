"""Self-test of the benchmark harness at toy size.

    python -m pytest perfbench/tests -q      (from the repository root)

Checks that every workload prints every metric named in BENCHMARK.json with
its unit, that traced and untraced runs give identical outputs, that the
span wrappers put the original functions back, and that the benchmark
refuses to run where there is no program to measure.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workload_names_agree():
    import workloads

    assert list(run.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_toy_run_metrics_and_traced_outputs(workload):
    plain = run.run_one(ROOT, workload, seed=3, seconds=0, trace=0, toy=True)
    traced = run.run_one(ROOT, workload, seed=3, seconds=0, trace=1, toy=True)
    for result, kind in ((plain["result"], "end_to_end"), (traced["result"], "per_layer")):
        assert result["correct"], (plain["failures"], traced["failures"])
        assert result["attempted"] >= 1 and result["failed"] == 0
        want = {m["name"]: m["unit"] for m in SPEC[kind]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert all(m["value"] > 0 for m in plain["result"]["metrics"].values())

    def outputs(p):
        return [(op["name"], op["output"]) for op in p["ops"]]

    reference, *traced_passes = traced["raw"]["passes"]
    assert not reference["traced"] and traced_passes
    assert all(p["traced"] for p in traced_passes)
    for p in [reference] + traced_passes:
        assert outputs(p) == outputs(plain["raw"]["passes"][0])


def _snapshot():
    import qpt

    mods = [m for n, m in sorted(sys.modules.items()) if n == "qpt" or n.startswith("qpt.")]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    for cls in (qpt.Subspace, qpt.ScenarioReport):
        snap.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return snap


def test_wrappers_restore_originals():
    import numpy as np

    import qpt
    import qpt.cli  # noqa: F401
    import spans

    before = _snapshot()
    patcher = spans.Patcher()
    sink: list = []
    patcher.replace(qpt._kernels, "sample_paths", spans.output_tap(sink))
    tracer = spans.Spans(capture=("kernels.sample_paths",))
    tracer.install(patcher)
    try:
        assert qpt.meet is not before[("qpt", "meet")]
        assert qpt.dynamics.sample_paths is not before[("qpt.dynamics", "sample_paths")]
        a = qpt.Subspace.ray(qpt.basis_vector(3, 0))
        b = qpt.Subspace.ray(qpt.ComplexVector(np.array([1.0, 1.0, 0.0]) / np.sqrt(2)))
        qpt.meet(a, b)
    finally:
        patcher.restore()
    assert tracer.stats["lattice.meet"][0] == 1
    assert tracer.stats["lattice.orthocomplement"][0] == 3  # called from inside meet
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rabi", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
