"""qpt benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload extension --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --all                # every workload, untraced and traced
    python3 perfbench/run.py --write-goldens      # re-pin goldens.json (seed 0)

Run from the root of a qpt checkout; the program is imported from ./src.
Each run starts fresh worker processes one at a time (worker.py), with the
BLAS thread pools pinned to one thread.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  See
perfbench/README.md for what each metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"
WORKLOADS = ("extension", "rabi", "multilevel", "cli")
DEFAULT_SEED = 0
#: fresh processes that only set up, in addition to the measured run's own
#: set-up; setup_s is the median over all of them
SETUP_PROBES = 4
#: a run must end within this many seconds, whatever its workload
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed operation)."""


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("QPT_")}
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH", "")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(root: Path, deadline: float, **opts) -> dict:
    """Run worker.py in its own process group and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py")]
    for key, val in opts.items():
        flag = "--" + key.replace("_", "-")
        if val is True:
            cmd.append(flag)
        elif val is not False:
            cmd += [flag, str(val)]
    proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker {opts} passed the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker {opts} exited {proc.returncode}:\n{err.strip()}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {opts} printed no result:\n{err.strip()}")
    return json.loads(lines[-1])


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text())


def judge(workload: str, seed: int, toy: bool, passes: list, goldens: dict) -> list[str]:
    """One message per failed operation: an exception, a broken invariant, a
    golden mismatch, or an output that changed between passes of the run."""
    failures = []
    first: dict = {}
    for p in passes:
        for op in p["ops"]:
            name = op["name"]
            if op["error"] is not None:
                failures.append(f"{name}: raised\n{op['error']}")
                continue
            if not op["ok"]:
                failures.append(f"{name}: invariant violated, output {op['output']!r:.200}")
                continue
            if not toy and (seed == DEFAULT_SEED or not op["seeded"]):
                want = goldens.get(workload, {}).get(name)
                if op["output"] != want:
                    failures.append(f"{name}: output differs from golden "
                                    f"{op['output']!r:.120} != {want!r:.120}")
                    continue
            if first.setdefault(name, op["output"]) != op["output"]:
                failures.append(f"{name}: output changed between passes")
    return failures


def op_p50(passes: list) -> float:
    """Median over the workload's operations of each one's mean latency
    across passes (on cli: over the seven subcommands)."""
    by_name: dict = {}
    for p in passes:
        for op in p["ops"]:
            by_name.setdefault(op["name"], []).append(op["latency_s"])
    return statistics.median(statistics.fmean(v) for v in by_name.values())


def end_to_end(setups: list, res: dict) -> dict:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.fmean(p["wall_s"] for p in res["passes"]), "s"),
        "op_p50_s": (op_p50(res["passes"]), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def per_layer(res: dict, names) -> dict:
    missing = [name for name, _ in names if name not in res["layers"]]
    if missing:
        raise BenchError(f"traced run produced no value for {missing}")
    return {name: (res["layers"][name], unit) for name, unit in names}


def bench_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_one(root: Path, workload: str, seed: int, seconds: float, trace: int,
            toy: bool = False) -> dict:
    """Run one workload and return the result object plus the raw worker data."""
    deadline = monotonic() + DEADLINE_S
    common = dict(workload=workload, seed=seed, toy=toy)
    setups = [] if trace else [
        run_worker(root, deadline, setup_only=True, seconds=0, **common)["setup_s"]
        for _ in range(SETUP_PROBES)]
    res = run_worker(root, deadline, seconds=seconds, trace=trace, **common)
    failures = judge(workload, seed, toy, res["passes"], {} if toy else load_goldens())
    spec = bench_spec()
    if trace:
        metrics = per_layer(res, [(m["name"], m["unit"]) for m in spec["per_layer"]])
    else:
        metrics = end_to_end(setups + [res["setup_s"]], res)
    attempted = sum(len(p["ops"]) for p in res["passes"])
    return {
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
        "failures": failures,
        "raw": res,
    }


def print_run(workload: str, run: dict, trace: int) -> None:
    res, raw = run["result"], run["raw"]
    print(f"workload {workload} (trace {trace}): {len(raw['passes'])} passes, "
          f"{res['attempted']} operations, one closed-loop caller")
    print(f"machine: {json.dumps(raw['machine'], sort_keys=True)}")
    for name, m in res["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  error_rate = {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} failed / {res['attempted']} attempted)")
    for f in run["failures"]:
        print(f"FAILED {f}", file=sys.stderr)


def write_goldens(root: Path) -> None:
    goldens = {}
    for workload in WORKLOADS:
        raw = run_worker(root, monotonic() + 600, workload=workload, seed=DEFAULT_SEED,
                         seconds=0, trace=0)
        ops = raw["passes"][0]["ops"]
        bad = [op for op in ops if not op["ok"]]
        if bad:
            raise BenchError(f"{workload}: invariants fail, not pinning: {bad}")
        goldens[workload] = {op["name"]: op["output"] for op in ops}
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDENS}")


def run_all(root: Path, seed: int, seconds: float) -> int:
    """Every workload untraced then traced; prints where the traced time went."""
    summary = {}
    for workload in WORKLOADS:
        plain = run_one(root, workload, seed, seconds, trace=0)
        traced = run_one(root, workload, seed, seconds, trace=1)
        print_run(workload, plain, 0)
        print_run(workload, traced, 1)
        layers = traced["raw"]["layers"]
        wall = layers["trace.wall_s"]
        top = sorted((k for k in layers if k.endswith(".self_s")), key=layers.get, reverse=True)
        print("  largest self times (share of trace.wall_s): " + ", ".join(
            f"{k[:-7]} {layers[k] / wall:.1%}" for k in top[:6]))
        same = all(a["output"] == b["output"]
                   for a, b in zip(plain["raw"]["passes"][0]["ops"],
                                   traced["raw"]["passes"][-1]["ops"]))
        print(f"  untraced and traced outputs identical: {same}")
        summary[workload] = {"untraced": plain["result"], "traced": traced["result"],
                             "outputs_identical": same}
    ok = all(s["outputs_identical"] and s["untraced"]["correct"] and s["traced"]["correct"]
             for s in summary.values())
    print(json.dumps({"correct": ok, "machine": plain["raw"]["machine"], "workloads": summary}))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measure whole passes until this many seconds have run "
                         "(default: run_seconds from BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny inputs, no goldens (self-test)")
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--write-goldens", action="store_true")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qpt" / "__init__.py").is_file():
        print("error: run from the root of a qpt checkout (no src/qpt here)", file=sys.stderr)
        return 2
    try:
        if args.write_goldens:
            write_goldens(root)
            return 0
        seconds = args.seconds if args.seconds is not None else bench_spec()["run_seconds"]
        if args.all:
            return run_all(root, args.seed, seconds)
        if args.workload is None:
            ap.error("--workload, --all or --write-goldens is required")
        run = run_one(root, args.workload, args.seed, seconds, args.trace, toy=args.toy)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_run(args.workload, run, args.trace)
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
