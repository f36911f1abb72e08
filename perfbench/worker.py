"""One workload run in a fresh process: set up, run whole passes over the
workload's operations until the time is up, print one JSON result line.

Started by run.py, never imported by it.  Only the standard library is
imported before the set-up clock starts, so ``setup_s`` covers the whole of
``import qpt`` (numpy and scipy included) plus input generation.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback
from time import perf_counter

#: spans whose arguments and return values the layer metrics need
CAPTURED = ("determinate.extend_and_check", "kernels.sample_paths")


def _machine() -> dict:
    import importlib.util
    import platform

    import numpy
    import scipy

    import qpt._kernels

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "sampler_backend": qpt._kernels.active_backend(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _sample_paths_work(calls) -> "tuple[float, int, int]":
    """(seconds, walker-steps, uniforms drawn) over captured sample_paths calls."""
    import inspect

    import qpt._kernels

    sig = inspect.signature(qpt._kernels.sample_paths)
    secs, walker_steps, uniforms = 0.0, 0, 0
    for args, kwargs, _, dur in calls:
        bound = sig.bind(*args, **kwargs)
        steps = bound.arguments["cum"].shape[0]
        walkers = int(bound.arguments["n_walkers"])
        secs += dur
        walker_steps += walkers * steps
        uniforms += walkers * (steps + 1)  # one start draw plus one per step
    return secs, walker_steps, uniforms


def _closure_counts(calls) -> dict:
    """Totals over captured extend_and_check calls, from ExtensionReport
    fields.  A dedup hit is a recorded relation whose result was already an
    element; every element beyond the initial ones (zero, full and the
    distinct generators) was first produced by exactly one relation."""
    import qpt

    rounds = elements = relations = hits = 0
    for args, kwargs, rep, _ in calls:
        d, v = args[:2]
        initial: list = [qpt.Subspace.zero(d.ambient_dim), qpt.Subspace.full(d.ambient_dim)]
        for g in d.generators() + qpt.complement_probe_rays(d) + [v]:
            if not any(g.isclose(e) for e in initial):
                initial.append(g)
        rounds += rep.closure_depth
        elements += rep.n_elements
        relations += rep.n_relations
        hits += rep.n_relations - (rep.n_elements - len(initial))
    return {"closure_rounds": rounds, "elements": elements, "relations": relations,
            "dedup_hit_ratio": hits / relations if relations else 0.0}


def _layers(spans, n_passes: int, import_s: float, scipy_modules: int) -> dict:
    """Per-pass layer figures: '<layer>.<function>.calls|self_s|s' for every
    span, plus the derived closure and sampler counts."""
    out = {"import.qpt_s": import_s, "import.scipy_modules": scipy_modules}
    for name, (calls, total, self_s) in sorted(spans.stats.items()):
        out[f"{name}.calls"] = calls / n_passes
        out[f"{name}.self_s"] = self_s / n_passes
        out[f"{name}.s"] = total / n_passes
    out["lattice.subspaces_built"] = out["lattice.subspace_init.calls"]
    closure = _closure_counts(spans.captured["determinate.extend_and_check"])
    for key, val in closure.items():
        out[f"lattice.{key}"] = val if key == "dedup_hit_ratio" else val / n_passes
    secs, walker_steps, uniforms = _sample_paths_work(spans.captured["kernels.sample_paths"])
    out["kernels.walker_steps_per_s"] = walker_steps / secs if secs else 0.0
    out["kernels.uniforms_drawn"] = uniforms / n_passes
    return out


def _run_pass(ops, paths: list, traced: bool) -> dict:
    """Run every operation once; a failing operation is recorded, not fatal."""
    records = []
    for op in ops:
        paths.clear()
        t = perf_counter()
        try:
            value = op.run()
        except Exception:
            records.append({"name": op.name, "seeded": op.seeded,
                            "latency_s": perf_counter() - t, "output": None, "ok": False,
                            "error": traceback.format_exc(limit=3)})
            continue
        lat = perf_counter() - t
        try:
            output, ok = op.record(value)
            error = None
        except Exception:
            output, ok, error = None, False, traceback.format_exc(limit=3)
        records.append({"name": op.name, "seeded": op.seeded, "latency_s": lat,
                        "output": output, "ok": bool(ok), "error": error})
    return {"traced": traced, "wall_s": sum(r["latency_s"] for r in records), "ops": records}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = perf_counter()
    import qpt

    import_s = perf_counter() - t0
    scipy_modules = sum(1 for m in list(sys.modules) if m.startswith("scipy."))
    root = os.path.realpath(os.getcwd())
    if not os.path.realpath(qpt.__file__).startswith(os.path.join(root, "src", "")):
        print(f"error: imported qpt from {qpt.__file__}, not from {root}/src", file=sys.stderr)
        return 2

    import spans as spanlib
    import workloads

    patcher = spanlib.Patcher()
    paths: list = []
    patcher.replace(qpt._kernels, "sample_paths", spanlib.output_tap(paths))
    ops = workloads.build(args.workload, args.seed, toy=args.toy, in_process=bool(args.trace),
                          paths=paths, env=dict(os.environ))
    setup_s = perf_counter() - t0
    result = {"setup_s": setup_s, "import_s": import_s, "machine": _machine()}
    if args.setup_only:
        patcher.restore()
        print(json.dumps(result))
        return 0

    # a traced run starts with one untraced reference pass: its outputs must
    # match the traced passes, and its wall time is the overhead's base
    passes = []
    spans = None
    start = perf_counter()
    try:
        while True:
            if args.trace and spans is None and passes:
                spans = spanlib.Spans(capture=CAPTURED)
                spans.install(patcher)
            passes.append(_run_pass(ops, paths, traced=spans is not None))
            if perf_counter() - start >= args.seconds and (passes[-1]["traced"] or not args.trace):
                break
    finally:
        patcher.restore()

    usage = resource.RUSAGE_CHILDREN if args.workload == "cli" and not args.trace \
        else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
    result["passes"] = passes
    if spans is not None:
        traced = [p["wall_s"] for p in passes if p["traced"]]
        result["layers"] = _layers(spans, len(traced), import_s, scipy_modules)
        result["layers"]["trace.wall_s"] = sum(traced) / len(traced)
        result["layers"]["trace.overhead_ratio"] = result["layers"]["trace.wall_s"] / passes[0]["wall_s"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
