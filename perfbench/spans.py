"""Spans around the public functions of the qpt modules, installed from the
benchmark's side and removed again afterwards.

A function is replaced in every loaded ``qpt`` module that holds a reference
to it (``from .lattice import meet`` copies the reference into the importing
module), so calls made between qpt modules are seen as well as calls made
through the package namespace.  ``Patcher.restore`` puts every original back.

Spans are aggregated in memory as they close: per wrapped name the number of
calls, the total duration and the self time, which is the duration minus the
time covered by the wrapped calls made from inside it.  The program runs on
one thread, so the spans of one run nest and never overlap.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

#: modules whose public functions get a span; ``linalg`` is the numeric leaf
#: layer and stays unwrapped, so its time counts as self time of its callers
TRACED_MODULES = (
    "lattice", "determinate", "nogo", "dynamics", "scenarios", "report", "cli",
)

#: (module, attribute path, span name) of public callables outside the rule
#: above: the sampler kernel lives in a private module, report serialisation
#: and subspace construction are methods
EXTRA_TARGETS = (
    ("_kernels", "sample_paths", "kernels.sample_paths"),
    ("report", "ScenarioReport.to_json", "report.to_json"),
    ("lattice", "Subspace.__post_init__", "lattice.subspace_init"),
)


def _qpt_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "qpt" or n.startswith("qpt."))]


def public_functions(module) -> list[str]:
    """Names of the public functions defined in ``module`` itself."""
    return sorted(
        name for name, obj in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    )


def trace_targets() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every callable the tracer wraps."""
    out = []
    for short in TRACED_MODULES:
        mod = importlib.import_module(f"qpt.{short}")
        out.extend((mod, name, f"{short}.{name}") for name in public_functions(mod))
    for short, path, span in EXTRA_TARGETS:
        owner = importlib.import_module(f"qpt.{short}")
        *parents, attr = path.split(".")
        for p in parents:
            owner = getattr(owner, p)
        out.append((owner, attr, span))
    return out


class Patcher:
    """Replaces callables wherever a qpt module refers to them and restores
    the originals."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        sites = [(owner, attr)]
        if inspect.ismodule(owner):
            sites += [(m, name) for m in _qpt_modules() if m is not owner
                      for name, val in list(vars(m).items()) if val is original]
        for obj, name in sites:
            self._saved.append((obj, name, vars(obj)[name]))
            setattr(obj, name, wrapper)

    def restore(self) -> None:
        while self._saved:
            obj, name, val = self._saved.pop()
            setattr(obj, name, val)


class Spans:
    """Per-name call count, total seconds and self seconds, plus captured
    calls for the names listed in ``capture``."""

    def __init__(self, capture=()) -> None:
        self.stats: dict[str, list] = {}
        self.captured: dict[str, list] = {name: [] for name in capture}
        self._stack: list[float] = []

    def wrapper_for(self, name: str):
        stack = self._stack
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        sink = self.captured.get(name)

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = perf_counter() - t0
                    child = stack.pop()
                    stat[0] += 1
                    stat[1] += dur
                    stat[2] += dur - child
                    if stack:
                        stack[-1] += dur
                if sink is not None:
                    sink.append((args, kwargs, result, dur))
                return result

            return wrapper

        return make

    def install(self, patcher: Patcher) -> None:
        for owner, attr, name in trace_targets():
            patcher.replace(owner, attr, self.wrapper_for(name))


def output_tap(sink: list):
    """Wrapper factory that only records return values (no timing)."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.append(result)
            return result

        return wrapper

    return make
