"""Structured scenario reports: named quantities plus pass/fail checks,
renderable as stable text or JSON (byte-identical across reruns for the same
inputs and seed).
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

SCHEMA_VERSION = 1


def format_complex(z: complex) -> str:
    """Render a complex number in the same ``re+imj`` notation the ray-file
    parser accepts."""
    return f"{z.real:.12g}{z.imag:+.12g}j"


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars/arrays and complex numbers to JSON-stable types."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return format_complex(complex(value))
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def _fmt(value: Any) -> str:
    """Text form of a value ``_jsonable`` has already returned."""
    if isinstance(value, float):
        return f"{value:.10g}"
    if isinstance(value, list):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


@dataclass(frozen=True)
class Quantity:
    """A named computed value, optionally with the tolerance it was computed
    to and a free-form note."""

    name: str
    value: Any
    tolerance: "float | None" = None
    note: str = ""

    def to_dict(self) -> dict:
        return _jsonable(asdict(self))


@dataclass(frozen=True)
class Check:
    """A verifiable claim: expected vs. actual under a tolerance."""

    name: str
    passed: bool
    expected: Any
    actual: Any
    tolerance: "float | None" = None
    note: str = ""

    def to_dict(self) -> dict:
        return _jsonable(asdict(self))

    def render(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        line = (
            f"[{tag}] {self.name}: actual={_fmt(_jsonable(self.actual))} "
            f"expected={_fmt(_jsonable(self.expected))}"
        )
        if self.tolerance is not None:
            line += f" tol={self.tolerance:.3g}"
        if self.note:
            line += f"  ({self.note})"
        return line


def close_check(
    name: str,
    expected: float,
    actual: float,
    tolerance: float,
    note: str = "",
) -> Check:
    """Convenience |expected - actual| <= tolerance check."""
    return Check(
        name=name,
        passed=bool(abs(float(expected) - float(actual)) <= tolerance),
        expected=expected,
        actual=actual,
        tolerance=tolerance,
        note=note,
    )


def exact_check(name: str, expected: Any, actual: Any, note: str = "") -> Check:
    """Convenience actual == expected check, at tolerance 0."""
    return Check(name, bool(actual == expected), expected, actual, 0.0, note)


@dataclass(frozen=True)
class ScenarioReport:
    scenario: str
    parameters: dict = field(default_factory=dict)
    quantities: tuple[Quantity, ...] = ()
    checks: tuple[Check, ...] = ()

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "scenario": self.scenario,
            "parameters": _jsonable(self.parameters),
            "quantities": [q.to_dict() for q in self.quantities],
            "checks": [c.to_dict() for c in self.checks],
            "all_passed": self.all_passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def render_text(self) -> str:
        lines = [f"scenario: {self.scenario}"]
        for key in sorted(self.parameters):
            lines.append(f"  {key} = {_fmt(_jsonable(self.parameters[key]))}")
        if self.quantities:
            lines.append("quantities:")
            for q in self.quantities:
                entry = f"  {q.name} = {_fmt(_jsonable(q.value))}"
                if q.note:
                    entry += f"  ({q.note})"
                lines.append(entry)
        if self.checks:
            lines.append("checks:")
            for c in self.checks:
                lines.append("  " + c.render())
        n_pass = sum(1 for c in self.checks if c.passed)
        lines.append(f"summary: {n_pass}/{len(self.checks)} checks passed")
        return "\n".join(lines) + "\n"
