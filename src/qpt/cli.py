"""Command-line front door: parse arguments, call the subcommand's scenario
and emit its report as text or JSON.  Each subparser names its scenario and
each option's ``dest`` is a keyword of it; an option not given is not passed,
so every default lives in the scenario's signature.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage error,
3 file or parse error.
"""
from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path

from .errors import QptError, RayFileError
from .linalg import DEFAULT_TOL, EPS_FLOOR, Tolerance
from .scenarios import (
    chsh_scenario,
    correspondence_scenario,
    decoherence_scenario,
    determinate_scenario,
    dynamics_scenario,
    epr_scenario,
    ks_scenario,
    teleportation_scenario,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_FILE = 3

#: largest accepted --eps (the library accepts any eps below 1)
_EPS_CEIL = 1e-3
_EPS_RANGE = f"[{EPS_FLOOR:g}, {_EPS_CEIL:g}]"


def _parse_complex(text: str) -> complex:
    return complex(text.replace(" ", ""))


def _parse_angles(text: str) -> tuple[float, float, float, float]:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError("need four comma-separated angles: a1,a2,b1,b2")
    return tuple(parts)  # type: ignore[return-value]


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser.  It reports unrecognized arguments itself, so
    the usage printed is the subcommand's, with its options, not the root's."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _build_parser() -> argparse.ArgumentParser:
    # only the subcommands whose scenario takes ``tol`` accept --eps
    eps = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    eps.add_argument(
        "--eps",
        type=float,
        help=f"comparison tolerance in {_EPS_RANGE}; default {DEFAULT_TOL.eps:g} (below the "
        f"floor {EPS_FLOOR:g}, rounding noise would count as subspace rank)",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format: human-readable text or structured JSON",
    )
    common.add_argument("--output", type=Path, default=None, help="write the report to this path")

    parser = argparse.ArgumentParser(
        prog="qpt",
        description="finite-dimensional quantum-logic toolkit: determinate "
        "sublattices, property states, no-go checks, dual dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)

    def command(name, scenario, summary):
        takes_tol = "tol" in inspect.signature(scenario).parameters
        p = sub.add_parser(name, parents=[eps, common] if takes_tol else [common],
                           help=summary, argument_default=argparse.SUPPRESS)
        p.set_defaults(scenario=scenario)
        return p

    command("epr", epr_scenario, "premeasurement on one side of a singlet pair")

    p = command("teleport", teleportation_scenario, "spin-state teleportation pipeline")
    p.add_argument("--c-plus", type=_parse_complex)
    p.add_argument("--c-minus", type=_parse_complex)
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int, help="outcome histogram size")

    p = command("decohere", decoherence_scenario,
                "environment-induced suppression of pointer coherence")
    p.add_argument("--n-env", type=int)
    p.add_argument("--angle", type=float, dest="overlap_angle", metavar="ANGLE",
                   help="per-qubit tag angle (radians)")
    p.add_argument("--budget", type=int, dest="extension_budget", metavar="BUDGET",
                   help="closure budget for the extension demo")

    p = command("correspond", correspondence_scenario,
                "transition frequencies vs orbital-frequency multiples")
    p.add_argument("--n-max", type=int)

    p = command("ks", ks_scenario, "noncontextual assignment search on a ray-set file")
    p.add_argument("--rays", type=Path, required=True, dest="path", metavar="RAYS",
                   help="ray-set file (one ray per line, re+imj components)")

    p = command("chsh", chsh_scenario,
                "CHSH value, classical bound, and local-model feasibility")
    p.add_argument("--angles", type=_parse_angles,
                   help="a1,a2,b1,b2 in radians (default: the maximizing angles)")

    p = command("dynamics", dynamics_scenario,
                "two-level jump process against closed-form weights")
    p.add_argument("--steps", type=int)
    p.add_argument("--trajectories", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--trajectory-out", type=Path, help="write one sampled trajectory as TSV rows")

    p = command("determinate", determinate_scenario,
                "build a determinate sublattice for a random state")
    p.add_argument("--dim", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--observable", choices=("maximal", "identity"),
                   help="maximal: random nondegenerate eigenbasis; identity: single eigenspace")
    return parser


def _resolve_tol(eps: float) -> Tolerance:
    if not EPS_FLOOR <= eps <= _EPS_CEIL:
        raise ValueError(f"--eps must lie in {_EPS_RANGE}, got {eps}")
    return Tolerance(eps=eps)


def main(argv: "list[str] | None" = None) -> int:
    kwargs = vars(_build_parser().parse_args(argv))
    scenario = kwargs.pop("scenario")
    del kwargs["command"]
    fmt, output = kwargs.pop("format"), kwargs.pop("output")

    try:
        if "eps" in kwargs:
            kwargs["tol"] = _resolve_tol(kwargs.pop("eps"))
        report = scenario(**kwargs)
    except (RayFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except (ValueError, QptError) as exc:  # bad arguments, or input they produced
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a size argument too large to allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE

    payload = report.to_json() if fmt == "json" else report.render_text()
    if output is not None:
        try:
            output.write_text(payload)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_FILE
    else:
        sys.stdout.write(payload)
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED
