"""Command-line front door: parse arguments, run the subcommand's scenario
(every report is built in ``scenarios``), emit its report as text or JSON.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage error,
3 file or parse error.
"""
from __future__ import annotations

import argparse
import math
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


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--eps",
        type=float,
        default=None,
        help=f"comparison tolerance in {_EPS_RANGE}; default 1e-9 (below the "
        f"floor {EPS_FLOOR:g}, rounding noise would count as subspace rank)",
    )
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format: human-readable text or structured JSON",
    )
    common.add_argument(
        "--output", type=Path, default=None, help="write the report to this path"
    )

    parser = argparse.ArgumentParser(
        prog="qpt",
        description="finite-dimensional quantum-logic toolkit: determinate "
        "sublattices, property states, no-go checks, dual dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("epr", parents=[common], help="premeasurement on one side of a singlet pair")

    p = sub.add_parser("teleport", parents=[common], help="spin-state teleportation pipeline")
    p.add_argument("--c-plus", type=_parse_complex, default=complex(0.6))
    p.add_argument("--c-minus", type=_parse_complex, default=complex(0.8))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=10_000, help="outcome histogram size")

    p = sub.add_parser("decohere", parents=[common], help="environment-induced suppression of pointer coherence")
    p.add_argument("--n-env", type=int, default=8)
    p.add_argument("--angle", type=float, default=math.pi / 3, help="per-qubit tag angle (radians)")
    p.add_argument("--budget", type=int, default=256, help="closure budget for the extension demo")

    p = sub.add_parser("correspond", parents=[common], help="transition frequencies vs orbital-frequency multiples")
    p.add_argument("--n-max", type=int, default=100)

    p = sub.add_parser("ks", parents=[common], help="noncontextual assignment search on a ray-set file")
    p.add_argument("--rays", type=Path, required=True, help="ray-set file (one ray per line, re+imj components)")

    p = sub.add_parser("chsh", parents=[common], help="CHSH value, classical bound, and local-model feasibility")
    p.add_argument(
        "--angles",
        type=_parse_angles,
        default=None,
        help="a1,a2,b1,b2 in radians (default: the maximizing angles)",
    )

    p = sub.add_parser("dynamics", parents=[common], help="two-level jump process against closed-form weights")
    p.add_argument("--steps", type=int, default=2010)
    p.add_argument("--trajectories", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trajectory-out", type=Path, default=None, help="write one sampled trajectory as TSV rows")

    p = sub.add_parser("determinate", parents=[common], help="build a determinate sublattice for a random state")
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--observable",
        choices=("maximal", "identity"),
        default="maximal",
        help="maximal: random nondegenerate eigenbasis; identity: single eigenspace",
    )
    return parser


def _resolve_tol(args) -> Tolerance:
    if args.eps is None:
        return DEFAULT_TOL
    if not EPS_FLOOR <= args.eps <= _EPS_CEIL:
        raise ValueError(f"--eps must lie in {_EPS_RANGE}, got {args.eps}")
    return Tolerance(eps=args.eps)


def main(argv: "list[str] | None" = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        tol = _resolve_tol(args)
        if args.command == "epr":
            report = epr_scenario(tol=tol)
        elif args.command == "teleport":
            report = teleportation_scenario(
                args.c_plus, args.c_minus, args.seed, samples=args.samples, tol=tol
            )
        elif args.command == "decohere":
            report = decoherence_scenario(
                args.n_env, args.angle, extension_budget=args.budget, tol=tol
            )
        elif args.command == "correspond":
            report = correspondence_scenario(args.n_max)
        elif args.command == "ks":
            report = ks_scenario(args.rays, tol=tol)
        elif args.command == "chsh":
            report = chsh_scenario(args.angles)
        elif args.command == "dynamics":
            report = dynamics_scenario(
                args.steps, args.trajectories, args.seed,
                trajectory_out=args.trajectory_out, tol=tol,
            )
        else:
            report = determinate_scenario(args.dim, args.seed, args.observable, tol=tol)
    except (RayFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except (ValueError, QptError) as exc:  # bad arguments, or input they produced
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a size argument too large to allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE

    payload = report.to_json() if args.format == "json" else report.render_text()
    if args.output is not None:
        try:
            args.output.write_text(payload)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_FILE
    else:
        sys.stdout.write(payload)
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
