"""Command-line front door: run scenarios and checks, load ray-set files,
emit reports as text or JSON.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage error,
3 file or parse error.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .determinate import (
    ObservableSpec,
    born_check,
    build_determinate,
    contains,
    property_states,
)
from .dynamics import (
    EvolutionSpec,
    evolve_possibility,
    jump_process,
    sample_marginals,
    trajectory_rows,
)
from .errors import MalformedContext, NotNormalized, RayFileError
from .lattice import Subspace
from .linalg import ComplexVector, Operator, Tolerance, basis_vector, random_state
from .nogo import (
    ChshSetting,
    NoAssignment,
    RaySet,
    Satisfiable,
    Unsatisfiable,
    chsh_lhv_bound,
    chsh_value,
    correlation_table,
    find_assignment,
    local_map_search,
    setting_ray_sets,
    singlet,
)
from .report import Check, Quantity, ScenarioReport, close_check
from .scenarios import (
    correspondence_scenario,
    decoherence_scenario,
    epr_scenario,
    teleportation_scenario,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_FILE = 3


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
        help="tolerance override in (0, 1e-3]; defaults to QPT_EPS or 1e-9",
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
    p.add_argument("--angle", type=float, default=float(np.pi / 3), help="per-qubit tag angle (radians)")
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


def _ks_report(path: Path, tol: Tolerance) -> ScenarioReport:
    try:
        rs = RaySet.from_file(path, tol)
    except ValueError as exc:  # content-level defect (e.g. coincident rays)
        raise RayFileError(str(exc)) from exc
    result = find_assignment(rs, tol)
    quantities = [
        Quantity("n_rays", len(rs.rays)),
        Quantity("n_contexts", len(rs.contexts)),
        Quantity("dim", rs.dim),
        Quantity("result", type(result).__name__),
    ]
    if isinstance(result, NoAssignment):
        reverify = find_assignment(rs, tol, restrict_to=result.witness)
        quantities.append(
            Quantity(
                "witness_contexts",
                [list(rs.contexts[ci]) for ci in result.witness],
                note="ray indices per context; deletion-minimal unsatisfiable core",
            )
        )
        checks = (
            Check(
                "exhaustive_search_complete",
                passed=True,
                expected="NoAssignment",
                actual="NoAssignment",
                tolerance=0.0,
                note="backtracking with propagation explored the full space",
            ),
            Check(
                "witness_core_unsatisfiable",
                passed=isinstance(reverify, NoAssignment),
                expected="NoAssignment",
                actual=type(reverify).__name__,
                tolerance=0.0,
                note="the witness contexts alone already admit no assignment",
            ),
        )
    else:
        per_context_ok = all(
            sum(result.values[i] for i in ctx) == 1 for ctx in rs.contexts
        )
        no_orth_pair = all(
            not (result.values[i] and result.values[j] and rs.orthogonal(i, j))
            for i in range(len(rs.rays))
            for j in range(i + 1, len(rs.rays))
        )
        quantities.append(Quantity("assignment", list(result.values)))
        checks = (
            Check(
                "one_per_context",
                passed=per_context_ok,
                expected=True,
                actual=per_context_ok,
                tolerance=0.0,
                note="every complete context contains exactly one ray valued 1",
            ),
            Check(
                "orthogonal_exclusivity",
                passed=no_orth_pair,
                expected=True,
                actual=no_orth_pair,
                tolerance=0.0,
                note="no two orthogonal rays both valued 1",
            ),
        )
    return ScenarioReport("ks", {"rays": str(path)}, tuple(quantities), checks)


def _chsh_report(angles, tol: Tolerance) -> ScenarioReport:
    setting = (
        ChshSetting((angles[0], angles[1]), (angles[2], angles[3]))
        if angles is not None
        else ChshSetting.optimal()
    )
    state = singlet()
    value = chsh_value(state, setting)
    bound = chsh_lhv_bound()
    a1, a2 = setting.alice_angles
    b1, b2 = setting.bob_angles
    closed_form = abs(
        -np.cos(a1 - b1) - np.cos(a1 - b2) - np.cos(a2 - b1) + np.cos(a2 - b2)
    )
    ceiling = 2.0 * np.sqrt(2.0)

    rs_a, rs_b = setting_ray_sets(setting)
    table = correlation_table(state, setting)
    lp = local_map_search(rs_a, rs_b, table, tol)

    if value > bound + 1e-9:
        lp_ok = isinstance(lp, Unsatisfiable) and lp.residual > 1e-9
        lp_note = "value above the classical bound: no local model may exist"
        lp_expected = "Unsatisfiable"
    elif value < bound - 1e-9:
        lp_ok = isinstance(lp, Satisfiable)
        lp_note = "value below the classical bound: a local model must exist"
        lp_expected = "Satisfiable"
    else:
        lp_ok = True
        lp_note = "value at the classical boundary: either outcome is consistent"
        lp_expected = type(lp).__name__

    checks = (
        Check(
            "classical_bound_exact",
            passed=bound == 2.0,
            expected=2.0,
            actual=bound,
            tolerance=0.0,
            note="brute force over the 16 deterministic strategies",
        ),
        close_check(
            "dual_route_value",
            expected=closed_form,
            actual=value,
            tolerance=1e-12,
            note="state-vector route against the closed-form correlators",
        ),
        Check(
            "quantum_ceiling",
            passed=bool(value <= ceiling + 1e-9),
            expected=f"<= {ceiling:.12g}",
            actual=value,
            tolerance=1e-9,
            note="no setting exceeds 2*sqrt(2) on the singlet",
        ),
        Check(
            "local_model_consistency",
            passed=bool(lp_ok),
            expected=lp_expected,
            actual=type(lp).__name__,
            tolerance=0.0,
            note=lp_note,
        ),
    )
    quantities = [
        Quantity("alice_angles", list(setting.alice_angles)),
        Quantity("bob_angles", list(setting.bob_angles)),
        Quantity("chsh_value", value, tolerance=1e-12),
        Quantity("classical_bound", bound),
        Quantity("quantum_ceiling", ceiling),
    ]
    if isinstance(lp, Unsatisfiable):
        quantities.append(
            Quantity("l1_residual", lp.residual, note="distance to the local polytope")
        )
    params = {
        "angles": [a1, a2, b1, b2],
    }
    return ScenarioReport("chsh", params, tuple(quantities), checks)


def _dynamics_report(args, tol: Tolerance) -> ScenarioReport:
    h = Operator(np.array([[0.0, 0.5], [0.5, 0.0]], dtype=np.complex128))
    observable = ObservableSpec.from_eigenbasis(
        [basis_vector(2, 0), basis_vector(2, 1)], labels=("up", "down"), tol=tol
    )
    steps = args.steps
    if steps < 10:
        raise ValueError("dynamics demo needs at least 10 steps")
    spec = EvolutionSpec(h, dt=2.0 * np.pi / steps, steps=steps, tol=tol)
    traj = evolve_possibility(basis_vector(2, 0), observable, spec, tol=tol)

    grid = traj.times
    closed_up = np.cos(grid / 2.0) ** 2
    weight_err = float(np.abs(traj.weights[:, 0] - closed_up).max())

    stride = steps // 10
    idx = np.arange(1, 11) * stride
    marg = sample_marginals(traj, args.seed, args.trajectories, idx)
    tv = marg.total_variation()

    if args.trajectory_out is not None:
        path_rows = trajectory_rows(jump_process(traj, args.seed + 1), traj)
        args.trajectory_out.write_text("\n".join(path_rows) + "\n")

    sigma = 0.5 / np.sqrt(args.trajectories)
    tv_tol = max(0.02, 4.0 * sigma + 0.01)
    checks = (
        close_check(
            "weights_match_closed_form",
            expected=0.0,
            actual=weight_err,
            tolerance=1e-9,
            note="evolved weights against cos^2/sin^2 of half the elapsed angle",
        ),
        Check(
            "marginals_mesh",
            passed=bool(tv.max() <= tv_tol),
            expected=f"<= {tv_tol:.4g}",
            actual=float(tv.max()),
            tolerance=tv_tol,
            note="worst total-variation distance, empirical vs evolved weights",
        ),
    )
    quantities = (
        Quantity("dt", spec.dt),
        Quantity("sampled_times", [float(t) for t in marg.times]),
        Quantity(
            "total_variation",
            [float(x) for x in tv],
            tolerance=tv_tol,
            note="one entry per sampled time",
        ),
    )
    params = {
        "steps": steps,
        "trajectories": args.trajectories,
        "seed": args.seed,
    }
    return ScenarioReport("dynamics", params, quantities, checks)


def _determinate_report(args, tol: Tolerance) -> ScenarioReport:
    dim = args.dim
    if dim < 2:
        raise ValueError("dim must be >= 2")
    rng = np.random.default_rng(args.seed)
    psi = random_state(dim, rng)
    if args.observable == "identity":
        observable = ObservableSpec.identity(dim)
    else:
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, _ = np.linalg.qr(m)
        observable = ObservableSpec.from_eigenbasis(
            [ComplexVector(q[:, i]) for i in range(dim)],
            labels=tuple(f"e{i}" for i in range(dim)),
            tol=tol,
        )
    d = build_determinate(psi, observable, tol=tol)
    states = property_states(d)
    total = float(sum(s.probability for s in states))

    member_ok = all(contains(d, Subspace.ray(r.vector), tol) for r in d.projected_rays)
    born_err = 0.0
    for r in d.projected_rays:
        bp = born_check(d, Subspace.ray(r.vector), tol)
        born_err = max(born_err, abs(bp.measure_prob - bp.born_prob))
    leak = float(np.linalg.norm(d.complement.projector() @ d.psi.amplitudes))

    checks = (
        close_check("probabilities_sum_to_one", expected=1.0, actual=total, tolerance=1e-10),
        Check(
            "projected_rays_are_members",
            passed=member_ok,
            expected=True,
            actual=member_ok,
            tolerance=0.0,
        ),
        close_check(
            "born_measure_per_ray",
            expected=0.0,
            actual=born_err,
            tolerance=1e-10,
            note="measure over property states vs state-vector probability",
        ),
        close_check(
            "state_outside_complement",
            expected=0.0,
            actual=leak,
            tolerance=1e-9,
            note="the state has no component in the complement block",
        ),
    )
    quantities = tuple(
        Quantity(k, v) for k, v in sorted(d.to_report().items())
    )
    params = {"dim": dim, "seed": args.seed, "observable": args.observable}
    return ScenarioReport("determinate", params, quantities, checks)


def _resolve_tol(args, parser: argparse.ArgumentParser) -> Tolerance:
    if args.eps is None:
        return Tolerance.from_env()
    if not (0.0 < args.eps <= 1e-3):
        parser.error(f"--eps must lie in (0, 1e-3], got {args.eps}")
    return Tolerance(eps=args.eps)


def main(argv: "list[str] | None" = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    tol = _resolve_tol(args, parser)

    try:
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
            report = _ks_report(args.rays, tol)
        elif args.command == "chsh":
            report = _chsh_report(args.angles, tol)
        elif args.command == "dynamics":
            report = _dynamics_report(args, tol)
        else:
            report = _determinate_report(args, tol)
    except NotNormalized as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RayFileError, MalformedContext, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FILE

    payload = report.to_json() if args.format == "json" else report.render_text()
    if args.output is not None:
        args.output.write_text(payload)
    else:
        sys.stdout.write(payload)
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
