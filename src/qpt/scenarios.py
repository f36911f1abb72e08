"""End-to-end scenario drivers emitting verifiable reports.

Each scenario builds its states and operators from scratch, computes the
advertised quantities two independent ways where possible, and returns a
ScenarioReport whose checks all pass at default tolerances.
"""
from __future__ import annotations

import functools

import numpy as np

from .determinate import (
    ObservableSpec,
    born_check,
    build_determinate,
    contains,
    extend_and_check,
    property_states,
)
from .dynamics import (
    EvolutionSpec,
    evolve_possibility,
    jump_process,
    sample_marginals,
    trajectory_rows,
)
from .errors import NotNormalized
from .lattice import Subspace
from .linalg import (
    DEFAULT_TOL,
    ComplexVector,
    Operator,
    RegisterLayout,
    Tolerance,
    basis_vector,
    embed,
    random_state,
    reduced_state,
    tensor,
)
from .nogo import (
    FEASIBILITY_TOL,
    ChshSetting,
    NoAssignment,
    RaySet,
    Satisfiable,
    Unsatisfiable,
    chsh_lhv_bound,
    correlation_table,
    correlator,
    find_assignment,
    local_map_search,
    setting_ray_sets,
    singlet,
)
from .report import Check, Quantity, ScenarioReport, close_check, exact_check, format_complex

_UP = np.array([1.0, 0.0], dtype=np.complex128)
_DOWN = np.array([0.0, 1.0], dtype=np.complex128)


def _cyclic_shift(dim: int, by: int = 1) -> np.ndarray:
    """Permutation matrix sending index j to (j + by) mod dim."""
    return np.roll(np.eye(dim), by, axis=0)


def _position_observable(
    layout: RegisterLayout, factor_names: tuple[str, ...], symbols: "list[list[str]]"
) -> ObservableSpec:
    """Eigenspaces of a joint reading of the named registers, one per
    combination of their indices, each spanned by the standard basis vectors
    with that reading in flat-index order."""
    dims = [layout.dims[layout.axis(n)] for n in factor_names]
    readings = np.indices(layout.dims).reshape(len(layout.dims), -1)
    readings = readings[[layout.axis(n) for n in factor_names]]
    eye = np.eye(layout.dim, dtype=np.complex128)
    labels: list[str] = []
    spaces: list[Subspace] = []
    for combo in np.ndindex(*dims):
        mask = (readings == np.array(combo)[:, None]).all(axis=0)
        spaces.append(Subspace(layout.dim, eye[:, mask]))
        names = [symbols[k][c] for k, c in enumerate(combo)]
        labels.append(names[0] if len(dims) == 1 else "(" + ",".join(names) + ")")
    return ObservableSpec(tuple(labels), tuple(spaces))


# ---------------------------------------------------------------------------
# EPR premeasurement
# ---------------------------------------------------------------------------


def epr_scenario(*, tol: Tolerance = DEFAULT_TOL) -> ScenarioReport:
    """Spin-singlet pair with a pointer register per side; a z-spin-controlled
    position shift on side 1 premeasures its spin.  Reports how the
    determinate sublattice changes, the membership flip of side 2's z-spin
    projectors, and the no-signalling identity of side 2's reduced state.
    """
    layout = RegisterLayout((("spin1", 2), ("spin2", 2), ("pos1", 3), ("pos2", 3)))
    sym = ["-", "0", "+"]
    r0 = basis_vector(3, 1)  # center position
    psi0 = tensor(singlet(), r0, r0)

    # spin1-controlled shift of pos1: up moves +1 (to "+"), down moves -1
    u_local = np.kron(np.outer(_UP, _UP.conj()), _cyclic_shift(3, +1)) + np.kron(
        np.outer(_DOWN, _DOWN.conj()), _cyclic_shift(3, -1)
    )
    u_pre = embed(Operator(u_local), layout, ("spin1", "pos1"))
    psi1 = ComplexVector(u_pre.entries @ psi0.amplitudes)

    observable = _position_observable(layout, ("pos1", "pos2"), [sym, sym])
    d_before = build_determinate(psi0, observable, tol=tol)
    d_after = build_determinate(psi1, observable, tol=tol)

    v_up2, v_down2 = _position_observable(layout, ("spin2",), [["up", "down"]]).eigenprojectors

    member_before = contains(d_before, v_up2, tol=tol) and contains(
        d_before, v_down2, tol=tol
    )
    member_after = contains(d_after, v_up2, tol=tol) and contains(
        d_after, v_down2, tol=tol
    )

    rho_b_before = reduced_state(psi0, layout, ("spin2", "pos2"))
    rho_b_after = reduced_state(psi1, layout, ("spin2", "pos2"))
    signalling = float(np.linalg.norm(rho_b_before.entries - rho_b_after.entries, ord=2))

    states_after = property_states(d_after)
    weights_after = sorted(round(s.probability, 12) for s in states_after)
    born = born_check(d_after, v_up2, tol)

    checks = (
        exact_check("rays_before", 1, len(d_before.projected_rays),
                    note="initial state occupies a single position pair"),
        exact_check("rays_after", 2, len(d_after.projected_rays),
                    note="premeasurement splits the state over two pointer readings"),
        close_check(
            "weights_after_half",
            expected=0.0,
            actual=float(max(abs(w - 0.5) for w in weights_after)),
            tolerance=1e-12,
            note="largest deviation of a branch weight from 1/2",
        ),
        exact_check("side2_zspin_member_before", False, member_before,
                    note="z-spin of side 2 not determinate before premeasurement"),
        exact_check("side2_zspin_member_after", True, member_after,
                    note="z-spin of side 2 determinate after premeasurement on side 1"),
        close_check(
            "no_signalling_rho_side2",
            expected=0.0,
            actual=signalling,
            tolerance=1e-12,
            note="side-1 premeasurement leaves side 2's reduced state fixed",
        ),
        close_check(
            "born_measure_side2_up",
            expected=born.born_prob,
            actual=born.measure_prob,
            tolerance=1e-10,
            note="property-state measure matches the quantum probability",
        ),
        close_check(
            "property_state_total",
            expected=1.0,
            actual=float(sum(s.probability for s in states_after)),
            tolerance=1e-12,
        ),
    )
    quantities = (
        Quantity("ambient_dim", layout.dim),
        Quantity("ray_labels_before", [r.label for r in d_before.projected_rays]),
        Quantity("ray_labels_after", [r.label for r in d_after.projected_rays]),
        Quantity(
            "ray_weights_after",
            [round(r.weight, 12) for r in d_after.projected_rays],
            tolerance=1e-12,
        ),
        Quantity("complement_dim_before", d_before.complement.rank),
        Quantity("complement_dim_after", d_after.complement.rank),
    )
    return ScenarioReport("epr", {}, quantities, checks)


# ---------------------------------------------------------------------------
# Teleportation
# ---------------------------------------------------------------------------


def _bell_basis() -> list[np.ndarray]:
    pm = np.kron(_UP, _DOWN)
    mp = np.kron(_DOWN, _UP)
    pp = np.kron(_UP, _UP)
    mm = np.kron(_DOWN, _DOWN)
    s = 1 / np.sqrt(2)
    return [s * (pm - mp), s * (pm + mp), s * (pp - mm), s * (pp + mm)]


#: Bob's correction for each pointer outcome, chosen so that the corrected
#: branch content is exactly c_plus|+> + c_minus|->
_CORRECTIONS = (
    -np.eye(2),
    np.diag([-1.0, 1.0]),
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.array([[0.0, 1.0], [-1.0, 0.0]]),
)


def teleportation_scenario(
    c_plus: complex = 0.6,
    c_minus: complex = 0.8,
    seed: int = 0,
    *,
    samples: int = 10_000,
    tol: Tolerance = DEFAULT_TOL,
) -> ScenarioReport:
    """Teleport the spin state c_plus|+> + c_minus|-> from register C to B
    through a shared entangled pair and a Bell-basis premeasurement whose
    pointer outcome selects one of four local corrections.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    amp = abs(c_plus) ** 2 + abs(c_minus) ** 2
    if abs(amp - 1.0) > 1e-9:
        raise NotNormalized(f"|c_plus|^2 + |c_minus|^2 = {amp:.12g}, expected 1")

    layout = RegisterLayout(
        (("spin_c", 2), ("spin_a", 2), ("spin_b", 2), ("pos_a", 5), ("pos_b", 1))
    )
    bells = _bell_basis()
    psi_c = ComplexVector(c_plus * _UP + c_minus * _DOWN)
    pair_ab = ComplexVector(bells[0])  # shared singlet between A and B
    r0a = basis_vector(5, 0)
    r0b = basis_vector(1, 0)

    phi0 = tensor(psi_c, pair_ab, r0a, r0b)

    # Bell-branch contents chi_i on B, extracted by contracting against the
    # Bell basis on (C, A); reconstruction must reproduce the initial state.
    t0 = phi0.amplitudes.reshape(4, 2, 5, 1)
    chis = [2.0 * np.einsum("b,bkpq->kpq", b.conj(), t0)[:, 0, 0] for b in bells]
    recon = sum(
        0.5 * np.einsum("b,k,p,q->bkpq", bells[i], chis[i], r0a.amplitudes, r0b.amplitudes)
        for i in range(4)
    ).reshape(layout.dim)
    recon_err = float(np.linalg.norm(recon - phi0.amplitudes))

    # premeasurement: Bell projector on (C, A) controls a shift of A's pointer
    u_local = sum(
        np.kron(np.outer(bells[i], bells[i].conj()), _cyclic_shift(5, i + 1))
        for i in range(4)
    )
    u_pre = embed(Operator(u_local), layout, ("spin_c", "spin_a", "pos_a"))
    phi1 = ComplexVector(u_pre.entries @ phi0.amplitudes)

    observable = _position_observable(
        layout, ("pos_a",), [["r0", "r1", "r2", "r3", "r4"]]
    )
    d = build_determinate(phi1, observable, tol=tol)
    states = property_states(d)

    # one inverse-CDF draw selects the outcome, `samples` more fill the histogram
    probs = np.array([s.probability for s in states])
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    picks = (np.random.default_rng(seed).random(samples + 1)[:, None] >= cum[:-1]).sum(axis=1)
    selected = states[picks[0]]
    picks = picks[1:]

    # fidelity of Bob's corrected state, for every outcome
    fidelities: dict[str, float] = {}
    locality_shift = 0.0
    for s in states:
        ray = d.projected_rays[s.selected]
        outcome = int(ray.label[1:])  # label "r<i>"
        u_b = embed(Operator(_CORRECTIONS[outcome - 1] + 0j), layout, ("spin_b",))
        branch = ray.vector
        corrected = ComplexVector(u_b.entries @ branch.amplitudes)
        rho_b = reduced_state(corrected, layout, ("spin_b",))
        fidelities[ray.label] = float(
            np.real(psi_c.amplitudes.conj() @ rho_b.entries @ psi_c.amplitudes)
        )
        rho_rest_pre = reduced_state(branch, layout, ("spin_c", "spin_a", "pos_a"))
        rho_rest_post = reduced_state(corrected, layout, ("spin_c", "spin_a", "pos_a"))
        locality_shift = max(
            locality_shift,
            float(np.linalg.norm(rho_rest_pre.entries - rho_rest_post.entries, ord=2)),
        )

    hist = {
        d.projected_rays[states[i].selected].label: int((picks == i).sum())
        for i in range(len(states))
    }
    sigma = float(np.sqrt(0.25 * 0.75 / samples))
    worst_freq_err = max(abs(v / samples - 0.25) for v in hist.values())

    checks = [
        close_check(
            "bell_reconstruction",
            expected=0.0,
            actual=recon_err,
            tolerance=tol.eps * layout.dim,
            note="four Bell branches reassemble the pre-measurement state",
        ),
        exact_check("four_property_states", 4, len(states)),
        close_check(
            "outcome_probabilities_quarter",
            expected=0.25,
            actual=float(probs.max()),
            tolerance=1e-12,
            note="pointer outcomes are equiprobable",
        ),
        close_check(
            "norm_conserved",
            expected=1.0,
            actual=float(phi1.norm()),
            tolerance=tol.eps * layout.dim,
        ),
        close_check(
            "correction_is_local",
            expected=0.0,
            actual=locality_shift,
            tolerance=1e-12,
            note="Bob's correction leaves the C+A reduced state fixed",
        ),
    ]
    for label in sorted(fidelities):
        checks.append(
            close_check(
                f"fidelity_{label}",
                expected=1.0,
                actual=fidelities[label],
                tolerance=1e-10,
                note="corrected branch reduces to the input spin state",
            )
        )
    checks.append(
        Check(
            "outcome_histogram_uniform",
            passed=bool(worst_freq_err <= 3 * sigma),
            expected=0.25,
            actual={k: v / samples for k, v in sorted(hist.items())},
            tolerance=3 * sigma,
            note=f"binomial 3-sigma band over {samples} draws",
        )
    )
    quantities = (
        Quantity("ambient_dim", layout.dim),
        Quantity(
            "branch_contents",
            {
                f"r{i + 1}": [format_complex(z) for z in chis[i]]
                for i in range(4)
            },
            note="pointer-branch spin content on B before correction",
        ),
        Quantity("selected_outcome", d.projected_rays[selected.selected].label),
        Quantity(
            "selected_probability", round(float(selected.probability), 12), tolerance=1e-12
        ),
        Quantity("outcome_counts", {k: hist[k] for k in sorted(hist)}),
    )
    params = {
        "c_plus": format_complex(complex(c_plus)),
        "c_minus": format_complex(complex(c_minus)),
        "seed": seed,
        "samples": samples,
    }
    return ScenarioReport("teleport", params, quantities, tuple(checks))


# ---------------------------------------------------------------------------
# Decoherence
# ---------------------------------------------------------------------------


def decoherence_scenario(
    n_env: int = 8,
    overlap_angle: float = np.pi / 3,
    *,
    extension_budget: int = 256,
    run_extension: bool = True,
    tol: Tolerance = DEFAULT_TOL,
) -> ScenarioReport:
    """Couple a two-state pointer to ``n_env`` environment qubits, each branch
    tagging its qubit at relative angle theta.  The pointer's reduced
    off-diagonal element is suppressed by the product of tag overlaps,
    |cos theta|^n_env; a sample pointer-branch projector is then shown to be
    inadmissible as an extra determinate property via extend_and_check.
    Raises ValueError when that closure saturates at ``extension_budget``
    before it decides.
    """
    if n_env < 0:
        raise ValueError(f"n_env must be >= 0, got {n_env}")
    if not np.isfinite(overlap_angle):
        raise ValueError(f"overlap angle must be finite, got {overlap_angle}")
    alpha, beta = 0.6, 0.8
    c = float(np.cos(overlap_angle))

    # product of per-qubit tag overlaps, computed as an actual product
    overlap = float(np.prod(np.full(n_env, c)))
    off_diag = abs(alpha * beta) * abs(overlap)
    suppression = abs(overlap)
    closed_form = abs(c) ** n_env

    checks = [
        close_check(
            "suppression_matches_power_law",
            expected=closed_form,
            actual=suppression,
            tolerance=1e-12,
            note="|<tags_1|tags_0>| against |cos theta|^n_env",
        )
    ]
    dense_note = "skipped (n_env > 12)"
    if n_env <= 12:
        e1 = np.array([np.cos(overlap_angle), np.sin(overlap_angle)], dtype=np.complex128)
        branch0, branch1 = (functools.reduce(np.kron, [e] * n_env, np.ones(1)) for e in (_UP, e1))
        full = np.concatenate([alpha * branch0, beta * branch1])
        layout = RegisterLayout((("pointer", 2), ("env", 2**n_env)))
        rho = reduced_state(ComplexVector(full), layout, ("pointer",))
        dense_off = abs(complex(rho.entries[0, 1]))
        checks.append(
            close_check(
                "dense_partial_trace_agrees",
                expected=off_diag,
                actual=float(dense_off),
                tolerance=1e-12,
                note="full-space partial trace against the overlap product",
            )
        )
        dense_note = "ran (full space)"

    quantities = [
        Quantity("pointer_amplitudes", [alpha, beta]),
        Quantity("tag_overlap_per_qubit", round(c, 15)),
        Quantity("off_diagonal_magnitude", off_diag, tolerance=1e-12),
        Quantity("suppression_ratio", suppression, tolerance=1e-12),
        Quantity("dense_route", dense_note),
    ]
    if run_extension:
        # inadmissibility of the pointer-branch ray as an extra determinate
        # property, demonstrated in the 4-dim span of the two tagged branches
        e0_eff = np.array([1.0, 0.0], dtype=np.complex128)
        e1_eff = np.array(
            [overlap, np.sqrt(max(0.0, 1.0 - overlap**2))], dtype=np.complex128
        )
        phi_eff = ComplexVector(
            np.concatenate([alpha * e0_eff, beta * e1_eff]).astype(np.complex128)
        )
        d_eff = build_determinate(phi_eff, ObservableSpec.identity(4), tol=tol)
        branch_ray = Subspace.ray(
            ComplexVector(np.concatenate([e0_eff, np.zeros(2, dtype=np.complex128)]))
        )
        verdict = extend_and_check(d_eff, branch_ray, budget=extension_budget, tol=tol)
        if verdict.verdict == "inconclusive" and not verdict.reached_fixpoint:
            # a saturated closure decided nothing: too small a budget is not a failed check
            raise ValueError(
                f"extension closure budget {extension_budget} saturated before the "
                "pointer-branch extension was decided; use a larger budget"
            )
        checks.append(
            exact_check("pointer_branch_not_addable", "contradiction", verdict.verdict,
                        note="adding the branch ray forces an uncolorable ray set")
        )
        quantities.append(Quantity("extension_elements", verdict.n_elements))
        quantities.append(Quantity("extension_rounds", verdict.closure_depth))
    params = {"n_env": n_env, "overlap_angle": round(float(overlap_angle), 15)}
    return ScenarioReport("decohere", params, tuple(quantities), tuple(checks))


# ---------------------------------------------------------------------------
# Correspondence-limit frequency table
# ---------------------------------------------------------------------------


def _ratio(n: int, m: int) -> float:
    """(E_n - E_{n-m}) / (m * orbital frequency at n), E_n = -1/n^2."""
    nu = 1.0 / (n - m) ** 2 - 1.0 / n**2
    return nu / (m * 2.0 / n**3)


def correspondence_scenario(n_max: int = 100) -> ScenarioReport:
    """Tabulate transition frequencies against integer multiples of the
    orbital frequency: they disagree grossly at small level number and
    approach equality as the level number grows.
    """
    if n_max < 3:
        raise ValueError(f"n_max must be >= 3, got {n_max}")

    table = [
        [n, m, round(_ratio(n, m), 12)]
        for n in range(2, min(n_max, 8) + 1)
        for m in range(1, min(3, n - 1) + 1)
    ]

    # dual route: direct difference vs closed-form defect m(3n-2m)/(2(n-m)^2)
    worst_form = 0.0
    for n in range(2, n_max + 1):
        for m in range(1, min(3, n - 1) + 1):
            form = 1.0 + m * (3 * n - 2 * m) / (2.0 * (n - m) ** 2)
            worst_form = max(worst_form, abs(_ratio(n, m) - form))

    anchor = _ratio(2, 1)
    defect_n_max = max(abs(_ratio(n_max, m) - 1.0) for m in range(1, min(3, n_max - 1) + 1))
    checks = [
        exact_check("small_n_gross_disagreement", 3.0, anchor,
                    note="lowest transition runs at triple the orbital frequency"),
        close_check(
            "defect_closed_form",
            expected=0.0,
            actual=worst_form,
            tolerance=1e-12,
            note="direct ratio against the algebraic defect formula",
        ),
    ]
    if n_max >= 10:
        worst_m1 = max(abs(_ratio(n, 1) - 1.0) * (n - 3) / 2.0 for n in range(10, n_max + 1))
        worst_scaled = max(
            abs(_ratio(n, m) - 1.0) * (n - 3) / (2.0 * m)
            for n in range(10, n_max + 1)
            for m in (1, 2, 3)
        )
        checks.append(
            Check(
                "single_step_bound",
                passed=bool(worst_m1 <= 1.0),
                expected="<= 2/(n-3)",
                actual=round(worst_m1, 12),
                tolerance=0.0,
                note="|ratio-1| <= 2/(n-3) for m=1, 10 <= n <= n_max "
                "(actual is the worst ratio to the bound)",
            )
        )
        checks.append(
            Check(
                "scaled_bound_all_m",
                passed=bool(worst_scaled <= 1.0),
                expected="<= 2m/(n-3)",
                actual=round(worst_scaled, 12),
                tolerance=0.0,
                note="|ratio-1| <= 2m/(n-3) for m <= 3 "
                "(actual is the worst ratio to the bound)",
            )
        )
    if n_max >= 20:
        checks.append(
            Check(
                "convergence_to_unity",
                passed=bool(defect_n_max < max(abs(_ratio(10, m) - 1.0) for m in (1, 2, 3))),
                expected="defect shrinks from n=10 to n=n_max",
                actual=round(defect_n_max, 12),
                tolerance=0.0,
            )
        )
    quantities = (
        Quantity("ratio_table_small_n", table, note="[n, m, ratio] rows"),
        Quantity("largest_defect_at_n_max", round(defect_n_max, 12)),
    )
    return ScenarioReport("correspond", {"n_max": n_max}, quantities, tuple(checks))


# ---------------------------------------------------------------------------
# Kochen-Specker assignment search on a ray-set file
# ---------------------------------------------------------------------------


def ks_scenario(path, *, tol: Tolerance = DEFAULT_TOL) -> ScenarioReport:
    """Search the ray set in ``path`` for a noncontextual {0,1} assignment.
    Reports the assignment with its two defining properties re-verified, or
    a deletion-minimal witness core that is searched again on its own.
    """
    rs = RaySet.from_file(path, tol)
    result = find_assignment(rs)
    quantities = [
        Quantity("n_rays", len(rs.rays)),
        Quantity("n_contexts", len(rs.contexts)),
        Quantity("dim", rs.dim),
        Quantity("result", type(result).__name__),
    ]
    if isinstance(result, NoAssignment):
        reverify = find_assignment(rs, restrict_to=result.witness)
        quantities.append(
            Quantity(
                "witness_contexts",
                [list(rs.contexts[ci]) for ci in result.witness],
                note="ray indices per context; deletion-minimal unsatisfiable core",
            )
        )
        checks = (
            exact_check("exhaustive_search_complete", "NoAssignment", type(result).__name__,
                        note="backtracking with propagation explored the full space"),
            exact_check("witness_core_unsatisfiable", "NoAssignment", type(reverify).__name__,
                        note="the witness contexts alone already admit no assignment"),
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
            exact_check("one_per_context", True, per_context_ok,
                        note="every complete context contains exactly one ray valued 1"),
            exact_check("orthogonal_exclusivity", True, no_orth_pair,
                        note="no two orthogonal rays both valued 1"),
        )
    return ScenarioReport("ks", {"rays": str(path)}, tuple(quantities), checks)


# ---------------------------------------------------------------------------
# CHSH
# ---------------------------------------------------------------------------


def chsh_scenario(angles: "tuple[float, float, float, float] | None" = None) -> ScenarioReport:
    """CHSH value of the singlet at ``angles`` (a1, a2, b1, b2; the maximizing
    setting when None) by two routes, against the brute-force classical bound,
    the 2*sqrt(2) ceiling and the local-model linear program.
    """
    setting = (
        ChshSetting((angles[0], angles[1]), (angles[2], angles[3]))
        if angles is not None
        else ChshSetting.optimal()
    )
    state = singlet()
    bound = chsh_lhv_bound()
    a1, a2 = setting.alice_angles
    b1, b2 = setting.bob_angles
    # the four CHSH sums |Σ − 2E_xy| of the state-vector correlators; the last
    # is the reported value, in chsh_value's order of operations
    e11, e12, e21, e22 = (correlator(state, ta, tb) for ta in (a1, a2) for tb in (b1, b2))
    sums = [abs(-e11 + e12 + e21 + e22), abs(e11 - e12 + e21 + e22),
            abs(e11 + e12 - e21 + e22), abs(e11 + e12 + e21 - e22)]
    value = sums[3]
    closed_form = abs(
        -np.cos(a1 - b1) - np.cos(a1 - b2) - np.cos(a2 - b1) + np.cos(a2 - b2)
    )
    ceiling = 2.0 * np.sqrt(2.0)

    rs_a, rs_b = setting_ray_sets(setting)
    table = correlation_table(state, setting)
    lp = local_map_search(rs_a, rs_b, table)

    # Fine's theorem: the table has a local model iff all four sums are at
    # most 2. A sum is a ±1 combination of the 16 table entries, each decided
    # to FEASIBILITY_TOL, hence the band of 16 of them. HiGHS applies the same
    # tolerance to the normalisation row and the variables' bounds, so the band
    # is a measured margin, not a proven bound: over 20,000 singlet settings
    # within 5e-6 of the boundary, no sum above 2 + 4.0e-7 was found local.
    top = int(np.argmax(sums))
    largest = sums[top]
    subject = "value" if top == 3 else f"largest CHSH sum {largest:.10g}"
    band = 16 * FEASIBILITY_TOL
    if largest > bound + band:
        lp_ok = isinstance(lp, Unsatisfiable)
        lp_note = f"{subject} above the classical bound: no local model may exist"
        lp_expected = "Unsatisfiable"
    elif largest < bound - band:
        lp_ok = isinstance(lp, Satisfiable)
        lp_note = f"{subject} below the classical bound: a local model must exist"
        lp_expected = "Satisfiable"
    else:
        lp_ok = True
        lp_note = (f"{subject} at the classical boundary, within {band:g}: "
                   "either outcome is consistent")
        lp_expected = type(lp).__name__

    checks = (
        exact_check("classical_bound_exact", 2.0, bound,
                    note="brute force over the 16 deterministic strategies"),
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
    params = {"angles": [a1, a2, b1, b2]}
    return ScenarioReport("chsh", params, tuple(quantities), checks)


# ---------------------------------------------------------------------------
# Two-level jump dynamics
# ---------------------------------------------------------------------------


def dynamics_scenario(
    steps: int = 2010,
    trajectories: int = 20_000,
    seed: int = 0,
    *,
    trajectory_out=None,
    tol: Tolerance = DEFAULT_TOL,
) -> ScenarioReport:
    """Evolve spin-up under H = sigma_x / 2 over one period in ``steps``
    steps, check the z weights against cos^2/sin^2 of half the elapsed angle,
    and sample ``trajectories`` jump paths against them at ten times.  With
    ``trajectory_out``, one further sampled path (seed + 1) is written there
    as TSV rows.
    """
    h = Operator(np.array([[0.0, 0.5], [0.5, 0.0]], dtype=np.complex128))
    observable = ObservableSpec.from_eigenbasis(
        [basis_vector(2, 0), basis_vector(2, 1)], labels=("up", "down"), tol=tol
    )
    if steps < 10:
        raise ValueError("dynamics demo needs at least 10 steps")
    spec = EvolutionSpec(h, dt=2.0 * np.pi / steps, steps=steps, tol=tol)
    traj = evolve_possibility(basis_vector(2, 0), observable, spec)

    grid = traj.times
    closed_up = np.cos(grid / 2.0) ** 2
    weight_err = float(np.abs(traj.weights[:, 0] - closed_up).max())

    stride = steps // 10
    idx = np.arange(1, 11) * stride
    marg = sample_marginals(traj, seed, trajectories, idx)
    tv = marg.total_variation()

    if trajectory_out is not None:
        ptraj = jump_process(traj, seed + 1)  # walks the chain the ensemble did
        with trajectory_out.open("w") as f:
            f.writelines(row + "\n" for row in trajectory_rows(ptraj, traj))

    sigma = 0.5 / np.sqrt(trajectories)
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
    params = {"steps": steps, "trajectories": trajectories, "seed": seed}
    return ScenarioReport("dynamics", params, quantities, checks)


# ---------------------------------------------------------------------------
# Determinate sublattice of a random state
# ---------------------------------------------------------------------------


def determinate_scenario(
    dim: int = 4,
    seed: int = 0,
    observable: str = "maximal",
    *,
    tol: Tolerance = DEFAULT_TOL,
) -> ScenarioReport:
    """Build the determinate sublattice of a seeded Haar-random state in
    ``dim`` dimensions, for a random nondegenerate observable ("maximal") or
    the single-eigenspace one ("identity"), and re-verify its weights,
    membership, Born measure and complement.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if observable not in ("maximal", "identity"):
        raise ValueError(f"observable must be 'maximal' or 'identity', got {observable!r}")
    rng = np.random.default_rng(seed)
    psi = random_state(dim, rng)
    if observable == "identity":
        spec = ObservableSpec.identity(dim)
    else:
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, _ = np.linalg.qr(m)
        spec = ObservableSpec.from_eigenbasis(
            [ComplexVector(q[:, i]) for i in range(dim)],
            labels=tuple(f"e{i}" for i in range(dim)),
            tol=tol,
        )
    d = build_determinate(psi, spec, tol=tol)
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
        exact_check("projected_rays_are_members", True, member_ok),
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
    quantities = tuple(Quantity(k, v) for k, v in sorted(d.to_report().items()))
    params = {"dim": dim, "seed": seed, "observable": observable}
    return ScenarioReport("determinate", params, quantities, checks)
