"""End-to-end scenario drivers emitting verifiable reports.

Each scenario builds its states and operators from scratch, computes the
advertised quantities two independent ways where possible, and returns a
ScenarioReport whose checks all pass at default tolerances.
"""
from __future__ import annotations

import numpy as np

from .determinate import (
    ObservableSpec,
    born_check,
    build_determinate,
    contains,
    extend_and_check,
    property_states,
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
    reduced_state,
    tensor,
)
from .report import Check, Quantity, ScenarioReport, close_check, format_complex

__all__ = [
    "correspondence_scenario",
    "decoherence_scenario",
    "epr_scenario",
    "teleportation_scenario",
]

_UP = np.array([1.0, 0.0], dtype=np.complex128)
_DOWN = np.array([0.0, 1.0], dtype=np.complex128)


def _cyclic_shift(dim: int, by: int = 1) -> np.ndarray:
    """Permutation matrix sending index j to (j + by) mod dim."""
    m = np.zeros((dim, dim))
    for j in range(dim):
        m[(j + by) % dim, j] = 1.0
    return m


def _position_observable(
    layout: RegisterLayout, factor_names: tuple[str, ...], symbols: "list[list[str]]"
) -> ObservableSpec:
    """Eigenspaces of a joint position reading on the named registers, one
    per combination of position indices."""
    dims = [layout.dims[layout.axis(n)] for n in factor_names]
    labels: list[str] = []
    spaces: list[Subspace] = []
    for combo in np.ndindex(*dims):
        sel = dict(zip(factor_names, combo))
        cols = []
        for full in np.ndindex(*layout.dims):
            idx = dict(zip(layout.names, full))
            if all(idx[n] == sel[n] for n in factor_names):
                flat = np.ravel_multi_index(full, layout.dims)
                cols.append(basis_vector(layout.dim, flat).amplitudes)
        spaces.append(Subspace.from_vectors(cols, ambient_dim=layout.dim))
        if len(dims) == 1:
            labels.append(symbols[0][combo[0]])
        else:
            labels.append("(" + ",".join(symbols[k][combo[k]] for k in range(len(dims))) + ")")
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
    singlet = tensor(ComplexVector(_UP), ComplexVector(_DOWN)).add(
        tensor(ComplexVector(_DOWN), ComplexVector(_UP)).scaled(-1)
    ).scaled(1 / np.sqrt(2))
    psi0 = tensor(singlet, r0, r0)

    # spin1-controlled shift of pos1: up moves +1 (to "+"), down moves -1
    u_local = np.kron(np.outer(_UP, _UP.conj()), _cyclic_shift(3, +1)) + np.kron(
        np.outer(_DOWN, _DOWN.conj()), _cyclic_shift(3, -1)
    )
    u_pre = embed(Operator(u_local), layout, ("spin1", "pos1"))
    psi1 = ComplexVector(u_pre.entries @ psi0.amplitudes)

    observable = _position_observable(layout, ("pos1", "pos2"), [sym, sym])
    d_before = build_determinate(psi0, observable, tol=tol)
    d_after = build_determinate(psi1, observable, tol=tol)

    p_up2 = embed(Operator(np.outer(_UP, _UP.conj())), layout, ("spin2",))
    p_down2 = embed(Operator(np.outer(_DOWN, _DOWN.conj())), layout, ("spin2",))
    v_up2 = Subspace.from_projector(layout.dim, p_up2.entries)
    v_down2 = Subspace.from_projector(layout.dim, p_down2.entries)

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
    born = born_check(d_after, v_up2)

    checks = (
        Check(
            "rays_before",
            passed=len(d_before.projected_rays) == 1,
            expected=1,
            actual=len(d_before.projected_rays),
            tolerance=0.0,
            note="initial state occupies a single position pair",
        ),
        Check(
            "rays_after",
            passed=len(d_after.projected_rays) == 2,
            expected=2,
            actual=len(d_after.projected_rays),
            tolerance=0.0,
            note="premeasurement splits the state over two pointer readings",
        ),
        close_check(
            "weights_after_half",
            expected=0.0,
            actual=float(max(abs(w - 0.5) for w in weights_after)),
            tolerance=1e-12,
            note="largest deviation of a branch weight from 1/2",
        ),
        Check(
            "side2_zspin_member_before",
            passed=member_before is False,
            expected=False,
            actual=member_before,
            tolerance=0.0,
            note="z-spin of side 2 not determinate before premeasurement",
        ),
        Check(
            "side2_zspin_member_after",
            passed=member_after is True,
            expected=True,
            actual=member_after,
            tolerance=0.0,
            note="z-spin of side 2 determinate after premeasurement on side 1",
        ),
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
    c_plus: complex,
    c_minus: complex,
    seed: int,
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

    full0 = np.einsum(
        "c,ab,p,q->cabpq",
        psi_c.amplitudes,
        pair_ab.amplitudes.reshape(2, 2),
        r0a.amplitudes,
        r0b.amplitudes,
    ).reshape(layout.dim)
    phi0 = ComplexVector(full0)

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

    rng = np.random.default_rng(seed)
    probs = np.array([s.probability for s in states])
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    pick = int((rng.random() >= cum[:-1]).sum())
    selected = states[pick]

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

    # outcome histogram over `samples` further seeded selections
    u = rng.random(samples)
    picks = (u[:, None] >= cum[None, :-1]).sum(axis=1)
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
        Check(
            "four_property_states",
            passed=len(states) == 4,
            expected=4,
            actual=len(states),
            tolerance=0.0,
        ),
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
    n_env: int,
    overlap_angle: float,
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
    """
    if n_env < 0:
        raise ValueError(f"n_env must be >= 0, got {n_env}")
    alpha, beta = 0.6, 0.8
    c = float(np.cos(overlap_angle))

    # product of per-qubit tag overlaps, computed as an actual product
    overlap = float(np.prod(np.full(n_env, c))) if n_env else 1.0
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
        e0 = np.array([1.0, 0.0], dtype=np.complex128)
        e1 = np.array([np.cos(overlap_angle), np.sin(overlap_angle)], dtype=np.complex128)
        branch0 = e0
        branch1 = e1
        for _ in range(n_env - 1):
            branch0 = np.kron(branch0, e0)
            branch1 = np.kron(branch1, e1)
        if n_env == 0:
            branch0 = branch1 = np.ones(1, dtype=np.complex128)
        full = np.concatenate([alpha * branch0, beta * branch1])
        layout = RegisterLayout((("pointer", 2), ("env", max(2**n_env, 1))))
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
        checks.append(
            Check(
                "pointer_branch_not_addable",
                passed=verdict.is_contradiction,
                expected="contradiction",
                actual=verdict.verdict,
                tolerance=0.0,
                note="adding the branch ray forces an uncolorable ray set",
            )
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


def correspondence_scenario(n_max: int) -> ScenarioReport:
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
    checks = [
        Check(
            "small_n_gross_disagreement",
            passed=anchor == 3.0,
            expected=3.0,
            actual=anchor,
            tolerance=0.0,
            note="lowest transition runs at triple the orbital frequency",
        ),
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
                passed=bool(
                    max(abs(_ratio(n_max, m) - 1.0) for m in (1, 2, 3))
                    < max(abs(_ratio(10, m) - 1.0) for m in (1, 2, 3))
                ),
                expected="defect shrinks from n=10 to n=n_max",
                actual=round(max(abs(_ratio(n_max, m) - 1.0) for m in (1, 2, 3)), 12),
                tolerance=0.0,
            )
        )
    quantities = (
        Quantity("ratio_table_small_n", table, note="[n, m, ratio] rows"),
        Quantity(
            "largest_defect_at_n_max",
            round(max(abs(_ratio(n_max, m) - 1.0) for m in range(1, min(3, n_max - 1) + 1)), 12),
        ),
    )
    return ScenarioReport("correspond", {"n_max": n_max}, quantities, tuple(checks))
