"""No-go machinery: noncontextual {0,1}-assignment search on finite ray sets,
local-hidden-variable feasibility for bipartite correlation tables, and the
CHSH quantity with its brute-force classical bound."""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimMismatch, RayFileError, TableShapeMismatch, ZeroVector
from .lattice import _two_valued
from .linalg import DEFAULT_TOL, ComplexVector, Operator, Tolerance, canonical_phase


@dataclass(frozen=True, eq=False)
class RaySet:
    """Unit rays in a common dimension, with measurement contexts derived as
    the maximal mutually-orthogonal subsets of size equal to the dimension.
    Two rays are orthogonal at |<a, b>| <= tol.eps * dim and coincide at
    |<a, b>| >= 1 - tol.eps * dim."""

    rays: tuple[ComplexVector, ...]
    tol: Tolerance = DEFAULT_TOL

    def __post_init__(self) -> None:
        rays = list(self.rays)
        if not rays:
            raise ValueError("empty ray set")
        dim = rays[0].dim
        tol = self.tol
        for k, r in enumerate(rays):
            if r.dim != dim:
                raise DimMismatch(f"mixed dims {dim} vs {r.dim}")
            n = r.norm()
            if abs(n - 1.0) > 1e-6:
                raise ValueError("rays must be unit vectors")
            rays[k] = ComplexVector(r.amplitudes / n)
        rays = tuple(rays)
        object.__setattr__(self, "rays", rays)
        amps = np.array([r.amplitudes for r in rays])
        ov = np.abs(amps.conj() @ amps.T)
        coincide = np.argwhere(np.triu(ov >= 1.0 - tol.eps * dim, 1))
        if len(coincide):
            i, j = coincide[0]
            raise ValueError(f"rays {i} and {j} coincide up to phase")
        orth = np.triu(ov <= tol.eps * dim, 1)
        orth |= orth.T
        object.__setattr__(self, "_orth", orth)
        object.__setattr__(self, "contexts", _dim_cliques(orth, dim))

    @property
    def dim(self) -> int:
        return self.rays[0].dim

    def orthogonal(self, i: int, j: int) -> bool:
        return bool(self._orth[i, j])

    @classmethod
    def from_vectors(cls, vectors, tol: Tolerance = DEFAULT_TOL) -> "RaySet":
        rays = []
        for v in vectors:
            vec = v if isinstance(v, ComplexVector) else ComplexVector(np.asarray(v, complex))
            rays.append(ComplexVector(canonical_phase(vec.normalized(tol).amplitudes)))
        return cls(tuple(rays), tol)

    @classmethod
    def from_file(cls, path, tol: Tolerance = DEFAULT_TOL) -> "RaySet":
        """Parse a ray file: one ray per line, comma-separated complex
        components (re+imj form), '#' starts a comment, dimension inferred."""
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise RayFileError(f"{path}: {exc}") from exc
        vectors = []
        dim = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                comps = [complex(tok.strip().replace(" ", "")) for tok in line.split(",")]
            except ValueError as exc:
                raise RayFileError(f"{path}:{lineno}: {exc}") from exc
            if dim is None:
                dim = len(comps)
            elif len(comps) != dim:
                raise RayFileError(
                    f"{path}:{lineno}: expected {dim} components, got {len(comps)}")
            vectors.append(np.asarray(comps, dtype=complex))
        if not vectors:
            raise RayFileError(f"{path}: no rays found")
        if dim < 2:
            raise RayFileError(f"{path}: rays need at least 2 components, got {dim}")
        try:
            return cls.from_vectors(vectors, tol)
        except (ValueError, ZeroVector, DimMismatch) as exc:
            raise RayFileError(f"{path}: {exc}") from exc


def _dim_cliques(orth: np.ndarray, dim: int) -> tuple[tuple[int, ...], ...]:
    """The maximal cliques of size dim of the orthogonality graph, in
    lexicographic order: every size-dim clique that no further ray is
    orthogonal to all of."""
    adj = [set(np.flatnonzero(row).tolist()) for row in orth]
    found: list[tuple[int, ...]] = []

    def grow(clique: list, cands: list) -> None:
        if len(clique) + len(cands) < dim:
            return
        if len(clique) == dim:
            if not orth[:, clique].all(axis=1).any():
                found.append(tuple(clique))
            return
        for vtx in cands:
            grow(clique + [vtx], [u for u in cands if u > vtx and u in adj[vtx]])

    grow([], list(range(len(orth))))
    return tuple(found)


@dataclass(frozen=True)
class Assignment:
    """A noncontextual truth assignment: values[i] for ray i."""

    values: tuple[int, ...]


@dataclass(frozen=True)
class NoAssignment:
    """Unsatisfiability witness: a deletion-minimal core of context indices."""

    witness: tuple[int, ...]


def _assign(rs: RaySet, chosen) -> "tuple[int, ...] | None":
    """The lexicographically first assignment (0 preferred) under the contexts
    ``chosen`` (indices into ``rs.contexts``), or None: the first two-valued
    homomorphism of relations over the rays of those contexts, elements 2, 3,
    ... in ray order. Each orthogonal pair of them meets in element 0 (the
    zero element), and each context's rays join to element 1 (the full
    element) through a chain of partial-span elements, so a context holds
    exactly one ray valued 1. Rays outside the contexts carry no constraint
    and are reported 0."""
    contexts = [rs.contexts[ci] for ci in chosen]
    live = sorted({i for ctx in contexts for i in ctx})
    elem = {ray: e for e, ray in enumerate(live, start=2)}
    pairs = np.argwhere(np.triu(rs._orth[np.ix_(live, live)], 1)) + 2
    rels = [("meet", i, j, 0) for i, j in pairs.tolist()]
    n = 2 + len(live)
    for ctx in contexts:
        span = elem[ctx[0]]
        for ray in ctx[1:-1]:
            rels.append(("join", span, elem[ray], n))
            span, n = n, n + 1
        rels.append(("join", span, elem[ctx[-1]], 1))
    vals = _two_valued(n, rels, node_cap=None)
    if vals is False:
        return None
    return tuple(vals[elem[i]] if i in elem else 0 for i in range(len(rs.rays)))


def find_assignment(
    rs: RaySet,
    restrict_to: "tuple[int, ...] | None" = None,
) -> "Assignment | NoAssignment":
    """Search for a noncontextual assignment. With ``restrict_to`` (context
    indices), only those contexts and the rays occurring in them constrain the
    search; used to re-verify unsatisfiable cores."""
    if rs.dim < 2:
        raise ValueError("assignment search requires dim >= 2")
    sol = _assign(rs, range(len(rs.contexts)) if restrict_to is None else restrict_to)
    if sol is not None:
        return Assignment(values=sol)
    if restrict_to is not None:
        return NoAssignment(witness=tuple(restrict_to))

    # deletion-minimal unsatisfiable core over contexts
    core = list(range(len(rs.contexts)))
    for ci in list(core):
        trial = [c for c in core if c != ci]
        if _assign(rs, trial) is None:
            core = trial
    return NoAssignment(witness=tuple(core))


@dataclass(frozen=True)
class Satisfiable:
    """The table is a convex mixture of deterministic local strategies, with
    these weights per strategy pair."""

    weights: tuple[float, ...]


@dataclass(frozen=True)
class Unsatisfiable:
    """No local model: minimal L1 residual over all mixtures is positive."""

    residual: float


#: the resolution of ``local_map_search``: HiGHS's default primal feasibility
#: tolerance, per table entry. A table this close to a local one may be
#: decided either way.
FEASIBILITY_TOL = 1e-7

#: most deterministic strategies ``_local_strategies`` enumerates per ray set
_STRATEGY_CAP = 4096


def _local_strategies(rs: RaySet) -> list[tuple[int, ...]]:
    """All noncontextual assignments of the ray set, each mapped to its
    per-context outcome (index of the ray valued 1 within each context).

    Rays of one context are mutually orthogonal, so one ray per context,
    pairwise non-orthogonal, is exactly one 1 per context; rays in no context
    can be 0, so these choices are all the outcomes."""
    out: set[tuple[int, ...]] = set()
    for choice in itertools.product(*rs.contexts):
        if any(rs.orthogonal(i, j) for i, j in itertools.combinations(choice, 2)):
            continue
        out.add(tuple(ctx.index(r) for ctx, r in zip(rs.contexts, choice)))
        if len(out) > _STRATEGY_CAP:
            raise ValueError("too many deterministic strategies to enumerate")
    return sorted(out)


def local_map_search(
    rs_a: RaySet,
    rs_b: RaySet,
    table: np.ndarray,
) -> "Satisfiable | Unsatisfiable":
    """Decide whether the correlation table (settings x settings x outcomes x
    outcomes) is a convex mixture of deterministic local assignment pairs, by
    one linear program at ``FEASIBILITY_TOL``: the least L1 distance from
    ``[table; 1]`` to ``[A; 1ᵀ] w``, ``w >= 0``, over the strategy-pair columns
    ``A``. Exactly 0 gives ``Satisfiable`` with the optimal ``w``, a positive
    optimum ``Unsatisfiable`` with it as the residual."""
    # imported here, not at module level: loading scipy.optimize would
    # dominate `import qpt`, and only this function needs it
    from scipy.optimize import linprog

    na, nb = len(rs_a.contexts), len(rs_b.contexts)
    if na == 0 or nb == 0:
        raise ValueError("each side needs at least one complete context")
    if na > 4 or nb > 4:
        raise ValueError("local map search is limited to <= 4 settings per side")
    table = np.asarray(table, dtype=float)
    expect = (na, nb, rs_a.dim, rs_b.dim)
    if table.shape != expect:
        raise TableShapeMismatch(f"table shape {table.shape}, expected {expect}")

    strat_a = _local_strategies(rs_a)
    strat_b = _local_strategies(rs_b)
    if not strat_a or not strat_b:
        return Unsatisfiable(residual=float(np.abs(table).sum()))
    # one column per strategy pair, a's strategy major: the table of outcomes
    # it fixes, entry [x, y, sa[x], sb[y]] = 1
    one_a = np.eye(rs_a.dim)[np.array(strat_a)]
    one_b = np.eye(rs_b.dim)[np.array(strat_b)]
    vertices = np.einsum("ixa,jyb->ijxyab", one_a, one_b).reshape(-1, table.size)
    nvar, nrow = len(vertices), table.size + 1
    a_eq = np.vstack([vertices.T, np.ones((1, nvar))])
    a_slack = np.hstack([a_eq, np.eye(nrow), -np.eye(nrow)])
    cost = np.concatenate([np.zeros(nvar), np.ones(2 * nrow)])
    res = linprog(cost, A_eq=a_slack, b_eq=np.append(table.ravel(), 1.0), method="highs",
                  options={"primal_feasibility_tolerance": FEASIBILITY_TOL})
    if res.status != 0:
        return Unsatisfiable(residual=float("inf"))
    if res.fun == 0.0:
        weights = np.maximum(res.x[:nvar], 0.0)
        return Satisfiable(weights=tuple(float(w) for w in weights))
    return Unsatisfiable(residual=float(res.fun))


@dataclass(frozen=True)
class ChshSetting:
    """Two measurement angles per side, radians, x-z plane."""

    alice_angles: tuple[float, float]
    bob_angles: tuple[float, float]

    def __post_init__(self) -> None:
        angles = tuple(self.alice_angles) + tuple(self.bob_angles)
        if len(angles) != 4 or not all(np.isfinite(a) for a in angles):
            raise ValueError("need four finite angles")
        object.__setattr__(self, "alice_angles", tuple(float(a) for a in self.alice_angles))
        object.__setattr__(self, "bob_angles", tuple(float(a) for a in self.bob_angles))

    @classmethod
    def optimal(cls) -> "ChshSetting":
        """Angles maximizing the CHSH combination for the singlet under this
        sign convention (value 2*sqrt(2))."""
        return cls(alice_angles=(0.0, np.pi / 2), bob_angles=(np.pi / 4, -np.pi / 4))


def spin_observable(theta: float) -> Operator:
    """Spin measurement along angle theta in the x-z plane: cos(t) Z + sin(t) X."""
    c, s = np.cos(theta), np.sin(theta)
    return Operator(np.array([[c, s], [s, -c]], dtype=complex))


def measurement_rays(theta: float) -> tuple[ComplexVector, ComplexVector]:
    """Eigenrays (+1, -1) of the x-z plane spin observable at angle theta."""
    h = theta / 2.0
    plus = np.array([np.cos(h), np.sin(h)], dtype=complex)
    minus = np.array([-np.sin(h), np.cos(h)], dtype=complex)
    return (ComplexVector(canonical_phase(plus)), ComplexVector(canonical_phase(minus)))


def singlet() -> ComplexVector:
    v = np.zeros(4, dtype=complex)
    v[1], v[2] = 1.0, -1.0
    return ComplexVector(v / np.sqrt(2.0))


def correlator(state: ComplexVector, theta_a: float, theta_b: float) -> float:
    """Born-rule two-qubit correlator E(a, b)."""
    if state.dim != 4:
        raise DimMismatch(f"state dim {state.dim}, expected 4 (two qubits)")
    ab = np.kron(spin_observable(theta_a).entries, spin_observable(theta_b).entries)
    return float(np.real(np.vdot(state.amplitudes, ab @ state.amplitudes)))


def chsh_value(state: ComplexVector, setting: ChshSetting) -> float:
    """|E(a1,b1) + E(a1,b2) + E(a2,b1) - E(a2,b2)|."""
    a1, a2 = setting.alice_angles
    b1, b2 = setting.bob_angles
    return abs(
        correlator(state, a1, b1)
        + correlator(state, a1, b2)
        + correlator(state, a2, b1)
        - correlator(state, a2, b2)
    )


def chsh_lhv_bound() -> float:
    """Classical bound by brute force over the 16 deterministic strategies."""
    best = 0.0
    for bits in itertools.product((1, -1), repeat=4):
        a1, a2, b1, b2 = bits
        best = max(best, abs(a1 * b1 + a1 * b2 + a2 * b1 - a2 * b2))
    return float(best)


def correlation_table(state: ComplexVector, setting: ChshSetting) -> np.ndarray:
    """Born-rule outcome table p(a, b | x, y) for the four angle pairs."""
    if state.dim != 4:
        raise DimMismatch(f"state dim {state.dim}, expected 4 (two qubits)")
    table = np.zeros((2, 2, 2, 2))
    for x, ta in enumerate(setting.alice_angles):
        for y, tb in enumerate(setting.bob_angles):
            for a, ra in enumerate(measurement_rays(ta)):
                for b, rb in enumerate(measurement_rays(tb)):
                    amp = np.vdot(np.kron(ra.amplitudes, rb.amplitudes), state.amplitudes)
                    table[x, y, a, b] = float(np.abs(amp) ** 2)
    return table


def setting_ray_sets(setting: ChshSetting) -> tuple[RaySet, RaySet]:
    """Per-side ray sets whose derived contexts are the two measurement bases,
    ordered to match the correlation table axes."""
    ray_sets = []
    for side, (t1, t2) in (("alice", setting.alice_angles), ("bob", setting.bob_angles)):
        try:
            ray_sets.append(RaySet.from_vectors([*measurement_rays(t1), *measurement_rays(t2)]))
        except ValueError as exc:  # finite angles give unit rays: two rays coincide
            raise ValueError(
                f"{side}'s angles {t1:.12g} and {t2:.12g} name one observable up to "
                "phase: they lie within about 1e-4 rad of each other, modulo pi"
            ) from exc
    return ray_sets[0], ray_sets[1]
