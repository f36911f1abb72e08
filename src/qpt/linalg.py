"""Finite-dimensional complex linear algebra: state vectors, operators, and
labeled tensor-product registers with partial traces."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimMismatch,
    NotDensityOperator,
    UnknownFactor,
    ZeroVector,
)


#: smallest accepted eps. Rank cuts compare singular values of unit-norm
#: bases with eps, and rounding leaves ~1e-16 where a value is exactly 0
#: (numpy.linalg.matrix_rank's default cut is n * 2**-52): below about 1e-16
#: that noise counts as rank. The floor stays two decades above that cliff.
EPS_FLOOR = 1e-13


@dataclass(frozen=True)
class Tolerance:
    """Numerical tolerance for all approximate comparisons."""

    eps: float = 1e-9

    def __post_init__(self) -> None:
        if not EPS_FLOOR <= self.eps < 1.0:
            raise ValueError(f"eps must lie in [{EPS_FLOOR:g}, 1), got {self.eps}")


DEFAULT_TOL = Tolerance()


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=np.complex128, copy=True)
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError("non-finite entries")
    arr.setflags(write=False)
    return arr


def _scaled_norm(amps: np.ndarray) -> tuple[np.ndarray, float, float]:
    """``(amps / scale, scale, norm of amps / scale)``. The scale is 1 unless
    the plain norm overflows; then it is the largest ``|re|`` or ``|im|``."""
    with np.errstate(over="ignore"):
        n = float(np.linalg.norm(amps))
    if np.isfinite(n):
        return amps, 1.0, n
    scale = float(np.maximum(abs(amps.real), abs(amps.imag)).max())
    return amps / scale, scale, float(np.linalg.norm(amps / scale))


@dataclass(frozen=True, eq=False)
class ComplexVector:
    """Immutable complex column vector."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = _freeze(self.amplitudes)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("amplitudes must be a nonempty 1-D array")
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def norm(self) -> float:
        _, scale, n = _scaled_norm(self.amplitudes)
        return scale * n

    def inner(self, other: "ComplexVector") -> complex:
        """Hermitian inner product <self|other> (conjugate-linear in self)."""
        if self.dim != other.dim:
            raise DimMismatch(f"dims {self.dim} vs {other.dim}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def normalized(self, tol: Tolerance = DEFAULT_TOL) -> "ComplexVector":
        amps, _, n = _scaled_norm(self.amplitudes)
        if n <= tol.eps:
            raise ZeroVector(f"norm {n} below eps {tol.eps}")
        return ComplexVector(amps / n)


@dataclass(frozen=True, eq=False)
class Operator:
    """Immutable square complex matrix."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = _freeze(self.entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
            raise ValueError("entries must be a nonempty square matrix")
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def is_hermitian(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        scale = max(1.0, float(np.abs(self.entries).max()))
        return bool(np.abs(self.entries - self.entries.conj().T).max() <= tol.eps * scale)

    def spectral_norm(self) -> float:
        return float(np.linalg.norm(self.entries, 2))


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered, named tensor factors making up a composite register."""

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        factors = tuple((str(name), int(d)) for name, d in self.factors)
        names = [name for name, _ in factors]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate factor names in {names}")
        if not factors or any(d < 1 for _, d in factors):
            raise ValueError("layout needs at least one factor of dim >= 1")
        object.__setattr__(self, "factors", factors)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.factors)

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    def axis(self, name: str) -> int:
        for i, (n, _) in enumerate(self.factors):
            if n == name:
                return i
        raise UnknownFactor(f"no factor named {name!r} in {self.names}")


def basis_vector(dim: int, index: int) -> ComplexVector:
    v = np.zeros(dim, dtype=np.complex128)
    v[index] = 1.0
    return ComplexVector(v)


def random_state(dim: int, rng: np.random.Generator) -> ComplexVector:
    """Haar-random unit vector."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return ComplexVector(v).normalized()


def tensor(*factors):
    """Kronecker product of vectors or of operators (left to right)."""
    if len(factors) < 2:
        raise TypeError("tensor needs at least two factors")
    if all(isinstance(f, ComplexVector) for f in factors):
        out = factors[0].amplitudes
        for f in factors[1:]:
            out = np.kron(out, f.amplitudes)
        return ComplexVector(out)
    if all(isinstance(f, Operator) for f in factors):
        out = factors[0].entries
        for f in factors[1:]:
            out = np.kron(out, f.entries)
        return Operator(out)
    raise TypeError("tensor needs all vectors or all operators")


def _axes_for(layout: RegisterLayout, keep) -> tuple[list[int], list[int]]:
    keep_axes = [layout.axis(n) for n in keep]
    if len(set(keep_axes)) != len(keep_axes):
        raise ValueError(f"repeated factor in keep={tuple(keep)}")
    drop_axes = [i for i in range(len(layout.factors)) if i not in keep_axes]
    return keep_axes, drop_axes


def partial_trace(
    rho: Operator,
    layout: RegisterLayout,
    keep,
    tol: Tolerance = DEFAULT_TOL,
) -> Operator:
    """Trace out every factor not named in ``keep``.

    Kept factors retain their relative order from the layout.
    """
    if rho.dim != layout.dim:
        raise DimMismatch(f"operator dim {rho.dim} vs layout dim {layout.dim}")
    if not rho.is_hermitian(tol):
        raise NotDensityOperator("not Hermitian within eps")
    tr = complex(np.trace(rho.entries))
    if abs(tr - 1.0) > tol.eps * rho.dim:
        raise NotDensityOperator(f"trace {tr} is not 1 within eps")
    if float(np.linalg.eigvalsh(rho.entries).min()) < -tol.eps * rho.dim:
        raise NotDensityOperator("negative eigenvalue beyond eps")

    keep_axes, drop_axes = _axes_for(layout, keep)
    keep_axes.sort()
    dims = layout.dims
    k = len(dims)
    t = rho.entries.reshape(dims + dims)
    # move kept row/col axes to the front, traced axes to the back
    perm = (
        keep_axes
        + [k + a for a in keep_axes]
        + drop_axes
        + [k + a for a in drop_axes]
    )
    dk = int(np.prod([dims[a] for a in keep_axes], initial=1))
    dr = int(np.prod([dims[a] for a in drop_axes], initial=1))
    t = t.transpose(perm).reshape(dk, dk, dr, dr)
    return Operator(np.einsum("abrr->ab", t))


def reduced_state(
    psi: ComplexVector,
    layout: RegisterLayout,
    keep,
) -> Operator:
    """Reduced density operator of a pure state, via the Gram form.

    Equivalent to partial_trace of |psi><psi| but never materializes the
    full-dimension density matrix.
    """
    if psi.dim != layout.dim:
        raise DimMismatch(f"vector dim {psi.dim} vs layout dim {layout.dim}")
    keep_axes, drop_axes = _axes_for(layout, keep)
    keep_axes.sort()
    dims = layout.dims
    dk = int(np.prod([dims[a] for a in keep_axes], initial=1))
    m = psi.amplitudes.reshape(dims).transpose(keep_axes + drop_axes).reshape(dk, -1)
    return Operator(m @ m.conj().T)


def embed(
    op: Operator,
    layout: RegisterLayout,
    names,
    ) -> Operator:
    """Extend an operator acting on the named factors to the full layout
    (identity elsewhere). The operator's factor order must match ``names``."""
    names = list(names)
    sub_axes = [layout.axis(n) for n in names]
    if len(set(sub_axes)) != len(sub_axes):
        raise ValueError(f"repeated factor in names={names}")
    dims = layout.dims
    dsub = int(np.prod([dims[a] for a in sub_axes], initial=1))
    if op.dim != dsub:
        raise DimMismatch(f"operator dim {op.dim} vs named factors dim {dsub}")
    rest_axes = [i for i in range(len(dims)) if i not in sub_axes]
    drest = int(np.prod([dims[a] for a in rest_axes], initial=1))
    big = np.kron(op.entries, np.eye(drest, dtype=np.complex128))
    # permutation taking full index -> (named factors, rest) mixed-radix index
    order = sub_axes + rest_axes
    idx = np.arange(layout.dim).reshape(dims).transpose(order).reshape(-1)
    out = np.empty_like(big)
    out[np.ix_(idx, idx)] = big
    return Operator(out)


#: relative magnitude below which ``canonical_phase`` passes over a component
PHASE_CUT = 1e-12


def canonical_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the first significant component is real
    positive: of a 1-D vector, or of each column of an array whose last two
    axes are (components, columns). A column whose largest component is at
    most ``PHASE_CUT`` comes back unchanged. Each column is divided by
    ``pv / hypot(pv.real, pv.imag)`` for its first significant entry ``pv``:
    ``hypot`` is the scalar ``abs`` bit for bit, the array ``np.abs`` is not."""
    cols = v[..., None] if v.ndim == 1 else v
    mags = np.abs(cols)
    top = mags.max(axis=-2, keepdims=True)
    live = top > PHASE_CUT
    lead = np.argmax(mags > PHASE_CUT * top, axis=-2)
    pv = np.where(live, np.take_along_axis(cols, lead[..., None, :], axis=-2), 1)
    return np.where(live, cols / (pv / np.hypot(pv.real, pv.imag)), cols).reshape(v.shape)


def orthonormalize(vectors, tol: Tolerance = DEFAULT_TOL) -> list[ComplexVector]:
    """Modified Gram-Schmidt. Inputs below the rank threshold are dropped;
    deterministic given input order; output phases are canonical."""
    vecs = [v.amplitudes if isinstance(v, ComplexVector) else np.asarray(v, complex)
            for v in vectors]
    if not vecs:
        return []
    dims = {v.shape[0] for v in vecs}
    if len(dims) != 1:
        raise DimMismatch(f"mixed dims {sorted(dims)}")
    with np.errstate(over="ignore"):
        scale = max(float(np.linalg.norm(v)) for v in vecs)
    if not np.isfinite(scale):  # overflowed: shrink all by one factor, the largest |re| or |im|
        top = max(float(np.maximum(abs(v.real), abs(v.imag)).max()) for v in vecs)
        vecs = [v / top for v in vecs]
        scale = max(float(np.linalg.norm(v)) for v in vecs)
    if scale == 0.0:
        return []
    out: list[np.ndarray] = []
    for v in vecs:
        w = v.astype(np.complex128)
        for u in out:
            w = w - u * np.vdot(u, w)
        # second pass for numerical orthogonality
        for u in out:
            w = w - u * np.vdot(u, w)
        n = float(np.linalg.norm(w))
        if n > tol.eps * scale:
            out.append(canonical_phase(w / n))
    return [ComplexVector(u) for u in out]
