"""Subspace-lattice arithmetic over C^d.

The ortholattice of linear subspaces of a finite-dimensional complex
space, together with the Sasaki operations used by the possibilistic
semantics.  A subspace is stored as a matrix with orthonormal columns;
every rank decision goes through singular values, so degenerate spans,
the null space (rank 0) and the full space (rank d) are all ordinary
values of the same type.

Equality and containment are tolerance-based.  Two thresholds matter:
``rank_tol`` cuts singular values when deciding the rank of a span, and
``eq_tol`` bounds residual norms when deciding containment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "InternalInvariantError",
    "Tolerance",
    "DEFAULT_TOL",
    "UNITARY_TOL",
    "Subspace",
    "UnitaryOp",
    "top",
    "bottom",
    "span_of",
    "ortho",
    "meet",
    "join",
    "leq",
    "eq",
    "sasaki_and",
    "sasaki_and_lattice",
    "sasaki_hook",
    "compatible",
    "projectors_commute",
    "apply_unitary",
    "principal_angles",
    "ray_in_avoiding",
    "subspace_to_json",
    "subspace_from_json",
    "unitary_to_json",
    "unitary_from_json",
    "unitary_deviation",
]

# max-norm deviation of U*U from the identity tolerated at construction
UNITARY_TOL = 1e-8


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


class InternalInvariantError(RuntimeError):
    """A self-check failed.  Indicates a bug in the engine, not bad input."""


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds for rank and containment decisions.

    ``rank_tol`` governs singular-value cuts, ``eq_tol`` governs residual
    norms in containment tests.  Results within a factor of ten of either
    threshold should be treated as unreliable by callers.
    """

    rank_tol: float = 1e-10
    eq_tol: float = 1e-8

    def __post_init__(self) -> None:
        if not (0.0 < self.rank_tol <= self.eq_tol < 1.0):
            raise ValueError(
                f"need 0 < rank_tol <= eq_tol < 1, got rank_tol={self.rank_tol!r} "
                f"eq_tol={self.eq_tol!r}"
            )


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True, eq=False)
class Subspace:
    """A linear subspace of C^dim held as a (dim, rank) orthonormal basis.

    rank 0 is the null space (bottom), rank == dim the full space (top).
    Instances are immutable; the basis array is write-protected.  Equality
    of subspaces is semantic and tolerance-based: use :func:`eq`, never
    ``==`` (which stays object identity).
    """

    dim: int
    basis: np.ndarray

    def __post_init__(self) -> None:
        if self.dim <= 0:
            raise ValueError(f"ambient dimension must be positive, got {self.dim}")
        b = np.array(self.basis, dtype=np.complex128, copy=True)
        if b.ndim != 2 or b.shape[0] != self.dim:
            raise ValueError(f"basis must be a ({self.dim}, rank) matrix, got shape {b.shape}")
        if b.shape[1] > self.dim:
            raise ValueError("rank cannot exceed the ambient dimension")
        if b.shape[1]:
            gram = b.conj().T @ b
            if not np.abs(gram - np.eye(b.shape[1])).max() <= 1e-7:  # NaN fails too
                raise ValueError("basis columns are not orthonormal")
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @property
    def is_bot(self) -> bool:
        return self.rank == 0

    @property
    def is_top(self) -> bool:
        return self.rank == self.dim

    def projector(self) -> np.ndarray:
        """The (dim, dim) orthogonal projector onto this subspace."""
        return self.basis @ self.basis.conj().T

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, rank={self.rank})"


@dataclass(frozen=True, eq=False)
class UnitaryOp:
    """A unitary operator on C^dim.  Construction rejects matrices whose
    deviation from unitarity exceeds ``UNITARY_TOL`` in max-norm."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=np.complex128, copy=True)
        if m.shape != (self.dim, self.dim):
            raise ValueError(f"matrix must be ({self.dim}, {self.dim}), got {m.shape}")
        dev = unitary_deviation(m)
        if not dev <= UNITARY_TOL:  # NaN from a non-finite entry fails too
            raise ValueError(f"matrix is not unitary: max-norm deviation {dev:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def adjoint(self) -> "UnitaryOp":
        return UnitaryOp(self.dim, self.matrix.conj().T)

    def __repr__(self) -> str:
        return f"UnitaryOp(dim={self.dim})"


def unitary_deviation(matrix: np.ndarray) -> float:
    """Max-norm of U*U - I, the quantity reported for non-unitary input.
    Entries near the float range make it inf or NaN, which the unitarity
    checks reject, so numpy's overflow warnings are silenced."""
    m = np.asarray(matrix, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())


def top(dim: int) -> Subspace:
    return Subspace(dim, np.eye(dim, dtype=np.complex128))


def bottom(dim: int) -> Subspace:
    return Subspace(dim, np.zeros((dim, 0), dtype=np.complex128))


def _span_from_matrix(a: np.ndarray, dim: int, tol: Tolerance) -> Subspace:
    if a.shape[1] == 0:
        return bottom(dim)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    # The cut has an absolute floor of rank_tol: columns that are
    # numerically zero (e.g. projections of orthogonal vectors) must not
    # resurface as rank through a purely relative threshold.
    cut = tol.rank_tol * max(1.0, float(s[0]))
    r = int(np.count_nonzero(s > cut))
    return Subspace(dim, u[:, :r])


def span_of(vectors: Iterable[Sequence[complex]], dim: int, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Orthonormalized span of a finite family of vectors in C^dim.

    Accepts dependent, repeated and zero vectors; the empty family gives
    the bottom subspace.  Raises ValueError on a non-finite entry.
    """
    cols = []
    for v in vectors:
        arr = np.asarray(v, dtype=np.complex128).reshape(-1)
        if arr.shape != (dim,):
            raise DimensionMismatchError(f"vector of length {arr.size} in ambient dimension {dim}")
        cols.append(arr)
    if not cols:
        return bottom(dim)
    a = np.column_stack(cols)
    if not np.isfinite(a).all():
        raise ValueError("vector entries must be finite")
    return _span_from_matrix(a, dim, tol)


def _same_dim(p: Subspace, q: Subspace) -> None:
    if p.dim != q.dim:
        raise DimensionMismatchError(f"subspaces of dimension {p.dim} and {q.dim}")


def ortho(p: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Orthogonal complement."""
    if p.rank == 0:
        return top(p.dim)
    if p.rank == p.dim:
        return bottom(p.dim)
    u, _, _ = np.linalg.svd(p.basis, full_matrices=True)
    return Subspace(p.dim, u[:, p.rank:])


def join(p: Subspace, q: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Lattice join: closed span of the union."""
    _same_dim(p, q)
    return _span_from_matrix(np.hstack([p.basis, q.basis]), p.dim, tol)


def meet(p: Subspace, q: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Lattice meet (intersection), computed by De Morgan from join."""
    _same_dim(p, q)
    return ortho(join(ortho(p, tol), ortho(q, tol), tol), tol)


def leq(p: Subspace, q: Subspace, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Containment p <= q, decided by projection residuals of p's basis."""
    _same_dim(p, q)
    if p.rank == 0:
        return True
    if q.rank == 0:
        return False
    resid = p.basis - q.basis @ (q.basis.conj().T @ p.basis)
    return float(np.linalg.norm(resid, axis=0).max()) < tol.eq_tol


def eq(p: Subspace, q: Subspace, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Semantic equality: mutual containment."""
    return leq(p, q, tol) and leq(q, p, tol)


def sasaki_and(p: Subspace, q: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Sasaki conjunction p & q, computed as the image of p under the
    projector onto q.  Agrees with :func:`sasaki_and_lattice`."""
    _same_dim(p, q)
    if p.rank == 0 or q.rank == 0:
        return bottom(p.dim)
    return _span_from_matrix(q.projector() @ p.basis, p.dim, tol)


def sasaki_and_lattice(p: Subspace, q: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Sasaki conjunction by its lattice formula q ^ (q' v p).

    Independent route kept alongside :func:`sasaki_and`; the two are
    cross-checked in the test suite and must agree at tolerance.
    """
    _same_dim(p, q)
    return meet(q, join(ortho(q, tol), p, tol), tol)


def sasaki_hook(p: Subspace, q: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Sasaki hook (residuation) q' v (p ^ q): the largest x with
    sasaki_and(x, q) <= p."""
    _same_dim(p, q)
    return join(ortho(q, tol), meet(p, q, tol), tol)


def compatible(p: Subspace, q: Subspace, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Lattice compatibility: p = (q ^ p) v (q' ^ p).

    Coincides with commutation of the projectors, tested separately via
    :func:`projectors_commute`.
    """
    _same_dim(p, q)
    decomposed = join(meet(q, p, tol), meet(ortho(q, tol), p, tol), tol)
    return eq(p, decomposed, tol)


def projectors_commute(p: Subspace, q: Subspace, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Commutator test for compatibility; independent of the lattice route."""
    _same_dim(p, q)
    pp, pq = p.projector(), q.projector()
    return float(np.abs(pp @ pq - pq @ pp).max()) < tol.eq_tol


def apply_unitary(u: UnitaryOp, p: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Image of a subspace under a unitary; rank is preserved."""
    if u.dim != p.dim:
        raise DimensionMismatchError(f"unitary on C^{u.dim} applied to subspace of C^{p.dim}")
    if p.rank == 0:
        return p
    out = _span_from_matrix(u.matrix @ p.basis, p.dim, tol)
    if out.rank != p.rank:
        raise InternalInvariantError("unitary image changed rank")
    return out


def principal_angles(p: Subspace, q: Subspace) -> np.ndarray:
    """Principal angles (radians, ascending) between two subspaces.

    Small angles come from the sine route (singular values of the
    projection residual); arccos alone loses half the precision near 0.
    """
    _same_dim(p, q)
    if p.rank == 0 or q.rank == 0:
        return np.zeros(0)
    m = p.basis.conj().T @ q.basis
    cos = np.linalg.svd(m, compute_uv=False)
    if p.rank >= q.rank:
        resid = q.basis - p.basis @ m
    else:
        resid = p.basis - q.basis @ m.conj().T
    sin = np.linalg.svd(resid, compute_uv=False)[::-1]
    k = min(p.rank, q.rank)
    cos = np.clip(cos[:k], -1.0, 1.0)
    sin = np.clip(sin[:k], 0.0, 1.0)
    return np.where(cos**2 >= 0.5, np.arcsin(sin), np.arccos(cos))


def _ray_admissible(u: Subspace, p: Subspace, avoid: Sequence[Subspace], tol: Tolerance) -> bool:
    return (
        u.rank == 1
        and leq(u, p, tol)
        and all(not leq(u, q, tol) for q in avoid)
    )


def ray_in_avoiding(
    p: Subspace,
    avoid: Sequence[Subspace],
    tol: Tolerance = DEFAULT_TOL,
    seed: int = 0,
) -> Subspace | None:
    """A rank-1 subspace of p avoiding every member of ``avoid``.

    The caller must supply a nonzero p not contained in any avoided
    subspace; those preconditions are re-checked and ``None`` is returned
    when they fail.  Otherwise a ray always exists (p cannot be a finite
    union of strict subspaces) and one is found by seeded random sampling
    over p's basis, with a deterministic polynomial sweep as fallback.
    The result is self-checked before being returned.
    """
    avoid = list(avoid)
    for q in avoid:
        _same_dim(p, q)
    if p.rank == 0:
        return None
    for q in avoid:
        if leq(p, q, tol):
            return None

    rng = np.random.default_rng(seed)
    r = p.rank
    for _ in range(64):
        coeffs = rng.standard_normal(r) + 1j * rng.standard_normal(r)
        u = _span_from_matrix((p.basis @ coeffs).reshape(-1, 1), p.dim, tol)
        if _ray_admissible(u, p, avoid, tol):
            return u

    # Deterministic fallback: u(t) = sum_k t^(k-1) b_k.  For each avoided
    # q not containing p, membership of u(t) in q is a nonzero polynomial
    # condition of degree < r in t, so at most len(avoid) * (r - 1)
    # distinct t values can fail.
    for i in range(len(avoid) * (r - 1) + 1):
        t = float(i + 1)
        coeffs = t ** np.arange(r)
        u = _span_from_matrix((p.basis @ coeffs).reshape(-1, 1), p.dim, tol)
        if _ray_admissible(u, p, avoid, tol):
            return u
    raise InternalInvariantError("avoidance sweep exhausted; tolerance regime is inconsistent")


def subspace_to_json(p: Subspace) -> dict:
    """JSON form: ambient dimension, rank, and basis vectors as [re, im] pairs."""
    return {
        "dim": p.dim,
        "rank": p.rank,
        "basis": [[[float(z.real), float(z.imag)] for z in col] for col in p.basis.T],
    }


def subspace_from_json(obj: dict, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    dim = int(obj["dim"])
    vectors = [[complex(re, im) for re, im in vec] for vec in obj["basis"]]
    p = span_of(vectors, dim, tol)
    if "rank" in obj and p.rank != int(obj["rank"]):
        raise ValueError(f"stored rank {obj['rank']} but basis spans rank {p.rank}")
    return p


def unitary_to_json(u: UnitaryOp) -> dict:
    return {
        "dim": u.dim,
        "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in u.matrix],
    }


def unitary_from_json(obj: dict) -> UnitaryOp:
    dim = int(obj["dim"])
    rows = [[complex(re, im) for re, im in row] for row in obj["matrix"]]
    return UnitaryOp(dim, np.array(rows, dtype=np.complex128))
