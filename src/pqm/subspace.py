"""Subspace-lattice arithmetic over C^d.

The ortholattice of linear subspaces of a finite-dimensional complex
space, together with the Sasaki operations used by the possibilistic
semantics.  A subspace is stored as a matrix with orthonormal columns;
every rank decision goes through singular values, so degenerate spans,
the null space (rank 0) and the full space (rank d) are all ordinary
values of the same type.

Equality and containment are tolerance-based, at four fixed thresholds
defined here and nowhere else: ``RANK_TOL`` cuts singular values when
deciding the rank of a span, ``EQ_TOL`` cuts the residual's singular
values when deciding containment and the meet, ``UNITARY_TOL`` bounds
the deviation from unitarity of a matrix given to ``UnitaryOp``, and
``ORTHONORMAL_TOL`` bounds the deviation from orthonormality of a basis
given to ``Subspace``.

Validation happens once, at the input boundary: ``Subspace(...)``,
``UnitaryOp(...)`` and :func:`span_of` check what they are given.
Kernel results (SVD and QR factors, ``np.eye``, ``np.zeros``, adjoints)
are valid by construction and built unchecked by ``_trusted``.

The meet, compatibility and containment all read the residual
R = P - Q (Q^H P) of a basis P of p off a basis Q of q, whose singular
values are the sines of the principal angles between p and q, accurate
near 0.  All three cut them at ``EQ_TOL``, so ``leq(p, q)`` holds
exactly when ``meet(p, q)`` keeps p's rank.

The stacked forms (:func:`stacked_span`, :func:`stacked_meet`,
:func:`stacked_compatible`, :func:`stacked_leq`, :func:`stacked_leq_table`)
take the same rank cut, residual cut and residual test over a whole
stack of bases in a few numpy calls, for callers that ask one question
of many subspaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "InternalInvariantError",
    "RANK_TOL",
    "EQ_TOL",
    "UNITARY_TOL",
    "ORTHONORMAL_TOL",
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
    "sasaki_hook",
    "compatible",
    "apply_unitary",
    "ray_in_avoiding",
    "subspace_to_json",
    "unitary_deviation",
    "SubspaceStack",
    "stack_chunks",
    "stacked",
    "stacked_span",
    "stacked_meet",
    "stacked_compatible",
    "stacked_leq",
    "stacked_leq_table",
]

# The thresholds of every numerical decision.  A quantity within a factor
# of ten of its threshold is decided unreliably: roundoff could flip it.
RANK_TOL = 1e-10  # singular values <= RANK_TOL * max(1, largest) are cut from a span
EQ_TOL = 1e-8  # sines of principal angles below EQ_TOL count as 0: for p <= q and for the meet
UNITARY_TOL = 1e-8  # max-norm deviation of U*U from the identity tolerated at construction
ORTHONORMAL_TOL = 1e-7  # max-norm deviation of B*B from the identity tolerated at construction


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


class InternalInvariantError(RuntimeError):
    """A self-check failed.  Indicates a bug in the engine, not bad input."""


def _check_dim(dim: int) -> None:
    if dim < 1:
        raise ValueError(f"ambient dimension must be positive, got {dim}")


def _frozen(a: np.ndarray) -> np.ndarray:
    """A write-protected complex128 copy of ``a``, in ``a``'s memory order."""
    b = np.array(a, dtype=np.complex128, copy=True)
    b.setflags(write=False)
    return b


def _unchecked(cls, dim: int, name: str, a: np.ndarray):
    obj = object.__new__(cls)  # skips __init__, so no __post_init__ checks
    object.__setattr__(obj, "dim", dim)
    object.__setattr__(obj, name, _frozen(a))
    return obj


@dataclass(frozen=True, eq=False)
class Subspace:
    """A linear subspace of C^dim held as a (dim, rank) orthonormal basis.

    rank 0 is the null space (bottom), rank == dim the full space (top).
    Instances are immutable; the basis array is write-protected.  Equality
    of subspaces is semantic and tolerance-based: use :func:`eq`, never
    ``==`` (which stays object identity).  ``Subspace(dim, basis)`` checks
    ``dim``, the shape and orthonormality; ``Subspace._trusted`` does not.
    """

    dim: int
    basis: np.ndarray

    def __post_init__(self) -> None:
        _check_dim(self.dim)
        b = _frozen(self.basis)
        if b.ndim != 2 or b.shape[0] != self.dim:
            raise ValueError(f"basis must be a ({self.dim}, rank) matrix, got shape {b.shape}")
        if b.shape[1] > self.dim:
            raise ValueError("rank cannot exceed the ambient dimension")
        if b.shape[1]:
            gram = b.conj().T @ b
            if not np.abs(gram - np.eye(b.shape[1])).max() <= ORTHONORMAL_TOL:  # NaN fails too
                raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", b)

    @classmethod
    def _trusted(cls, dim: int, basis: np.ndarray) -> "Subspace":
        """From a basis that is orthonormal by construction; not checked."""
        return _unchecked(cls, dim, "basis", basis)

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        """The (dim, dim) orthogonal projector onto this subspace."""
        return self.basis @ self.basis.conj().T

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, rank={self.rank})"


@dataclass(frozen=True, eq=False)
class UnitaryOp:
    """A unitary operator on C^dim.  ``UnitaryOp(dim, matrix)`` rejects
    matrices whose deviation from unitarity exceeds ``UNITARY_TOL`` in
    max-norm; ``UnitaryOp._trusted`` does not check."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        _check_dim(self.dim)
        m = _frozen(self.matrix)
        if m.shape != (self.dim, self.dim):
            raise ValueError(f"matrix must be ({self.dim}, {self.dim}), got {m.shape}")
        dev = unitary_deviation(m)
        if not dev <= UNITARY_TOL:  # NaN from a non-finite entry fails too
            raise ValueError(f"matrix is not unitary: max-norm deviation {dev:.3e}")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _trusted(cls, dim: int, matrix: np.ndarray) -> "UnitaryOp":
        """From a matrix that is unitary by construction; not checked."""
        return _unchecked(cls, dim, "matrix", matrix)

    def adjoint(self) -> "UnitaryOp":
        """U*, which is unitary because U is."""
        return UnitaryOp._trusted(self.dim, self.matrix.conj().T)

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
    _check_dim(dim)
    return Subspace._trusted(dim, np.eye(dim, dtype=np.complex128))


def bottom(dim: int) -> Subspace:
    _check_dim(dim)
    return Subspace._trusted(dim, np.zeros((dim, 0), dtype=np.complex128))


def _span_basis(a: np.ndarray) -> np.ndarray:
    """An orthonormal basis of the span of a's columns, of which it has
    at least one."""
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    # The cut has an absolute floor of RANK_TOL: columns that are
    # numerically zero (e.g. projections of orthogonal vectors) must not
    # resurface as rank through a purely relative threshold.
    cut = RANK_TOL * max(1.0, float(s[0]))
    return u[:, : int(np.count_nonzero(s > cut))]


def _span_from_matrix(a: np.ndarray, dim: int) -> Subspace:
    if a.shape[1] == 0:
        return bottom(dim)
    return Subspace._trusted(dim, _span_basis(a))


def span_of(vectors: Iterable[Sequence[complex]], dim: int) -> Subspace:
    """Orthonormalized span of a finite family of vectors in C^dim, given
    as any iterable of vectors or as the rows of a 2-D array.

    Accepts dependent, repeated and zero vectors; the empty family gives
    the bottom subspace.  Raises DimensionMismatchError unless the family
    reads as an (n, dim) array of numbers, and ValueError on a non-finite
    entry or a dimension below 1.
    """
    _check_dim(dim)
    rows = vectors if isinstance(vectors, np.ndarray) else list(vectors)  # a generator too
    try:
        a = np.asarray(rows, dtype=np.complex128)
    except ValueError as exc:  # a ragged family, or an entry that is not a number
        raise DimensionMismatchError(f"vectors must form an (n, {dim}) array: {exc}") from exc
    if not len(a):
        return bottom(dim)
    if a.ndim != 2 or a.shape[1] != dim:
        raise DimensionMismatchError(f"vectors must form an (n, {dim}) array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("vector entries must be finite")
    return Subspace(dim, _span_basis(a.T))


def _same_dim(p: Subspace, q: Subspace) -> None:
    if p.dim != q.dim:
        raise DimensionMismatchError(f"subspaces of dimension {p.dim} and {q.dim}")


def ortho(p: Subspace) -> Subspace:
    """Orthogonal complement."""
    if p.rank == 0:
        return top(p.dim)
    if p.rank == p.dim:
        return bottom(p.dim)
    u, _, _ = np.linalg.svd(p.basis, full_matrices=True)
    return Subspace._trusted(p.dim, u[:, p.rank:])


def join(p: Subspace, q: Subspace) -> Subspace:
    """Lattice join: closed span of the union."""
    _same_dim(p, q)
    return _span_from_matrix(np.hstack([p.basis, q.basis]), p.dim)


def _residual(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """P - Q (Q^H P): the part of each column of P off the span of Q, for
    one pair of bases or a stack of them."""
    return p - q @ (q.conj().swapaxes(-1, -2) @ p)


def meet(p: Subspace, q: Subspace) -> Subspace:
    """Lattice meet (intersection): P v for each right singular vector v
    of the residual R of p's basis P off q whose singular value (a sine)
    is below ``EQ_TOL``, the closest direction first.  When R's Frobenius
    norm is below ``EQ_TOL`` so is every sine, and the meet is p."""
    _same_dim(p, q)
    if p.rank == 0 or q.rank == 0:
        return bottom(p.dim)
    resid = _residual(p.basis, q.basis)
    if float(_squared_columns(resid).sum()) < EQ_TOL**2:
        return p
    _, sin, vh = np.linalg.svd(resid, full_matrices=False)
    kept = int(np.count_nonzero(sin < EQ_TOL))
    return Subspace._trusted(p.dim, p.basis @ vh[::-1][:kept].conj().T)


def leq(p: Subspace, q: Subspace) -> bool:
    """Containment p <= q: the largest singular value of the residual of
    p's basis off q is below ``EQ_TOL``.  It lies between the residual's
    largest column norm and its Frobenius norm, so an SVD is taken only
    when ``EQ_TOL`` falls between those two."""
    _same_dim(p, q)
    if p.rank == 0:
        return True
    if q.rank == 0:
        return False
    resid = _residual(p.basis, q.basis)
    columns = _squared_columns(resid)
    if float(columns.max()) >= EQ_TOL**2:
        return False
    if float(columns.sum()) < EQ_TOL**2:
        return True
    return float(np.linalg.svd(resid, compute_uv=False)[0]) < EQ_TOL


def _squared_columns(resid: np.ndarray) -> np.ndarray:
    """The squared norm of each column of a residual or of a stack of them."""
    return np.square(np.abs(resid)).sum(axis=-2)


def eq(p: Subspace, q: Subspace) -> bool:
    """Semantic equality: mutual containment."""
    return leq(p, q) and leq(q, p)


def sasaki_and(p: Subspace, q: Subspace) -> Subspace:
    """Sasaki conjunction p & q, computed as the image of p under the
    projector onto q.  It equals the lattice formula q ^ (q' v p), the
    route the tests check it against."""
    _same_dim(p, q)
    if p.rank == 0 or q.rank == 0:
        return bottom(p.dim)
    return _span_from_matrix(q.projector() @ p.basis, p.dim)


def sasaki_hook(p: Subspace, q: Subspace) -> Subspace:
    """Sasaki hook (residuation) q' v (p ^ q): the largest x with
    sasaki_and(x, q) <= p."""
    _same_dim(p, q)
    return join(ortho(q), meet(p, q))


def compatible(p: Subspace, q: Subspace) -> bool:
    """Lattice compatibility p = (p ^ q) v (p ^ q'), as rank(p ^ q) +
    rank(p ^ q') == rank(p): the singular values below ``EQ_TOL`` of the
    residual R of p's basis P off q (sines) and of P - R (cosines).  It
    coincides with commutation of the projectors, the route the tests
    check it against."""
    _same_dim(p, q)
    return bool(stacked_compatible(p.basis[None], q.basis[None])[0])


def apply_unitary(u: UnitaryOp, p: Subspace) -> Subspace:
    """Image of a subspace under a unitary; rank is preserved."""
    if u.dim != p.dim:
        raise DimensionMismatchError(f"unitary on C^{u.dim} applied to subspace of C^{p.dim}")
    if p.rank == 0:
        return p
    out = _span_from_matrix(u.matrix @ p.basis, p.dim)
    if out.rank != p.rank:
        raise InternalInvariantError("unitary image changed rank")
    return out


# ---------------------------------------------------------------------------
# Stacked forms of the rank cut, the residual test and the residual meet
#
# A stack holds n subspaces of C^dim as one (n, dim, k) array: each
# orthonormal basis sits in the leading columns and zero columns pad it
# to the common width k.  Zero columns change neither a span nor a
# residual's largest singular value, so a stacked call decides exactly
# what the per-pair call decides, at the same thresholds, for every
# matrix of the stack.  A zero column of p would add a zero singular
# value to the residual of p off q, though, so the first argument of the
# stacked meet and compatibility test holds bases of one rank, unpadded.

# The most complex entries one stacked numpy call takes in: the input
# stack of an SVD, the residual array of a containment test.  Longer
# stacks are split into chunks, so memory stays bounded whatever the
# length of the stack.
_STACK_ENTRIES = 1 << 13


class SubspaceStack(NamedTuple):
    """n subspaces of C^dim: their bases as one (n, dim, dim) stack, each
    in its leading columns and zero-padded, and their (n,) ranks."""

    basis: np.ndarray
    rank: np.ndarray


def stack_chunks(n: int, entries_per_item: int) -> Iterator[slice]:
    """Slices of ``range(n)`` holding at most ``_STACK_ENTRIES`` entries
    each, at ``entries_per_item`` entries per item (at least one item)."""
    step = max(1, _STACK_ENTRIES // max(1, entries_per_item))
    return (slice(k, k + step) for k in range(0, n, step))


def stacked(bases: Sequence[np.ndarray], dim: int) -> np.ndarray:
    """The (n, dim, dim) stack of the given (dim, rank) bases, zero-padded."""
    out = np.zeros((len(bases), dim, dim), dtype=np.complex128)
    for k, b in enumerate(bases):
        out[k, :, : b.shape[1]] = b
    return out


def _leading(u: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """u with every column from ``rank`` on set to zero, per matrix."""
    return u * (np.arange(u.shape[-1]) < rank[:, None])[:, None, :]


def _stacked_rank(s: np.ndarray) -> np.ndarray:
    """The rank of each matrix of a stack from its singular values, an
    (n, k) array with k >= 1, descending: the ``RANK_TOL * max(1, s[0])``
    cut of :func:`span_of`."""
    cut = RANK_TOL * np.maximum(1.0, s[:, 0])
    return np.count_nonzero(s > cut[:, None], axis=1)


def stacked_span(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The span of each (dim, m) matrix of a stack, m >= dim, as a
    (n, dim, dim) stack and the ranks: one SVD per matrix and the cut of
    :func:`span_of`."""
    n, dim, m = a.shape
    if m < dim:
        raise ValueError(f"stacked spans need at least {dim} columns, got {m}")
    u = np.empty((n, dim, dim), dtype=np.complex128)
    rank = np.empty(n, dtype=np.intp)
    for chunk in stack_chunks(n, dim * m):
        u[chunk], s, _ = np.linalg.svd(a[chunk], full_matrices=False)
        rank[chunk] = _stacked_rank(s)
    return _leading(u, rank), rank


def stacked_meet(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`meet` of p[i] and q[i] for each i, over stacks (n, dim, k)
    and (n, dim, m), as an (n, dim, k) stack and the ranks: each meet's
    basis leads, closest direction first, and zero columns pad it.  Each
    p[i] has k orthonormal columns, with no padding; the columns of q[i]
    are orthonormal or zero."""
    n, dim, k = p.shape
    meets = np.zeros_like(p)
    rank = np.zeros(n, dtype=np.intp)
    if k == 0:  # the zero space: no SVD to take
        return meets, rank
    for chunk in stack_chunks(n, dim * max(k, q.shape[-1])):
        pc = p[chunk]
        _, sin, vh = np.linalg.svd(_residual(pc, q[chunk]), full_matrices=False)
        rank[chunk] = np.count_nonzero(sin < EQ_TOL, axis=-1)
        meets[chunk] = pc @ vh[:, ::-1].conj().swapaxes(-1, -2)
    return _leading(meets, rank), rank


def stacked_compatible(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """:func:`compatible` of p[i] with q[i] for each i, over stacks
    shaped as for :func:`stacked_meet`."""
    n, dim, k = p.shape
    out = np.ones(n, dtype=bool)
    if k == 0:  # the zero space is compatible with every subspace
        return out
    for chunk in stack_chunks(n, dim * max(k, q.shape[-1])):
        pc = p[chunk]
        resid = _residual(pc, q[chunk])
        inside = np.linalg.svd(resid, compute_uv=False) < EQ_TOL  # sines: p ^ q
        outside = np.linalg.svd(pc - resid, compute_uv=False) < EQ_TOL  # cosines: p ^ q'
        out[chunk] = np.count_nonzero(inside, axis=-1) + np.count_nonzero(outside, axis=-1) == k
    return out


def stacked_leq(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """:func:`leq` of p[i] in q[i] for each i, over stacks (n, dim, k) and
    (n, dim, m) whose columns are orthonormal or zero: a zero p[i] is
    below every q[i], and a zero q[i] above only the zero space.  The
    column norms of the residuals decide most pairs, as in :func:`leq`;
    the band they leave open takes one SVD call."""
    n, dim, k = p.shape
    out = np.empty(n, dtype=bool)
    for chunk in stack_chunks(n, dim * max(k, q.shape[-1])):
        resid = _residual(p[chunk], q[chunk])
        columns = _squared_columns(resid)
        below = columns.sum(axis=-1) < EQ_TOL**2
        band = np.flatnonzero(~below & (columns.max(axis=-1, initial=0.0) < EQ_TOL**2))
        if band.size:
            below[band] = np.linalg.svd(resid[band], compute_uv=False)[:, 0] < EQ_TOL
        out[chunk] = below
    return out


def stacked_leq_table(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The (n, m) table of :func:`leq` over every pair of p[i] in q[j],
    for stacks (n, dim, k) and (m, dim, l) whose columns are orthonormal
    or zero: a zero p[i] is below every q[j], and a zero q[j] above only
    the zero space; an empty stack gives an empty table.  The columns of
    a chunk of p sit side by side, so each q[j] meets them in one matrix
    product; the pairs whose column norms leave containment undecided
    take one SVD of their residuals."""
    n, dim, k = p.shape
    if k == 0 or not len(q):
        return np.ones((n, len(q)), dtype=bool)
    out = np.empty((n, len(q)), dtype=bool)
    for chunk in stack_chunks(n, len(q) * dim * k):
        cols = p[chunk].transpose(1, 0, 2).reshape(dim, -1)
        resid = _residual(cols, q)
        columns = _squared_columns(resid).reshape(len(q), -1, k)
        below = columns.sum(axis=-1) < EQ_TOL**2
        j, i = np.nonzero(~below & (columns.max(axis=-1) < EQ_TOL**2))
        if j.size:
            band = resid.reshape(len(q), dim, -1, k)[j, :, i]  # (pairs, dim, k)
            below[j, i] = np.linalg.svd(band, compute_uv=False)[:, 0] < EQ_TOL
        out[chunk] = below.T
    return out


def _ray_admissible(u: Subspace, p: Subspace, avoid: Sequence[Subspace]) -> bool:
    return (
        u.rank == 1
        and leq(u, p)
        and all(not leq(u, q) for q in avoid)
    )


def ray_in_avoiding(p: Subspace, avoid: Sequence[Subspace]) -> Subspace | None:
    """A rank-1 subspace of p avoiding every member of ``avoid``.

    The caller must supply a nonzero p not contained in any avoided
    subspace; those preconditions are re-checked and ``None`` is returned
    when they fail.  Otherwise a ray always exists (p cannot be a finite
    union of strict subspaces) and one is found by random sampling over
    p's basis at a fixed seed, so the search is deterministic, with a
    polynomial sweep as fallback.
    The result is self-checked before being returned.
    """
    avoid = list(avoid)
    for q in avoid:
        _same_dim(p, q)
    if p.rank == 0:
        return None
    for q in avoid:
        if leq(p, q):
            return None

    rng = np.random.default_rng(0)
    r = p.rank
    for _ in range(64):
        coeffs = rng.standard_normal(r) + 1j * rng.standard_normal(r)
        u = _span_from_matrix((p.basis @ coeffs).reshape(-1, 1), p.dim)
        if _ray_admissible(u, p, avoid):
            return u

    # Deterministic fallback: u(t) = sum_k t^(k-1) b_k.  For each avoided
    # q not containing p, membership of u(t) in q is a nonzero polynomial
    # condition of degree < r in t, so at most len(avoid) * (r - 1)
    # distinct t values can fail.
    for i in range(len(avoid) * (r - 1) + 1):
        t = float(i + 1)
        coeffs = t ** np.arange(r)
        u = _span_from_matrix((p.basis @ coeffs).reshape(-1, 1), p.dim)
        if _ray_admissible(u, p, avoid):
            return u
    raise InternalInvariantError("avoidance sweep exhausted; tolerance regime is inconsistent")


def _pairs_json(v: Iterable[complex]) -> list:
    """A complex vector in JSON form, one [re, im] pair per entry."""
    return [[float(z.real), float(z.imag)] for z in v]


def subspace_to_json(p: Subspace) -> dict:
    """JSON form: ambient dimension, rank, and basis vectors as [re, im] pairs."""
    return {
        "dim": p.dim,
        "rank": p.rank,
        "basis": [_pairs_json(col) for col in p.basis.T],
    }
