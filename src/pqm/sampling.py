"""Seeded random generators for subspaces, rays and unitaries.

All functions take an explicit ``numpy.random.Generator`` so every
randomized suite in the package is reproducible from a single seed.

A draw reads the generator in a fixed order and spends no work that its
result does not keep.  ``random_subspace`` draws the whole (dim, dim)
Gaussian of a Haar unitary but QR-factors only the ``rank`` columns it
keeps: the first k columns of a Householder QR's Q depend only on the
first k columns of the matrix (Golub & Van Loan, *Matrix Computations*,
section 5.2), so the basis is the leading columns of that unitary.  The
rays and the subspaces drawn inside a subspace are spans of vectors the
kernel computed, taken by the SVD cut of ``span_of`` without its checks
of outside input.

The axiom suites draw a block of n instances at once.  A stacked draw
gives a ``SubspaceStack``: the n bases zero-padded into one (n, dim,
dim) array, each in its leading columns, and their ranks.  It reads the
generator once per quantity for the whole block, so its stream differs
from n scalar draws, but each subspace has the distribution of the
scalar draw of the same name: ``random_subspaces`` keeps the leading
columns of a phase-corrected Haar unitary, ``random_subspaces_within``
spans Gaussian combinations of a basis, and so on.  Its Haar unitaries
come from one stacked QR call.
"""

from __future__ import annotations

import numpy as np

from .subspace import Subspace, SubspaceStack, UnitaryOp, _check_dim, _leading, _span_from_matrix, bottom

__all__ = [
    "BOT_PROBABILITY",
    "random_unitary",
    "random_subspace",
    "random_ray",
    "random_ray_or_bot",
    "random_subspace_within",
    "random_ray_within",
    "random_compatible_pair",
    "random_unitaries",
    "random_subspaces",
    "random_rays_or_bot",
    "random_subspaces_within",
    "random_compatible_pairs",
]


# The chance that a draw from the ray model is the zero space.
BOT_PROBABILITY = 0.125


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _phase_corrected_q(z: np.ndarray) -> np.ndarray:
    """The Q of z's QR with each column's phase set by R's diagonal
    (Mezzadri, Notices AMS 54 (2007)): Haar-distributed columns for a
    Gaussian z."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)[..., None, :]
    return q * (d / np.abs(d))


def _haar(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary matrix via QR with phase correction."""
    _check_dim(dim)
    return _phase_corrected_q(_complex_gaussian(rng, (dim, dim)))


def random_unitary(rng: np.random.Generator, dim: int) -> UnitaryOp:
    """Haar-distributed unitary."""
    return UnitaryOp._trusted(dim, _haar(rng, dim))


def random_subspace(rng: np.random.Generator, dim: int, rank: int | None = None) -> Subspace:
    """Random subspace; rank uniform over 0..dim when unspecified, so the
    degenerate bottom and top values occur with positive probability."""
    _check_dim(dim)
    if rank is None:
        rank = int(rng.integers(0, dim + 1))
    if not 0 <= rank <= dim:
        raise ValueError(f"rank {rank} out of range for dimension {dim}")
    if rank == 0:
        return bottom(dim)
    z = _complex_gaussian(rng, (dim, dim))
    return Subspace._trusted(dim, _phase_corrected_q(z[:, :rank]))


def random_ray(rng: np.random.Generator, dim: int) -> Subspace:
    _check_dim(dim)
    return _span_from_matrix(_complex_gaussian(rng, (dim, 1)), dim)


def random_ray_or_bot(rng: np.random.Generator, dim: int) -> Subspace:
    """The zero space with probability ``BOT_PROBABILITY``, else a random
    ray: the one-instance block of ``random_rays_or_bot``."""
    return _first(random_rays_or_bot(rng, 1, dim))


def random_subspace_within(rng: np.random.Generator, p: Subspace, rank: int | None = None) -> Subspace:
    """Random subspace of p (rank uniform over 0..p.rank when unspecified)."""
    if rank is None:
        rank = int(rng.integers(0, p.rank + 1))
    if not 0 <= rank <= p.rank:
        raise ValueError(f"rank {rank} out of range inside a rank-{p.rank} subspace")
    if rank == 0 or p.rank == 0:
        return bottom(p.dim)
    coeffs = _complex_gaussian(rng, (p.rank, rank))
    return _span_from_matrix(p.basis @ coeffs, p.dim)


def random_ray_within(rng: np.random.Generator, p: Subspace) -> Subspace:
    if p.rank == 0:
        return bottom(p.dim)
    return random_subspace_within(rng, p, rank=1)


def random_compatible_pair(rng: np.random.Generator, dim: int) -> tuple[Subspace, Subspace]:
    """A pair spanned by subsets of a common orthonormal basis, hence
    compatible by construction: the one-instance block of
    ``random_compatible_pairs``."""
    p, q, _ = random_compatible_pairs(rng, 1, dim)
    return _first(p), _first(q)


# ---------------------------------------------------------------------------
# Stacked draws: a block of n instances per call


def _first(s: SubspaceStack) -> Subspace:
    return Subspace._trusted(s.basis.shape[1], s.basis[0, :, : s.rank[0]])


def random_unitaries(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """n Haar-distributed unitaries as an (n, dim, dim) stack."""
    _check_dim(dim)
    return _phase_corrected_q(_complex_gaussian(rng, (n, dim, dim)))


def random_subspaces(rng: np.random.Generator, n: int, dim: int) -> SubspaceStack:
    """n random subspaces, each of rank uniform over 0..dim: the leading
    columns of Haar unitaries."""
    rank = rng.integers(0, dim + 1, size=n)
    return SubspaceStack(_leading(random_unitaries(rng, n, dim), rank), rank)


def random_rays_or_bot(rng: np.random.Generator, n: int, dim: int) -> SubspaceStack:
    """n draws that are each the zero space with probability
    ``BOT_PROBABILITY``, else a random ray."""
    _check_dim(dim)
    rank = (rng.random(n) >= BOT_PROBABILITY).astype(np.intp)
    v = _complex_gaussian(rng, (n, dim))
    basis = np.zeros((n, dim, dim), dtype=np.complex128)
    basis[:, :, 0] = v * (rank / np.linalg.norm(v, axis=1))[:, None]
    return SubspaceStack(basis, rank)


def random_subspaces_within(rng: np.random.Generator, s: SubspaceStack, rank: np.ndarray) -> SubspaceStack:
    """A random subspace of rank ``rank[i]`` inside each s[i], with
    ``rank[i]`` at most s's: the span of that many Gaussian combinations
    of s[i]'s basis, taken by one stacked QR call (the combinations are
    independent almost surely, so the span has that rank)."""
    n, dim, _ = s.basis.shape
    columns = np.arange(dim)
    mask = (columns < s.rank[:, None])[:, :, None] & (columns < rank[:, None])[:, None, :]
    q, _ = np.linalg.qr(s.basis @ (_complex_gaussian(rng, (n, dim, dim)) * mask))
    return SubspaceStack(_leading(q, rank), rank)


def random_compatible_pairs(
    rng: np.random.Generator, n: int, dim: int
) -> tuple[SubspaceStack, SubspaceStack, SubspaceStack]:
    """n pairs each spanned by subsets of the columns of one Haar unitary,
    hence compatible by construction, and their meets: the spans of the
    columns the two subsets share.  Each column joins a subset with a
    probability drawn uniformly per subset."""
    u = random_unitaries(rng, n, dim)
    mask_p = rng.random((n, dim)) < rng.random((n, 1))
    mask_q = rng.random((n, dim)) < rng.random((n, 1))
    return _columns(u, mask_p), _columns(u, mask_q), _columns(u, mask_p & mask_q)


def _columns(u: np.ndarray, mask: np.ndarray) -> SubspaceStack:
    """The span of the masked columns of each matrix of a stack, moved to
    the front in their order."""
    order = np.argsort(~mask, axis=1, kind="stable")
    rank = np.count_nonzero(mask, axis=1)
    return SubspaceStack(_leading(np.take_along_axis(u, order[:, None, :], axis=2), rank), rank)
