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
"""

from __future__ import annotations

import numpy as np

from .subspace import Subspace, UnitaryOp, _check_dim, _span_from_matrix, bottom

__all__ = [
    "BOT_PROBABILITY",
    "random_unitary",
    "random_subspace",
    "random_ray",
    "random_ray_or_bot",
    "random_subspace_within",
    "random_ray_within",
    "random_compatible_pair",
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
    d = np.diagonal(r)
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
    """The zero space with probability ``BOT_PROBABILITY``, else a random ray."""
    if rng.random() < BOT_PROBABILITY:
        return bottom(dim)
    return random_ray(rng, dim)


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
    compatible by construction."""
    u = _haar(rng, dim)
    mask_p = rng.random(dim) < rng.random()
    mask_q = rng.random(dim) < rng.random()
    return Subspace._trusted(dim, u[:, mask_p]), Subspace._trusted(dim, u[:, mask_q])
