"""Shared pieces of the workloads: the operation record and the
benchmark's own linear algebra for checking the program's answers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class Op:
    """One timed operation.

    ``check`` sees every result and returns the problems found; when
    ``digest`` gives a value, every later result of the operation must
    give the same one as the first.
    """

    label: str
    fn: Callable[[], object]
    check: Callable[[object], list] = lambda result: []
    digest: Callable[[object], object] = lambda result: None


@dataclass
class Workload:
    ops: list
    # ops for the traced run when they differ from the timed ones
    traced_ops: list | None = None
    peak_rss_of_children: bool = False


def projector(vectors: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the column span, by SVD with its own rank cut."""
    if vectors.shape[1] == 0:
        return np.zeros((vectors.shape[0],) * 2, dtype=np.complex128)
    u, s, _ = np.linalg.svd(vectors, full_matrices=False)
    u = u[:, s > 1e-9 * max(1.0, float(s[0]))]
    return u @ u.conj().T


def residuals(p: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Norm of each column's component outside the range of projector p,
    relative to the column's norm."""
    return np.linalg.norm(vectors - p @ vectors, axis=0) / np.linalg.norm(vectors, axis=0)


def same_space(a: np.ndarray, b: np.ndarray, tol: float = 1e-8) -> bool:
    """Projector distance test between two spanning sets."""
    return float(np.abs(projector(a) - projector(b)).max()) < tol
