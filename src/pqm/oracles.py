"""Closed-form geometric constructions used as independent test oracles.

Three families:

* the step map x -> x/sqrt(1 - x^2) and its iteration count to reach 1,
  which bounds how fast two non-orthogonal rays in a filter force the
  zero space in;
* the ellipse witness: two fixed rays plus a probe vector, whose
  Gram-Schmidt residuals are orthogonal exactly when the probe's plane
  coordinates satisfy x^2 + (1 - a^2) y^2 = a^2;
* the incompatibility decomposition: for incompatible subspaces P, Q, a
  two-dimensional subspace compatible with both whose meets with P and Q
  are rays, built from an interior eigenvalue of the restricted
  projector product.

Everything here is checked on construction; a failed internal check is a
bug, not an input error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import subspace as sub
from .subspace import InternalInvariantError, Subspace

__all__ = [
    "OracleDomainError",
    "CompatibleInputError",
    "MIN_CHAIN_START",
    "f_step",
    "f_chain",
    "steps_to_one",
    "EllipseWitness",
    "ellipse_witness",
    "IncompatDecomposition",
    "incompat_decompose",
    "TwoRayCollapse",
    "two_ray_collapse",
]

# Values this close to 1 are treated as having reached it; the step map
# is undefined from 1 on.
_ONE_FLOOR = 1.0 - 1e-15

# The least start of a step chain or a ray-pair collapse.  Both take
# ceil(1/a^2) - 1 steps, so the bound caps a chain at 9,999 steps and a
# collapse, which certifies each step with lattice operations, at a few
# seconds.
MIN_CHAIN_START = 0.01

# The ray-pair collapse lives in C^3.
_DIM = 3


class OracleDomainError(ValueError):
    """Input outside the domain of a closed-form construction."""


class CompatibleInputError(ValueError):
    """The incompatibility decomposition needs an incompatible pair."""


def f_step(x: float) -> float:
    """The step map x / sqrt(1 - x^2) on [0, 1)."""
    if not 0.0 <= x < 1.0:
        raise OracleDomainError(f"step map needs 0 <= x < 1, got {x!r}")
    return x / math.sqrt(1.0 - x * x)


def f_chain(a: float) -> list[float]:
    """Iterates of the step map from ``a`` until the first value >= 1.

    The invariant 1/f(x)^2 = 1/x^2 - 1 makes the chain length exactly
    ceil(1/a^2) - 1 applications, so the loop always terminates.  The
    start must lie in [MIN_CHAIN_START, 1].
    """
    if not MIN_CHAIN_START <= a <= 1.0:
        raise OracleDomainError(f"chain start needs {MIN_CHAIN_START} <= a <= 1, got {a!r}")
    limit = int(math.ceil(1.0 / (a * a))) + 2
    chain = [a]
    while chain[-1] < _ONE_FLOOR:
        chain.append(f_step(chain[-1]))
        if len(chain) > limit:
            raise InternalInvariantError("step chain exceeded its closed-form bound")
    return chain


def steps_to_one(a: float) -> int:
    """Number of step-map applications needed to push ``a`` to 1."""
    return len(f_chain(a)) - 1


# ---------------------------------------------------------------------------
# Ellipse witness


@dataclass(frozen=True)
class EllipseWitness:
    """Probe geometry for the two-ray ellipse criterion.

    ``inner`` is the inner product of the two Gram-Schmidt residuals
    v_plus, v_minus of the fixed rays against the probe w; it vanishes
    exactly when ``residual`` (the ellipse equation at the probe's plane
    coordinates) vanishes, the two being related by a positive factor.
    """

    a: float
    x: float
    y: float
    u_plus: np.ndarray
    u_minus: np.ndarray
    w: np.ndarray
    v_plus: np.ndarray
    v_minus: np.ndarray
    inner: float
    residual: float
    orthogonal: bool
    on_ellipse: bool


def ellipse_witness(a: float, x: float, y: float, tol: float = 1e-9) -> EllipseWitness:
    """Build the two fixed rays, the probe, and their residual geometry.

    The fixed rays sit at (+-a, 0, 1) in the standard basis of C^3, the
    probe at (x, y, 1).  Subtracting the probe component from each ray
    leaves vectors orthogonal to the probe by construction; their mutual
    orthogonality is the ellipse criterion.
    ``orthogonal`` tests the inner product against ``tol``, and
    ``on_ellipse`` tests the raw ellipse residual against the same
    ``tol``; the two agree whenever the residual is not in the narrow
    band where the positive scaling factor straddles the tolerance.
    ``x`` and ``y`` must be finite with (1 + a^2)(x^2 + y^2 + 1) below
    the float range, and ``tol`` positive and finite.
    """
    if not 0.0 < a < 1.0:
        raise OracleDomainError(f"ellipse parameter needs 0 < a < 1, got {a!r}")
    if not 0.0 < tol < math.inf:
        raise OracleDomainError(f"tolerance needs to be positive and finite, got {tol!r}")
    if not (math.isfinite(x) and math.isfinite(y)):
        raise OracleDomainError(f"probe coordinates need to be finite, got x={x!r}, y={y!r}")
    # the factor relating the residual to the inner product
    scale = (1.0 + a * a) * (x * x + y * y + 1.0)
    if scale == math.inf:
        raise OracleDomainError(f"probe coordinates x={x!r}, y={y!r} overflow the float range")
    norm = math.sqrt(1.0 + a * a)
    u_plus = np.array([a, 0.0, 1.0], dtype=complex) / norm
    u_minus = np.array([-a, 0.0, 1.0], dtype=complex) / norm
    w = np.array([x, y, 1.0], dtype=complex)

    ww = float(np.real(np.vdot(w, w)))
    v_plus = u_plus - (np.vdot(w, u_plus) / ww) * w
    v_minus = u_minus - (np.vdot(w, u_minus) / ww) * w

    for v in (v_plus, v_minus):
        # roundoff in <w, v> grows with |w|, and |v| <= 1
        if abs(np.vdot(w, v)) > 1e-12 * math.sqrt(ww):
            raise InternalInvariantError("probe residual not orthogonal to the probe")
    inner = np.vdot(v_plus, v_minus)
    if abs(inner.imag) > 1e-12:
        raise InternalInvariantError("residual inner product should be real here")
    inner = float(inner.real)

    residual = x * x + (1.0 - a * a) * y * y - a * a
    # inner == residual / ((1 + a^2) (x^2 + y^2 + 1)), up to roundoff; both
    # sides lie in (-1, 1), so an absolute bound is a relative one
    scaled = residual / scale
    if abs(inner - scaled) > 1e-12:
        raise InternalInvariantError("ellipse identity drifted from the vector route")

    return EllipseWitness(
        a=a,
        x=x,
        y=y,
        u_plus=u_plus,
        u_minus=u_minus,
        w=w,
        v_plus=v_plus,
        v_minus=v_minus,
        inner=inner,
        residual=residual,
        orthogonal=abs(inner) < tol,
        on_ellipse=abs(residual) < tol,
    )


# ---------------------------------------------------------------------------
# Incompatibility decomposition


@dataclass(frozen=True)
class IncompatDecomposition:
    """Interior eigenpair data for an incompatible pair p, q of subspaces.

    ``c`` is spanned by the eigenvector ``u`` (inside ``p``) and the
    normalized projection ``v`` of ``u`` onto ``q``; it is compatible
    with both inputs and meets them exactly in span(u) and span(v).
    """

    eigenvalue: float
    u: np.ndarray
    v: np.ndarray
    c: Subspace

    @property
    def u_span(self) -> Subspace:
        return sub.span_of([self.u], self.c.dim)

    @property
    def v_span(self) -> Subspace:
        return sub.span_of([self.v], self.c.dim)


def incompat_decompose(p: Subspace, q: Subspace) -> IncompatDecomposition:
    """Split an incompatible pair through an interior eigenvalue.

    The compression of the projector onto ``q`` to ``p`` is Hermitian
    with spectrum in [0, 1]; incompatibility forces an eigenvalue
    strictly inside, and the associated eigenvector yields the
    two-dimensional mediator subspace.  Among interior eigenvalues the
    one closest to 1/2 is taken (best separation from the degenerate
    ends); ties keep the lowest index.  All four postconditions are
    re-verified with lattice operations before returning.
    """
    if p.dim != q.dim:
        raise sub.DimensionMismatchError("inputs live in different dimensions")
    if sub.compatible(p, q):
        raise CompatibleInputError("inputs are compatible; no interior eigenvalue exists")

    overlap = p.basis.conj().T @ q.basis
    compressed = overlap @ overlap.conj().T
    eigvals, eigvecs = np.linalg.eigh(compressed)
    interior = [
        (abs(lam - 0.5), k)
        for k, lam in enumerate(eigvals)
        if 1e-9 < lam < 1.0 - 1e-9
    ]
    if not interior:
        raise InternalInvariantError("incompatible pair produced no interior eigenvalue")
    _, k = min(interior)
    lam = float(eigvals[k])

    u = p.basis @ eigvecs[:, k]
    u = u / np.linalg.norm(u)
    qu = q.basis @ (q.basis.conj().T @ u)
    qu_norm = np.linalg.norm(qu)
    if abs(qu_norm * qu_norm - lam) > 1e-8:
        raise InternalInvariantError("projected eigenvector norm disagrees with eigenvalue")
    v = qu / qu_norm

    c = sub.span_of([u, v], p.dim)
    if c.rank != 2:
        raise InternalInvariantError("mediator subspace is not two-dimensional")
    u_span = sub.span_of([u], p.dim)
    v_span = sub.span_of([v], p.dim)
    if not sub.compatible(c, p):
        raise InternalInvariantError("mediator not compatible with the first input")
    if not sub.compatible(c, q):
        raise InternalInvariantError("mediator not compatible with the second input")
    if not sub.eq(sub.meet(p, c), u_span):
        raise InternalInvariantError("meet with the first input is not span(u)")
    if not sub.eq(sub.meet(q, c), v_span):
        raise InternalInvariantError("meet with the second input is not span(v)")
    return IncompatDecomposition(eigenvalue=lam, u=u, v=v, c=c)


# ---------------------------------------------------------------------------
# Two-ray collapse iteration


@dataclass(frozen=True)
class TwoRayCollapse:
    """Transcript of the ellipse-pair iteration from parameter ``a``.

    Each round replaces the certified ray pair at parameter b with the
    antipodal ellipse points at radius min(step(b), 1), re-verified with
    real lattice operations: the planes spanned by each old ray with the
    new probe are compatible and meet exactly in the probe ray.  The
    final pair is orthogonal, so its compatible meet is the zero space.
    """

    a: float
    parameters: tuple[float, ...]
    rounds: int
    final_plus: Subspace
    final_minus: Subspace
    final_meet_rank: int


def _frame(phi: float) -> np.ndarray:
    """The standard basis of C^3 with its first two vectors turned by ``phi``.

    Built from the angle each round, so the frame stays orthonormal to
    roundoff however many rounds turn it; a product of thousands of
    per-round turns drifts far enough to flip the lattice checks."""
    frame = np.eye(_DIM, dtype=complex)
    c, s = math.cos(phi), math.sin(phi)
    frame[0, 0], frame[1, 0], frame[0, 1], frame[1, 1] = c, s, -s, c
    return frame


def _pair_at(frame: np.ndarray, b: float) -> tuple[Subspace, Subspace]:
    plus = b * frame[:, 0] + frame[:, 2]
    minus = -b * frame[:, 0] + frame[:, 2]
    return sub.span_of([plus], _DIM), sub.span_of([minus], _DIM)


def two_ray_collapse(a: float) -> TwoRayCollapse:
    """Drive two rays at parameter ``a`` to an orthogonal pair.

    The number of rounds equals the step-chain length for ``a``: the
    radius grows along the step map, clamped at 1, and each hop is
    certified in-place by the compatibility-and-meet argument.  A probe
    off the ellipse is also tried each round (where it is cleanly off)
    to confirm the criterion refuses it.  The start must lie in
    [MIN_CHAIN_START, 1].
    """
    if not MIN_CHAIN_START <= a <= 1.0:
        raise OracleDomainError(f"collapse start needs {MIN_CHAIN_START} <= a <= 1, got {a!r}")

    phi = 0.0
    frame = _frame(phi)
    parameters = [a]
    b = a
    ray_plus, ray_minus = _pair_at(frame, b)
    rounds = 0

    while b < _ONE_FLOOR:
        r = min(f_step(b), 1.0)
        # Antipodal ellipse points at radius r:
        #   x^2 + (1 - b^2) y^2 = b^2  with  x^2 + y^2 = r^2.
        y2 = (r * r - b * b) / (b * b)
        x2 = r * r - y2
        if x2 < -1e-12 or y2 < -1e-12:
            raise InternalInvariantError("ellipse point fell outside the radius range")
        x, y = math.sqrt(max(x2, 0.0)), math.sqrt(max(y2, 0.0))

        probe_vec = x * frame[:, 0] + y * frame[:, 1] + frame[:, 2]
        probe = sub.span_of([probe_vec], _DIM)
        plane_plus = sub.join(ray_plus, probe)
        plane_minus = sub.join(ray_minus, probe)
        if not sub.compatible(plane_plus, plane_minus):
            raise InternalInvariantError("on-ellipse planes came out incompatible")
        if not sub.eq(sub.meet(plane_plus, plane_minus), probe):
            raise InternalInvariantError("plane meet missed the probe ray")

        # Negative control: a probe at the same radius but off the
        # ellipse must be refused, provided it is not accidentally near
        # a crossing of the circle and the ellipse.
        ox, oy = r / math.sqrt(2.0), r / math.sqrt(2.0)
        off_residual = ox * ox + (1.0 - b * b) * oy * oy - b * b
        if abs(off_residual) > 1e-6:
            off_vec = ox * frame[:, 0] + oy * frame[:, 1] + frame[:, 2]
            off = sub.span_of([off_vec], _DIM)
            if sub.compatible(sub.join(ray_plus, off), sub.join(ray_minus, off)):
                raise InternalInvariantError("off-ellipse planes came out compatible")

        # Rotate the plane frame so the new pair reads (+-r, 0, 1).
        phi += math.atan2(y, x)
        frame = _frame(phi)
        b = r
        parameters.append(b)
        ray_plus, ray_minus = _pair_at(frame, b)
        rounds += 1

    final_meet = sub.meet(ray_plus, ray_minus)
    if final_meet.rank != 0:
        raise InternalInvariantError("final ray pair still overlaps")
    if not sub.compatible(ray_plus, ray_minus):
        raise InternalInvariantError("final ray pair not compatible")
    return TwoRayCollapse(
        a=a,
        parameters=tuple(parameters),
        rounds=rounds,
        final_plus=ray_plus,
        final_minus=ray_minus,
        final_meet_rank=final_meet.rank,
    )
