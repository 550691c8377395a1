"""The verification-statement axioms, each stated once, and their random suites.

Each axiom in ``AXIOMS`` is an implication (or an existential) over a
system element x and parameters, written once as a hypothesis and a
conclusion over an interpretation ``I``, which offers ``verify``,
``project``, ``transform``, ``top``, ``bottom``, the lattice terms the
axioms name, and ``both(a, b)`` and ``no(a)`` for ``a and b()`` and
``not a``, which cannot take arrays.  Two interpretations read the same
statements: over subspaces, where ``run_axiom_suite`` draws random
instances one at a time, and over a finite structure, where
``pqm.structures`` reads each axiom once over arrays of all instances.

Random instances bias the antecedent towards truth, since for random
data most antecedents are vacuously false.  Evaluation is parameterized
twice:

* the *element domain* decides what x ranges over: arbitrary subspaces,
  or only rays and the zero space;
* the *verify* function decides a verification statement [s : p]:
  exact containment (``pqm.subspace.leq``), or the projective
  definition sampled over rays of the complement (every ray of
  p-orthogonal must project s to the zero space), which
  ``SampledSemantics.verify`` gives.

The sampled semantics exercises the same statements using nothing but
projection impossibility, mirroring how the axioms fall out of the
circuit rules.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np

from . import subspace as sub
from .sampling import (
    BOT_PROBABILITY, random_compatible_pair, random_ray_or_bot, random_ray_within, random_subspace,
    random_subspace_within, random_unitary,
)
from .subspace import EQ_TOL, Subspace

__all__ = [
    "CheckResult",
    "CheckReport",
    "SampledSemantics",
    "RAYS_PER_CHECK",
    "SubspaceElements",
    "RayElements",
    "AXIOMS",
    "select_axioms",
    "run_axiom_suite",
]


def _require_positive(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


# ---------------------------------------------------------------------------
# Element domains


class SubspaceElements:
    """x ranges over arbitrary subspaces (the full lattice model)."""

    label = "subspaces"

    def free(self, rng: np.random.Generator, dim: int) -> Subspace:
        return random_subspace(rng, dim)

    def inside(self, rng: np.random.Generator, s: Subspace) -> Subspace:
        return random_subspace_within(rng, s)


class RayElements:
    """x ranges over rays and the zero space (the vector model)."""

    label = "rays"

    def free(self, rng: np.random.Generator, dim: int) -> Subspace:
        return random_ray_or_bot(rng, dim)

    def inside(self, rng: np.random.Generator, s: Subspace) -> Subspace:
        if s.rank == 0 or rng.random() < BOT_PROBABILITY:
            return sub.bottom(s.dim)
        return random_ray_within(rng, s)


# ---------------------------------------------------------------------------
# Semantics


# Complement rays drawn per sampled verification statement.
RAYS_PER_CHECK = 64


class SampledSemantics:
    """[s : p] by its projective definition, sampled over rays.

    s verifies p when every ray of the complement of p projects s to the
    zero space.  ``RAYS_PER_CHECK`` rays of the complement are drawn
    from ``rng`` per evaluation.  A true statement is never refuted by
    sampling, and a false one is missed only when every drawn ray is
    orthogonal to s within ``EQ_TOL``, so suites under this semantics
    are one-sided in the safe direction.

    The zero s and the full p verify without a draw, so the generator
    moves only for the statements that sampling decides, and neither
    takes the complement's SVD.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def verify(self, s: Subspace, p: Subspace) -> bool:
        if s.rank == 0 or p.rank == p.dim:
            return True
        comp = sub.ortho(p)
        # Projecting s onto a ray phi gives the zero space exactly when
        # phi is orthogonal to s, i.e. the basis residual s* phi vanishes.
        shape = (comp.rank, RAYS_PER_CHECK)
        coeffs = self.rng.standard_normal(shape) + 1j * self.rng.standard_normal(shape)
        phis = comp.basis @ coeffs
        phis = phis / np.linalg.norm(phis, axis=0, keepdims=True)
        overlaps = np.linalg.norm(s.basis.conj().T @ phis, axis=0)
        return bool(np.all(overlaps < EQ_TOL))


class _OverSubspaces:
    """The axioms read over subspaces of C^dim: ``verify`` is the given
    one, and projection, unitary action and every lattice term come from
    ``pqm.subspace``.  Projecting an element is its Sasaki conjunction,
    and a unitary moves an element as it moves a subspace."""

    def __init__(self, verify, dim: int):
        self.verify = verify
        self.top, self.bottom = sub.top(dim), sub.bottom(dim)
        # looked up per instance, not in the class body, so that a wrapper
        # set on a pqm.subspace function after import sees these calls
        self.meet, self.ortho = sub.meet, sub.ortho
        self.sasaki_and = self.project = sub.sasaki_and
        self.sasaki_hook = sub.sasaki_hook
        self.image = self.transform = sub.apply_unitary
        self.preimage = lambda u, p: sub.apply_unitary(u.adjoint(), p)

    both, no = staticmethod(lambda a, b: a and b()), staticmethod(operator.not_)


# ---------------------------------------------------------------------------
# Axiom definitions


@dataclass(frozen=True)
class AxiomDef:
    """One axiom, stated once.

    ``hypothesis``, ``conclusion`` and ``note`` take an interpretation
    and the instance's arguments: the element x, then the parameters.
    ``draw(rng, dim, domain)`` samples the arguments over subspaces.
    ``cases(s)`` gives the cases of a finite structure ``s`` in checking
    order, each taken with every domain element as x: an int array with
    a row per case and a column per parameter, of symbol positions in
    declared order, but of unitary positions in the first column if
    ``over_unitaries``.
    ``note`` describes a violated instance over a structure, where every
    argument is a name.  An existential axiom asks for some x whose
    conclusion holds; its note takes the parameters only.
    """

    name: str
    in_base: bool
    in_revised: bool
    existential: bool
    draw: Callable[..., tuple]
    cases: Callable[..., np.ndarray]
    hypothesis: Callable[..., bool]
    conclusion: Callable[..., bool]
    note: Callable[..., str]
    over_unitaries: bool = False


def _mix(rng, domain, dim, inside_of: Subspace | None):
    """Half the time sample x inside the biasing subspace, else freely."""
    if inside_of is not None and rng.random() < 0.5:
        return domain.inside(rng, inside_of)
    return domain.free(rng, dim)


def _draw_free(rng, dim, domain):
    return (domain.free(rng, dim),)


def _draw_monotone(rng, dim, domain):
    p = random_subspace(rng, dim)
    q = sub.join(p, random_subspace(rng, dim))
    return _mix(rng, domain, dim, p), p, q


def _draw_compatible_pair(rng, dim, domain):
    p, q = random_compatible_pair(rng, dim)
    return _mix(rng, domain, dim, sub.meet(p, q)), p, q


def _free_pair(bias):
    """Draw free p and q, then x biased into ``bias(p, q)``."""

    def draw(rng, dim, domain):
        p = random_subspace(rng, dim)
        q = random_subspace(rng, dim)
        return _mix(rng, domain, dim, bias(p, q)), p, q

    return draw


def _draw_project_chain(rng, dim, domain):
    q = random_subspace(rng, dim)
    p = random_subspace_within(rng, q)
    # Bias: x projecting into q inside the complement of p.  Seed a ray of
    # comp(p) ^ q, shift it by a ray of comp(q); the projection onto q of
    # the shifted ray lands back on the seed, which is p-orthogonal.
    seed_space = sub.meet(sub.ortho(p), q)
    if rng.random() < 0.5:
        x = domain.free(rng, dim)
    elif seed_space.rank > 0:
        w = random_ray_within(rng, seed_space)
        comp_q = sub.ortho(q)
        vec = w.basis
        if comp_q.rank > 0 and rng.random() < 0.5:
            vec = vec + random_ray_within(rng, comp_q).basis
        x = sub._span_from_matrix(vec, dim)
    else:
        x = domain.inside(rng, sub.ortho(q))
    return x, p, q


def _draw_project_bottom(rng, dim, domain):
    q = random_subspace(rng, dim)
    return _mix(rng, domain, dim, sub.ortho(q)), q


def _draw_unitary(bias):
    """Draw a unitary u and a free p, then x biased into ``bias(u, p)``."""

    def draw(rng, dim, domain):
        u = random_unitary(rng, dim)
        p = random_subspace(rng, dim)
        return _mix(rng, domain, dim, bias(u, p)), u, p

    return draw


# The cases of a finite structure, read off its fragment index's tables:
# np.argwhere and np.nonzero list positions in row-major order, so each
# array keeps the order of the loops named in its docstring.


def _no_parameters(s):
    return np.zeros((1, 0), dtype=np.intp)


def _unordered_pairs(s, among=None):
    """(p, q) for p, then q after p in declared order, where ``among``
    holds if given."""
    if among is None:
        among = np.ones((len(s.subspaces),) * 2, dtype=bool)
    return np.argwhere(np.triu(among, 1))


def _projector_positions(s):
    return np.array([s._index.position[q] for q in s.projectors], dtype=np.intp)


def _onto_projectors(s):
    """(p, q) for each projector q, then each symbol p."""
    q, n = _projector_positions(s), len(s.subspaces)
    return np.column_stack([np.tile(np.arange(n), len(q)), np.repeat(q, n)])


def _under_unitaries(s):
    """(u, p) for each unitary u, then each symbol p."""
    u, n = np.arange(len(s.unitaries)), len(s.subspaces)
    return np.column_stack([np.repeat(u, n), np.tile(np.arange(n), len(u))])


def _distinct_below(s):
    """(p, q) for each symbol p, then each other symbol q with p <= q."""
    below = s._index.below
    return np.argwhere(below & ~np.eye(len(below), dtype=bool))


def _projectors_below(s):
    """(p, q) for each projector p, then each projector q with p <= q."""
    q = _projector_positions(s)
    return q[np.argwhere(s._index.below[np.ix_(q, q)])]


_MEET_COMPATIBLE = AxiomDef(
    "meet-compatible", True, False, False, _draw_compatible_pair,
    lambda s: _unordered_pairs(s, s._index.compatible),
    hypothesis=lambda I, x, p, q: I.both(I.verify(x, p), lambda: I.verify(x, q)),
    conclusion=lambda I, x, p, q: I.verify(x, I.meet(p, q)),
    note=lambda I, x, p, q: f"{x} verifies {p} and {q} but not their meet {I.meet(p, q)}",
)

AXIOMS: tuple[AxiomDef, ...] = (
    AxiomDef(
        "verify-top", True, True, False, _draw_free, _no_parameters,
        hypothesis=lambda I, x: True,
        conclusion=lambda I, x: I.verify(x, I.top),
        note=lambda I, x: f"{x} does not verify {I.top}",
    ),
    AxiomDef(
        "some-possible", True, True, True, _draw_free, _no_parameters,
        hypothesis=lambda I, x: True,
        conclusion=lambda I, x: I.no(I.verify(x, I.bottom)),
        note=lambda I: f"every element verifies {I.bottom}",
    ),
    AxiomDef(
        "monotone", True, True, False, _draw_monotone,
        _distinct_below,
        hypothesis=lambda I, x, p, q: I.verify(x, p),
        conclusion=lambda I, x, p, q: I.verify(x, q),
        note=lambda I, x, p, q: f"{x} verifies {p} <= {q} but not {q}",
    ),
    _MEET_COMPATIBLE,
    # the same statement over every pair, compatible or not
    replace(
        _MEET_COMPATIBLE, name="meet", in_base=False, in_revised=True,
        draw=_free_pair(lambda p, q: sub.meet(p, q)), cases=_unordered_pairs,
    ),
    AxiomDef(
        "project-intro", True, True, False, _free_pair(lambda p, q: p), _onto_projectors,
        hypothesis=lambda I, x, p, q: I.verify(x, p),
        conclusion=lambda I, x, p, q: I.verify(I.project(x, q), I.sasaki_and(p, q)),
        note=lambda I, x, p, q: f"projecting {x} onto {q} loses {p}&{q} = {I.sasaki_and(p, q)}",
    ),
    AxiomDef(
        "project-chain", True, False, False, _draw_project_chain,
        _projectors_below,
        hypothesis=lambda I, x, p, q: I.verify(I.project(I.project(x, q), p), I.bottom),
        conclusion=lambda I, x, p, q: I.verify(I.project(x, p), I.bottom),
        note=lambda I, x, p, q: f"{x}: impossible through {q} then {p}, possible through {p}",
    ),
    AxiomDef(
        "project-bottom", True, False, False, _draw_project_bottom,
        lambda s: _projector_positions(s)[:, None],
        hypothesis=lambda I, x, q: I.verify(I.project(x, q), I.bottom),
        conclusion=lambda I, x, q: I.verify(x, I.ortho(q)),
        note=lambda I, x, q: f"{x} impossible through {q} but does not verify its complement",
    ),
    AxiomDef(
        "project-adjoint", False, True, False,
        _free_pair(lambda p, q: sub.sasaki_hook(p, q)), _onto_projectors,
        hypothesis=lambda I, x, p, q: I.verify(I.project(x, q), p),
        conclusion=lambda I, x, p, q: I.verify(x, I.sasaki_hook(p, q)),
        note=lambda I, x, p, q: (
            f"projection of {x} onto {q} verifies {p} but {x} misses {I.sasaki_hook(p, q)}"
        ),
    ),
    AxiomDef(
        "unitary-intro", True, True, False, _draw_unitary(lambda u, p: p), _under_unitaries,
        hypothesis=lambda I, x, u, p: I.verify(x, p),
        conclusion=lambda I, x, u, p: I.verify(I.transform(u, x), I.image(u, p)),
        note=lambda I, x, u, p: f"{u} applied to {x} loses the image of {p}",
        over_unitaries=True,
    ),
    AxiomDef(
        "unitary-elim", True, True, False,
        _draw_unitary(lambda u, p: sub.apply_unitary(u.adjoint(), p)), _under_unitaries,
        hypothesis=lambda I, x, u, p: I.verify(I.transform(u, x), p),
        conclusion=lambda I, x, u, p: I.verify(x, I.preimage(u, p)),
        note=lambda I, x, u, p: f"{u} image of {x} verifies {p} but {x} misses its preimage",
        over_unitaries=True,
    ),
)


_EXISTENTIAL = frozenset(a.name for a in AXIOMS if a.existential)


def select_axioms(figure: str) -> list[AxiomDef]:
    """The axioms of a figure: ``"base"``, ``"revised"`` or ``"all"``."""
    if figure not in ("base", "revised", "all"):
        raise ValueError(f"unknown figure {figure!r}: expected 'base', 'revised' or 'all'")
    return [
        a for a in AXIOMS
        if figure == "all" or (a.in_base if figure == "base" else a.in_revised)
    ]


@dataclass(frozen=True)
class CheckResult:
    """The count of one law over one domain: an axiom, over random
    instances or over a finite structure, or a circuit rule.

    ``hypothesis_hits`` counts the instances whose hypothesis held; for
    a random existential it is 1 when some instance witnessed it.
    ``skipped`` counts the instances of a structure whose conclusion names
    a subspace outside the fragment; they are not in ``instances``.
    ``examples`` describe the first violations over a structure.  An
    ``informational`` result is recorded but never asserted.
    """

    name: str
    instances: int
    hypothesis_hits: int
    violations: int
    skipped: int = 0
    examples: tuple[str, ...] = ()
    informational: bool = False

    @property
    def existential(self) -> bool:
        """Whether the law is an existential axiom of ``AXIOMS``."""
        return self.name in _EXISTENTIAL


@dataclass(frozen=True)
class CheckReport:
    """The results of one law check: ``params`` holds the arguments of
    the call, and ``by_domain`` maps a label of what the instances range
    over to that domain's results."""

    params: dict
    by_domain: dict[str, tuple[CheckResult, ...]]

    @property
    def results(self) -> tuple[CheckResult, ...]:
        return tuple(r for results in self.by_domain.values() for r in results)

    @property
    def total_violations(self) -> int:
        return sum(r.violations for r in self.results if not r.informational)

    @property
    def total_skipped(self) -> int:
        return sum(r.skipped for r in self.results)

    @property
    def ok(self) -> bool:
        return self.total_violations == 0

    def to_json(self) -> dict:
        return {
            **self.params,
            "domains": {
                label: [asdict(r) for r in results] for label, results in self.by_domain.items()
            },
            "total_violations": self.total_violations,
            "total_skipped": self.total_skipped,
            "ok": self.ok,
        }


def run_axiom_suite(
    dim: int,
    samples: int,
    seed: int,
    domain,
    verify,
    figure: str = "all",
) -> tuple[CheckResult, ...]:
    """Evaluate every axiom of the figure on ``samples`` random instances,
    with ``verify(s, p)`` deciding each verification statement.

    For a conditional axiom a violation is an instance whose antecedent
    holds and conclusion fails; for an existential the whole run must
    produce at least one witness.  Both sides are evaluated on every
    instance: a sampled ``verify`` draws from its own generator, so the
    stream must not depend on the hypothesis.  The unconditioned meet
    axiom is marked informational below dimension 3: it is recorded
    there, never asserted.
    """
    _require_positive("samples", samples)
    interp = _OverSubspaces(verify, dim)
    results = []
    for index, axiom in enumerate(select_axioms(figure)):
        rng = np.random.default_rng([seed, dim, index])
        hits = 0
        violations = 0
        witnessed = False
        for _ in range(samples):
            args = axiom.draw(rng, dim, domain)
            hyp = axiom.hypothesis(interp, *args)
            concl = axiom.conclusion(interp, *args)
            witnessed = witnessed or concl
            if hyp:
                hits += 1
                violations += not concl
        if axiom.existential:
            hits = int(witnessed)
            violations = int(not witnessed)
        results.append(
            CheckResult(
                axiom.name, samples, hits, violations,
                informational=(axiom.name == "meet" and dim < 3),
            )
        )
    return tuple(results)
