"""The verification-statement axioms, each stated once, and their random suites.

Each axiom in ``AXIOMS`` is an implication (or an existential) over a
system element x and parameters, written once as a hypothesis and a
conclusion over an interpretation ``I``, which offers ``verify``,
``project``, ``transform``, ``top``, ``bottom`` and the lattice terms
the axioms name.  Two interpretations read the same statements: over
subspaces, where ``run_axiom_suite`` draws random instances, and over a
finite structure, where ``pqm.structures`` enumerates them.

Random instances bias the antecedent towards truth, since for random
data most antecedents are vacuously false.  Evaluation is parameterized
twice:

* the *element domain* decides what x ranges over: arbitrary subspaces,
  or only rays and the zero space;
* the *semantics* decides how a verification statement [s : p] is
  evaluated: exact containment, or the projective definition sampled
  over rays of the complement (every ray of p-orthogonal must project s
  to the zero space).

The sampled semantics exercises the same statements using nothing but
projection impossibility, mirroring how the axioms fall out of the
circuit rules.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import partial
from typing import Callable, Iterable

import numpy as np

from . import subspace as sub
from .sampling import (
    random_compatible_pair,
    random_ray_or_bot,
    random_ray_within,
    random_subspace,
    random_subspace_within,
    random_unitary,
)
from .subspace import DEFAULT_TOL, Subspace, Tolerance, UnitaryOp

__all__ = [
    "CheckResult",
    "CheckReport",
    "ExactSemantics",
    "SampledSemantics",
    "SubspaceElements",
    "RayElements",
    "AXIOMS",
    "select_axioms",
    "run_axiom_suite",
]


# ---------------------------------------------------------------------------
# Element domains


class SubspaceElements:
    """x ranges over arbitrary subspaces (the full lattice model)."""

    label = "subspaces"

    def free(self, rng: np.random.Generator, dim: int, tol: Tolerance) -> Subspace:
        return random_subspace(rng, dim, tol=tol)

    def inside(self, rng: np.random.Generator, s: Subspace, tol: Tolerance) -> Subspace:
        return random_subspace_within(rng, s, tol=tol)


class RayElements:
    """x ranges over rays and the zero space (the vector model)."""

    label = "rays"

    def free(self, rng: np.random.Generator, dim: int, tol: Tolerance) -> Subspace:
        return random_ray_or_bot(rng, dim, tol)

    def inside(self, rng: np.random.Generator, s: Subspace, tol: Tolerance) -> Subspace:
        if s.rank == 0 or rng.random() < 0.125:
            return sub.bottom(s.dim)
        return random_ray_within(rng, s, tol)


# ---------------------------------------------------------------------------
# Semantics


class ExactSemantics:
    """[s : p] is containment."""

    def __init__(self, tol: Tolerance = DEFAULT_TOL):
        self.tol = tol

    def verify(self, s: Subspace, p: Subspace) -> bool:
        return sub.leq(s, p, self.tol)


class SampledSemantics:
    """[s : p] by its projective definition, sampled over rays.

    s verifies p when every ray of the complement of p projects s to the
    zero space.  The complement's rays are sampled (``rays_per_check``
    per evaluation); a genuinely true statement can never be refuted by
    sampling, so suites under this semantics are one-sided in the safe
    direction.
    """

    def __init__(self, rng: np.random.Generator, rays_per_check: int = 64,
                 tol: Tolerance = DEFAULT_TOL):
        self.rng = rng
        self.rays = rays_per_check
        self.tol = tol

    def verify(self, s: Subspace, p: Subspace) -> bool:
        comp = sub.ortho(p, self.tol)
        if comp.rank == 0:
            return True
        if s.rank == 0:
            return True
        # Projecting s onto a ray phi gives the zero space exactly when
        # phi is orthogonal to s, i.e. the basis residual s* phi vanishes.
        coeffs = self.rng.standard_normal((comp.rank, self.rays)) + 1j * self.rng.standard_normal(
            (comp.rank, self.rays)
        )
        phis = comp.basis @ coeffs
        phis = phis / np.linalg.norm(phis, axis=0, keepdims=True)
        overlaps = np.linalg.norm(s.basis.conj().T @ phis, axis=0)
        return bool(np.all(overlaps < self.tol.eq_tol))


class _OverSubspaces:
    """The axioms read over subspaces of C^dim: ``verify`` is the given
    one, and projection, unitary action and every lattice term come from
    ``pqm.subspace``.  Projecting an element is its Sasaki conjunction,
    and a unitary moves an element as it moves a subspace."""

    def __init__(self, verify, dim: int, tol: Tolerance):
        self.verify = verify
        self.top, self.bottom = sub.top(dim), sub.bottom(dim)
        self.meet = partial(sub.meet, tol=tol)
        self.ortho = partial(sub.ortho, tol=tol)
        self.sasaki_and = self.project = partial(sub.sasaki_and, tol=tol)
        self.sasaki_hook = partial(sub.sasaki_hook, tol=tol)
        self.image = self.transform = partial(sub.apply_unitary, tol=tol)
        self.preimage = lambda u, p: sub.apply_unitary(u.adjoint(), p, tol)


# ---------------------------------------------------------------------------
# Axiom definitions


@dataclass(frozen=True)
class AxiomDef:
    """One axiom, stated once.

    ``hypothesis``, ``conclusion`` and ``note`` take an interpretation
    and the instance's arguments: the element x, then the parameters.
    ``draw(rng, dim, domain, tol)`` samples the arguments over subspaces.
    ``cases(s, tol)`` yields the parameter tuples of a finite structure
    ``s`` in checking order, each taken with every domain element as x.
    ``note`` describes a violated instance over a structure, where every
    argument is a name.  An existential axiom asks for some x whose
    conclusion holds; its note takes the parameters only.
    """

    name: str
    in_base: bool
    in_revised: bool
    existential: bool
    draw: Callable[..., tuple]
    cases: Callable[..., Iterable[tuple]]
    hypothesis: Callable[..., bool]
    conclusion: Callable[..., bool]
    note: Callable[..., str]


def _mix(rng, domain, dim, tol, inside_of: Subspace | None):
    """Half the time sample x inside the biasing subspace, else freely."""
    if inside_of is not None and rng.random() < 0.5:
        return domain.inside(rng, inside_of, tol)
    return domain.free(rng, dim, tol)


def _draw_free(rng, dim, domain, tol):
    return (domain.free(rng, dim, tol),)


def _draw_monotone(rng, dim, domain, tol):
    p = random_subspace(rng, dim, tol=tol)
    q = sub.join(p, random_subspace(rng, dim, tol=tol), tol)
    return _mix(rng, domain, dim, tol, p), p, q


def _draw_compatible_pair(rng, dim, domain, tol):
    p, q = random_compatible_pair(rng, dim, tol)
    return _mix(rng, domain, dim, tol, sub.meet(p, q, tol)), p, q


def _free_pair(bias):
    """Draw free p and q, then x biased into ``bias(p, q, tol)``."""

    def draw(rng, dim, domain, tol):
        p = random_subspace(rng, dim, tol=tol)
        q = random_subspace(rng, dim, tol=tol)
        return _mix(rng, domain, dim, tol, bias(p, q, tol)), p, q

    return draw


def _draw_project_chain(rng, dim, domain, tol):
    q = random_subspace(rng, dim, tol=tol)
    p = random_subspace_within(rng, q, tol=tol)
    # Bias: x projecting into q inside the complement of p.  Seed a ray of
    # comp(p) ^ q, shift it by a ray of comp(q); the projection onto q of
    # the shifted ray lands back on the seed, which is p-orthogonal.
    seed_space = sub.meet(sub.ortho(p, tol), q, tol)
    if rng.random() < 0.5:
        x = domain.free(rng, dim, tol)
    elif seed_space.rank > 0:
        w = random_ray_within(rng, seed_space, tol)
        comp_q = sub.ortho(q, tol)
        vec = w.basis[:, 0].copy()
        if comp_q.rank > 0 and rng.random() < 0.5:
            z = random_ray_within(rng, comp_q, tol)
            vec = vec + z.basis[:, 0]
        x = sub.span_of([vec], dim, tol)
    else:
        x = domain.inside(rng, sub.ortho(q, tol), tol)
    return x, p, q


def _draw_project_bottom(rng, dim, domain, tol):
    q = random_subspace(rng, dim, tol=tol)
    return _mix(rng, domain, dim, tol, sub.ortho(q, tol)), q


def _draw_unitary(bias):
    """Draw a unitary u and a free p, then x biased into ``bias(u, p, tol)``."""

    def draw(rng, dim, domain, tol):
        u = random_unitary(rng, dim)
        p = random_subspace(rng, dim, tol=tol)
        return _mix(rng, domain, dim, tol, bias(u, p, tol)), u, p

    return draw


def _no_parameters(s, tol):
    return [()]


def _unordered_pairs(s, tol):
    syms = list(s.subspaces)
    return [(p, q) for i, p in enumerate(syms) for q in syms[i + 1 :]]


def _onto_projectors(s, tol):
    return ((p, q) for q in s.projectors for p in s.subspaces)


def _under_unitaries(s, tol):
    return ((u, p) for u in s.unitaries for p in s.subspaces)


_MEET_COMPATIBLE = AxiomDef(
    "meet-compatible", True, False, False, _draw_compatible_pair,
    lambda s, tol: (
        (p, q) for p, q in _unordered_pairs(s, tol)
        if sub.compatible(s.subspaces[p], s.subspaces[q], tol)
    ),
    hypothesis=lambda I, x, p, q: I.verify(x, p) and I.verify(x, q),
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
        conclusion=lambda I, x: not I.verify(x, I.bottom),
        note=lambda I: f"every element verifies {I.bottom}",
    ),
    AxiomDef(
        "monotone", True, True, False, _draw_monotone,
        lambda s, tol: (
            (p, q) for p, pv in s.subspaces.items() for q, qv in s.subspaces.items()
            if p != q and sub.leq(pv, qv, tol)
        ),
        hypothesis=lambda I, x, p, q: I.verify(x, p),
        conclusion=lambda I, x, p, q: I.verify(x, q),
        note=lambda I, x, p, q: f"{x} verifies {p} <= {q} but not {q}",
    ),
    _MEET_COMPATIBLE,
    # the same statement over every pair, compatible or not
    replace(
        _MEET_COMPATIBLE, name="meet", in_base=False, in_revised=True,
        draw=_free_pair(lambda p, q, tol: sub.meet(p, q, tol)), cases=_unordered_pairs,
    ),
    AxiomDef(
        "project-intro", True, True, False, _free_pair(lambda p, q, tol: p), _onto_projectors,
        hypothesis=lambda I, x, p, q: I.verify(x, p),
        conclusion=lambda I, x, p, q: I.verify(I.project(x, q), I.sasaki_and(p, q)),
        note=lambda I, x, p, q: f"projecting {x} onto {q} loses {p}&{q} = {I.sasaki_and(p, q)}",
    ),
    AxiomDef(
        "project-chain", True, False, False, _draw_project_chain,
        lambda s, tol: (
            (p, q) for p in s.projectors for q in s.projectors
            if sub.leq(s.subspaces[p], s.subspaces[q], tol)
        ),
        hypothesis=lambda I, x, p, q: I.verify(I.project(I.project(x, q), p), I.bottom),
        conclusion=lambda I, x, p, q: I.verify(I.project(x, p), I.bottom),
        note=lambda I, x, p, q: f"{x}: impossible through {q} then {p}, possible through {p}",
    ),
    AxiomDef(
        "project-bottom", True, False, False, _draw_project_bottom,
        lambda s, tol: ((q,) for q in s.projectors),
        hypothesis=lambda I, x, q: I.verify(I.project(x, q), I.bottom),
        conclusion=lambda I, x, q: I.verify(x, I.ortho(q)),
        note=lambda I, x, q: f"{x} impossible through {q} but does not verify its complement",
    ),
    AxiomDef(
        "project-adjoint", False, True, False,
        _free_pair(lambda p, q, tol: sub.sasaki_hook(p, q, tol)), _onto_projectors,
        hypothesis=lambda I, x, p, q: I.verify(I.project(x, q), p),
        conclusion=lambda I, x, p, q: I.verify(x, I.sasaki_hook(p, q)),
        note=lambda I, x, p, q: (
            f"projection of {x} onto {q} verifies {p} but {x} misses {I.sasaki_hook(p, q)}"
        ),
    ),
    AxiomDef(
        "unitary-intro", True, True, False, _draw_unitary(lambda u, p, tol: p), _under_unitaries,
        hypothesis=lambda I, x, u, p: I.verify(x, p),
        conclusion=lambda I, x, u, p: I.verify(I.transform(u, x), I.image(u, p)),
        note=lambda I, x, u, p: f"{u} applied to {x} loses the image of {p}",
    ),
    AxiomDef(
        "unitary-elim", True, True, False,
        _draw_unitary(lambda u, p, tol: sub.apply_unitary(u.adjoint(), p, tol)), _under_unitaries,
        hypothesis=lambda I, x, u, p: I.verify(I.transform(u, x), p),
        conclusion=lambda I, x, u, p: I.verify(x, I.preimage(u, p)),
        note=lambda I, x, u, p: f"{u} image of {x} verifies {p} but {x} misses its preimage",
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
    semantics,
    figure: str = "all",
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[CheckResult, ...]:
    """Evaluate every axiom of the figure on ``samples`` random instances.

    For a conditional axiom a violation is an instance whose antecedent
    holds and conclusion fails; for an existential the whole run must
    produce at least one witness.  Both sides are evaluated on every
    instance: a sampled semantics draws from its own generator, so the
    stream must not depend on the hypothesis.  The unconditioned meet
    axiom is marked informational below dimension 3: it is recorded
    there, never asserted.
    """
    interp = _OverSubspaces(semantics.verify, dim, tol)
    results = []
    for index, axiom in enumerate(select_axioms(figure)):
        rng = np.random.default_rng([seed, dim, index])
        hits = 0
        violations = 0
        witnessed = False
        for _ in range(samples):
            args = axiom.draw(rng, dim, domain, tol)
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
