"""The verification-statement axioms, each stated once, and their random suites.

Each axiom in ``AXIOMS`` is an implication (or an existential) over a
system element x and parameters, written once as a hypothesis and a
conclusion over an interpretation ``I``, which offers ``verify``,
``project``, ``transform``, ``top``, ``bottom``, the lattice terms the
axioms name, and ``both(a, b)`` and ``no(a)`` for ``a and b()`` and
``not a``, which cannot take arrays.  Two interpretations read the same
statements, each over arrays of many instances at once: over stacks of
subspaces, where ``run_axiom_suite`` draws and checks random instances
in blocks, and over a finite structure, where ``pqm.structures`` reads
each axiom once over all its instances.

The random suites draw a block of about ``_STACK_ENTRIES`` complex
entries (dim * dim per instance) per numpy call and check it with one
stacked kernel call per lattice term.  A block draws each quantity for
all its instances in one call, so which numbers of the stream each
instance gets depends on the block length.  Unlike the rule suite's
(drawn instance by instance, run in blocks), their counts therefore
depend on the block length, and the counts for a given seed changed
when the suites moved from one instance at a time to blocks.

Random instances bias the antecedent towards truth, since for random
data most antecedents are vacuously false.  Evaluation is parameterized
twice:

* the *element domain* decides what x ranges over: arbitrary subspaces,
  or only rays and the zero space;
* the *verify* function decides the verification statements [s : p] of
  a block: exact containment (``pqm.subspace.stacked_leq``), or the
  projective definition sampled over rays of the complement (every ray
  of p-orthogonal must project s to the zero space), which
  ``SampledSemantics.verify`` gives.

The sampled semantics exercises the same statements using nothing but
projection impossibility, mirroring how the axioms fall out of the
circuit rules.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np

from . import subspace as sub
from .sampling import (
    BOT_PROBABILITY, random_compatible_pairs, random_rays_or_bot, random_subspaces, random_subspaces_within,
    random_unitaries,
)
from .subspace import EQ_TOL, SubspaceStack

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
# Element domains: each draws a block of elements at once, as a stack


class SubspaceElements:
    """x ranges over arbitrary subspaces (the full lattice model)."""

    label = "subspaces"

    def free(self, rng: np.random.Generator, n: int, dim: int) -> SubspaceStack:
        return random_subspaces(rng, n, dim)

    def inside(self, rng: np.random.Generator, s: SubspaceStack) -> SubspaceStack:
        """A subspace of each s[i], of rank uniform over 0..s[i]'s."""
        return random_subspaces_within(rng, s, rng.integers(0, s.rank + 1))


class RayElements:
    """x ranges over rays and the zero space (the vector model)."""

    label = "rays"

    def free(self, rng: np.random.Generator, n: int, dim: int) -> SubspaceStack:
        return random_rays_or_bot(rng, n, dim)

    def inside(self, rng: np.random.Generator, s: SubspaceStack) -> SubspaceStack:
        """A ray of each nonzero s[i], or the zero space with probability
        ``BOT_PROBABILITY``."""
        ray = (s.rank > 0) & (rng.random(len(s.rank)) >= BOT_PROBABILITY)
        return random_subspaces_within(rng, s, ray.astype(np.intp))


# ---------------------------------------------------------------------------
# Semantics


# Complement rays drawn per sampled verification statement.
RAYS_PER_CHECK = 64


class SampledSemantics:
    """[s : p] by its projective definition, sampled over rays.

    s verifies p when every ray of the complement of p projects s to the
    zero space.  ``verify(s, p)`` decides a block of statements at once,
    over zero-padded stacks of bases whose columns lead.  The complements
    come from one QR call, and ``RAYS_PER_CHECK`` rays of each from
    ``rng``, one draw per chunk of about ``_STACK_ENTRIES`` entries of
    rays.  A true statement is never refuted by sampling, and a false one
    is missed only when every drawn ray is orthogonal to s within
    ``EQ_TOL``, so suites under this semantics are one-sided in the safe
    direction.

    The zero s (whose first column is zero) and the full p (whose last
    column is not) verify without a draw, so the generator moves only for
    the statements that sampling decides, and neither takes the QR.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def verify(self, s: np.ndarray, p: np.ndarray) -> np.ndarray:
        out = np.ones(len(s), dtype=bool)
        todo = np.flatnonzero(s[:, :, 0].any(axis=-1) & ~p[:, :, -1].any(axis=-1))
        if not todo.size:
            return out
        dim, p = p.shape[1], p[todo]
        rank = np.count_nonzero(p.any(axis=-2), axis=-1)
        u = _completed(p)
        outside = (np.arange(dim) >= rank[:, None])[:, :, None]
        residuals = s[todo].conj().swapaxes(-1, -2) @ u
        for chunk in sub.stack_chunks(todo.size, dim * RAYS_PER_CHECK):
            # A ray phi = U c of the complement of p has coordinates c only
            # on the columns of U past the rank cut, and |phi| = |c|.
            shape = (len(residuals[chunk]), dim, RAYS_PER_CHECK, 2)
            coeffs = self.rng.standard_normal(shape).view(np.complex128)[..., 0] * outside[chunk]
            # Projecting s onto phi gives the zero space exactly when phi is
            # orthogonal to s, i.e. the basis residual s* phi vanishes.
            overlaps = sub._squared_columns(residuals[chunk] @ coeffs)
            out[todo[chunk]] = np.all(overlaps < EQ_TOL**2 * sub._squared_columns(coeffs), axis=-1)
        return out


# ---------------------------------------------------------------------------
# The stacked lattice operations


def _span(a: np.ndarray) -> SubspaceStack:
    return SubspaceStack(*sub.stacked_span(a))


def _meet(p: SubspaceStack, q: SubspaceStack) -> SubspaceStack:
    """``sub.meet`` of each pair, over padded stacks.  A padding column of
    p leaves a zero column in the residual off q, whose zero sine is no
    direction of the meet: a unit row under each padding column lifts its
    sine to 1, apart from the sines of p's own columns."""
    dim = p.basis.shape[1]
    padding = np.arange(dim) >= p.rank[:, None]
    lifted = np.concatenate([sub._residual(p.basis, q.basis), padding[:, None, :] * np.eye(dim)], axis=1)
    _, sin, vh = np.linalg.svd(lifted, full_matrices=False)
    rank = np.count_nonzero(sin < EQ_TOL, axis=-1)
    return SubspaceStack(sub._leading(p.basis @ vh[:, ::-1].conj().swapaxes(-1, -2), rank), rank)


def _ortho(p: SubspaceStack) -> SubspaceStack:
    """``sub.ortho`` of each: the columns of the Q of p's basis past its
    rank, moved to the front."""
    dim = p.basis.shape[1]
    order = (np.arange(dim) + p.rank[:, None]) % dim
    complement = np.take_along_axis(_completed(p.basis), order[:, None, :], axis=2)
    return SubspaceStack(sub._leading(complement, dim - p.rank), dim - p.rank)


def _completed(basis: np.ndarray) -> np.ndarray:
    """The Q of each basis of a stack: a padding column adds no Householder
    reflection, so Q's leading columns span the basis and the others its
    complement."""
    return np.linalg.qr(basis)[0]


def _sasaki_and(p: SubspaceStack, q: SubspaceStack) -> SubspaceStack:
    """The span of each p projected onto q."""
    return _span(q.basis @ (q.basis.conj().swapaxes(-1, -2) @ p.basis))


def _sasaki_hook(p: SubspaceStack, q: SubspaceStack) -> SubspaceStack:
    """q' v (p ^ q) of each pair."""
    return _span(np.concatenate([_ortho(q).basis, _meet(p, q).basis], axis=-1))


def _image(u: np.ndarray, p: SubspaceStack) -> SubspaceStack:
    """Each p moved by the unitary u[i]: a unitary keeps a basis orthonormal."""
    return SubspaceStack(u @ p.basis, p.rank)


def _preimage(u: np.ndarray, p: SubspaceStack) -> SubspaceStack:
    return _image(u.conj().swapaxes(-1, -2), p)


class _OverStacks:
    """The axioms read over a block of n random instances in C^dim, every
    instance at once, as ``pqm.structures._OverStructure`` reads them over
    a finite structure: elements and parameters are ``SubspaceStack``s
    and (n, dim, dim) stacks of unitaries, ``verify`` is the given one
    over the two stacks' bases, and each lattice term is one stacked
    call.  Projecting an element is its Sasaki conjunction, and a unitary
    moves an element as it moves a subspace."""

    def __init__(self, verify, n: int, dim: int):
        self.verify = lambda x, p: verify(x.basis, p.basis)
        eye = np.eye(dim, dtype=np.complex128)
        self.top = SubspaceStack(np.broadcast_to(eye, (n, dim, dim)), np.full(n, dim))
        self.bottom = SubspaceStack(np.zeros((n, dim, dim), dtype=np.complex128), np.zeros(n, dtype=np.intp))

    meet, ortho, sasaki_hook = staticmethod(_meet), staticmethod(_ortho), staticmethod(_sasaki_hook)
    sasaki_and = project = staticmethod(_sasaki_and)
    image = transform = staticmethod(_image)
    preimage = staticmethod(_preimage)
    both, no = staticmethod(lambda a, b: a & b()), staticmethod(np.logical_not)


# ---------------------------------------------------------------------------
# Axiom definitions


@dataclass(frozen=True)
class AxiomDef:
    """One axiom, stated once.

    ``hypothesis``, ``conclusion`` and ``note`` take an interpretation
    and the instance's arguments: the element x, then the parameters.
    ``draw(rng, n, dim, domain)`` samples the arguments of n instances
    over subspaces: a ``SubspaceStack`` per element or subspace, and an
    (n, dim, dim) stack per unitary.
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


def _take(s: SubspaceStack, mask: np.ndarray) -> SubspaceStack:
    return SubspaceStack(s.basis[mask], s.rank[mask])


def _assemble(n: int, dim: int, parts) -> SubspaceStack:
    """One stack from (mask, stack) parts, each stack holding the
    instances its mask selects, in order."""
    basis = np.empty((n, dim, dim), dtype=np.complex128)
    rank = np.empty(n, dtype=np.intp)
    for mask, part in parts:
        basis[mask], rank[mask] = part
    return SubspaceStack(basis, rank)


def _mix(rng, domain, bias: SubspaceStack) -> SubspaceStack:
    """Half the instances sample x inside the biasing subspace, the rest
    freely."""
    n, dim, _ = bias.basis.shape
    inside = rng.random(n) < 0.5
    free = domain.free(rng, n - int(inside.sum()), dim)
    return _assemble(n, dim, [(inside, domain.inside(rng, _take(bias, inside))), (~inside, free)])


def _draw_free(rng, n, dim, domain):
    return (domain.free(rng, n, dim),)


def _draw_monotone(rng, n, dim, domain):
    p = random_subspaces(rng, n, dim)
    q = _span(np.concatenate([p.basis, random_subspaces(rng, n, dim).basis], axis=-1))
    return _mix(rng, domain, p), p, q


def _draw_compatible_pair(rng, n, dim, domain):
    p, q, common = random_compatible_pairs(rng, n, dim)
    return _mix(rng, domain, common), p, q


def _free_pair(bias):
    """Draw free p and q, then x biased into ``bias(p, q)``."""

    def draw(rng, n, dim, domain):
        p = random_subspaces(rng, n, dim)
        q = random_subspaces(rng, n, dim)
        return _mix(rng, domain, bias(p, q)), p, q

    return draw


def _draw_project_chain(rng, n, dim, domain):
    q = random_subspaces(rng, n, dim)
    p = random_subspaces_within(rng, q, rng.integers(0, q.rank + 1))
    comp_q = _ortho(q)
    # Bias: x projecting into q inside the complement of p.  Seed a ray of
    # comp(p) ^ q, half the time shift it by a ray of comp(q); the
    # projection onto q of the shifted ray lands back on the seed, which is
    # p-orthogonal.  Without a seed, x lies inside comp(q).
    seed_space = _meet(_ortho(p), q)
    free = rng.random(n) < 0.5
    seeded = ~free & (seed_space.rank > 0)
    unseeded = ~free & ~seeded
    ones = np.ones(int(seeded.sum()), dtype=np.intp)
    seed = random_subspaces_within(rng, _take(seed_space, seeded), ones).basis
    shifted = (rng.random(len(ones)) < 0.5) & (comp_q.rank[seeded] > 0)
    seed = seed + random_subspaces_within(rng, _take(comp_q, seeded), shifted.astype(np.intp)).basis
    rays = SubspaceStack(seed / np.linalg.norm(seed[:, :, :1], axis=1, keepdims=True), ones)
    return _assemble(n, dim, [
        (free, domain.free(rng, int(free.sum()), dim)),
        (seeded, rays),
        (unseeded, domain.inside(rng, _take(comp_q, unseeded))),
    ]), p, q


def _draw_project_bottom(rng, n, dim, domain):
    q = random_subspaces(rng, n, dim)
    return _mix(rng, domain, _ortho(q)), q


def _draw_unitary(bias):
    """Draw a unitary u and a free p, then x biased into ``bias(u, p)``."""

    def draw(rng, n, dim, domain):
        u = random_unitaries(rng, n, dim)
        p = random_subspaces(rng, n, dim)
        return _mix(rng, domain, bias(u, p)), u, p

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
        draw=_free_pair(_meet), cases=_unordered_pairs,
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
        _free_pair(_sasaki_hook), _onto_projectors,
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
        _draw_unitary(_preimage), _under_unitaries,
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
    with ``verify(s, p)`` deciding the verification statements of a block
    at once, over two zero-padded (n, dim, dim) stacks of bases.

    Each axiom draws its instances from its own generator in blocks of
    about ``_STACK_ENTRIES`` complex entries, at dim * dim per instance
    and at least one instance, and reads its hypothesis and conclusion
    once per block over stacks.  A block draws each quantity for all its
    instances at once, so the counts depend on the block length.  For a
    conditional axiom a violation is an instance whose
    antecedent holds and conclusion fails; for an existential the whole
    run must produce at least one witness.  Both sides are evaluated on
    every instance: a sampled ``verify`` draws from its own generator, so
    the stream must not depend on the hypothesis.  The unconditioned meet
    axiom is marked informational below dimension 3: it is recorded
    there, never asserted.
    """
    _require_positive("samples", samples)
    results = []
    for index, axiom in enumerate(select_axioms(figure)):
        rng = np.random.default_rng([seed, dim, index])
        hits = 0
        violations = 0
        witnessed = False
        for block in sub.stack_chunks(samples, dim * dim):
            n = min(block.stop, samples) - block.start
            interp = _OverStacks(verify, n, dim)
            args = axiom.draw(rng, n, dim, domain)
            hyp = np.broadcast_to(axiom.hypothesis(interp, *args), n)
            concl = np.broadcast_to(axiom.conclusion(interp, *args), n)
            witnessed = witnessed or bool(concl.any())
            hits += int(hyp.sum())
            violations += int((hyp & ~concl).sum())
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
