"""Independent routes that only the tests use.

The package keeps one route per operation.  These are the second routes
the tests check it against:

- the De Morgan meet (p' v q')', against the residual meet that
  ``meet`` computes;
- the lattice formula of the Sasaki conjunction, against the projector
  image that ``sasaki_and`` computes;
- the projector commutator, against the lattice test ``compatible``;
- the principal angles of two subspaces, by their sines and cosines,
  which measure how far a computed subspace is from the expected one;
- a bare formula parsed without a symbol table, against
  ``pretty_print``, which must render text that parses back to it;
- one run of a circuit to its last state, against the rule suite's
  fold, which decides the impossibility of many runs at once;
- a one-sided Monte-Carlo check over rays, against the decider;
- the samplers as full Haar unitaries sliced to their leading columns
  and as spans through ``span_of``, against ``pqm.sampling``, which
  factors only the columns it keeps and spans kernel results unchecked;
- a sentence evaluated in a finite structure by brute force, with no
  floating point and no normal form, against ``normalize`` and
  ``evaluate`` over the structure's subspaces and unitaries: by the
  completeness of the theory, a model satisfies exactly the sentences
  that hold over C^d;
- the fragment index's ``meet``, ``sasaki_and`` and ``compatible``
  tables with every ordered symbol pair sent through the stacked kernel,
  against the index, which reads the pairs that its ``leq`` table
  orders off that table and mirrors the symmetric tables;
- the strong-morphism check by per-pair kernel calls on the least
  members' values, against the lookups in the fragment index's tables
  that ``check_strong_morphism`` makes;
- the structure axiom check one instance at a time, over names, against
  ``check_structure_axioms``, which reads each axiom once over arrays of
  all its instances;
- the axioms read over one instance of subspaces at a time, through the
  per-pair kernel, against the random suites, which read each axiom once
  per block of instances over stacks;
- filter closure, ray coverage, the two-ray floor and the
  incompatible-pair diagnostics, which read a finite structure's
  filters and least members, and ``saturate``, which closes a seed set
  of subspaces under the operations the axiom checker consults.  The
  package's model check needs none of them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from pqm import subspace as sub
from pqm.axioms import CheckReport, CheckResult, select_axioms
from pqm.circuit import Circuit, run_circuit
from pqm.decide import decide_basic
from pqm.lang import (
    And, Apply, Atom, Exists, Forall, Formula, Iff, Implies, Not, Or, Proj, Term, Var, _Parser,
)
from pqm.normalize import BasicSentence
from pqm.structures import FiniteStructure, KappaResult, MorphismReport, kappa_of
from pqm.subspace import EQ_TOL, Subspace, UnitaryOp, _same_dim, join, meet, ortho


# ---------------------------------------------------------------------------
# Lattice routes


def meet_by_complements(p: Subspace, q: Subspace) -> Subspace:
    """Lattice meet by De Morgan, (p' v q')': three SVDs and a join,
    cutting singular values at ``RANK_TOL`` where :func:`meet` cuts the
    sines of the principal angles at ``EQ_TOL``."""
    _same_dim(p, q)
    return ortho(join(ortho(p), ortho(q)))


def sasaki_and_lattice(p: Subspace, q: Subspace) -> Subspace:
    """Sasaki conjunction by its lattice formula q ^ (q' v p).

    Independent route kept alongside :func:`sasaki_and`; the two are
    cross-checked in the test suite and must agree at tolerance.
    """
    _same_dim(p, q)
    return meet(q, join(ortho(q), p))


def projectors_commute(p: Subspace, q: Subspace) -> bool:
    """Commutator test for compatibility; independent of the lattice route."""
    _same_dim(p, q)
    pp, pq = p.projector(), q.projector()
    return float(np.abs(pp @ pq - pq @ pp).max()) < EQ_TOL


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


# ---------------------------------------------------------------------------
# Front-end and circuit routes


def parse_formula(text: str) -> Formula:
    """Parse a bare formula (syntax only, no symbol table)."""
    parser = _Parser(text)
    f, _ = parser.formula()
    t = parser.peek()
    if t[0] != "EOF":
        raise parser.error(f"trailing input after formula: {t[0]!r}", t)
    return f


def is_impossible(circuit: Circuit, state: Subspace) -> bool:
    """Whether the run of ``circuit`` on ``state`` ends in the zero space."""
    return run_circuit(circuit, state).rank == 0


# ---------------------------------------------------------------------------
# Sampler routes: the same draws from the generator, in the same order


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_subspace_by_full_haar(rng: np.random.Generator, dim: int, rank: int | None = None) -> Subspace:
    """``random_subspace`` as the leading ``rank`` columns of a Haar
    unitary: QR of the whole (dim, dim) Gaussian, phase-corrected."""
    if rank is None:
        rank = int(rng.integers(0, dim + 1))
    if rank == 0:
        return sub.bottom(dim)
    q, r = np.linalg.qr(_complex_gaussian(rng, (dim, dim)))
    d = np.diagonal(r)
    return Subspace._trusted(dim, (q * (d / np.abs(d)))[:, :rank])


def random_ray_by_span_of(rng: np.random.Generator, dim: int) -> Subspace:
    """``random_ray`` through ``span_of``."""
    return sub.span_of([_complex_gaussian(rng, dim)], dim)


def random_subspace_within_by_span_of(rng: np.random.Generator, p: Subspace,
                                      rank: int | None = None) -> Subspace:
    """``random_subspace_within`` through ``span_of``."""
    if rank is None:
        rank = int(rng.integers(0, p.rank + 1))
    if rank == 0 or p.rank == 0:
        return sub.bottom(p.dim)
    return sub.span_of((p.basis @ _complex_gaussian(rng, (p.rank, rank))).T, p.dim)


def random_ray_within_by_span_of(rng: np.random.Generator, p: Subspace) -> Subspace:
    """``random_ray_within`` through ``span_of``."""
    if p.rank == 0:
        return sub.bottom(p.dim)
    return random_subspace_within_by_span_of(rng, p, rank=1)


# ---------------------------------------------------------------------------
# Monte-Carlo cross-check over rays


@dataclass(frozen=True)
class VdCrossCheck:
    decider_truth: bool
    sampler_found: bool
    witness_ok: bool | None
    samples: int

    @property
    def agreement(self) -> bool:
        found_implies_true = (not self.sampler_found) or self.decider_truth
        witness_fine = self.witness_ok is not False
        return found_implies_true and witness_fine


def _satisfies_mask(vectors: np.ndarray, basic: BasicSentence) -> np.ndarray:
    """Pointwise satisfaction of the literal conjunction by unit columns."""
    ok = np.ones(vectors.shape[1], dtype=bool)
    for p in basic.positives:
        if p.rank == 0:
            resid = vectors
        else:
            resid = vectors - p.basis @ (p.basis.conj().T @ vectors)
        ok &= np.linalg.norm(resid, axis=0) < EQ_TOL
    for q in basic.negatives:
        if q.rank == 0:
            resid = vectors
        else:
            resid = vectors - q.basis @ (q.basis.conj().T @ vectors)
        ok &= ~(np.linalg.norm(resid, axis=0) < EQ_TOL)
    return ok


def cross_check_vd(basic: BasicSentence, dim: int, samples: int = 10_000, seed: int = 0) -> VdCrossCheck:
    """One-sided Monte-Carlo oracle over random rays (and the zero space).

    A sampled satisfier forces the decider to say true, and a decider
    witness must itself satisfy the literal conjunction.  The converse
    direction (no satisfier sampled) proves nothing and is not asserted.
    """
    verdict = decide_basic(basic, dim)
    rng = np.random.default_rng(seed)

    def draw(basis: np.ndarray | None, count: int) -> np.ndarray:
        k = dim if basis is None else basis.shape[1]
        coeffs = rng.standard_normal((k, count)) + 1j * rng.standard_normal((k, count))
        raw = coeffs if basis is None else basis @ coeffs
        return raw / np.linalg.norm(raw, axis=0, keepdims=True)

    # uniform rays alone would almost never land inside a positive, so
    # part of the budget proposes from the positives and their meet;
    # every candidate still has to pass the pointwise literal check
    streams = [None]
    streams.extend(p.basis for p in basic.positives if p.rank > 0)
    p_inf = verdict.leaves[0].meet_all
    if p_inf.rank > 0 and p_inf.rank < dim:
        streams.append(p_inf.basis)
    share = max(1, samples // len(streams))
    vecs = np.concatenate(
        [draw(b, share) for b in streams] + [draw(None, max(0, samples - share * len(streams)))],
        axis=1,
    )[:, :samples]
    found = bool(_satisfies_mask(vecs, basic).any())
    # the zero space satisfies exactly when there are no negatives
    if not basic.negatives:
        found = True
    witness_ok: bool | None = None
    if verdict.truth and verdict.witness is not None:
        w = verdict.witness
        if w.rank == 0:
            witness_ok = not basic.negatives
        else:
            witness_ok = bool(_satisfies_mask(w.basis, basic).all())
    return VdCrossCheck(verdict.truth, found, witness_ok, samples)


# ---------------------------------------------------------------------------
# Sentences in a finite structure


def evaluate_in_structure(s: FiniteStructure, sentence: Formula) -> bool:
    """The truth of a closed sentence in the structure ``s``: a quantifier
    runs over the domain, ``[t : p]`` is a lookup in the relation,
    ``proj[q](t)`` in q's projector table and ``U(t)`` in U's table.  A
    projection onto a symbol with no projector table raises ``KeyError``."""

    def term(t: Term, env: dict[str, str]) -> str:
        if isinstance(t, Var):
            return env[t.name]
        if isinstance(t, Proj):
            return s.projectors[t.sym][term(t.arg, env)]
        if isinstance(t, Apply):
            return s.unitaries[t.sym].table[term(t.arg, env)]
        raise TypeError(f"unknown term node {t!r}")

    def holds(f: Formula, env: dict[str, str]) -> bool:
        if isinstance(f, Atom):
            return s.related(term(f.term, env), f.sym)
        if isinstance(f, Not):
            return not holds(f.arg, env)
        if isinstance(f, And):
            return holds(f.left, env) and holds(f.right, env)
        if isinstance(f, Or):
            return holds(f.left, env) or holds(f.right, env)
        if isinstance(f, Implies):
            return not holds(f.left, env) or holds(f.right, env)
        if isinstance(f, Iff):
            return holds(f.left, env) == holds(f.right, env)
        if isinstance(f, (Exists, Forall)):
            over = any if isinstance(f, Exists) else all
            return over(holds(f.body, {**env, f.var: m}) for m in s.domain)
        raise TypeError(f"unknown formula node {f!r}")

    return holds(sentence, {})


# ---------------------------------------------------------------------------
# Finite structures


@dataclass(frozen=True)
class Filter:
    """The fragment symbols an element is related to, with closure issues."""

    element: str
    members: tuple[str, ...]
    issues: tuple[str, ...]


def filter_of(s: FiniteStructure, elem: str) -> Filter:
    if elem not in s.domain:
        raise ValueError(f"unknown element {elem!r}")
    val = s.subspaces
    top_sym = s.top_symbol()
    members = tuple(p for p in val if s.related(elem, p))
    issues = []
    if top_sym not in members:
        issues.append(f"{top_sym} missing from the filter")
    member_set = set(members)
    for p in members:
        for q in val:
            if q not in member_set and s.leq(p, q):
                issues.append(f"not upward closed: {p} in filter, {p} <= {q}, {q} missing")
    for p in members:
        for q in members:
            target = s.symbol_of(sub.sasaki_and(val[p], val[q]))
            if target is not None and target not in member_set:
                issues.append(f"not projection closed: {p}&{q} = {target} missing")
    return Filter(elem, members, tuple(issues))


def fragment_tables_by_all_pairs(s: FiniteStructure) -> dict[str, np.ndarray]:
    """The (S, S) ``meet``, ``sasaki_and`` and ``compatible`` tables of
    the fragment index, with every ordered pair of symbols sent through
    the index's stacked kernel: term values resolved to symbols, and the
    stacked compatibility test grouped by the first symbol's rank."""
    index = s._index
    n = len(index.names)
    first, second = np.divmod(np.arange(n * n), n)
    tables = {}
    for term in ("meet", "sasaki_and"):
        found = np.empty(n * n, dtype=np.intp)
        for chunk in sub.stack_chunks(n * n, 2 * s.dim * s.dim):
            found[chunk] = index.resolve(*index._term_values(term, first[chunk], second[chunk]))
        tables[term] = found.reshape(n, n)
    fits = np.empty(n * n, dtype=bool)
    for rows, _, fit in index._pairwise(sub.stacked_compatible, first, second):
        fits[rows] = fit
    tables["compatible"] = fits.reshape(n, n)
    return tables


def _strictly_below(p: Subspace, q: Subspace) -> bool:
    return sub.leq(p, q) and not sub.leq(q, p)


def strong_morphism_by_pairs(s: FiniteStructure) -> dict:
    """The JSON of the strong-morphism report, by the route that compares
    values: each element's least member is the first member, in declared
    order, that passes ``sub.eq`` against the meet of its filter; each
    condition is then tested per site on these values, with per-pair
    ``sub.leq``, ``sub.sasaki_and`` and ``sub.apply_unitary``, and the
    image compared with the table target's value by rank and one
    containment test."""
    val = s.subspaces
    kappa = {}
    for m in s.domain:
        members = [p for p in val if s.related(m, p)]
        value = sub.top(s.dim)
        for p in members:
            value = sub.meet(value, val[p])
        least = next((p for p in members if sub.eq(value, val[p])), None)
        conflict = None
        if least is None:
            minimal = [p for p in members if not any(_strictly_below(val[q], val[p]) for q in members)]
            conflict = next(
                ((p, q) for i, p in enumerate(minimal) for q in minimal[i + 1 :] if not sub.eq(val[p], val[q])),
                None,
            )
        kappa[m] = KappaResult(m, tuple(members), value, least, least is None, conflict)
    no_least = tuple(m for m in s.domain if kappa[m].no_least)
    mapped = {m: kappa[m].value for m in s.domain if not kappa[m].no_least}

    relation = []
    for m, v in mapped.items():
        for p in val:
            if s.related(m, p) != sub.leq(v, val[p]):
                direction = "related without containment" if s.related(m, p) else "containment without relation"
                relation.append(f"({m}, {p}): {direction}")

    skipped = 0

    def mismatches(kind, tables, image):
        nonlocal skipped
        out = []
        for name, table in tables.items():
            for m in s.domain:
                if m not in mapped or table[m] not in mapped:
                    skipped += 1
                    continue
                got, want = image(name, mapped[m]), mapped[table[m]]
                if not (got.rank == want.rank and sub.leq(got, want)):
                    out.append(f"{kind} {name} at {m}: table target {table[m]} has the wrong value")
        return tuple(out)

    projector = mismatches("projector", s.projectors, lambda q, v: sub.sasaki_and(v, val[q]))
    unitary = mismatches(
        "unitary", {u: tu.table for u, tu in s.unitaries.items()},
        lambda u, v: sub.apply_unitary(s.unitaries[u].op, v),
    )
    return MorphismReport(
        kappa, no_least, tuple(relation), projector, unitary,
        len(no_least) * len(val) + skipped, any(v.rank > 0 for v in mapped.values()),
    ).to_json()


class OverSubspaces:
    """The axioms read over one instance in C^dim: elements and parameters
    are ``Subspace`` and ``UnitaryOp`` values, ``verify`` is the given
    one, and projection, unitary action and every lattice term come from
    ``pqm.subspace``.  Projecting an element is its Sasaki conjunction,
    and a unitary moves an element as it moves a subspace."""

    def __init__(self, verify, dim: int):
        self.verify = verify
        self.top, self.bottom = sub.top(dim), sub.bottom(dim)
        self.meet, self.ortho = sub.meet, sub.ortho
        self.sasaki_and = self.project = sub.sasaki_and
        self.sasaki_hook = sub.sasaki_hook
        self.image = self.transform = sub.apply_unitary
        self.preimage = lambda u, p: sub.apply_unitary(u.adjoint(), p)

    both, no = staticmethod(lambda a, b: a and b()), staticmethod(operator.not_)


class _Unresolved(Exception):
    """A conclusion names a subspace that no fragment symbol denotes."""


class _OneByOne:
    """The axioms read over a finite structure one instance at a time,
    where elements, symbols, projectors and unitaries are names.  A term
    is the name of its symbol in the fragment index's table, or None;
    verifying against None skips the instance."""

    def __init__(self, s: FiniteStructure):
        self.s = s
        self.top, self.bottom = s.top_symbol(), s.bot_symbol()
        index, names = s._index, (*s._index.names, None)

        def lookup(term: str):
            first = index.unitary_position if term in ("image", "preimage") else index.position
            return lambda a, *rest: names[index.term(term)[(first[a], *(index.position[b] for b in rest))]]

        for term in ("meet", "ortho", "sasaki_and", "sasaki_hook", "image", "preimage"):
            setattr(self, term, lookup(term))

    def verify(self, x: str, p: str | None) -> bool:
        if p is None:
            raise _Unresolved
        return (x, p) in self.s.relation

    def project(self, x: str, q: str) -> str:
        return self.s.projectors[q][x]

    def transform(self, u: str, x: str) -> str:
        return self.s.unitaries[u].table[x]

    @staticmethod
    def both(a: bool, b) -> bool:
        return a and b()

    no = staticmethod(operator.not_)


def _cases_by_names(s: FiniteStructure) -> dict[str, list[tuple]]:
    """Each axiom's cases as tuples of names, enumerated in checking
    order one pair at a time with ``s.leq`` and ``s.compatible``."""
    syms = list(s.subspaces)
    unordered = [(p, q) for i, p in enumerate(syms) for q in syms[i + 1 :]]
    onto = [(p, q) for q in s.projectors for p in syms]
    under = [(u, p) for u in s.unitaries for p in syms]
    return {
        "verify-top": [()],
        "some-possible": [()],
        "monotone": [(p, q) for p in syms for q in syms if p != q and s.leq(p, q)],
        "meet-compatible": [(p, q) for p, q in unordered if s.compatible(p, q)],
        "meet": unordered,
        "project-intro": onto,
        "project-chain": [(p, q) for p in s.projectors for q in s.projectors if s.leq(p, q)],
        "project-bottom": [(q,) for q in s.projectors],
        "project-adjoint": onto,
        "unitary-intro": under,
        "unitary-elim": under,
    }


def structure_axioms_by_instances(s: FiniteStructure, figure: str) -> CheckReport:
    """The report of ``check_structure_axioms``, by a loop over each
    axiom's cases, as names, and the domain: the conclusion is read only
    where the hypothesis holds.  An existential is one instance over the
    domain, and its hypothesis always holds."""
    interp = _OneByOne(s)
    cases = _cases_by_names(s)
    results = []
    for axiom in select_axioms(figure):
        hypothesis, conclusion = axiom.hypothesis, axiom.conclusion
        instances = hits = skipped = 0
        failed = []  # the note arguments of each violated instance
        for params in cases[axiom.name]:
            if axiom.existential:
                instances += 1
                hits += 1
                if not any(conclusion(interp, x, *params) for x in s.domain):
                    failed.append(params)
                continue
            for x in s.domain:
                if hypothesis(interp, x, *params):
                    hits += 1
                    try:
                        holds = conclusion(interp, x, *params)
                    except _Unresolved:
                        skipped += 1
                        continue
                    if not holds:
                        failed.append((x, *params))
                instances += 1
        examples = tuple(
            # only an existential fails over an empty domain
            axiom.note(interp, *args) if s.domain else "empty domain: no element can witness possibility"
            for args in failed[:5]
        )
        results.append(CheckResult(axiom.name, instances, hits, len(failed), skipped, examples))
    return CheckReport({"figure": figure}, {"elements": tuple(results)})


def check_ray_coverage(s: FiniteStructure) -> dict[str, bool]:
    """For each fragment symbol naming a ray: is it hit by the element map?"""
    kappa = {m: kappa_of(s, m) for m in s.domain}
    out = {}
    for p, pv in s.subspaces.items():
        if pv.rank != 1:
            continue
        out[p] = any(
            not kappa[m].no_least and sub.eq(kappa[m].value, pv)
            for m in s.domain
        )
    return out


def check_two_ray_floor(s: FiniteStructure) -> tuple[int, list[str]]:
    """Elements whose filter holds two distinct rays must also hold the zero space.

    Returns (instances checked, violating elements).
    """
    val = s.subspaces
    bot_sym = s.bot_symbol()
    checked = 0
    bad = []
    for m in s.domain:
        rays = [p for p in val if s.related(m, p) and val[p].rank == 1]
        distinct = any(
            not sub.eq(val[p], val[q])
            for i, p in enumerate(rays)
            for q in rays[i + 1 :]
        )
        if distinct:
            checked += 1
            if not s.related(m, bot_sym):
                bad.append(m)
    return checked, bad


def check_incompatible_pairs(s: FiniteStructure) -> tuple[int, list[str]]:
    """Incompatible filter members must both be non-minimal in the filter.

    Meaningful from dimension 3 up.  Returns (instances checked,
    violation notes).
    """
    val = s.subspaces
    checked = 0
    bad = []
    for m in s.domain:
        members = [p for p in val if s.related(m, p)]
        for i, p in enumerate(members):
            for q in members[i + 1 :]:
                if sub.compatible(val[p], val[q]):
                    continue
                checked += 1
                for r in (p, q):
                    minimal = not any(
                        x != r and _strictly_below(val[x], val[r]) for x in members
                    )
                    if minimal:
                        bad.append(f"{m}: {r} is minimal despite incompatible partner")
    return checked, bad


@dataclass(frozen=True)
class SaturationResult:
    values: tuple[Subspace, ...]
    added: int
    capped: bool


def saturate(
    values: Sequence[Subspace],
    dim: int,
    projector_values: Sequence[Subspace] | None = None,
    unitaries: Sequence[UnitaryOp] = (),
    include_hook: bool = False,
    max_size: int = 64,
) -> SaturationResult:
    """Close a seed set under the operations the axiom checker consults.

    Meets of all pairs; projections of everything onto the projector
    values and their complements; unitary images; optionally the
    adjoint-hook targets.  ``projector_values`` defaults to the whole
    current set.  Stops at ``max_size`` and reports the truncation.
    """
    pool: list[Subspace] = []

    def add(v: Subspace) -> bool:
        if any(sub.eq(v, w) for w in pool):
            return False
        pool.append(v)
        return True

    add(sub.top(dim))
    add(sub.bottom(dim))
    for v in values:
        if v.dim != dim:
            raise ValueError("saturate: mixed dimensions")
        add(v)
    seeds = len(pool)

    capped = False
    grew = True
    while grew and not capped:
        grew = False
        snapshot = list(pool)
        partners = snapshot if projector_values is None else list(projector_values)
        new: list[Subspace] = []
        for i, p in enumerate(snapshot):
            for q in snapshot[i + 1 :]:
                new.append(sub.meet(p, q))
        for q in partners:
            new.append(sub.ortho(q))
            for p in snapshot:
                new.append(sub.sasaki_and(p, q))
                if include_hook:
                    new.append(sub.sasaki_hook(p, q))
        for u in unitaries:
            for p in snapshot:
                new.append(sub.apply_unitary(u, p))
        for v in new:
            if len(pool) >= max_size:
                capped = True
                break
            if add(v):
                grew = True
    return SaturationResult(tuple(pool), len(pool) - seeds, capped)
