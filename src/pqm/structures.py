"""Finite structures for the verification language, and their model checks.

A finite structure interprets the verification relation over a declared
finite fragment of subspace symbols instead of every subspace of C^d:
the fragment must contain the full space and the zero space, and an
axiom instance is only checkable when the operations it mentions land on
fragment symbols again.  Instances that fall outside are counted as
skipped, never silently dropped.

The axioms are the statements of ``pqm.axioms.AXIOMS``, each written
once; the random suites read them over subspaces, and
``check_structure_axioms`` reads the same statements over the structure,
where elements, symbols, projectors and unitaries are names and each
axiom's ``cases`` enumerate its instances.

The model-characterization pipeline computes, for every domain element,
the least member of its filter (the set of symbols it is related to).
When every filter has a least member the induced map into the subspace
lattice is checked against the three strong-morphism conditions; the
axiom check and the morphism check must agree on saturated fragments.

File format (JSON, one object)::

    {
      "dim": 3,
      "domain": ["m0", "m1"],
      "subspaces": {"bot": [], "top": [[[1,0],[0,0],[0,0]], ...], ...},
      "projectors": {"q": {"m0": "m0", "m1": "m0"}},
      "unitaries": {"u": {"matrix": [[[re,im], ...], ...],
                          "table": {"m0": "m1", "m1": "m0"}}},
      "relation": [["m0", "top"], ["m1", "q"]]
    }

Each subspace value is a list of spanning vectors (not necessarily
orthonormal; the empty list is the zero subspace), each vector a list of
``dim`` pairs ``[re, im]``.  Unitary matrices are ``dim`` rows of such
pairs.  Projector tables are keyed by the fragment symbol projected
onto and must be total on the domain, as must unitary tables.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from . import subspace as sub
from .axioms import CheckReport, CheckResult, _OverSubspaces, select_axioms
from .lang import MAX_DIM
from .subspace import DEFAULT_TOL, Subspace, Tolerance, UnitaryOp

__all__ = [
    "StructureValidationError",
    "FiniteStructure",
    "TableUnitary",
    "Filter",
    "KappaResult",
    "MorphismReport",
    "CharacterizationReport",
    "SaturationResult",
    "load_structure",
    "parse_structure_json",
    "structure_to_json",
    "check_structure_axioms",
    "filter_of",
    "kappa_of",
    "check_strong_morphism",
    "check_characterization",
    "check_ray_coverage",
    "check_two_ray_floor",
    "check_incompatible_pairs",
    "saturate",
    "image_structure",
    "boolean_fragment",
    "mixed_fragment",
]


class StructureValidationError(Exception):
    """A structure file is malformed; ``issues`` lists every problem found."""

    def __init__(self, issues: Sequence[str]):
        self.issues = tuple(issues)
        super().__init__("\n".join(self.issues))


@dataclass(frozen=True, eq=False)
class TableUnitary:
    """A declared unitary: its matrix plus its action table on the domain."""

    op: UnitaryOp
    table: Mapping[str, str]


@dataclass(frozen=True, eq=False)
class FiniteStructure:
    dim: int
    domain: tuple[str, ...]
    subspaces: Mapping[str, Subspace]
    projectors: Mapping[str, Mapping[str, str]]
    unitaries: Mapping[str, TableUnitary]
    relation: frozenset[tuple[str, str]]

    def related(self, elem: str, symbol: str) -> bool:
        return (elem, symbol) in self.relation

    def symbol_of(self, value: Subspace, tol: Tolerance = DEFAULT_TOL) -> str | None:
        """First fragment symbol denoting ``value``, or None."""
        for name, v in self.subspaces.items():
            if sub.eq(v, value, tol):
                return name
        return None

    def top_symbol(self, tol: Tolerance = DEFAULT_TOL) -> str:
        name = self.symbol_of(sub.top(self.dim), tol)
        if name is None:
            raise sub.InternalInvariantError("fragment lost its full-space symbol")
        return name

    def bot_symbol(self, tol: Tolerance = DEFAULT_TOL) -> str:
        name = self.symbol_of(sub.bottom(self.dim), tol)
        if name is None:
            raise sub.InternalInvariantError("fragment lost its zero-space symbol")
        return name


# ---------------------------------------------------------------------------
# Loading and validation


def _complex_entry(obj, where: str, issues: list[str]) -> complex:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in obj)
    ):
        issues.append(f"{where}: expected a [re, im] pair, got {obj!r}")
        return 0j
    # exact for integers too, which float() cannot take past the range
    if not all(abs(x) <= sys.float_info.max for x in obj):
        issues.append(f"{where}: expected finite numbers, got {obj!r}")
        return 0j
    return complex(obj[0], obj[1])


def _vector(obj, dim: int, where: str, issues: list[str]) -> np.ndarray:
    if not isinstance(obj, (list, tuple)):
        issues.append(f"{where}: expected a list of {dim} [re, im] pairs")
        return np.zeros(dim, dtype=complex)
    if len(obj) != dim:
        issues.append(f"{where}: vector has length {len(obj)}, expected {dim}")
        return np.zeros(dim, dtype=complex)
    return np.array([_complex_entry(e, f"{where}[{k}]", issues) for k, e in enumerate(obj)])


def _check_table(table, domain: tuple[str, ...], where: str, issues: list[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    if not isinstance(table, dict):
        issues.append(f"{where}: expected an object mapping elements to elements")
        return out
    known = set(domain)
    for elem in domain:
        if elem not in table:
            issues.append(f"{where}: missing row for element {elem!r}")
    for elem, target in table.items():
        if elem not in known:
            issues.append(f"{where}: row for unknown element {elem!r}")
        elif not isinstance(target, str) or target not in known:
            issues.append(f"{where}[{elem!r}]: target {target!r} is not a domain element")
        else:
            out[elem] = target
    return out


def parse_structure_json(data, tol: Tolerance = DEFAULT_TOL) -> FiniteStructure:
    """Validate a decoded JSON object; raises with every issue at once."""
    issues: list[str] = []
    if not isinstance(data, dict):
        raise StructureValidationError(["top level: expected a JSON object"])
    for key in data:
        if key not in ("dim", "domain", "subspaces", "projectors", "unitaries", "relation"):
            issues.append(f"top level: unknown key {key!r}")
    for key in ("dim", "domain", "subspaces", "relation"):
        if key not in data:
            issues.append(f"top level: missing key {key!r}")
    dim = data.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or not 1 <= dim <= MAX_DIM:
        issues.append(f"dim: expected an integer from 1 to {MAX_DIM}, got {data.get('dim')!r}")
        dim = 1

    raw_domain = data.get("domain", [])
    domain: list[str] = []
    if not isinstance(raw_domain, list):
        issues.append("domain: expected a list of element names")
    else:
        for k, name in enumerate(raw_domain):
            if not isinstance(name, str):
                issues.append(f"domain[{k}]: expected a string, got {name!r}")
            elif name in domain:
                issues.append(f"domain[{k}]: duplicate element {name!r}")
            else:
                domain.append(name)
    dom = tuple(domain)

    subspaces: dict[str, Subspace] = {}
    raw_subspaces = data.get("subspaces", {})
    if not isinstance(raw_subspaces, dict):
        issues.append("subspaces: expected an object mapping symbols to vector lists")
        raw_subspaces = {}
    for name, vecs in raw_subspaces.items():
        where = f"subspaces.{name}"
        if not isinstance(vecs, list):
            issues.append(f"{where}: expected a list of spanning vectors")
            continue
        rows = [_vector(v, dim, f"{where}[{k}]", issues) for k, v in enumerate(vecs)]
        try:
            subspaces[name] = sub.span_of(rows, dim, tol)
        except ValueError as exc:
            issues.append(f"{where}: {exc}")
    if subspaces and not any(s.rank == dim for s in subspaces.values()):
        issues.append("subspaces: no symbol denotes the full space")
    if subspaces and not any(s.rank == 0 for s in subspaces.values()):
        issues.append("subspaces: no symbol denotes the zero space")

    projectors: dict[str, dict[str, str]] = {}
    raw_proj = data.get("projectors", {})
    if not isinstance(raw_proj, dict):
        issues.append("projectors: expected an object keyed by fragment symbols")
        raw_proj = {}
    for name, table in raw_proj.items():
        where = f"projectors.{name}"
        if name not in subspaces:
            issues.append(f"{where}: unknown fragment symbol")
        projectors[name] = _check_table(table, dom, where, issues)

    unitaries: dict[str, TableUnitary] = {}
    raw_uni = data.get("unitaries", {})
    if not isinstance(raw_uni, dict):
        issues.append("unitaries: expected an object keyed by unitary names")
        raw_uni = {}
    for name, entry in raw_uni.items():
        where = f"unitaries.{name}"
        if not isinstance(entry, dict) or "matrix" not in entry or "table" not in entry:
            issues.append(f"{where}: expected an object with 'matrix' and 'table'")
            continue
        rows_obj = entry["matrix"]
        if not isinstance(rows_obj, list) or len(rows_obj) != dim:
            issues.append(f"{where}.matrix: expected {dim} rows")
            continue
        known = len(issues)
        mat = np.array([_vector(r, dim, f"{where}.matrix[{k}]", issues) for k, r in enumerate(rows_obj)])
        entries_ok = len(issues) == known
        table = _check_table(entry["table"], dom, f"{where}.table", issues)
        if not entries_ok:
            continue  # a rejected entry stands as 0, so unitarity would fail twice
        try:
            unitaries[name] = TableUnitary(UnitaryOp(dim, mat), table)
        except ValueError as exc:
            issues.append(f"{where}.matrix: {exc}")

    relation: set[tuple[str, str]] = set()
    raw_rel = data.get("relation", [])
    if not isinstance(raw_rel, list):
        issues.append("relation: expected a list of [element, symbol] pairs")
        raw_rel = []
    known_elems = set(dom)
    for k, pair in enumerate(raw_rel):
        if not isinstance(pair, list) or len(pair) != 2:
            issues.append(f"relation[{k}]: expected an [element, symbol] pair")
            continue
        if not all(isinstance(name, str) for name in pair):
            issues.append(f"relation[{k}]: expected two names, got {pair!r}")
            continue
        elem, symbol = pair
        ok = True
        if elem not in known_elems:
            issues.append(f"relation[{k}]: unknown element {elem!r}")
            ok = False
        if symbol not in subspaces:
            issues.append(f"relation[{k}]: unknown symbol {symbol!r}")
            ok = False
        if ok:
            relation.add((elem, symbol))

    if issues:
        raise StructureValidationError(issues)
    return FiniteStructure(dim, dom, subspaces, projectors, unitaries, frozenset(relation))


def load_structure(path, tol: Tolerance = DEFAULT_TOL) -> FiniteStructure:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructureValidationError(
            [f"line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc
    except (ValueError, RecursionError) as exc:
        # an integer past the interpreter's digit limit, or too deep nesting
        raise StructureValidationError([f"unreadable JSON: {exc}"]) from exc
    return parse_structure_json(data, tol)


def _vectors_json(s: Subspace) -> list:
    return [[[float(z.real), float(z.imag)] for z in s.basis[:, k]] for k in range(s.rank)]


def structure_to_json(s: FiniteStructure) -> dict:
    return {
        "dim": s.dim,
        "domain": list(s.domain),
        "subspaces": {name: _vectors_json(v) for name, v in s.subspaces.items()},
        "projectors": {name: dict(t) for name, t in s.projectors.items()},
        "unitaries": {
            name: {
                "matrix": [
                    [[float(z.real), float(z.imag)] for z in row] for row in tu.op.matrix
                ],
                "table": dict(tu.table),
            }
            for name, tu in s.unitaries.items()
        },
        "relation": sorted([list(pair) for pair in s.relation]),
    }


# ---------------------------------------------------------------------------
# Axiom checking over the fragment


_MAX_EXAMPLES = 5


class _Unresolved(Exception):
    """A conclusion names a subspace that no fragment symbol denotes."""


class _OverStructure:
    """The axioms read over a finite structure, where elements, symbols,
    projectors and unitaries are names.  A lattice term over symbols
    resolves to the first fragment symbol denoting its value, or to None,
    once per check call; verifying against None skips the instance.  The
    full-space and zero-space symbols resolve on construction."""

    def __init__(self, s: FiniteStructure, tol: Tolerance):
        self.s, self.tol = s, tol
        self.top, self.bottom = s.top_symbol(tol), s.bot_symbol(tol)
        self._values = _OverSubspaces(None, s.dim, tol)
        self._symbols: dict[tuple, str | None] = {}
        self.meet = partial(self._symbol, "meet")
        self.ortho = partial(self._symbol, "ortho")
        self.sasaki_and = partial(self._symbol, "sasaki_and")
        self.sasaki_hook = partial(self._symbol, "sasaki_hook")
        self.image = partial(self._symbol, "image")
        self.preimage = partial(self._symbol, "preimage")

    def verify(self, x: str, p: str | None) -> bool:
        if p is None:
            raise _Unresolved
        return (x, p) in self.s.relation

    def project(self, x: str, q: str) -> str:
        return self.s.projectors[q][x]

    def transform(self, u: str, x: str) -> str:
        return self.s.unitaries[u].table[x]

    def _symbol(self, term: str, *names: str) -> str | None:
        key = (term, *names)
        if key not in self._symbols:
            v = self.s.subspaces
            if term in ("image", "preimage"):
                values = (self.s.unitaries[names[0]].op, v[names[1]])
            else:
                values = tuple(v[n] for n in names)
            self._symbols[key] = self.s.symbol_of(getattr(self._values, term)(*values), self.tol)
        return self._symbols[key]


def _check_axiom(axiom, s: FiniteStructure, interp: _OverStructure) -> CheckResult:
    """Count one axiom's instances; the conclusion is read only where the
    hypothesis holds.  An existential is one instance over the domain,
    and its hypothesis always holds."""
    hypothesis, conclusion = axiom.hypothesis, axiom.conclusion
    instances = hits = skipped = 0
    failed = []  # the note arguments of each violated instance
    for params in axiom.cases(s, interp.tol):
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
        for args in failed[:_MAX_EXAMPLES]
    )
    return CheckResult(axiom.name, instances, hits, len(failed), skipped, examples)


def check_structure_axioms(
    s: FiniteStructure,
    figure: str = "base",
    tol: Tolerance = DEFAULT_TOL,
) -> CheckReport:
    """Exhaustively check the axioms over the domain and fragment.

    Conditional axioms quantify over all elements and all fragment
    symbols satisfying the side conditions; an instance whose
    conclusion mentions a subspace without a fragment symbol is counted
    as skipped (only when its hypothesis holds, otherwise it is vacuously
    true regardless).  Projection and unitary axioms quantify over the
    declared projectors and unitaries only: symbols without tables are
    not in the structure's language.  At most five violations per axiom
    are described.
    """
    axioms = select_axioms(figure)
    interp = _OverStructure(s, tol)
    results = tuple(_check_axiom(a, s, interp) for a in axioms)
    return CheckReport({"figure": figure}, {"elements": results})


# ---------------------------------------------------------------------------
# Filters and the least-member map


@dataclass(frozen=True)
class Filter:
    """The fragment symbols an element is related to, with closure issues."""

    element: str
    members: tuple[str, ...]
    issues: tuple[str, ...]


def filter_of(s: FiniteStructure, elem: str, tol: Tolerance = DEFAULT_TOL) -> Filter:
    if elem not in s.domain:
        raise ValueError(f"unknown element {elem!r}")
    val = s.subspaces
    top_sym = s.top_symbol(tol)
    members = tuple(p for p in val if s.related(elem, p))
    issues = []
    if top_sym not in members:
        issues.append(f"{top_sym} missing from the filter")
    member_set = set(members)
    for p in members:
        for q in val:
            if q not in member_set and sub.leq(val[p], val[q], tol):
                issues.append(f"not upward closed: {p} in filter, {p} <= {q}, {q} missing")
    for p in members:
        for q in members:
            target = s.symbol_of(sub.sasaki_and(val[p], val[q], tol), tol)
            if target is not None and target not in member_set:
                issues.append(f"not projection closed: {p}&{q} = {target} missing")
    return Filter(elem, members, tuple(issues))


@dataclass(frozen=True)
class KappaResult:
    """Least member of an element's filter, or the reason there is none.

    ``value`` is the meet of all members; it is the least member exactly
    when it is itself a member, otherwise ``no_least`` is set and
    ``conflict`` names two distinct minimal members (whose meet can
    never be a member, by minimality).
    """

    element: str
    members: tuple[str, ...]
    value: Subspace
    member_symbol: str | None
    no_least: bool
    conflict: tuple[str, str] | None

    def to_json(self) -> dict:
        return {
            "element": self.element,
            "members": list(self.members),
            "rank": self.value.rank,
            "symbol": self.member_symbol,
            "no_least": self.no_least,
            "conflict": list(self.conflict) if self.conflict else None,
        }


def _strictly_below(p: Subspace, q: Subspace, tol: Tolerance) -> bool:
    return sub.leq(p, q, tol) and not sub.leq(q, p, tol)


def kappa_of(s: FiniteStructure, elem: str, tol: Tolerance = DEFAULT_TOL) -> KappaResult:
    if elem not in s.domain:
        raise ValueError(f"unknown element {elem!r}")
    val = s.subspaces
    members = [p for p in val if s.related(elem, p)]
    value = sub.top(s.dim)
    for p in members:
        value = sub.meet(value, val[p], tol)
    member_symbol = None
    for p in members:
        if sub.eq(val[p], value, tol):
            member_symbol = p
            break
    conflict = None
    if member_symbol is None:
        minimal = [
            p for p in members
            if not any(q != p and _strictly_below(val[q], val[p], tol) for q in members)
        ]
        for i, p in enumerate(minimal):
            for q in minimal[i + 1 :]:
                if not sub.eq(val[p], val[q], tol):
                    conflict = (p, q)
                    break
            if conflict:
                break
    return KappaResult(
        element=elem,
        members=tuple(members),
        value=value,
        member_symbol=member_symbol,
        no_least=member_symbol is None,
        conflict=conflict,
    )


# ---------------------------------------------------------------------------
# Strong-morphism and characterization checks


@dataclass(frozen=True)
class MorphismReport:
    kappa: Mapping[str, KappaResult]
    no_least: tuple[str, ...]
    relation_violations: tuple[str, ...]
    projector_violations: tuple[str, ...]
    unitary_violations: tuple[str, ...]
    not_evaluated: int
    nontrivial: bool

    @property
    def ok(self) -> bool:
        return (
            not self.no_least
            and not self.relation_violations
            and not self.projector_violations
            and not self.unitary_violations
            and self.nontrivial
        )

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "nontrivial": self.nontrivial,
            "no_least": list(self.no_least),
            "relation_violations": list(self.relation_violations),
            "projector_violations": list(self.projector_violations),
            "unitary_violations": list(self.unitary_violations),
            "not_evaluated": self.not_evaluated,
            "kappa": {m: r.to_json() for m, r in sorted(self.kappa.items())},
        }


def check_strong_morphism(s: FiniteStructure, tol: Tolerance = DEFAULT_TOL) -> MorphismReport:
    """Check the least-member map against the three morphism conditions.

    (1) relatedness coincides with containment of the mapped value;
    (2) projector tables map to the projection of the mapped value;
    (3) unitary tables map to the unitary image of the mapped value.
    Elements without a least member make the check fail; instances
    touching them are counted in ``not_evaluated``.  The map must also
    send some element to a nonzero subspace.
    """
    kappa = {m: kappa_of(s, m, tol) for m in s.domain}
    no_least = tuple(m for m in s.domain if kappa[m].no_least)
    usable = {m for m in s.domain if not kappa[m].no_least}

    rel_bad: list[str] = []
    proj_bad: list[str] = []
    uni_bad: list[str] = []
    not_evaluated = 0

    for m in s.domain:
        if m not in usable:
            not_evaluated += len(s.subspaces)
            continue
        km = kappa[m].value
        for p, pv in s.subspaces.items():
            holds = sub.leq(km, pv, tol)
            if s.related(m, p) != holds:
                direction = "related without containment" if s.related(m, p) else "containment without relation"
                rel_bad.append(f"({m}, {p}): {direction}")

    for q, table in s.projectors.items():
        for m in s.domain:
            target = table[m]
            if m not in usable or target not in usable:
                not_evaluated += 1
                continue
            expected = sub.sasaki_and(kappa[m].value, s.subspaces[q], tol)
            if not sub.eq(kappa[target].value, expected, tol):
                proj_bad.append(f"projector {q} at {m}: table target {target} has the wrong value")

    for uname, tu in s.unitaries.items():
        for m in s.domain:
            target = tu.table[m]
            if m not in usable or target not in usable:
                not_evaluated += 1
                continue
            expected = sub.apply_unitary(tu.op, kappa[m].value, tol)
            if not sub.eq(kappa[target].value, expected, tol):
                uni_bad.append(f"unitary {uname} at {m}: table target {target} has the wrong value")

    nontrivial = any(kappa[m].value.rank > 0 for m in usable)
    return MorphismReport(
        kappa=kappa,
        no_least=no_least,
        relation_violations=tuple(rel_bad),
        projector_violations=tuple(proj_bad),
        unitary_violations=tuple(uni_bad),
        not_evaluated=not_evaluated,
        nontrivial=nontrivial,
    )


@dataclass(frozen=True)
class CharacterizationReport:
    axioms: CheckReport
    morphism: MorphismReport

    @property
    def axioms_pass(self) -> bool:
        return self.axioms.ok

    @property
    def morphism_pass(self) -> bool:
        return self.morphism.ok

    @property
    def agree(self) -> bool:
        return self.axioms_pass == self.morphism_pass

    @property
    def verdict(self) -> str:
        if self.agree:
            return "model" if self.axioms_pass else "non-model"
        if self.axioms.total_skipped > 0:
            return "undetermined-skip"
        return "mismatch"

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "axioms_pass": self.axioms_pass,
            "morphism_pass": self.morphism_pass,
            "axioms": self.axioms.to_json(),
            "morphism": self.morphism.to_json(),
        }


def check_characterization(s: FiniteStructure, tol: Tolerance = DEFAULT_TOL) -> CharacterizationReport:
    """Run the axiom check and the morphism pipeline; they must agree.

    At fragment scale, being a model and admitting the least-member map
    as a nontrivial strong morphism are equivalent; a disagreement
    without skipped instances indicates a bug, one with skips means the
    fragment was too poor to decide.
    """
    return CharacterizationReport(
        axioms=check_structure_axioms(s, "base", tol),
        morphism=check_strong_morphism(s, tol),
    )


def check_ray_coverage(s: FiniteStructure, tol: Tolerance = DEFAULT_TOL) -> dict[str, bool]:
    """For each fragment symbol naming a ray: is it hit by the element map?"""
    kappa = {m: kappa_of(s, m, tol) for m in s.domain}
    out = {}
    for p, pv in s.subspaces.items():
        if pv.rank != 1:
            continue
        out[p] = any(
            not kappa[m].no_least and sub.eq(kappa[m].value, pv, tol)
            for m in s.domain
        )
    return out


def check_two_ray_floor(s: FiniteStructure, tol: Tolerance = DEFAULT_TOL) -> tuple[int, list[str]]:
    """Elements whose filter holds two distinct rays must also hold the zero space.

    Returns (instances checked, violating elements).
    """
    val = s.subspaces
    bot_sym = s.bot_symbol(tol)
    checked = 0
    bad = []
    for m in s.domain:
        rays = [p for p in val if s.related(m, p) and val[p].rank == 1]
        distinct = any(
            not sub.eq(val[p], val[q], tol)
            for i, p in enumerate(rays)
            for q in rays[i + 1 :]
        )
        if distinct:
            checked += 1
            if not s.related(m, bot_sym):
                bad.append(m)
    return checked, bad


def check_incompatible_pairs(s: FiniteStructure, tol: Tolerance = DEFAULT_TOL) -> tuple[int, list[str]]:
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
                if sub.compatible(val[p], val[q], tol):
                    continue
                checked += 1
                for r in (p, q):
                    minimal = not any(
                        x != r and _strictly_below(val[x], val[r], tol) for x in members
                    )
                    if minimal:
                        bad.append(f"{m}: {r} is minimal despite incompatible partner")
    return checked, bad


# ---------------------------------------------------------------------------
# Fragment construction helpers


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
    tol: Tolerance = DEFAULT_TOL,
) -> SaturationResult:
    """Close a seed set under the operations the axiom checker consults.

    Meets of all pairs; projections of everything onto the projector
    values and their complements; unitary images; optionally the
    adjoint-hook targets.  ``projector_values`` defaults to the whole
    current set.  Stops at ``max_size`` and reports the truncation.
    """
    pool: list[Subspace] = []

    def add(v: Subspace) -> bool:
        if any(sub.eq(v, w, tol) for w in pool):
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
                new.append(sub.meet(p, q, tol))
        for q in partners:
            new.append(sub.ortho(q, tol))
            for p in snapshot:
                new.append(sub.sasaki_and(p, q, tol))
                if include_hook:
                    new.append(sub.sasaki_hook(p, q, tol))
        for u in unitaries:
            for p in snapshot:
                new.append(sub.apply_unitary(u, p, tol))
        for v in new:
            if len(pool) >= max_size:
                capped = True
                break
            if add(v):
                grew = True
    return SaturationResult(tuple(pool), len(pool) - seeds, capped)


def image_structure(
    fragment: Sequence[tuple[str, Subspace]],
    dim: int,
    projector_syms: Sequence[str],
    unitaries: Mapping[str, UnitaryOp],
    copies: int = 1,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[FiniteStructure, dict[str, Subspace]]:
    """Export the fragment itself as a structure, relation = containment.

    The domain takes ``copies`` elements per fragment value; tables send
    every copy to the first copy of the computed value, which must be a
    fragment value again (the fragment has to be closed under the
    operations it declares).  Returns the structure and each element's
    underlying value, so tests can compare the reconstructed map against
    the ground truth.
    """
    if copies < 1:
        raise ValueError("copies must be at least 1")
    syms = [name for name, _ in fragment]
    if len(set(syms)) != len(syms):
        raise ValueError("duplicate fragment symbol")
    vals = dict(fragment)

    def rep_of(value: Subspace, context: str) -> str:
        for name in syms:
            if sub.eq(vals[name], value, tol):
                return f"{name}_0"
        raise sub.InternalInvariantError(f"fragment not closed under {context}")

    domain = [f"{name}_{k}" for name in syms for k in range(copies)]
    elem_val = {f"{name}_{k}": vals[name] for name in syms for k in range(copies)}

    projectors = {
        q: {m: rep_of(sub.sasaki_and(elem_val[m], vals[q], tol), f"projection onto {q}") for m in domain}
        for q in projector_syms
    }
    unitary_tables = {
        uname: TableUnitary(
            op, {m: rep_of(sub.apply_unitary(op, elem_val[m], tol), f"image under {uname}") for m in domain}
        )
        for uname, op in unitaries.items()
    }
    relation = frozenset(
        (m, p) for m in domain for p in syms if sub.leq(elem_val[m], vals[p], tol)
    )
    structure = FiniteStructure(
        dim=dim,
        domain=tuple(domain),
        subspaces=vals,
        projectors=projectors,
        unitaries=unitary_tables,
        relation=relation,
    )
    return structure, elem_val


def _mask_name(bits: tuple[int, ...], dim: int) -> str:
    if not bits:
        return "bot"
    if len(bits) == dim:
        return "top"
    return "s" + "".join(str(i + 1) for i in bits)


def _frame_power_set(
    rng: np.random.Generator, dim: int, tol: Tolerance
) -> tuple[np.ndarray, list[tuple[str, Subspace]]]:
    """A random orthonormal frame and the spans of every subset of its
    columns, smallest first."""
    from .sampling import random_unitary

    if dim < 2:
        raise ValueError(f"fragments need dimension >= 2, got {dim}")
    frame = random_unitary(rng, dim).matrix
    fragment = []
    for size in range(dim + 1):
        for bits in _subsets(dim, size):
            cols = frame[:, list(bits)] if bits else np.zeros((dim, 0))
            fragment.append((_mask_name(bits, dim), sub.span_of(cols.T, dim, tol)))
    return frame, fragment


def boolean_fragment(
    rng: np.random.Generator, dim: int = 3, tol: Tolerance = DEFAULT_TOL
) -> tuple[list[tuple[str, Subspace]], list[str], dict[str, UnitaryOp]]:
    """Power set of a random orthonormal basis, with two basis permutations.

    Every symbol gets a projector; the fragment is closed under meet,
    projection, complement and the permutation images, so the exported
    image structure is fully checkable with zero skips.  ``dim`` must be
    at least 2, as it must for ``mixed_fragment``.
    """
    frame, fragment = _frame_power_set(rng, dim, tol)
    cycle = np.zeros((dim, dim))
    for i in range(dim):
        cycle[(i + 1) % dim, i] = 1.0
    swap = np.eye(dim)
    swap[[0, 1]] = swap[[1, 0]]
    unitaries = {
        "cycle": UnitaryOp(dim, frame @ cycle @ frame.conj().T),
        "swap": UnitaryOp(dim, frame @ swap @ frame.conj().T),
    }
    return fragment, [name for name, _ in fragment], unitaries


def _subsets(n: int, size: int):
    from itertools import combinations

    return combinations(range(n), size)


def mixed_fragment(
    rng: np.random.Generator, dim: int = 3, tol: Tolerance = DEFAULT_TOL
) -> tuple[list[tuple[str, Subspace]], list[str], dict[str, UnitaryOp]]:
    """Boolean fragment plus a probe ray and its coordinate projections.

    The probe ray is generic (no zero coordinate against the frame), so
    its projection onto each coordinate subspace spanned by 2 to dim - 1
    frame vectors is a further ray, named after those vectors.
    Projectors are declared for the Boolean symbols only; projecting the
    probe's projection onto S further onto a Boolean value T gives its
    projection onto S & T: a probe-derived ray, a frame ray or the zero
    space, so the export stays closed.  The probe rays are
    pairwise incompatible with off-axis Boolean values, which makes the
    incompatibility diagnostics non-vacuous.
    """
    frame, fragment = _frame_power_set(rng, dim, tol)
    boolean_syms = [name for name, _ in fragment]

    while True:
        coeffs = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        coeffs /= np.linalg.norm(coeffs)
        if np.min(np.abs(coeffs)) > 0.25:
            break
    probe = sub.span_of([frame @ coeffs], dim, tol)
    fragment.append(("probe", probe))
    vals = dict(fragment)
    for size in range(dim - 1, 1, -1):
        for bits in _subsets(dim, size):
            w = sub.sasaki_and(probe, vals[_mask_name(bits, dim)], tol)
            fragment.append(("probe" + "".join(str(i + 1) for i in bits), w))

    values = [v for _, v in fragment]
    for i, a in enumerate(values):
        for b in values[i + 1 :]:
            if sub.eq(a, b, tol):
                raise sub.InternalInvariantError("probe ray degenerated into the frame")
    return fragment, boolean_syms, {"ident": UnitaryOp(dim, np.eye(dim))}
