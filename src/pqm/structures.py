"""Finite structures for the verification language, and their model checks.

A finite structure interprets the verification relation over a declared
finite fragment of subspace symbols instead of every subspace of C^d:
the fragment must contain the full space and the zero space, and an
axiom instance is only checkable when the operations it mentions land on
fragment symbols again.  Instances that fall outside are counted as
skipped, never silently dropped.

The axioms are the statements of ``pqm.axioms.AXIOMS``, each written
once; the random suites read them over subspaces, one instance at a
time, and ``check_structure_axioms`` reads each once over all its
instances on the structure, as lookups in tables over arrays of the
positions of its elements, symbols and unitaries: one row per case and
one column per element.  The per-instance loop is a test oracle.

The model-characterization pipeline computes, for every domain element,
the least member of its filter (the set of symbols it is related to).
When every filter has a least member the induced map into the subspace
lattice is checked against the three strong-morphism conditions; the
axiom check and the morphism check must agree on saturated fragments.

Both checks ask the same few questions of many symbols or symbol
pairs: containment, compatibility, and which symbol denotes a lattice
term.  A structure's fragment index answers each kind of question once,
for all of them, with the stacked rank cut and residual test of
``pqm.subspace``; a value is looked up among the symbols of its own
rank, where one containment test decides equality.  Both checks only
look the answers up, by position: the axiom check over arrays of
instances, and the morphism check, since a least member is itself a
symbol.

The module holds the check only.  A structure comes from a JSON file
or is built by the caller as a ``FiniteStructure``; the test suite's
corpus of image structures is built that way, in ``tests/_corpus.py``.

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
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from . import subspace as sub
from .axioms import CheckReport, CheckResult, select_axioms
from .lang import MAX_DIM
from .subspace import Subspace, UnitaryOp

__all__ = [
    "StructureValidationError",
    "FiniteStructure",
    "TableUnitary",
    "KappaResult",
    "MorphismReport",
    "CharacterizationReport",
    "load_structure",
    "parse_structure_json",
    "structure_to_json",
    "check_structure_axioms",
    "kappa_of",
    "check_strong_morphism",
    "check_characterization",
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


class _FragmentIndex:
    """Every question a structure check asks about fragment symbols,
    answered for all symbols at once, each kind on first use.

    The symbols are held as one zero-padded ``(S, dim, dim)`` stack of
    bases in declared order (see ``pqm.subspace.stacked``).  Each kind of
    question is one stacked computation over the argument tuples that
    need the kernel, split into chunks of bounded size:

    * ``leq`` over all ordered symbol pairs;
    * ``compatible``, ``meet`` and ``sasaki_and`` over the symbol pairs
      that ``leq`` does not order, each unordered pair once for the
      symmetric ``compatible`` and ``meet``, which are mirrored.  An
      ordered pair is compatible, and its meet and Sasaki conjunction
      are the smaller symbol, as in ``sub.meet``: read as the first
      symbol equal to it, since a fragment may name one subspace twice;
    * the other lattice terms the axioms name over all their argument
      tuples: ``ortho`` over the symbols, ``sasaki_hook`` over the
      ordered symbol pairs, and ``image`` and ``preimage`` over the
      declared unitaries and the symbols.

    ``meet`` and ``compatible`` take the residual cut of ``sub.meet`` and
    ``sub.compatible`` over the pairs grouped by the first symbol's rank.
    A term's values go through the stacked rank cut or residual cut,
    then resolve, as a stack, to symbols: each to the first symbol in
    declared order that passes ``sub.eq``.  Only symbols of the value's
    rank are tested; no other can pass, since a basis vector of the
    larger space leaves a residual of at least 1/sqrt(rank) off the
    smaller one.  At equal rank one containment test decides: the
    largest sine of the principal angles is the same in both directions.
    Each symbol's complement is the ``sub.ortho`` of its value, computed
    once.  The tables are arrays over the positions of the symbols and
    unitaries in declared order (``position`` and ``unitary_position``),
    and the relation and the tables' targets over the elements
    (``element``) too.
    ``FiniteStructure.symbol_of`` resolves a stack of one, and the rest
    of a structure check is lookups in these tables.
    """

    def __init__(self, s: FiniteStructure):
        # holds the structure's fields, not s: a reference to s would be a cycle
        # through the structure's cached ``_index``
        self.dim = s.dim
        self.names = tuple(s.subspaces)
        self._values = s.subspaces
        self._unitaries = s.unitaries
        self._relation = s.relation
        self._projectors = s.projectors
        self.ranks = np.array([v.rank for v in s.subspaces.values()], dtype=np.intp)
        self.bases = sub.stacked([v.basis for v in s.subspaces.values()], s.dim)
        self._buckets = {}  # rank -> (positions in declared order, (S_r, dim, rank) bases)
        for rank in sorted({v.rank for v in s.subspaces.values()}):
            positions = np.flatnonzero(self.ranks == rank)
            self._buckets[rank] = (positions, self.bases[positions, :, :rank])
        self.position = {name: k for k, name in enumerate(self.names)}
        self.unitary_position = {name: k for k, name in enumerate(self._unitaries)}
        self.element = {m: k for k, m in enumerate(s.domain)}
        self._terms: dict[str, np.ndarray] = {}

    # -- symbol lookup

    def resolve(self, bases: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        """The position of the symbol of each value of a stack, or -1."""
        out = np.full(len(ranks), -1, dtype=np.intp)
        for rank, (positions, symbols) in self._buckets.items():
            rows = np.flatnonzero(ranks == rank)
            if rows.size:
                equal = sub.stacked_leq_table(bases[rows, :, :rank], symbols)
                hit = equal.any(axis=1)
                out[rows[hit]] = positions[equal.argmax(axis=1)[hit]]
        return out

    # -- the tables

    @cached_property
    def _complement_stack(self) -> np.ndarray:
        return sub.stacked([sub.ortho(v).basis for v in self._values.values()], self.dim)

    @cached_property
    def projectors(self) -> np.ndarray:
        """The (S, dim, dim) projectors onto the symbols."""
        return self.bases @ self.bases.conj().swapaxes(-1, -2)

    @cached_property
    def relation(self) -> np.ndarray:
        """The (elements, symbols) bool table of the relation."""
        table = np.zeros((len(self.element), len(self.names)), dtype=bool)
        for m, p in self._relation:
            table[self.element[m], self.position[p]] = True
        return table

    @cached_property
    def targets(self) -> tuple[np.ndarray, np.ndarray]:
        """The positions of the elements that the tables send each element
        to: the projector tables' as an (S, elements) array, with a row of
        0 for a symbol without a table, and the unitary tables'."""
        element = self.element  # in domain order
        projections = np.zeros((len(self.names), len(element)), dtype=np.intp)
        for q, table in self._projectors.items():
            projections[self.position[q]] = [element[table[m]] for m in element]
        transforms = [[element[u.table[m]] for m in element] for u in self._unitaries.values()]
        return projections, np.array(transforms, dtype=np.intp).reshape(len(transforms), len(element))

    @cached_property
    def below(self) -> np.ndarray:
        """The (S, S) table of ``sub.leq``."""
        return sub.stacked_leq_table(self.bases, self.bases)

    def _pairwise(self, stacked_fn, first: np.ndarray, second: np.ndarray):
        """``stacked_fn(p, q)`` over the symbol pairs at the positions
        ``first`` and ``second``, grouped by p's rank, so that no p carries
        zero columns: yields each group's rows, rank and result."""
        for rank, (positions, bases) in self._buckets.items():
            rows = np.flatnonzero(self.ranks[first] == rank)
            if rows.size:
                p = bases[np.searchsorted(positions, first[rows])]
                yield rows, rank, stacked_fn(p, self.bases[second[rows]])

    @cached_property
    def _first_equal(self) -> np.ndarray:
        """The position of the first symbol equal to each symbol."""
        return self.resolve(self.bases, self.ranks)

    def _unordered(self, symmetric: bool) -> tuple[np.ndarray, np.ndarray]:
        """The positions of the symbol pairs that ``below`` does not order,
        only those with i < j if ``symmetric``."""
        unordered = ~(self.below | self.below.T)
        return np.nonzero(np.triu(unordered, 1) if symmetric else unordered)

    @cached_property
    def compatible(self) -> np.ndarray:
        """The (S, S) table of ``sub.compatible``."""
        first, second = self._unordered(symmetric=True)
        fits = np.ones((len(self.names),) * 2, dtype=bool)
        for rows, _, fit in self._pairwise(sub.stacked_compatible, first, second):
            fits[first[rows], second[rows]] = fits[second[rows], first[rows]] = fit
        return fits

    def _term_values(self, term: str, first: np.ndarray, second: np.ndarray):
        """The values of a term at the argument positions ``first`` (and
        ``second``), as a stack and its ranks."""
        b, c = self.bases, self._complement_stack
        if term == "ortho":
            return c[first], self.dim - self.ranks[first]
        if term == "meet":
            meets = np.zeros((len(first), self.dim, self.dim), dtype=np.complex128)
            ranks = np.zeros(len(first), dtype=np.intp)
            for rows, rank, (values, kept) in self._pairwise(sub.stacked_meet, first, second):
                meets[rows, :, :rank], ranks[rows] = values, kept
            return meets, ranks
        if term == "sasaki_and":  # the span of P_q p
            return sub.stacked_span(self.projectors[second] @ b[first])
        if term == "sasaki_hook":  # q' v (p ^ q)
            meets, _ = self._term_values("meet", first, second)
            return sub.stacked_span(np.concatenate([c[second], meets], axis=-1))
        ops = np.stack([tu.op.matrix for tu in self._unitaries.values()])
        if term == "preimage":
            ops = ops.conj().swapaxes(-1, -2)
        values, ranks = sub.stacked_span(ops[first] @ b[second])
        if np.any(ranks != self.ranks[second]):
            raise sub.InternalInvariantError("unitary image changed rank")
        return values, ranks

    def _resolved(self, term: str, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        """The position of the symbol of a term at each argument pair, or -1."""
        found = np.empty(len(first), dtype=np.intp)
        for chunk in sub.stack_chunks(len(first), 2 * self.dim * self.dim):
            found[chunk] = self.resolve(*self._term_values(term, first[chunk], second[chunk]))
        return found

    def term(self, term: str) -> np.ndarray:
        """The position of the symbol of a lattice term at every argument
        tuple, -1 where no symbol denotes its value: an int array with an
        axis per argument, over the unitaries for the first argument of
        ``image`` and ``preimage`` and over the symbols otherwise."""
        if term not in self._terms:
            if term in ("meet", "sasaki_and"):  # at p <= q both are p, at q <= p both are q
                table = np.where(self.below, self._first_equal[:, None], self._first_equal)
                first, second = self._unordered(symmetric=term == "meet")
                table[first, second] = self._resolved(term, first, second)
                if term == "meet":
                    table[second, first] = table[first, second]
            else:
                first_axis = len(self._unitaries) if term in ("image", "preimage") else len(self.names)
                shape = (len(self.names),) if term == "ortho" else (first_axis, len(self.names))
                positions = np.unravel_index(np.arange(np.prod(shape, dtype=np.intp)), shape)
                table = self._resolved(term, positions[0], positions[-1]).reshape(shape)
            self._terms[term] = table
        return self._terms[term]


@dataclass(frozen=True, eq=False)
class FiniteStructure:
    """A finite structure: a domain, a fragment of named subspaces, the
    projector and unitary tables, and the verification relation.

    Questions about symbols go through a fragment index, built once, on
    first use, from ``subspaces`` and the unitaries' matrices (which must
    not change afterwards).  It answers each kind of question for every
    symbol at once, with stacked numpy calls; a lookup answers with the
    first symbol in declared order that passes ``sub.eq``, which at equal
    rank is one containment test.
    """

    dim: int
    domain: tuple[str, ...]
    subspaces: Mapping[str, Subspace]
    projectors: Mapping[str, Mapping[str, str]]
    unitaries: Mapping[str, TableUnitary]
    relation: frozenset[tuple[str, str]]

    @cached_property
    def _index(self) -> _FragmentIndex:
        return _FragmentIndex(self)

    def related(self, elem: str, symbol: str) -> bool:
        return (elem, symbol) in self.relation

    def symbol_of(self, value: Subspace) -> str | None:
        """First fragment symbol denoting ``value``, or None."""
        if value.dim != self.dim:
            raise sub.DimensionMismatchError(f"subspaces of dimension {value.dim} and {self.dim}")
        k = self._index.resolve(sub.stacked([value.basis], self.dim), np.array([value.rank]))[0]
        return self._index.names[k] if k >= 0 else None

    def leq(self, p: str, q: str) -> bool:
        """Whether the symbol p denotes a subspace of what q denotes."""
        return bool(self._index.below[self._index.position[p], self._index.position[q]])

    def compatible(self, p: str, q: str) -> bool:
        """Whether the symbols p and q denote compatible subspaces."""
        return bool(self._index.compatible[self._index.position[p], self._index.position[q]])

    def top_symbol(self) -> str:
        name = self.symbol_of(sub.top(self.dim))
        if name is None:
            raise sub.InternalInvariantError("fragment lost its full-space symbol")
        return name

    def bot_symbol(self) -> str:
        name = self.symbol_of(sub.bottom(self.dim))
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


def _vectors(obj: list, dim: int, where: str, issues: list[str]) -> np.ndarray:
    """A list of vectors as complex rows.  A list of ``[re, im]`` pairs
    of finite ints and floats, all of the right length, is read in one
    numpy call, whose view of each pair as a complex number keeps the
    sign of a zero; any other goes entry by entry, which says what is
    wrong."""
    try:
        pairs = np.array(obj, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        pairs = None
    # numpy reads bools and numeric strings as numbers too, so the types
    # are checked as well: once the shape holds, the vectors and pairs are
    # sequences and what they hold are scalars
    if (
        pairs is not None and pairs.shape == (len(obj), dim, 2) and np.isfinite(pairs).all()
        and {type(x) for v in obj for pair in v for x in (v, pair, *pair)} <= {list, tuple, int, float}
    ):
        return pairs.view(np.complex128)[..., 0]
    return np.array([_vector(v, dim, f"{where}[{k}]", issues) for k, v in enumerate(obj)])


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


def parse_structure_json(data) -> FiniteStructure:
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
        try:
            subspaces[name] = sub.span_of(_vectors(vecs, dim, where, issues), dim)
        except ValueError as exc:
            issues.append(f"{where}: {exc}")
    if isinstance(data.get("subspaces"), dict):  # a missing or non-object one is reported
        if not any(s.rank == dim for s in subspaces.values()):
            issues.append("subspaces: no symbol denotes the full space")
        if not any(s.rank == 0 for s in subspaces.values()):
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
        mat = _vectors(rows_obj, dim, f"{where}.matrix", issues)
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


def load_structure(path) -> FiniteStructure:
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
    return parse_structure_json(data)


def structure_to_json(s: FiniteStructure) -> dict:
    return {
        "dim": s.dim,
        "domain": list(s.domain),
        "subspaces": {
            name: sub.subspace_to_json(v)["basis"] for name, v in s.subspaces.items()
        },
        "projectors": {name: dict(t) for name, t in s.projectors.items()},
        "unitaries": {
            name: {
                "matrix": [sub._pairs_json(row) for row in tu.op.matrix],
                "table": dict(tu.table),
            }
            for name, tu in s.unitaries.items()
        },
        "relation": sorted([list(pair) for pair in s.relation]),
    }


# ---------------------------------------------------------------------------
# Axiom checking over the fragment


_MAX_EXAMPLES = 5


class _OverStructure:
    """The axioms read over a finite structure, every instance at once:
    elements, symbols and unitaries are positions in declared order, in
    int arrays that broadcast over (case, element).  ``verify``,
    ``project``, ``transform`` and the lattice terms are lookups in the
    relation, projector, unitary and term tables.  A term is -1 where no
    symbol denotes its value; ``verify`` reads it as False and marks
    where it did in ``unresolved``, until that is reset.  The full-space
    and zero-space symbols resolve on construction."""

    def __init__(self, s: FiniteStructure):
        index = s._index
        self.top, self.bottom = index.position[s.top_symbol()], index.position[s.bot_symbol()]
        self._relation = np.pad(index.relation, ((0, 0), (0, 1)))  # position -1 reads False
        self._projectors, self._transforms = index.targets

        # closures over the index, not over self: a bound method set on
        # the instance would make each interpretation a reference cycle,
        # which would keep the structure and its fragment index alive
        # until the cycle collector ran
        def lookup(term: str):
            return lambda *args: index.term(term)[args]

        self.meet, self.ortho, self.sasaki_and, self.sasaki_hook, self.image, self.preimage = (
            lookup(t) for t in ("meet", "ortho", "sasaki_and", "sasaki_hook", "image", "preimage")
        )

    def verify(self, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        self.unresolved = self.unresolved | (p < 0)
        return self._relation[x, p]

    def project(self, x: np.ndarray, q: np.ndarray) -> np.ndarray:
        return self._projectors[q, x]

    def transform(self, u: np.ndarray, x: np.ndarray) -> np.ndarray:
        return self._transforms[u, x]

    both, no = staticmethod(lambda a, b: a & b()), staticmethod(np.logical_not)


class _OverNames:
    """What a violation note reads, by name: the full-space and zero-space
    symbols, and the symbol of a term over symbols, None if none."""

    def __init__(self, s: FiniteStructure, interp: _OverStructure):
        index, names = s._index, (*s._index.names, None)  # position -1 reads None
        self.top, self.bottom = names[interp.top], names[interp.bottom]

        def lookup(term: str):
            return lambda *args: names[index.term(term)[tuple(index.position[a] for a in args)]]

        self.meet, self.sasaki_and, self.sasaki_hook = map(lookup, ("meet", "sasaki_and", "sasaki_hook"))


def _check_axiom(axiom, s: FiniteStructure, interp: _OverStructure, named: _OverNames) -> CheckResult:
    """Count one axiom's instances, reading each side once for all of
    them, over a column of positions per parameter (a row per case) and
    the row of element positions.  The conclusion counts only where the
    hypothesis holds, and is skipped where it verifies a term that no
    symbol denotes.  An existential is one instance per case, with a
    hypothesis that always holds.  Violations are in case, then domain
    order."""
    cases = axiom.cases(s)
    if not len(cases):
        return CheckResult(axiom.name, 0, 0, 0)
    shape, x = (len(cases), len(s.domain)), np.arange(len(s.domain))
    params = [column[:, None] for column in cases.T]
    axes = [s._index.names] * len(params)
    if axiom.over_unitaries:
        axes[0] = tuple(s.unitaries)

    def case_names(c: int) -> tuple[str, ...]:
        return tuple(axis[k] for axis, k in zip(axes, cases[c]))

    interp.unresolved = False
    hypothesis = np.broadcast_to(axiom.hypothesis(interp, x, *params), shape)
    held = skip = np.False_
    if hypothesis.any():  # else the conclusion may read a term table no instance needs
        interp.unresolved = False
        held = axiom.conclusion(interp, x, *params)
        skip = hypothesis & interp.unresolved
    if axiom.existential:
        failed = ~np.broadcast_to(held, shape).any(axis=1)
        instances = hits = len(cases)
        skipped, shown = 0, [case_names(c) for c in np.flatnonzero(failed)[:_MAX_EXAMPLES]]
    else:
        failed = hypothesis & ~skip & ~held
        hits, skipped = int(hypothesis.sum()), int(skip.sum())
        instances = failed.size - skipped
        rows, columns = np.unravel_index(np.flatnonzero(failed)[:_MAX_EXAMPLES], shape)
        shown = [(s.domain[e], *case_names(c)) for c, e in zip(rows, columns)]
    examples = tuple(
        # only an existential fails over an empty domain
        axiom.note(named, *args) if s.domain else "empty domain: no element can witness possibility"
        for args in shown
    )
    return CheckResult(axiom.name, instances, hits, int(failed.sum()), skipped, examples)


def check_structure_axioms(s: FiniteStructure, figure: str = "base") -> CheckReport:
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
    interp = _OverStructure(s)
    named = _OverNames(s, interp)
    results = tuple(_check_axiom(a, s, interp, named) for a in axioms)
    return CheckReport({"figure": figure}, {"elements": results})


# ---------------------------------------------------------------------------
# Filters and the least-member map


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


def kappa_of(s: FiniteStructure, elem: str) -> KappaResult:
    """The least member of ``elem``'s filter, the symbols it is related
    to: the first member, in declared order, that is ``leq`` every
    member.  The value is the meet of the members, folded from the full
    space.  Without a least member the result names two distinct
    minimal members as the conflict.  Raises ValueError on an element
    outside the domain."""
    index = s._index
    if elem not in index.element:
        raise ValueError(f"unknown element {elem!r}")
    positions = np.flatnonzero(index.relation[index.element[elem]])
    members = [index.names[k] for k in positions]
    value = sub.top(s.dim)
    for p in members:
        value = sub.meet(value, s.subspaces[p])
    below = index.below[positions][:, positions]
    least = below.all(axis=1)
    member_symbol = members[least.argmax()] if least.any() else None
    conflict = None
    if member_symbol is None:
        minimal = np.flatnonzero(~(below & ~below.T).any(axis=0)).tolist()  # none strictly below
        conflict = next(
            ((members[i], members[j]) for k, i in enumerate(minimal) for j in minimal[k + 1 :]
             if not (below[i, j] and below[j, i])),
            None,
        )
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


def check_strong_morphism(s: FiniteStructure) -> MorphismReport:
    """Check the least-member map against the three morphism conditions.

    (1) relatedness coincides with containment of the mapped value;
    (2) projector tables map to the projection of the mapped value;
    (3) unitary tables map to the unitary image of the mapped value.
    Elements without a least member make the check fail; instances
    touching them are counted in ``not_evaluated``.  The map must also
    send some element to a nonzero subspace.

    An element's least member is a symbol, so each condition is a lookup
    in the fragment index's tables: (1) in ``leq`` at the pair of the
    least member and the symbol, (2) and (3) in the ``sasaki_and`` and
    ``image`` terms at the least member, whose symbol must denote the
    same subspace as the table target's least member (``leq`` both ways;
    a term no symbol denotes fails).
    """
    kappa = {m: kappa_of(s, m) for m in s.domain}
    no_least = tuple(m for m in s.domain if kappa[m].no_least)
    index = s._index
    least = np.array([-1 if k.no_least else index.position[k.member_symbol] for k in kappa.values()],
                     dtype=np.intp)  # by element, -1 for one without a least member
    has = np.flatnonzero(least >= 0)
    related = index.relation[has]
    rel_bad = [
        f"({s.domain[has[i]]}, {index.names[p]}): "
        + ("related without containment" if related[i, p] else "containment without relation")
        for i, p in np.argwhere(related != index.below[least[has]]).tolist()
    ]

    def mismatches(kind: str, names: list[str], targets: np.ndarray, term: str, args: tuple):
        """The sites of a (table, element) array of target positions where
        the term at ``args``, over the source's least member, does not
        denote the target's, in table and domain order, and the number of
        sites not evaluated."""
        want = least[targets]
        evaluated = (least >= 0) & (want >= 0)
        got = index.term(term)[args] if evaluated.any() else want  # builds no table that no site reads
        bad = evaluated & ((got < 0) | ~(index.below[got, want] & index.below[want, got]))
        return tuple(
            f"{kind} {names[t]} at {s.domain[e]}: table target {s.domain[targets[t, e]]} has the wrong value"
            for t, e in np.argwhere(bad).tolist()
        ), int(evaluated.size - evaluated.sum())

    projections, transforms = index.targets
    projected = np.array([index.position[q] for q in s.projectors], dtype=np.intp)
    projector_bad, projector_skipped = mismatches(
        "projector", list(s.projectors), projections[projected], "sasaki_and", (least, projected[:, None])
    )
    unitary_bad, unitary_skipped = mismatches(
        "unitary", list(s.unitaries), transforms, "image", (np.arange(len(s.unitaries))[:, None], least)
    )
    return MorphismReport(
        kappa=kappa,
        no_least=no_least,
        relation_violations=tuple(rel_bad),
        projector_violations=projector_bad,
        unitary_violations=unitary_bad,
        not_evaluated=len(no_least) * len(s.subspaces) + projector_skipped + unitary_skipped,
        nontrivial=any(kappa[s.domain[e]].value.rank > 0 for e in has),
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


def check_characterization(s: FiniteStructure) -> CharacterizationReport:
    """Run the axiom check and the morphism pipeline; they must agree.

    At fragment scale, being a model and admitting the least-member map
    as a nontrivial strong morphism are equivalent; a disagreement
    without skipped instances indicates a bug, one with skips means the
    fragment was too poor to decide.

    The axioms read are the ``base`` figure's.  When they all hold but
    the morphism check fails, the check is repeated with every axiom
    (figure ``all``): the base figure lacks ``meet`` over incompatible
    pairs and ``project-adjoint``, which hold wherever the least-member
    map is a strong morphism, and without them a projector table that
    drops an element to one with a smaller least member passes.
    """
    axioms = check_structure_axioms(s, "base")
    morphism = check_strong_morphism(s)
    if axioms.ok and not morphism.ok:
        axioms = check_structure_axioms(s, "all")
    return CharacterizationReport(axioms=axioms, morphism=morphism)
