"""Reduction of closed sentences to quantifier-free normal form.

Every closed sentence is equivalent, over the subspace model, to a
Boolean combination of *basic sentences*: existentials of the shape

    exists x . [x:p1] & ... & [x:pk] & ~[x:q1] & ... & ~[x:qm]

where the p's and q's are concrete subspaces.  The reduction first
rewrites every atom onto a bare variable (peeling projections through
the Sasaki hook and unitaries through their adjoints), then eliminates
quantifiers innermost-first by distributing to disjunctive normal form
and folding the literals of the bound variable into a basic sentence.
Universal quantifiers go through the negated existential.  A basic
sentence is a leaf of the Boolean combination from the start, and its
negation the BNot of it, so what is left once the last quantifier is
gone is already the Boolean combination, up to folding its flat
conjunctions and disjunctions into binary nodes.

The atom rewrites are equivalences of the subspace model (adjunction of
the Sasaki operations, unitarity), so normalization preserves truth
there; it is not a proof-theoretic transformation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .lang import (
    And, Apply, Atom, Exists, Forall, Formula, Iff, Implies, Not, Or, Problem, Proj, Var,
)
from .subspace import InternalInvariantError, Subspace, apply_unitary, sasaki_hook, subspace_to_json

__all__ = [
    "NormalizationLimitError",
    "BasicSentence",
    "BoolCombo",
    "BNot",
    "BAnd",
    "BOr",
    "reduce_atom",
    "normalize",
    "combo_to_json",
    "combo_to_formula",
    "combo_size",
]

# Hard ceiling on the number of literal nodes materialized during DNF
# distribution; past this the sentence is declared out of scope.
DNF_NODE_LIMIT = 1_000_000


class NormalizationLimitError(RuntimeError):
    """Raised when quantifier elimination would exceed DNF_NODE_LIMIT nodes."""


class BoolCombo:
    """Quantifier-free Boolean combination of basic sentences."""


@dataclass(frozen=True)
class BasicSentence(BoolCombo):
    """exists x . /\\ [x:p_i] & /\\ ~[x:q_j] with concrete subspaces: the
    leaf of a Boolean combination."""

    positives: tuple[Subspace, ...]
    negatives: tuple[Subspace, ...]


@dataclass(frozen=True)
class BNot(BoolCombo):
    arg: BoolCombo


@dataclass(frozen=True)
class BAnd(BoolCombo):
    left: BoolCombo
    right: BoolCombo


@dataclass(frozen=True)
class BOr(BoolCombo):
    left: BoolCombo
    right: BoolCombo


def reduce_atom(atom: Atom, problem: Problem) -> tuple[str, Subspace]:
    """Rewrite an atom onto its bare variable.

    [proj[q](t) : p] becomes [t : hook] with hook = sasaki_hook(p, q),
    and [U(t) : p] becomes [t : U* p]; both directions are equivalences
    of the subspace model.  Returns (variable name, rewritten subspace).
    """
    space = problem.subspaces[atom.sym]
    t = atom.term
    while not isinstance(t, Var):
        if isinstance(t, Proj):
            space = sasaki_hook(space, problem.subspaces[t.sym])
        elif isinstance(t, Apply):
            space = apply_unitary(problem.unitaries[t.sym].adjoint(), space)
        else:
            raise ValueError(f"unknown term node {t!r}")
        t = t.arg
    return t.name, space


# ---------------------------------------------------------------------------
# Mixed trees: negation-normal combinations of variable literals and
# already-closed pieces, each a BasicSentence or the BNot of one.


@dataclass(frozen=True)
class _Lit:
    var: str
    space: Subspace
    positive: bool


@dataclass(frozen=True)
class _MAnd:
    items: tuple


@dataclass(frozen=True)
class _MOr:
    items: tuple


def _flat(node, items) -> object:
    """``node(items)`` for ``_MAnd`` or ``_MOr``, nested ``node``s spliced in."""
    flat = []
    for it in items:
        if isinstance(it, node):
            flat.extend(it.items)
        else:
            flat.append(it)
    return flat[0] if len(flat) == 1 else node(tuple(flat))


def _negate(m) -> object:
    if isinstance(m, _Lit):
        return _Lit(m.var, m.space, not m.positive)
    if isinstance(m, BasicSentence):
        return BNot(m)
    if isinstance(m, BNot):
        return m.arg
    if isinstance(m, _MAnd):
        return _MOr(tuple(_negate(x) for x in m.items))
    if isinstance(m, _MOr):
        return _MAnd(tuple(_negate(x) for x in m.items))
    raise InternalInvariantError(f"unknown mixed node {m!r}")


class _Run:
    """One normalize call: the DNF node count and the sharing tables.

    Equal atoms reduce once, to one Subspace object (Iff and Implies
    expansion copy subtrees), and conjunctions with the same literal
    objects in the same order become one BasicSentence, so the decider
    can tell repeated leaves by identity.  A leaf is keyed by the ids of
    its literals, which the stored leaf keeps alive.
    """

    def __init__(self, problem: Problem):
        self.problem = problem
        self.count = 0
        self.atoms: dict[Atom, tuple[str, Subspace]] = {}
        self.leaves: dict[tuple, BasicSentence] = {}

    def charge(self, n: int) -> None:
        self.count += n
        if self.count > DNF_NODE_LIMIT:
            raise NormalizationLimitError(
                f"normal form exceeds {DNF_NODE_LIMIT} nodes; sentence out of scope"
            )

    def atom(self, atom: Atom) -> tuple[str, Subspace]:
        if atom not in self.atoms:
            self.atoms[atom] = reduce_atom(atom, self.problem)
        return self.atoms[atom]

    def leaf(self, positives: tuple[Subspace, ...], negatives: tuple[Subspace, ...]) -> BasicSentence:
        key = (tuple(map(id, positives)), tuple(map(id, negatives)))
        if key not in self.leaves:
            self.leaves[key] = BasicSentence(positives, negatives)
        return self.leaves[key]


def _dnf(m, run: _Run) -> list[tuple]:
    """Disjunctive normal form of a mixed tree, as a list of conjunctions."""
    if isinstance(m, (_Lit, BasicSentence, BNot)):
        run.charge(1)
        return [(m,)]
    if isinstance(m, _MOr):
        out: list[tuple] = []
        for item in m.items:
            out.extend(_dnf(item, run))
        return out
    if isinstance(m, _MAnd):
        acc: list[tuple] = [()]
        for item in m.items:
            branches = _dnf(item, run)
            run.charge(len(acc) * len(branches))
            acc = [conj + br for conj in acc for br in branches]
        return acc
    raise InternalInvariantError(f"unknown mixed node {m!r}")


def _eliminate_exists(var: str, m, run: _Run) -> object:
    disjuncts = _dnf(m, run)
    out = []
    for conj in disjuncts:
        var_lits = [l for l in conj if isinstance(l, _Lit) and l.var == var]
        rest = [l for l in conj if not (isinstance(l, _Lit) and l.var == var)]
        if var_lits:
            leaf = run.leaf(
                tuple(l.space for l in var_lits if l.positive),
                tuple(l.space for l in var_lits if not l.positive),
            )
            rest.append(leaf)
        # A disjunct with no literals of the bound variable is unchanged:
        # exists y . psi is equivalent to psi when y does not occur
        # (domains are nonempty).
        out.append(_flat(_MAnd, rest))
    return _flat(_MOr, out)


def _elim(f: Formula, neg: bool, run: _Run):
    # biconditional towers double the tree per level, so the work here
    # can explode long before any quantifier gets eliminated
    run.charge(1)
    if isinstance(f, Atom):
        var, space = run.atom(f)
        return _Lit(var, space, not neg)
    if isinstance(f, Not):
        return _elim(f.arg, not neg, run)
    if isinstance(f, And):
        parts = (_elim(f.left, neg, run), _elim(f.right, neg, run))
        return _flat(_MOr if neg else _MAnd, parts)
    if isinstance(f, Or):
        parts = (_elim(f.left, neg, run), _elim(f.right, neg, run))
        return _flat(_MAnd if neg else _MOr, parts)
    if isinstance(f, Implies):
        return _elim(Or(Not(f.left), f.right), neg, run)
    if isinstance(f, Iff):
        expanded = Or(And(f.left, f.right), And(Not(f.left), Not(f.right)))
        return _elim(expanded, neg, run)
    if isinstance(f, Exists):
        inner = _elim(f.body, False, run)
        closed = _eliminate_exists(f.var, inner, run)
        return _negate(closed) if neg else closed
    if isinstance(f, Forall):
        inner = _elim(f.body, True, run)
        closed = _eliminate_exists(f.var, inner, run)
        return closed if neg else _negate(closed)
    raise ValueError(f"unknown formula node {f!r}")


def _to_combo(m) -> BoolCombo:
    if isinstance(m, _Lit):
        raise InternalInvariantError(
            f"literal on variable {m.var!r} survived elimination; sentence is not closed"
        )
    if isinstance(m, (BasicSentence, BNot)):
        return m
    if isinstance(m, _MAnd):
        return _fold_balanced([_to_combo(item) for item in m.items], BAnd)
    if isinstance(m, _MOr):
        return _fold_balanced([_to_combo(item) for item in m.items], BOr)
    raise InternalInvariantError(f"unknown mixed node {m!r}")


def _fold_balanced(items: list[BoolCombo], ctor) -> BoolCombo:
    # quantifier elimination can emit tens of thousands of disjuncts; a
    # left fold would nest them deeper than the interpreter stack
    if len(items) == 1:
        return items[0]
    mid = len(items) // 2
    return ctor(_fold_balanced(items[:mid], ctor), _fold_balanced(items[mid:], ctor))


def normalize(sentence: Formula, problem: Problem) -> BoolCombo:
    """Quantifier-free normal form of a closed sentence over the
    problem's definitions.  A leaf that recurs with the same literals is
    one shared BasicSentence object.  Raises NormalizationLimitError past
    the DNF node budget."""
    return _to_combo(_elim(sentence, False, _Run(problem)))


def combo_size(c: BoolCombo) -> int:
    if isinstance(c, BasicSentence):
        return 1
    if isinstance(c, BNot):
        return 1 + combo_size(c.arg)
    if isinstance(c, (BAnd, BOr)):
        return 1 + combo_size(c.left) + combo_size(c.right)
    raise ValueError(f"unknown combo node {c!r}")


def combo_to_json(c: BoolCombo) -> dict:
    """The normal form as flat tables, sized by the distinct objects.

    ``subspaces`` lists each distinct literal subspace and ``leaves``
    each distinct basic sentence, whose literals are subspace indices;
    both are numbered in order of first occurrence from the left, and
    leaves are told apart by identity, as the decider tells them.
    ``nodes`` lists the distinct Boolean nodes, shared by structure and
    children first: ``["leaf", k]``, ``["not", a]``, ``["and", a, b]`` and
    ``["or", a, b]``, where k indexes ``leaves`` and a and b index
    ``nodes``.  ``root`` indexes the whole combination.
    """
    tables = _JsonTables()
    root = tables.node(c)
    return {
        "subspaces": tables.subspace_json,
        "leaves": tables.leaf_json,
        "nodes": [list(key) for key in tables.nodes],
        "root": root,
    }


class _JsonTables:
    """The tables of ``combo_to_json``, filled by a walk from the root.  Methods,
    not closures that call themselves: those would make each call a reference cycle."""

    def __init__(self) -> None:
        self.subspaces: dict[int, int] = {}
        self.subspace_json: list[dict] = []
        self.leaf_json: list[dict] = []
        self.nodes: dict[tuple, int] = {}
        self.walked: dict[int, int] = {}  # node index by id; the combo keeps each node alive

    def space(self, p: Subspace) -> int:
        if id(p) not in self.subspaces:
            self.subspaces[id(p)] = len(self.subspace_json)
            self.subspace_json.append(subspace_to_json(p))
        return self.subspaces[id(p)]

    def node(self, c: BoolCombo) -> int:
        if id(c) in self.walked:
            return self.walked[id(c)]
        if isinstance(c, BasicSentence):
            key: tuple = ("leaf", len(self.leaf_json))
            self.leaf_json.append({
                "positives": [self.space(p) for p in c.positives],
                "negatives": [self.space(q) for q in c.negatives],
            })
        elif isinstance(c, BNot):
            key = ("not", self.node(c.arg))
        elif isinstance(c, BAnd):
            key = ("and", self.node(c.left), self.node(c.right))
        elif isinstance(c, BOr):
            key = ("or", self.node(c.left), self.node(c.right))
        else:
            raise ValueError(f"unknown combo node {c!r}")
        self.walked[id(c)] = self.nodes.setdefault(key, len(self.nodes))
        return self.walked[id(c)]


def combo_to_formula(c: BoolCombo) -> tuple[Formula, dict[str, Subspace]]:
    """Render a normal form back into a sentence over the variable x,
    plus the definitions s0, s1, ... of the subspaces it mentions.  Used
    for round-trip testing; the rendered sentence is equivalent to the
    combo over the subspace model."""
    defs: dict[str, Subspace] = {}
    return _formula_node(c, defs), defs


def _formula_node(c: BoolCombo, defs: dict[str, Subspace]) -> Formula:
    """One node of ``combo_to_formula``; not a closure, as ``_JsonTables`` explains."""
    if isinstance(c, BasicSentence):
        return _leaf_formula(c, defs)
    if isinstance(c, BNot):
        return Not(_formula_node(c.arg, defs))
    if isinstance(c, BAnd):
        return And(_formula_node(c.left, defs), _formula_node(c.right, defs))
    if isinstance(c, BOr):
        return Or(_formula_node(c.left, defs), _formula_node(c.right, defs))
    raise ValueError(f"unknown combo node {c!r}")


def _leaf_formula(b: BasicSentence, defs: dict[str, Subspace]) -> Formula:
    atoms: list[Formula] = []
    for positive, spaces in ((True, b.positives), (False, b.negatives)):
        for space in spaces:
            name = f"s{len(defs)}"
            defs[name] = space
            atom = Atom(Var("x"), name)
            atoms.append(atom if positive else Not(atom))
    return Exists("x", reduce(And, atoms or [Atom(Var("x"), "top")]))
