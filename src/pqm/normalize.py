"""Reduction of closed sentences to quantifier-free normal form.

Every closed sentence is equivalent, over the subspace model, to a
Boolean combination of *basic sentences*: existentials of the shape

    exists x . [x:p1] & ... & [x:pk] & ~[x:q1] & ... & ~[x:qm]

where the p's and q's are concrete subspaces.  The reduction first
rewrites every atom onto a bare variable (peeling projections through
the Sasaki hook and unitaries through their adjoints), then eliminates
quantifiers innermost-first by distributing to disjunctive normal form
and folding the literals of the bound variable into a basic sentence.
Universal quantifiers go through the negated existential.

The atom rewrites are equivalences of the subspace model (adjunction of
the Sasaki operations, unitarity), so normalization preserves truth
there; it is not a proof-theoretic transformation.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import lang
from .lang import (
    And, Apply, Atom, Exists, Forall, Formula, Iff, Implies, Not, Or, Problem, Proj, Var,
)
from .subspace import (
    DEFAULT_TOL,
    InternalInvariantError,
    Subspace,
    Tolerance,
    apply_unitary,
    sasaki_hook,
    subspace_to_json,
)

__all__ = [
    "NormalizationLimitError",
    "BasicSentence",
    "BoolCombo",
    "Leaf",
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


@dataclass(frozen=True)
class BasicSentence:
    """exists x . /\\ [x:p_i] & /\\ ~[x:q_j] with concrete subspaces."""

    positives: tuple[Subspace, ...]
    negatives: tuple[Subspace, ...]


class BoolCombo:
    """Quantifier-free Boolean combination of basic sentences."""


@dataclass(frozen=True)
class Leaf(BoolCombo):
    basic: BasicSentence


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


def reduce_atom(atom: Atom, problem: Problem, tol: Tolerance = DEFAULT_TOL) -> tuple[str, Subspace]:
    """Rewrite an atom onto its bare variable.

    [proj[q](t) : p] becomes [t : hook] with hook = sasaki_hook(p, q),
    and [U(t) : p] becomes [t : U* p]; both directions are equivalences
    of the subspace model.  Returns (variable name, rewritten subspace).
    """
    space = problem.subspaces[atom.sym]
    t = atom.term
    while not isinstance(t, Var):
        if isinstance(t, Proj):
            space = sasaki_hook(space, problem.subspaces[t.sym], tol)
        elif isinstance(t, Apply):
            space = apply_unitary(problem.unitaries[t.sym].adjoint(), space, tol)
        else:
            raise ValueError(f"unknown term node {t!r}")
        t = t.arg
    return t.name, space


# ---------------------------------------------------------------------------
# Mixed trees: negation-normal combinations of variable literals and
# already-closed Boolean pieces.


@dataclass(frozen=True)
class _Lit:
    var: str
    space: Subspace
    positive: bool


@dataclass(frozen=True)
class _Closed:
    combo: BoolCombo
    positive: bool


@dataclass(frozen=True)
class _MAnd:
    items: tuple


@dataclass(frozen=True)
class _MOr:
    items: tuple


def _mk_and(items) -> object:
    flat = []
    for it in items:
        if isinstance(it, _MAnd):
            flat.extend(it.items)
        else:
            flat.append(it)
    if len(flat) == 1:
        return flat[0]
    return _MAnd(tuple(flat))


def _mk_or(items) -> object:
    flat = []
    for it in items:
        if isinstance(it, _MOr):
            flat.extend(it.items)
        else:
            flat.append(it)
    if len(flat) == 1:
        return flat[0]
    return _MOr(tuple(flat))


def _negate(m) -> object:
    if isinstance(m, _Lit):
        return _Lit(m.var, m.space, not m.positive)
    if isinstance(m, _Closed):
        return _Closed(m.combo, not m.positive)
    if isinstance(m, _MAnd):
        return _MOr(tuple(_negate(x) for x in m.items))
    if isinstance(m, _MOr):
        return _MAnd(tuple(_negate(x) for x in m.items))
    raise InternalInvariantError(f"unknown mixed node {m!r}")


class _Run:
    """One normalize call: the DNF node budget and the sharing tables.

    Equal atoms reduce once, to one Subspace object (Iff and Implies
    expansion copy subtrees), and conjunctions with the same literal
    objects in the same order become one Leaf, so the decider can tell
    repeated leaves by identity.  A leaf is keyed by the ids of its
    literals, which the stored leaf keeps alive.
    """

    def __init__(self, problem: Problem, tol: Tolerance, limit: int):
        self.problem = problem
        self.tol = tol
        self.limit = limit
        self.count = 0
        self.atoms: dict[Atom, tuple[str, Subspace]] = {}
        self.leaves: dict[tuple, Leaf] = {}

    def charge(self, n: int) -> None:
        self.count += n
        if self.count > self.limit:
            raise NormalizationLimitError(
                f"normal form exceeds {self.limit} nodes; sentence out of scope"
            )

    def atom(self, atom: Atom) -> tuple[str, Subspace]:
        if atom not in self.atoms:
            self.atoms[atom] = reduce_atom(atom, self.problem, self.tol)
        return self.atoms[atom]

    def leaf(self, positives: tuple[Subspace, ...], negatives: tuple[Subspace, ...]) -> Leaf:
        key = (tuple(map(id, positives)), tuple(map(id, negatives)))
        if key not in self.leaves:
            self.leaves[key] = Leaf(BasicSentence(positives, negatives))
        return self.leaves[key]


def _dnf(m, run: _Run) -> list[tuple]:
    """Disjunctive normal form of a mixed tree, as a list of conjunctions."""
    if isinstance(m, (_Lit, _Closed)):
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
            rest.append(_Closed(leaf, True))
        # A disjunct with no literals of the bound variable is unchanged:
        # exists y . psi is equivalent to psi when y does not occur
        # (domains are nonempty).
        out.append(_mk_and(rest))
    return _mk_or(out)


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
        return _mk_or(parts) if neg else _mk_and(parts)
    if isinstance(f, Or):
        parts = (_elim(f.left, neg, run), _elim(f.right, neg, run))
        return _mk_and(parts) if neg else _mk_or(parts)
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
    if isinstance(m, _Closed):
        return m.combo if m.positive else BNot(m.combo)
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


def normalize(sentence: Formula, problem: Problem, tol: Tolerance = DEFAULT_TOL) -> BoolCombo:
    """Quantifier-free normal form of a closed sentence over the
    problem's definitions.  A leaf that recurs with the same literals is
    one shared Leaf object.  Raises NormalizationLimitError past the DNF
    node budget."""
    return _to_combo(_elim(sentence, False, _Run(problem, tol, DNF_NODE_LIMIT)))


def combo_size(c: BoolCombo) -> int:
    if isinstance(c, Leaf):
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
    subspaces: dict[int, int] = {}
    leaves: dict[int, int] = {}
    subspace_json: list[dict] = []
    leaf_json: list[dict] = []
    nodes: dict[tuple, int] = {}
    walked: dict[int, int] = {}  # node index by id; the combo keeps each node alive

    def space(p: Subspace) -> int:
        if id(p) not in subspaces:
            subspaces[id(p)] = len(subspace_json)
            subspace_json.append(subspace_to_json(p))
        return subspaces[id(p)]

    def walk(c: BoolCombo) -> int:
        if id(c) in walked:
            return walked[id(c)]
        if isinstance(c, Leaf):
            b = c.basic
            if id(b) not in leaves:
                leaves[id(b)] = len(leaf_json)
                leaf_json.append({
                    "positives": [space(p) for p in b.positives],
                    "negatives": [space(q) for q in b.negatives],
                })
            key: tuple = ("leaf", leaves[id(b)])
        elif isinstance(c, BNot):
            key = ("not", walk(c.arg))
        elif isinstance(c, BAnd):
            key = ("and", walk(c.left), walk(c.right))
        elif isinstance(c, BOr):
            key = ("or", walk(c.left), walk(c.right))
        else:
            raise ValueError(f"unknown combo node {c!r}")
        walked[id(c)] = nodes.setdefault(key, len(nodes))
        return walked[id(c)]

    root = walk(c)
    return {
        "subspaces": subspace_json,
        "leaves": leaf_json,
        "nodes": [list(key) for key in nodes],
        "root": root,
    }


def combo_to_formula(
    c: BoolCombo, dim: int, var: str = "x", prefix: str = "s"
) -> tuple[Formula, dict[str, Subspace]]:
    """Render a normal form back into a sentence plus the subspace
    definitions it mentions.  Used for round-trip testing; the rendered
    sentence is equivalent to the combo over the subspace model."""
    defs: dict[str, Subspace] = {}

    def fresh(space: Subspace) -> str:
        name = f"{prefix}{len(defs)}"
        defs[name] = space
        return name

    def leaf_formula(b: BasicSentence) -> Formula:
        atoms: list[Formula] = [Atom(Var(var), fresh(p)) for p in b.positives]
        atoms.extend(Not(Atom(Var(var), fresh(q))) for q in b.negatives)
        if not atoms:
            atoms = [Atom(Var(var), "top")]
        body = atoms[0]
        for a in atoms[1:]:
            body = And(body, a)
        return Exists(var, body)

    def walk(c: BoolCombo) -> Formula:
        if isinstance(c, Leaf):
            return leaf_formula(c.basic)
        if isinstance(c, BNot):
            return Not(walk(c.arg))
        if isinstance(c, BAnd):
            return And(walk(c.left), walk(c.right))
        if isinstance(c, BOr):
            return Or(walk(c.left), walk(c.right))
        raise ValueError(f"unknown combo node {c!r}")

    return walk(c), defs
