"""Shared generators and an independent sampled evaluator.

The evaluator here deliberately avoids the normalizer and the
containment shortcut: it assigns quantified variables concrete rays
(plus the zero space) and evaluates atoms pointwise.  Sampling makes it
one-sided, so it answers True, False, or None for "cannot tell".
"""

from __future__ import annotations

import numpy as np

from pqm.lang import (
    And,
    Apply,
    Atom,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Problem,
    Proj,
    Term,
    Var,
)
from pqm.normalize import BAnd, BNot, BOr, BasicSentence, BoolCombo
from pqm.sampling import random_ray, random_ray_within, random_subspace, random_unitary
from pqm.subspace import (
    Subspace,
    apply_unitary,
    bottom,
    leq,
    meet,
    ortho,
    sasaki_and,
    top,
)


def random_basic(rng: np.random.Generator, dim: int,
                 max_pos: int = 3, max_neg: int = 3) -> BasicSentence:
    n_pos = int(rng.integers(1, max_pos + 1))
    n_neg = int(rng.integers(0, max_neg + 1))
    positives = tuple(random_subspace(rng, dim) for _ in range(n_pos))
    negatives = tuple(random_subspace(rng, dim) for _ in range(n_neg))
    return BasicSentence(positives, negatives)


def random_problem(rng: np.random.Generator, dim: int,
                   n_subspaces: int = 4, n_unitaries: int = 2) -> Problem:
    subspaces = {f"p{k}": random_subspace(rng, dim) for k in range(n_subspaces)}
    # the parser always provides these two
    subspaces["top"] = top(dim)
    subspaces["bot"] = bottom(dim)
    unitaries = {f"U{k}": random_unitary(rng, dim) for k in range(n_unitaries)}
    return Problem(dim, subspaces, unitaries, None)


def random_sentence(rng: np.random.Generator, problem: Problem,
                    max_depth: int = 4, max_quants: int = 3) -> Formula:
    """A random closed sentence over the problem's named symbols."""

    sub_syms = list(problem.subspaces)
    uni_syms = list(problem.unitaries)

    def term(var: str, budget: int) -> Term:
        t: Term = Var(var)
        for _ in range(int(rng.integers(0, budget + 1))):
            if uni_syms and rng.random() < 0.5:
                t = Apply(str(rng.choice(uni_syms)), t)
            else:
                t = Proj(str(rng.choice(sub_syms)), t)
        return t

    def formula(*, depth: int, scope: tuple[str, ...], quants: int) -> Formula:
        if depth <= 0 or (scope and rng.random() < 0.3):
            var = str(rng.choice(scope))
            return Atom(term(var, 2), str(rng.choice(sub_syms)))
        roll = rng.random()
        if quants > 0 and (not scope or roll < 0.35):
            var = f"x{len(scope)}"
            body = formula(depth=depth - 1, scope=scope + (var,), quants=quants - 1)
            return Exists(var, body) if rng.random() < 0.5 else Forall(var, body)
        if roll < 0.5:
            return Not(formula(depth=depth - 1, scope=scope, quants=quants))
        left = formula(depth=depth - 1, scope=scope, quants=quants)
        right = formula(depth=depth - 1, scope=scope, quants=quants)
        ctor = (And, Or, Implies, Iff)[int(rng.integers(0, 4))]
        return ctor(left, right)

    return formula(depth=max_depth, scope=(), quants=max_quants)


def closed_combination(rng: np.random.Generator, problem: Problem) -> Formula:
    """Two or three ``random_sentence`` draws joined by ``~``, ``&``, ``|``,
    ``->`` and ``<->``, so that a Boolean combination sits above the
    quantifiers; each draw opens with a quantifier."""

    def part() -> Formula:
        f = random_sentence(rng, problem)
        return Not(f) if rng.random() < 0.3 else f

    f = part()
    for _ in range(int(rng.integers(1, 3))):
        ctor = (And, Or, Implies, Iff)[int(rng.integers(0, 4))]
        f = ctor(f, part()) if rng.random() < 0.5 else ctor(part(), f)
        if rng.random() < 0.2:
            f = Not(f)
    return f


def deep_disjunction() -> tuple[Formula, Problem]:
    """The seed-645 sentence: its normal form has 41,472 leaf
    occurrences but only 10 distinct leaves."""
    rng = np.random.default_rng(645)
    problem = random_problem(rng, 3)
    return random_sentence(rng, problem, max_depth=4, max_quants=3), problem


def combo_basics(c: BoolCombo):
    """The basic sentence of every leaf occurrence, left to right."""
    if isinstance(c, BasicSentence):
        yield c
    elif isinstance(c, BNot):
        yield from combo_basics(c.arg)
    elif isinstance(c, (BAnd, BOr)):
        yield from combo_basics(c.left)
        yield from combo_basics(c.right)
    else:
        raise TypeError(c)


def eval_term(t: Term, env: dict[str, Subspace], problem: Problem) -> Subspace:
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Proj):
        return sasaki_and(eval_term(t.arg, env, problem), _lookup(t.sym, problem))
    if isinstance(t, Apply):
        return apply_unitary(problem.unitaries[t.sym], eval_term(t.arg, env, problem))
    raise TypeError(t)


def _lookup(sym: str, problem: Problem) -> Subspace:
    return problem.subspaces[sym]


def sampled_eval(f: Formula, problem: Problem, rng: np.random.Generator,
                 rays_per_quant: int = 6) -> bool | None:
    """Three-valued evaluation over sampled elements of the ray domain.

    Quantifiers range over rays and the zero space.  A quantifier is
    witnessed from a finite carrier: named subspaces contribute interior
    rays so meets and containments are actually exercised.  Sampling
    can confirm an exists and refute a forall; the opposite directions
    stay None.
    """

    named = [p for n, p in problem.subspaces.items() if n not in ("top", "bot")]
    carrier: list[Subspace] = [bottom(problem.dim)]
    for p in named:
        if 0 < p.rank:
            carrier.append(random_ray_within(rng, p))
        if 0 < p.rank < problem.dim:
            carrier.append(random_ray_within(rng, ortho(p)))
    for a in range(len(named)):
        for b in range(a + 1, len(named)):
            both = meet(named[a], named[b])
            if both.rank > 0:
                carrier.append(random_ray_within(rng, both))
    for _ in range(rays_per_quant):
        carrier.append(random_ray(rng, problem.dim))

    def go(g: Formula, env: dict[str, Subspace]) -> bool | None:
        if isinstance(g, Atom):
            return leq(eval_term(g.term, env, problem), _lookup(g.sym, problem))
        if isinstance(g, Not):
            inner = go(g.arg, env)
            return None if inner is None else not inner
        if isinstance(g, And):
            left, right = go(g.left, env), go(g.right, env)
            if left is False or right is False:
                return False
            if left is True and right is True:
                return True
            return None
        if isinstance(g, Or):
            left, right = go(g.left, env), go(g.right, env)
            if left is True or right is True:
                return True
            if left is False and right is False:
                return False
            return None
        if isinstance(g, Implies):
            return go(Or(Not(g.left), g.right), env)
        if isinstance(g, Iff):
            return go(And(Implies(g.left, g.right), Implies(g.right, g.left)), env)
        if isinstance(g, Exists):
            for elem in carrier:
                if go(g.body, {**env, g.var: elem}) is True:
                    return True
            # all-false over a sample still proves nothing
            return None
        if isinstance(g, Forall):
            for elem in carrier:
                r = go(g.body, {**env, g.var: elem})
                if r is False:
                    return False
            return None
        raise TypeError(g)

    return go(f, {})


def basic_holds_pointwise(b: BasicSentence, x: Subspace) -> bool:
    """Literal conjunction check for a single element of the ray domain."""
    return all(leq(x, p) for p in b.positives) and not any(leq(x, q) for q in b.negatives)
