"""Normalizer: atom reduction, quantifier elimination, truth preservation."""

import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pqm.lang import Atom, Exists, Forall, Formula, Iff, Not, Problem, Var, parse_problem
from pqm.normalize import (
    BAnd,
    BNot,
    BOr,
    BasicSentence,
    Leaf,
    NormalizationLimitError,
    combo_size,
    combo_to_formula,
    combo_to_json,
    normalize,
    reduce_atom,
)
from pqm.decide import evaluate
from pqm.sampling import random_ray
from pqm.subspace import bottom, leq, subspace_to_json

from _helpers import (
    combo_basics,
    deep_disjunction,
    eval_term,
    random_problem,
    random_sentence,
    sampled_eval,
)

seeds = st.integers(0, 2**32 - 1)


@given(seeds)
@settings(max_examples=80, deadline=None)
def test_reduce_atom_is_pointwise_equivalence(seed):
    rng = np.random.default_rng(seed)
    problem = random_problem(rng, 3)
    sentence = random_sentence(rng, problem, max_depth=1, max_quants=1)
    # dig out one atom with a possibly compound term
    atom = sentence
    while not isinstance(atom, Atom):
        atom = getattr(atom, "body", None) or getattr(atom, "arg", None) or atom.left
    var, reduced = reduce_atom(atom, problem)
    for x in [bottom(3)] + [random_ray(rng, 3) for _ in range(24)]:
        direct = leq(eval_term(atom.term, {var: x}, problem), problem.subspaces[atom.sym])
        assert direct == leq(x, reduced)


def test_normalize_produces_single_variable_leaves():
    pr = parse_problem(
        "dim 3\n"
        "let p = span{(1,0,0),(0,1,0)}\n"
        "let q = span{(0,0,1)}\n"
        "let U = matrix{(0,1,0),(1,0,0),(0,0,1)}\n"
        "assert forall x . [x : p] -> exists y . [proj[q](y) : p] & ~[U(x) : q]\n"
    )
    combo = normalize(pr.sentence, pr)
    for basic in combo_basics(combo):
        assert isinstance(basic, BasicSentence)
        assert all(s.dim == 3 for s in basic.positives + basic.negatives)


@given(seeds)
@settings(max_examples=80, deadline=None)
def test_normalize_preserves_truth_one_sided(seed):
    rng = np.random.default_rng(seed)
    problem = random_problem(rng, 3)
    sentence = random_sentence(rng, problem, max_depth=4, max_quants=3)
    combo = normalize(sentence, problem)
    assume(combo_size(combo) <= 3000)  # rare Iff towers cost minutes, not insight
    decided = evaluate(combo, 3).truth
    sampled = sampled_eval(sentence, problem, rng)
    if sampled is not None:
        assert sampled == decided


def test_deep_disjunction_fits_default_stack():
    # regression: a two-line sentence used to normalize into a fold so
    # deep that evaluation hit the recursion limit
    sentence, problem = deep_disjunction()
    combo = normalize(sentence, problem)
    assert combo_size(combo) > 50_000
    assert evaluate(combo, 3).truth is True


def _atoms(f: Formula) -> set[Atom]:
    if isinstance(f, Atom):
        return {f}
    kids = (getattr(f, field.name) for field in fields(f))
    return set().union(*(_atoms(k) for k in kids if isinstance(k, Formula)))


def test_normalize_shares_atoms_and_leaves():
    # equal atoms reduce to one literal object and repeated literal
    # sequences to one leaf; the tree keeps its shape
    sentence, problem = deep_disjunction()
    combo = normalize(sentence, problem)
    basics = list(combo_basics(combo))
    literals = {id(x) for b in basics for x in b.positives + b.negatives}
    assert len(literals) <= len(_atoms(sentence))
    assert len({id(b) for b in basics}) == 10
    assert combo_size(combo) > 50_000


def _nested(c, memo):
    """The normal form as the nested tree that JSON schema 1 emitted."""
    if id(c) not in memo:
        if isinstance(c, Leaf):
            memo[id(c)] = {
                "type": "basic",
                "positives": [subspace_to_json(p) for p in c.basic.positives],
                "negatives": [subspace_to_json(q) for q in c.basic.negatives],
            }
        elif isinstance(c, BNot):
            memo[id(c)] = {"type": "not", "arg": _nested(c.arg, memo)}
        else:
            kind = {BAnd: "and", BOr: "or"}[type(c)]
            memo[id(c)] = {"type": kind, "left": _nested(c.left, memo), "right": _nested(c.right, memo)}
    return memo[id(c)]


def _expanded(nf, k, memo):
    """Expand the flat tables of combo_to_json back into the nested tree."""
    if k not in memo:
        node = nf["nodes"][k]
        if node[0] == "leaf":
            leaf = nf["leaves"][node[1]]
            memo[k] = {
                "type": "basic",
                "positives": [nf["subspaces"][i] for i in leaf["positives"]],
                "negatives": [nf["subspaces"][i] for i in leaf["negatives"]],
            }
        elif node[0] == "not":
            memo[k] = {"type": "not", "arg": _expanded(nf, node[1], memo)}
        else:
            memo[k] = {"type": node[0], "left": _expanded(nf, node[1], memo),
                       "right": _expanded(nf, node[2], memo)}
    return memo[k]


def _assert_tables_expand_to_tree(combo):
    nf = combo_to_json(combo)
    for k, node in enumerate(nf["nodes"]):
        assert all(child < k for child in node[1:] if node[0] != "leaf")
    assert len({tuple(node) for node in nf["nodes"]}) == len(nf["nodes"])
    assert _expanded(nf, nf["root"], {}) == _nested(combo, {})
    return nf


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_normal_form_tables_expand_to_the_nested_tree(seed):
    rng = np.random.default_rng(seed)
    problem = random_problem(rng, 3)
    _assert_tables_expand_to_tree(normalize(random_sentence(rng, problem, 3, 2), problem))


def test_normal_form_tables_are_sized_by_distinct_leaves():
    sentence, problem = deep_disjunction()
    nf = _assert_tables_expand_to_tree(normalize(sentence, problem))
    assert len(nf["leaves"]) == 10
    assert len(json.dumps(nf)) < 1_000_000


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_combo_export_round_trips_truth(seed):
    rng = np.random.default_rng(seed)
    problem = random_problem(rng, 3)
    sentence = random_sentence(rng, problem, max_depth=3, max_quants=2)
    combo = normalize(sentence, problem)
    formula, table = combo_to_formula(combo, 3)
    reproblem = Problem(3, table, {}, formula)
    recombo = normalize(formula, reproblem)
    assert evaluate(recombo, 3).truth == evaluate(combo, 3).truth


def test_vacuous_quantifier():
    pr = parse_problem(
        "dim 3\nlet p = span{(1,0,0)}\nassert exists x . forall y . [x : p]\n"
    )
    combo = normalize(pr.sentence, pr)
    assert evaluate(combo, 3).truth


def test_forall_is_negated_exists():
    pr = parse_problem("dim 3\nlet p = span{(1,0,0)}\nassert forall x . [x : p]\n")
    combo = normalize(pr.sentence, pr)
    assert not evaluate(combo, 3).truth
    pr2 = parse_problem("dim 3\nassert forall x . [x : top]\n")
    assert evaluate(normalize(pr2.sentence, pr2), 3).truth


def test_blowup_guard_raises_cleanly():
    # chained biconditionals square the DNF at each quantifier elimination
    body = Atom(Var("x0"), "p")
    f = body
    for _ in range(24):
        f = Iff(f, Atom(Var("x0"), "q"))
        f = Iff(f, Not(Atom(Var("x0"), "r")))
    f = Exists("x0", f)
    pr = parse_problem(
        "dim 3\nlet p = span{(1,0,0)}\nlet q = span{(0,1,0)}\n"
        "let r = span{(0,0,1)}\nassert exists x . [x : p]\n"
    )
    problem = Problem(3, pr.subspaces, pr.unitaries, f)
    with pytest.raises(NormalizationLimitError):
        normalize(f, problem)
