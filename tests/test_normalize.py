"""Normalizer: atom reduction, quantifier elimination, truth preservation."""

import hashlib
import json
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings, strategies as st

from pqm.lang import Atom, Exists, Formula, Iff, Not, Problem, Var, parse_problem
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
from pqm.decide import evaluate, verdict_to_json
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


# sha256 of the node tables, size and verdict of each normal form, for
# random_sentence draws at dims 3 and 6 (seeds 0-399, rng [seed, dim])
# and the seed-645 sentence.  Recorded before the closed pieces of the
# mixed tree became Leaf and BNot nodes; every byte must stay.
NORMAL_FORMS_SHA256 = "57e1bc43a092780bbef2661a9250ac297ce7ab1a3d31245d0b61734ea8fa1e80"


def _pinned_draws():
    for dim in (3, 6):
        for seed in range(400):
            rng = np.random.default_rng([seed, dim])
            problem = random_problem(rng, dim)
            yield random_sentence(rng, problem), problem
    yield deep_disjunction()


def test_normal_forms_are_pinned():
    digest = hashlib.sha256()
    for sentence, problem in _pinned_draws():
        combo = normalize(sentence, problem)  # none of these draws passes the budget
        record = [combo_to_json(combo), combo_size(combo), verdict_to_json(evaluate(combo, problem.dim))]
        digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == NORMAL_FORMS_SHA256


def test_node_budget_is_charged_exactly(monkeypatch):
    # pqm.normalize names the function once the package is imported
    module = sys.modules["pqm.normalize"]
    sentence, problem = deep_disjunction()
    monkeypatch.setattr(module, "DNF_NODE_LIMIT", 7_230)
    assert combo_size(normalize(sentence, problem)) > 50_000
    monkeypatch.setattr(module, "DNF_NODE_LIMIT", 7_229)
    with pytest.raises(NormalizationLimitError, match="exceeds 7229 nodes"):
        normalize(sentence, problem)


@pytest.mark.parametrize("op, node", [("&", BAnd), ("|", BOr)])
def test_nested_nodes_of_one_kind_are_spliced(monkeypatch, op, node):
    """A conjunction of conjunctions is one flat node, and so is a
    disjunction of disjunctions: above the quantifiers it folds balanced,
    and in a quantifier's body DNF charges it once."""
    head = "dim 3\nlet p = span{(1,0,0)}\nlet q = span{(0,1,0)}\nlet r = span{(0,0,1)}\nassert "
    pr = parse_problem(head + f"((exists x . [x : p]) {op} (exists x . [x : q])) {op} (exists x . [x : r])\n")
    combo = normalize(pr.sentence, pr)
    assert isinstance(combo, node) and isinstance(combo.left, Leaf) and isinstance(combo.right, node)
    pr = parse_problem(head + f"exists x . (([x : p] {op} [x : q]) {op} [x : r])\n")
    monkeypatch.setattr(sys.modules["pqm.normalize"], "DNF_NODE_LIMIT", {"&": 12, "|": 9}[op])
    normalize(pr.sentence, pr)
    monkeypatch.setattr(sys.modules["pqm.normalize"], "DNF_NODE_LIMIT", {"&": 11, "|": 8}[op])
    with pytest.raises(NormalizationLimitError):
        normalize(pr.sentence, pr)


def test_seed_1124_exceeds_the_default_budget():
    rng = np.random.default_rng(1124)
    problem = random_problem(rng, 3)
    with pytest.raises(NormalizationLimitError, match="exceeds 1000000 nodes"):
        normalize(random_sentence(rng, problem, max_depth=4, max_quants=3), problem)


@given(seeds)
@example(1124)  # its normal form passes DNF_NODE_LIMIT
@settings(max_examples=80, deadline=None)
def test_normalize_preserves_truth_one_sided(seed):
    rng = np.random.default_rng(seed)
    problem = random_problem(rng, 3)
    sentence = random_sentence(rng, problem, max_depth=4, max_quants=3)
    try:
        combo = normalize(sentence, problem)
    except NormalizationLimitError:
        reject()  # a draw too large to normalize, like those assume drops
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
    formula, table = combo_to_formula(combo)
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
