"""Decision engine: meet-and-containment criterion, witnesses, suites."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pqm.decide import (
    check_axiom_suite,
    cross_check_vd,
    decide_basic,
    evaluate,
    verdict_to_json,
)
from pqm.normalize import BAnd, BNot, BOr, BasicSentence, Leaf, combo_to_json, normalize
from pqm.sampling import random_subspace
from pqm.subspace import DimensionMismatchError, bottom, eq, leq, span_of, subspace_to_json, top

from _helpers import (
    basic_holds_pointwise,
    combo_basics,
    deep_disjunction,
    random_basic,
    random_problem,
    random_sentence,
)

seeds = st.integers(0, 2**32 - 1)

E1 = [1, 0, 0]
E2 = [0, 1, 0]
E3 = [0, 0, 1]


def _sp(*vecs):
    return span_of([np.array(v, dtype=complex) for v in vecs], 3)


def test_nonzero_element_exists():
    # exists x . ~[x : bot]
    v = decide_basic(BasicSentence((), (bottom(3),)), 3)
    assert v.truth and v.witness is not None and v.witness.rank == 1


def test_self_contradiction_is_false():
    p = _sp(E1, E2)
    v = decide_basic(BasicSentence((p,), (p,)), 3)
    assert not v.truth and v.witness is None


def test_plane_intersection_witness():
    v = decide_basic(
        BasicSentence((_sp(E1, E2), _sp(E2, E3)), (_sp(E1, E3),)), 3
    )
    assert v.truth
    assert eq(v.witness, _sp(E2))


def test_empty_negatives_trivial_witness():
    p = _sp(E1)
    v = decide_basic(BasicSentence((p,), ()), 3)
    assert v.truth
    assert v.witness is not None and v.witness.rank == 0


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        decide_basic(BasicSentence((top(2),), (bottom(3),)), 3)


def test_everything_verifies_top():
    # ~ exists x . ~[x : top]
    combo = BNot(Leaf(BasicSentence((), (top(3),))))
    assert evaluate(combo, 3).truth


def test_boolean_evaluation():
    true_leaf = Leaf(BasicSentence((), (bottom(3),)))
    false_leaf = Leaf(BasicSentence((top(3),), (top(3),)))
    assert not evaluate(BAnd(true_leaf, false_leaf), 3).truth
    assert evaluate(BOr(false_leaf, true_leaf), 3).truth
    assert evaluate(BNot(false_leaf), 3).truth


@given(seeds)
@settings(max_examples=80, deadline=None)
def test_witness_soundness(seed):
    rng = np.random.default_rng(seed)
    b = random_basic(rng, 3)
    v = decide_basic(b, 3)
    if v.truth and v.witness is not None and v.witness.rank == 1:
        assert basic_holds_pointwise(b, v.witness)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_monotone_in_literals(seed):
    rng = np.random.default_rng(seed)
    b = random_basic(rng, 3)
    extra = random_subspace(rng, 3)
    v = decide_basic(b, 3).truth
    more_pos = decide_basic(BasicSentence(b.positives + (extra,), b.negatives), 3).truth
    more_neg = decide_basic(BasicSentence(b.positives, b.negatives + (extra,)), 3).truth
    # literals only ever shrink the satisfying set
    assert not (more_pos and not v) or b.positives == ()
    if v is False:
        assert more_pos is False or b.negatives == ()
        assert more_neg is False
    fewer = decide_basic(BasicSentence(b.positives, b.negatives[:-1]), 3).truth if b.negatives else True
    if v:
        assert fewer


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_vd_sampling_agrees_one_sided(seed):
    rng = np.random.default_rng(seed)
    b = random_basic(rng, 3)
    report = cross_check_vd(b, 3, samples=500, seed=seed)
    if report.sampler_found:
        assert report.decider_truth
    if report.decider_truth:
        assert report.witness_ok


def test_vd_sampler_finds_plane_minus_line():
    b = BasicSentence((_sp(E1, E2),), (_sp(E1),))
    report = cross_check_vd(b, 3, samples=10_000, seed=0)
    assert report.sampler_found and report.decider_truth and report.witness_ok


def test_vd_sampler_consistent_on_contradiction():
    p = _sp(E1, E2)
    report = cross_check_vd(BasicSentence((p,), (p,)), 3, samples=2_000, seed=0)
    assert not report.sampler_found and not report.decider_truth


def _assert_memo_matches_fresh_leaves(combo, dim):
    # evaluate shares leaf work across a call; decide_basic decides one
    # leaf with nothing shared.  It is deterministic, so one fresh
    # decision per distinct leaf object checks every occurrence.
    basics = list(combo_basics(combo))
    memo = evaluate(combo, dim).leaves
    assert len(memo) == len(basics)
    fresh = {}
    for basic, got in zip(basics, memo):
        assert got.basic is basic
        if id(basic) not in fresh:
            fresh[id(basic)] = decide_basic(basic, dim).leaves[0]
        want = fresh[id(basic)]
        assert got.truth == want.truth
        assert got.contained == want.contained
        assert np.array_equal(got.meet_all.basis, want.meet_all.basis)
        assert (got.witness is None) == (want.witness is None)
        if want.witness is not None:
            assert np.array_equal(got.witness.basis, want.witness.basis)


def test_memoized_leaves_match_fresh_decisions_on_deep_disjunction():
    sentence, problem = deep_disjunction()
    _assert_memo_matches_fresh_leaves(normalize(sentence, problem), 3)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_memoized_leaves_match_fresh_decisions(seed):
    rng = np.random.default_rng(seed)
    problem = random_problem(rng, 3)
    sentence = random_sentence(rng, problem, max_depth=3, max_quants=2)
    _assert_memo_matches_fresh_leaves(normalize(sentence, problem), 3)


def test_verdict_json_shape():
    v = decide_basic(BasicSentence((_sp(E1, E2),), (_sp(E1),)), 3)
    j = verdict_to_json(v)
    assert j["truth"] is True
    assert j["witness"]["rank"] == 1
    assert j["leaves"][0]["negative_contains_meet"] == [False]
    assert j["leaves"][0]["occurrences"] == 1


def test_verdict_json_lists_each_distinct_leaf_once():
    sentence, problem = deep_disjunction()
    combo = normalize(sentence, problem)
    v = evaluate(combo, 3)
    trace = verdict_to_json(v)["leaves"]
    nf = combo_to_json(combo)
    first = {}
    for leaf in v.leaves:
        first.setdefault(id(leaf.basic), leaf)
    assert len(trace) == len(first) == len(nf["leaves"]) == 10
    assert sum(entry["occurrences"] for entry in trace) == len(v.leaves) == 41_472
    # entry k decides leaf k of the normal form
    for entry, leaf, nf_leaf in zip(trace, first.values(), nf["leaves"]):
        assert entry["occurrences"] == sum(other.basic is leaf.basic for other in v.leaves)
        assert entry["truth"] == leaf.truth
        assert entry["meet_of_positives"] == subspace_to_json(leaf.meet_all)
        for side in ("positives", "negatives"):
            literals = [subspace_to_json(p) for p in getattr(leaf.basic, side)]
            assert [nf["subspaces"][i] for i in nf_leaf[side]] == literals


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_axiom_suite_clean_small(dim):
    report = check_axiom_suite(dim, samples=60, seed=0)
    assert report.ok, report.to_json()


def test_axiom_suite_reports_expected_axioms():
    report = check_axiom_suite(3, samples=20, seed=1)
    names = {r.name for rs in report.by_domain.values() for r in rs}
    assert {"verify-top", "some-possible", "monotone", "meet-compatible", "meet",
            "project-intro", "project-chain", "project-bottom",
            "project-adjoint", "unitary-intro", "unitary-elim"} <= names
    assert set(report.by_domain) == {"subspaces", "rays"}


def test_unconditioned_meet_checked_on_incompatible_pairs():
    report = check_axiom_suite(3, samples=200, seed=2, figure="revised")
    for rs in report.by_domain.values():
        meets = [r for r in rs if r.name == "meet"]
        assert meets and all(m.hypothesis_hits > 0 for m in meets)
    assert report.ok
