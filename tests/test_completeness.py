"""Completeness as a test oracle: a model satisfies the sentences true over C^d.

The theory is complete, so every model gives a sentence the same truth
value.  For a finite structure that ``model-check`` calls a model, that
value can be read two ways: by ``normalize`` and ``evaluate`` over the
structure's own subspaces and unitaries, and by
``evaluate_in_structure`` in ``_routes``, which looks the sentence up in
the structure's tables with no floating point and no normal form.  Two
kinds of sentence are counted instead of compared: one that projects
onto a symbol with no projector table (it is not in the structure's
language), and one whose normal form is over ``DNF_NODE_LIMIT``.
"""

from collections import Counter
from dataclasses import fields
from functools import cache

import numpy as np
from hypothesis import event, given, settings, strategies as st

from pqm.decide import evaluate
from pqm.lang import Formula, Not, Problem, Proj, pretty_print
from pqm.normalize import NormalizationLimitError, normalize
from pqm.structures import FiniteStructure, check_characterization, load_structure

from _corpus import build_corpus
from _helpers import random_sentence
from _routes import evaluate_in_structure
from conftest import SAMPLES

SWEEP_SEEDS = 300
# outcome -> count of the SWEEP_SEEDS sentences drawn per model (their
# negations are compared too)
SWEEP_COUNTS = {"true": 1670, "false": 1270, "unprojectable": 360}


@cache
def models() -> tuple[tuple[str, FiniteStructure, Problem], ...]:
    """The corpus models and samples/model3.json, each with the problem of
    its subspaces and unitaries."""
    named = [(name, s) for name, s, _ in build_corpus()]
    named.append(("model3.json", load_structure(SAMPLES / "model3.json")))
    return tuple(
        (name, s, Problem(s.dim, dict(s.subspaces), {u: t.op for u, t in s.unitaries.items()}, None))
        for name, s in named
    )


def projected_symbols(node) -> set[str]:
    """The symbols that the projection terms of a formula project onto."""
    found = {node.sym} if isinstance(node, Proj) else set()
    for f in fields(node):
        child = getattr(node, f.name)
        if hasattr(child, "__dataclass_fields__"):
            found |= projected_symbols(child)
    return found


def outcome(name: str, s: FiniteStructure, problem: Problem, sentence: Formula) -> str:
    """``"true"`` or ``"false"`` once both routes agree on it, else the
    kind of sentence that is counted instead of compared."""
    if not projected_symbols(sentence) <= set(s.projectors):
        return "unprojectable"
    try:
        truth = evaluate(normalize(sentence, problem), s.dim).truth
    except NormalizationLimitError:
        return "over-limit"
    assert truth == evaluate_in_structure(s, sentence), (name, pretty_print(sentence))
    return "true" if truth else "false"


def test_the_oracle_structures_are_models():
    assert [check_characterization(s).verdict for _, s, _ in models()] == ["model"] * 11


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_decide_agrees_with_every_model(seed):
    for name, s, problem in models():
        sentence = random_sentence(np.random.default_rng(seed), problem, max_depth=4, max_quants=3)
        for f in (sentence, Not(sentence)):
            event(outcome(name, s, problem, f))


def test_sentence_outcomes_are_counted():
    tally = Counter()
    for name, s, problem in models():
        for seed in range(SWEEP_SEEDS):
            sentence = random_sentence(np.random.default_rng(seed), problem, max_depth=4, max_quants=3)
            tally[outcome(name, s, problem, sentence)] += 1
            outcome(name, s, problem, Not(sentence))
    assert tally == SWEEP_COUNTS
