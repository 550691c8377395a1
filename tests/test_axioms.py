"""The axioms, stated once, read over subspaces and over finite structures.

The structure literals below were recorded with a separate hand-written
copy of each axiom for the structure check, and the random-suite counts
when the suites moved to blocks of stacked instances.  They fail when a
draw order, an enumeration order, a side condition or a violation note
drifts.  The stacked reading of a block is checked, instance by
instance, against the axioms read one instance at a time through the
per-pair kernel (``OverSubspaces`` in ``tests/_routes.py``).
"""

import hashlib
import json
import tracemalloc
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pqm.axioms
import pqm.subspace
from pqm.axioms import (
    AXIOMS, RayElements, SampledSemantics, SubspaceElements, _OverStacks, run_axiom_suite, select_axioms,
)
from pqm.circuit import check_axioms_from_rules, check_rule_suite
from pqm.decide import check_axiom_suite
from pqm.structures import check_structure_axioms, parse_structure_json
from pqm.subspace import eq, leq, stacked_leq

from _corpus import build_corpus, build_mutants
from _helpers import instance
from _routes import OverSubspaces
from test_structures import tiny_structure_json

# (instances, skipped, violations) per axiom, summed over the corpus and
# its mutants, figure "all".
STRUCTURE_COUNTS = {
    "verify-top": (416, 0, 3),
    "some-possible": (20, 0, 0),
    "monotone": (10016, 0, 38),
    "meet-compatible": (14336, 0, 3),
    "meet": (18944, 0, 3),
    "project-intro": (32768, 0, 106),
    "project-chain": (11232, 0, 2),
    "project-bottom": (3328, 0, 45),
    "project-adjoint": (32576, 192, 106),
    "unitary-intro": (5888, 0, 19),
    "unitary-elim": (5888, 0, 10),
}

MUTANT_FIRST_NOTES = {
    "bool-0/drop_top_mutant": "bot_0 does not verify top",
    "bool-1/drop_upward_mutant": "bot_0 verifies bot <= s1 but not s1",
    "bool-2/add_unsupported_mutant": "s1_0 verifies bot <= s2 but not s2",
    "bool-3/corrupt_projection_mutant": "projecting bot_0 onto bot loses bot&bot = bot",
    "bool-4/drop_top_mutant": "bot_0 does not verify top",
    "bool-5/drop_upward_mutant": "bot_0 verifies bot <= s1 but not s1",
    "mixed-0/add_unsupported_mutant": "s1_0 verifies bot <= s2 but not s2",
    "mixed-1/corrupt_projection_mutant": "projecting bot_0 onto bot loses bot&bot = bot",
    "mixed-2/drop_top_mutant": "bot_0 does not verify top",
    "mixed-3/drop_upward_mutant": "bot_0 verifies bot <= s1 but not s1",
}

# The first note of each axiom over the corpus and its mutants, so that
# every note is pinned.
FIRST_NOTE_PER_AXIOM = {
    "verify-top": "bot_0 does not verify top",
    "monotone": "bot_0 verifies bot <= top but not top",
    "meet-compatible": "bot_0 verifies s12 and s13 but not their meet s1",
    "meet": "bot_0 verifies s12 and s13 but not their meet s1",
    "project-intro": "projecting bot_1 onto s1 loses s1&s1 = s1",
    "project-chain": "bot_0: impossible through bot then bot, possible through bot",
    "project-bottom": "bot_0 impossible through bot but does not verify its complement",
    "project-adjoint": "projection of bot_0 onto bot verifies bot but bot_0 misses top",
    "unitary-intro": "cycle applied to bot_0 loses the image of s3",
    "unitary-elim": "cycle image of bot_0 verifies s2 but bot_0 misses its preimage",
}

# SHA-256 of the JSON list, one entry per report, of each result's
# [name, instances, skipped, violations, examples]: it also pins which
# five examples each axiom keeps, so the enumeration order.  Recorded
# with a separate result type per check, where instances were "checked".
REPORTS_SHA256 = "e37e9fdb8cd537fe4da5a8a61c9aff6b1e7308ebb56005a39b2f3353a68d20c7"

# (instances, hypothesis_hits, violations) of check_axiom_suite(3,
# samples=60, seed=0) per element domain, drawn and read in blocks: each
# axiom's 60 instances are one block at dim 3.
SUITE_COUNTS = {
    "subspaces": {
        "verify-top": (60, 60, 0),
        "some-possible": (60, 1, 0),
        "monotone": (60, 47, 0),
        "meet-compatible": (60, 35, 0),
        "meet": (60, 35, 0),
        "project-intro": (60, 49, 0),
        "project-chain": (60, 49, 0),
        "project-bottom": (60, 47, 0),
        "project-adjoint": (60, 47, 0),
        "unitary-intro": (60, 45, 0),
        "unitary-elim": (60, 44, 0),
    },
    "rays": {
        "verify-top": (60, 60, 0),
        "some-possible": (60, 1, 0),
        "monotone": (60, 44, 0),
        "meet-compatible": (60, 32, 0),
        "meet": (60, 32, 0),
        "project-intro": (60, 46, 0),
        "project-chain": (60, 47, 0),
        "project-bottom": (60, 43, 0),
        "project-adjoint": (60, 44, 0),
        "unitary-intro": (60, 44, 0),
        "unitary-elim": (60, 44, 0),
    },
}

# The same for check_axioms_from_rules(3, samples=40, seed=0).
DERIVED_COUNTS = {
    "verify-top": (40, 40, 0),
    "some-possible": (40, 1, 0),
    "monotone": (40, 31, 0),
    "meet-compatible": (40, 20, 0),
    "project-intro": (40, 28, 0),
    "project-chain": (40, 32, 0),
    "project-bottom": (40, 27, 0),
    "unitary-intro": (40, 32, 0),
    "unitary-elim": (40, 29, 0),
}


def _counts(results):
    return {r.name: (r.instances, r.hypothesis_hits, r.violations) for r in results}


def test_structure_check_counts_and_notes_are_pinned():
    corpus = build_corpus()
    totals = defaultdict(lambda: (0, 0, 0))
    first_notes = {}
    first_per_axiom = {}
    reports = []
    for name, s in [(n, s) for n, s, _ in corpus] + build_mutants(corpus):
        report = check_structure_axioms(s, "all")
        reports.append([(r.name, r.instances, r.skipped, r.violations, r.examples) for r in report.results])
        for r in report.results:
            assert r.violations + r.skipped <= r.hypothesis_hits <= r.instances, (name, r)
            totals[r.name] = tuple(a + b for a, b in zip(totals[r.name], (r.instances, r.skipped, r.violations)))
            if r.examples:
                first_per_axiom.setdefault(r.name, r.examples[0])
        if "/" in name:
            first_notes[name] = next(ex for r in report.results for ex in r.examples)
    assert dict(totals) == STRUCTURE_COUNTS
    assert first_notes == MUTANT_FIRST_NOTES
    assert first_per_axiom == FIRST_NOTE_PER_AXIOM
    assert hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest() == REPORTS_SHA256


def test_random_suite_counts_are_pinned():
    report = check_axiom_suite(3, samples=60, seed=0)
    assert {label: _counts(results) for label, results in report.by_domain.items()} == SUITE_COUNTS
    assert _counts(check_axioms_from_rules(3, samples=40, seed=0).results) == DERIVED_COUNTS


def test_random_suite_reads_both_sides_of_every_instance():
    # The sampled semantics draws from its own generator for every block
    # of statements it cannot decide without a draw, so its state after a
    # run pins which statements were evaluated; reading a conclusion only
    # where its hypothesis held would move it.
    sem = SampledSemantics(np.random.default_rng([0, 3, 7]))
    run_axiom_suite(3, 40, 0, SubspaceElements(), sem.verify, "base")
    assert int(sem.rng.integers(2**62)) == 2487057855453658227


def _checked_term(stacked_term, per_instance_term):
    """``stacked_term``, asserting that each of its results is, instance
    by instance, the subspace that ``per_instance_term`` gives, at the
    same rank."""

    def term(*args):
        out = stacked_term(*args)
        for i in range(len(out.rank)):
            got, want = instance(out, i), per_instance_term(*(instance(a, i) for a in args))
            assert got.rank == want.rank and eq(got, want)
        return out

    return term


class _CheckedStacks(_OverStacks):
    """The stacked reading of a block, with every term checked against the
    per-pair kernel and every verification statement decided three ways:
    by the stacked containment, by the stacked sampled semantics and by
    ``leq`` one pair at a time, which must all agree."""

    def __init__(self, n: int, dim: int, rng: np.random.Generator):
        sampled = SampledSemantics(rng).verify

        def verify(x: np.ndarray, p: np.ndarray) -> np.ndarray:
            exact = stacked_leq(x, p)
            assert np.array_equal(sampled(x, p), exact)
            return exact

        super().__init__(verify, n, dim)
        one = OverSubspaces(leq, dim)
        for term in ("meet", "ortho", "sasaki_and", "project", "sasaki_hook", "image", "transform", "preimage"):
            setattr(self, term, _checked_term(getattr(self, term), getattr(one, term)))
        plain = self.verify

        def verify_checked(x, p):
            out = plain(x, p)
            assert out.tolist() == [leq(instance(x, i), instance(p, i)) for i in range(len(out))]
            return out

        self.verify = verify_checked


@pytest.mark.parametrize("domain", [SubspaceElements(), RayElements()], ids=lambda d: d.label)
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 8, 16])
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
@settings(max_examples=20, deadline=None)
def test_stacked_blocks_agree_with_the_per_instance_route(dim, domain, seed, n):
    # every axiom's drawn block, unstacked: each side of each instance read
    # over subspaces one at a time through pqm.subspace gives the same truth
    one = OverSubspaces(leq, dim)
    for index, axiom in enumerate(AXIOMS):
        rng = np.random.default_rng([seed, dim, index])
        args = axiom.draw(rng, n, dim, domain)
        interp = _CheckedStacks(n, dim, np.random.default_rng([seed, dim, index, 7]))
        hypothesis = np.broadcast_to(axiom.hypothesis(interp, *args), n)
        conclusion = np.broadcast_to(axiom.conclusion(interp, *args), n)
        for i in range(n):
            one_by_one = [instance(a, i) for a in args]
            assert axiom.hypothesis(one, *one_by_one) == hypothesis[i], (axiom.name, i)
            assert axiom.conclusion(one, *one_by_one) == conclusion[i], (axiom.name, i)


def _spied(lengths: list):
    """AXIOMS with each draw recording the length of its block."""

    def spy(draw):
        def recorded(rng, n, dim, domain):
            lengths.append(n)
            return draw(rng, n, dim, domain)

        return recorded

    return tuple(replace(a, draw=spy(a.draw)) for a in AXIOMS)


@pytest.mark.parametrize("entries", [1, 200])
def test_axiom_suite_blocks_hold_at_least_one_instance_within_the_bound(monkeypatch, entries):
    # With 1 entry every instance is its own block; with 200, 22 instances
    # share one at dim 3.  Unlike the rule suite's, these counts may differ
    # from SUITE_COUNTS: a block draws each quantity for all its instances
    # in one call, so which numbers of the stream each instance gets
    # depends on the block length.  Only the invariants are asserted.
    monkeypatch.setattr(pqm.subspace, "_STACK_ENTRIES", entries)
    lengths = []
    monkeypatch.setattr(pqm.axioms, "AXIOMS", _spied(lengths))
    exact = check_axiom_suite(3, samples=60, seed=0)
    sampled = check_axioms_from_rules(3, samples=40, seed=0)
    assert lengths and min(lengths) >= 1 and max(lengths) <= max(1, entries // 9)
    assert sum(lengths) == 60 * len(exact.results) + 40 * len(sampled.results)
    for report, samples in ((exact, 60), (sampled, 40)):
        assert all(r.instances == samples for r in report.results)
        assert report.total_violations == 0 and report.ok


# Peak traced memory of a suite at dim 128, two samples: one instance
# (128 * 128 entries) fills a block past _STACK_ENTRIES, so each block
# holds one instance.  Measured with tracemalloc at 4.3 MB for each of
# check_axiom_suite and check_axioms_from_rules (5.1 MB for the first
# call in a fresh process).  The bound leaves a margin of about 1.6x over
# 4.3 MB; blocks of two instances measured 8.3 MB, past it.
SUITE_PEAK_BYTES = 7_000_000


@pytest.mark.parametrize("suite", [check_axiom_suite, check_axioms_from_rules])
def test_a_suite_at_dim_128_stays_within_its_memory_bound(suite):
    tracemalloc.start()
    try:
        report = suite(128, samples=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < SUITE_PEAK_BYTES, peak


@pytest.mark.parametrize("dim, informational", [(2, {"meet"}), (3, set())])
def test_only_the_meet_axiom_is_informational_and_only_below_dim_three(dim, informational):
    # an informational result's violations do not count against ok
    for results in check_axiom_suite(dim, samples=2, seed=0).by_domain.values():
        assert {r.name for r in results if r.informational} == informational
    assert not any(r.informational for r in check_axioms_from_rules(dim, samples=2, seed=0).results)


def test_figures_select_axioms():
    assert [a.name for a in select_axioms("all")] == [a.name for a in AXIOMS]
    assert all(a.in_base for a in select_axioms("base"))
    assert all(a.in_revised for a in select_axioms("revised"))
    assert {a.name for a in select_axioms("base")} | {a.name for a in select_axioms("revised")} == {
        a.name for a in AXIOMS
    }


@pytest.mark.parametrize("figure", ["Base", "both", ""])
def test_unknown_figure_is_rejected_by_both_runners(figure):
    with pytest.raises(ValueError, match="unknown figure"):
        check_axiom_suite(3, samples=1, figure=figure)
    with pytest.raises(ValueError, match="unknown figure"):
        check_structure_axioms(parse_structure_json(tiny_structure_json()), figure)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: check_axiom_suite(3, samples=0), "samples"),
        (lambda: check_axiom_suite(3, samples=-1), "samples"),
        (lambda: check_rule_suite(3, samples=0), "samples"),
        (lambda: check_rule_suite(3, samples=-1), "samples"),
        (lambda: check_axioms_from_rules(3, samples=0), "samples"),
    ],
    ids=["axioms-0", "axioms-neg", "rules-0", "rules-neg", "derived-0"],
)
def test_counts_below_one_are_rejected(call, name):
    # zero instances would pass every law vacuously
    with pytest.raises(ValueError, match=f"{name} must be at least 1"):
        call()
