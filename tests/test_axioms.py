"""The axioms, stated once, read over subspaces and over finite structures.

The literals below were recorded with a separate hand-written copy of
each axiom for the random suites and for the structure check.  They fail
when a draw order, an enumeration order, a side condition or a
violation note drifts.
"""

import hashlib
import json
from collections import defaultdict

import numpy as np
import pytest

from pqm.axioms import AXIOMS, SampledSemantics, SubspaceElements, run_axiom_suite, select_axioms
from pqm.circuit import check_axioms_from_rules
from pqm.decide import check_axiom_suite
from pqm.structures import check_structure_axioms, parse_structure_json

from _corpus import build_corpus, build_mutants
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
# samples=60, seed=0) per element domain.
SUITE_COUNTS = {
    "subspaces": {
        "verify-top": (60, 60, 0),
        "some-possible": (60, 1, 0),
        "monotone": (60, 41, 0),
        "meet-compatible": (60, 43, 0),
        "meet": (60, 32, 0),
        "project-intro": (60, 44, 0),
        "project-chain": (60, 55, 0),
        "project-bottom": (60, 43, 0),
        "project-adjoint": (60, 45, 0),
        "unitary-intro": (60, 46, 0),
        "unitary-elim": (60, 46, 0),
    },
    "rays": {
        "verify-top": (60, 60, 0),
        "some-possible": (60, 1, 0),
        "monotone": (60, 44, 0),
        "meet-compatible": (60, 32, 0),
        "meet": (60, 28, 0),
        "project-intro": (60, 42, 0),
        "project-chain": (60, 51, 0),
        "project-bottom": (60, 33, 0),
        "project-adjoint": (60, 45, 0),
        "unitary-intro": (60, 39, 0),
        "unitary-elim": (60, 42, 0),
    },
}

# The same for check_axioms_from_rules(3, samples=40, seed=0).
DERIVED_COUNTS = {
    "verify-top": (40, 40, 0),
    "some-possible": (40, 1, 0),
    "monotone": (40, 29, 0),
    "meet-compatible": (40, 27, 0),
    "project-intro": (40, 27, 0),
    "project-chain": (40, 31, 0),
    "project-bottom": (40, 26, 0),
    "unitary-intro": (40, 30, 0),
    "unitary-elim": (40, 28, 0),
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
    # The sampled semantics draws from its own generator on every verify,
    # so its state after a run pins how many statements were evaluated;
    # skipping a conclusion whose hypothesis failed would move it.
    sem = SampledSemantics(np.random.default_rng([0, 3, 7]), 64)
    run_axiom_suite(3, 40, 0, SubspaceElements(), sem, "base")
    assert int(sem.rng.integers(2**62)) == 1754940360808966105


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
