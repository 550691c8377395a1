"""Circuit semantics: folds, impossibility, rules, sampled verification."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pqm.subspace
from pqm.axioms import SampledSemantics
from pqm.circuit import (
    _RULES,
    Circuit,
    _fold_impossible,
    _tally,
    build_circuit,
    check_axioms_from_rules,
    check_rule_suite,
    final_state,
    run_circuit,
    run_circuit_trace,
)
from pqm.lang import parse_circuit_file
from pqm.sampling import random_ray, random_subspace, random_subspace_within, random_subspaces, random_unitary
from pqm.subspace import (
    DimensionMismatchError,
    InternalInvariantError,
    UnitaryOp,
    bottom,
    eq,
    join,
    leq,
    ortho,
    span_of,
    top,
)

from _helpers import instance
from _routes import is_impossible, principal_angles

seeds = st.integers(0, 2**32 - 1)

H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
HI = np.kron(H, np.eye(2)).astype(complex)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
KET00 = np.array([1, 0, 0, 0], dtype=complex)
KET10 = np.array([0, 0, 1, 0], dtype=complex)
BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def bell_prep() -> Circuit:
    return Circuit(4, (span_of([KET00], 4), UnitaryOp(4, HI), UnitaryOp(4, CNOT)))


def test_empty_circuit_is_identity(rng):
    s = random_subspace(rng, 3)
    assert eq(run_circuit(Circuit(3, ()), s), s)


@pytest.mark.parametrize("fold", [run_circuit, run_circuit_trace])
def test_folds_reject_a_state_of_another_dimension(fold):
    with pytest.raises(DimensionMismatchError, match="state of dimension 4"):
        fold(Circuit(3, ()), top(4))


@pytest.mark.parametrize("step", [top(4), UnitaryOp(4, CNOT)])
def test_circuit_rejects_a_step_of_another_dimension(step):
    with pytest.raises(DimensionMismatchError, match="step on dimension 4"):
        Circuit(3, (step,))


def test_entangling_circuit_reaches_the_analytic_ray():
    final = run_circuit(bell_prep(), top(4))
    assert final.rank == 1
    assert principal_angles(final, span_of([BELL], 4))[0] < 1e-12


def test_circuit_agrees_with_state_vector_simulation():
    # same preparation on a concrete vector instead of subspaces
    vec = CNOT @ (HI @ KET00)
    final = run_circuit(bell_prep(), top(4))
    overlap = abs(np.vdot(vec / np.linalg.norm(vec), final.basis[:, 0]))
    assert abs(overlap - 1.0) < 1e-12


def test_blocked_outcome_is_impossible():
    extended = Circuit(4, bell_prep().steps + (span_of([KET10], 4),))
    assert is_impossible(extended, top(4))


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_projection_idempotent_in_folds(seed):
    rng = np.random.default_rng(seed)
    s = random_subspace(rng, 3)
    q = random_subspace(rng, 3)
    once = run_circuit(Circuit(3, (q,)), s)
    twice = run_circuit(Circuit(3, (q, q)), s)
    assert eq(once, twice)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_orthogonal_projections_annihilate(seed):
    rng = np.random.default_rng(seed)
    s = random_subspace(rng, 3)
    p = random_subspace(rng, 3, rank=int(rng.integers(1, 3)))
    circ = Circuit(3, (p, ortho(p)))
    assert is_impossible(circ, s)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_rays_stay_rays(seed):
    rng = np.random.default_rng(seed)
    state = random_ray(rng, 3)
    steps = []
    for _ in range(4):
        if rng.random() < 0.5:
            steps.append(random_subspace(rng, 3))
        else:
            steps.append(random_unitary(rng, 3))
    for s in run_circuit_trace(Circuit(3, tuple(steps)), state):
        assert s.rank <= 1


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_impossibility_antitone_in_input(seed):
    rng = np.random.default_rng(seed)
    big = random_subspace(rng, 3, rank=int(rng.integers(1, 4)))
    small = random_subspace_within(rng, big)
    steps = tuple(random_subspace(rng, 3, rank=int(rng.integers(0, 3))) for _ in range(3))
    circ = Circuit(3, steps)
    if is_impossible(circ, big):
        assert is_impossible(circ, small)


def test_verifies_basics():
    assert leq(bottom(4), span_of([KET10], 4))
    bell = span_of([BELL], 4)
    assert leq(bell, ortho(span_of([KET10], 4)))
    assert not leq(bell, span_of([KET10], 4))


@given(seeds, st.integers(1, 8))
@settings(max_examples=100, deadline=None)
def test_verifies_exact_and_sampled_agree(seed, n):
    # the sampled semantics decides a block of statements at once, over
    # stacks of bases; each must agree with containment of its own pair
    rng = np.random.default_rng(seed)
    s, p = random_subspaces(rng, n, 3), random_subspaces(rng, n, 3)
    sampled = SampledSemantics(np.random.default_rng(seed)).verify(s.basis, p.basis)
    assert sampled.tolist() == [leq(instance(s, i), instance(p, i)) for i in range(n)]


def test_trace_matches_run(rng):
    circ = bell_prep()
    states = run_circuit_trace(circ, top(4))
    assert len(states) == len(circ.steps)
    assert eq(states[-1], run_circuit(circ, top(4)))


def test_final_state_is_the_last_of_the_trace_or_the_input():
    states = run_circuit_trace(bell_prep(), top(4))
    assert final_state(states, top(4)) is states[-1]
    s = top(3)
    assert final_state(run_circuit_trace(Circuit(3, ()), s), s) is s


def test_build_circuit_from_file():
    cp = parse_circuit_file(
        "dim 2\nlet p = span{(1,0)}\nlet U = matrix{(0,1),(1,0)}\n"
        "circuit = [ proj[p], U ]\ninput = top\n"
    )
    circ, state = build_circuit(cp)
    assert state.rank == 2
    final = run_circuit(circ, state)
    assert eq(final, span_of([np.array([0, 1])], 2))


# (instances, hypothesis_hits, violations) per rule of check_rule_suite
# at (dim, samples, seed).  They pin the draw order of every rule and the
# flags its circuits give on every state.
RULE_COUNTS = {
    (3, 60, 0): {
        "orthogonal-wipe": (138, 138, 0),
        "coarse-then-fine": (132, 132, 0),
        "coarse-then-fine-then-any": (143, 143, 0),
        "unitary-conjugation": (135, 135, 0),
        "unitary-preserves-impossibility": (127, 127, 0),
        "orthogonal-pair-join": (196, 89, 0),
    },
    (8, 30, 1): {
        "orthogonal-wipe": (66, 66, 0),
        "coarse-then-fine": (70, 70, 0),
        "coarse-then-fine-then-any": (64, 64, 0),
        "unitary-conjugation": (69, 69, 0),
        "unitary-preserves-impossibility": (70, 70, 0),
        "orthogonal-pair-join": (95, 40, 0),
    },
}


@pytest.mark.parametrize("dim, samples, seed", RULE_COUNTS)
def test_rule_suite_counts_are_pinned(dim, samples, seed):
    report = check_rule_suite(dim, samples=samples, seed=seed)
    counts = {r.name: (r.instances, r.hypothesis_hits, r.violations) for r in report.results}
    assert counts == RULE_COUNTS[dim, samples, seed]


@pytest.mark.parametrize("entries", [1, 200])
def test_rule_suite_counts_do_not_depend_on_the_block(monkeypatch, entries):
    # at most _STACK_ENTRIES entries of drawn states wait for a fold: with
    # 1, every instance is its own block; with 200, a few share one at dim 3
    monkeypatch.setattr(pqm.subspace, "_STACK_ENTRIES", entries)
    test_rule_suite_counts_are_pinned(3, 60, 0)


def _flags_by_run(dim, steps, states):
    return [is_impossible(Circuit(dim, st), s) for st, s in zip(steps, states)]


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("index", range(len(_RULES)), ids=[name for name, _, _ in _RULES])
def test_fold_flags_are_those_of_each_run(dim, index):
    # the suite's own draws, each run on a random, the top and the zero
    # state and a state inside the bias subspace
    make = _RULES[index][1]
    rng = np.random.default_rng([dim, index])
    runs = []
    for _ in range(30):
        circuits, bias_space = make(rng, dim)
        states = [random_subspace(rng, dim), top(dim), bottom(dim)]
        if bias_space is not None:
            states.append(random_subspace_within(rng, bias_space))
        runs.extend((circuits, s) for s in states)
    for c in range(len(runs[0][0])):
        steps, states = [circuits[c] for circuits, _ in runs], [s for _, s in runs]
        assert _fold_impossible(steps, [s.basis for s in states]) == _flags_by_run(dim, steps, states)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 8])
def test_fold_flags_over_every_rank_of_state_and_step(dim):
    rng = np.random.default_rng(dim)
    states = [random_subspace(rng, dim, rank) for rank in range(dim + 1) for _ in range(4)]
    seen = set()
    for kinds in ("PP", "PUP", "UPP", "PPP"):
        steps = [
            tuple(
                random_subspace(rng, dim, int(rng.integers(0, dim + 1))) if k == "P" else random_unitary(rng, dim)
                for k in kinds
            )
            for _ in states
        ]
        flags = _fold_impossible(steps, [s.basis for s in states])
        assert flags == _flags_by_run(dim, steps, states)
        seen.update(flags)
    assert seen == {True, False}
    # a step inside the complement of the state's projection wipes it
    p = random_subspace(rng, dim, (dim + 1) // 2)
    wipe = [(p, ortho(p)), (p, bottom(dim)), (bottom(dim), p)]
    assert _fold_impossible(wipe, [top(dim).basis] * 3) == [True] * 3


def test_pair_join_hypothesis_needs_both_rays_to_wipe():
    # random states are almost never orthogonal to one ray and not the
    # other, so the suite's own draws cannot tell "and" from "or" here
    e1, e2, e3 = (span_of([row], 3) for row in np.eye(3))
    law = {name: law for name, _, law in _RULES}["orthogonal-pair-join"]
    block = [(((e1,), (e2,), (join(e1, e2),)), [e2, e1, e3])]
    assert _tally(law, block) == (3, 1, 0)


def test_fold_rejects_a_step_that_moves_a_rank():
    singular = UnitaryOp._trusted(2, np.array([[1, 1], [1, 1]], dtype=complex))
    with pytest.raises(InternalInvariantError, match="changed rank"):
        _fold_impossible([(singular,)], [top(2).basis])


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_rule_suite_clean_small(dim):
    report = check_rule_suite(dim, samples=60, seed=0)
    assert report.ok, report.to_json()
    assert {r.name for r in report.results} == {
        "orthogonal-wipe",
        "coarse-then-fine",
        "coarse-then-fine-then-any",
        "unitary-conjugation",
        "unitary-preserves-impossibility",
        "orthogonal-pair-join",
    }


def test_axioms_from_sampled_semantics_small():
    report = check_axioms_from_rules(3, samples=20, seed=0)
    assert report.ok, report.to_json()
    assert all(r.hypothesis_hits > 0 for r in report.results if not r.informational)
