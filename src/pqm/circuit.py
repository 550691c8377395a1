"""Possibilistic circuit evaluation and the projection-rule suite.

A circuit is a finite word of steps acting on a system state, which is
just a subspace: the span of the input states still considered
possible.  A step is a ``Subspace``, which projects the state (its
Sasaki conjunction with the step), or a ``UnitaryOp``, which moves it.
Running a circuit folds the steps left to right; a run is *impossible*
when the final state is the zero space.

In the subspace model s verifies p exactly when s is contained in p,
which ``pqm.subspace.leq`` decides.  The projective reading, that every
ray orthogonal to p annihilates s under projection, is sampled by
``SampledSemantics.verify`` in ``pqm.axioms``; the tests check that the
two agree, and the rule suite exercises the circuits the projective
reading mentions.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from . import subspace as sub
from .axioms import (
    RAYS_PER_CHECK, CheckReport, CheckResult, SampledSemantics, SubspaceElements, _require_positive,
    run_axiom_suite,
)
from .lang import CircuitProblem
from .sampling import random_ray, random_ray_within, random_subspace, random_subspace_within, random_unitary
from .subspace import Subspace, UnitaryOp

__all__ = [
    "Circuit",
    "run_circuit",
    "run_circuit_trace",
    "final_state",
    "is_impossible",
    "build_circuit",
    "check_rule_suite",
    "check_axioms_from_rules",
]


@dataclass(frozen=True)
class Circuit:
    dim: int
    steps: tuple[Subspace | UnitaryOp, ...]

    def __post_init__(self) -> None:
        for s in self.steps:
            if s.dim != self.dim:
                raise sub.DimensionMismatchError(
                    f"step on dimension {s.dim} in a dimension-{self.dim} circuit"
                )


def run_circuit_trace(circuit: Circuit, state: Subspace) -> list[Subspace]:
    """The left fold of the steps over the input state: the state after
    each step, input excluded."""
    if state.dim != circuit.dim:
        raise sub.DimensionMismatchError(
            f"state of dimension {state.dim} into a dimension-{circuit.dim} circuit"
        )
    out = []
    for step in circuit.steps:
        if isinstance(step, Subspace):
            state = sub.sasaki_and(state, step)
        else:
            state = sub.apply_unitary(step, state)
        out.append(state)
    return out


def final_state(trace: list[Subspace], state: Subspace) -> Subspace:
    """The final state of a run from its trace and its input state: the
    last of the trace, or the input when the circuit has no steps."""
    return trace[-1] if trace else state


def run_circuit(circuit: Circuit, state: Subspace) -> Subspace:
    """The final state of the run of ``circuit`` on ``state``."""
    return final_state(run_circuit_trace(circuit, state), state)


def is_impossible(circuit: Circuit, state: Subspace) -> bool:
    return run_circuit(circuit, state).rank == 0


def build_circuit(cp: CircuitProblem) -> tuple[Circuit, Subspace]:
    """Materialize a parsed circuit file into a circuit and its input."""
    steps = tuple(
        cp.subspaces[symbol] if kind == "proj" else cp.unitaries[symbol]
        for kind, symbol in cp.steps
    )
    return Circuit(cp.dim, steps), cp.subspaces[cp.input_sym]


# ---------------------------------------------------------------------------
# Rule suite
#
# A rule maker draws one instance of its rule: the circuits, as step
# tuples, and a subspace to bias states into, or None.  A rule's law maps
# the impossibility flags of its circuits on one state, in order, to the
# hypothesis and the conclusion.


def _rule_orthogonal_wipe(rng, dim):
    """Projecting onto p then onto anything inside p-orthogonal kills the state."""
    p = random_subspace(rng, dim)
    q = random_subspace_within(rng, sub.ortho(p))
    return ((p, q),), None


def _rule_coarse_then_fine(rng, dim):
    """With q inside p, projecting onto p first changes nothing."""
    p = random_subspace(rng, dim)
    q = random_subspace_within(rng, p)
    return ((p, q), (q,)), None


def _rule_coarse_then_fine_then_any(rng, dim):
    p = random_subspace(rng, dim)
    q = random_subspace_within(rng, p)
    r = random_subspace(rng, dim)
    return ((p, q, r), (q, r)), None


def _rule_unitary_conjugation(rng, dim):
    """Projection commutes with a unitary change of frame."""
    p = random_subspace(rng, dim)
    u = random_unitary(rng, dim)
    return ((p,), (u, sub.apply_unitary(u, p))), None


def _rule_unitary_preserves_impossibility(rng, dim):
    return ((), (random_unitary(rng, dim),)), None


def _rule_orthogonal_pair_join(rng, dim):
    """If two orthogonal rays each wipe the state, so does their join."""
    psi1 = random_ray(rng, dim)
    psi2 = random_ray_within(rng, sub.ortho(psi1))
    joined = sub.join(psi1, psi2)
    return ((psi1,), (psi2,), (joined,)), sub.ortho(joined)


def _agree(first, second):
    return True, first == second


_RULES = (
    ("orthogonal-wipe", _rule_orthogonal_wipe, lambda wiped: (True, wiped)),
    ("coarse-then-fine", _rule_coarse_then_fine, _agree),
    ("coarse-then-fine-then-any", _rule_coarse_then_fine_then_any, _agree),
    ("unitary-conjugation", _rule_unitary_conjugation, _agree),
    ("unitary-preserves-impossibility", _rule_unitary_preserves_impossibility, _agree),
    ("orthogonal-pair-join", _rule_orthogonal_pair_join, lambda one, two, joined: (one and two, joined)),
)


def _fold_impossible(steps: list[tuple], states: list[np.ndarray]) -> list[bool]:
    """:func:`is_impossible` of each run of the steps ``steps[i]`` on the
    state with basis ``states[i]``, where every step tuple has one length.

    Step j of every run is taken at once, over stacks of the runs whose
    state and step have one basis shape, so nothing is padded.  A
    projection onto Q takes the SVD U S V* of Q* S, whose singular values
    are those of the projected basis Q Q* S, and keeps the columns of Q U
    over the cut of ``span_of``.  A unitary U re-spans U S, which keeps
    its rank.  A zero state stays zero, and a zero step makes it zero."""
    states = list(states)
    for j in range(len(steps[0])):
        groups = defaultdict(list)
        for i, state in enumerate(states):
            step = steps[i][j]
            width = step.rank if isinstance(step, Subspace) else None
            if width == 0:
                states[i] = step.basis
            elif state.shape[1]:
                groups[state.shape[1], width].append(i)
        for (rank, width), runs in groups.items():
            s = np.stack([states[i] for i in runs])
            if width is None:
                u = np.stack([steps[i][j].matrix for i in runs])
                bases, sv, _ = np.linalg.svd(u @ s, full_matrices=False)
                kept = sub._stacked_rank(sv)
                if np.any(kept != rank):
                    raise sub.InternalInvariantError("unitary image changed rank")
            else:
                q = np.stack([steps[i][j].basis for i in runs])
                left, sv, _ = np.linalg.svd(q.conj().swapaxes(-1, -2) @ s, full_matrices=False)
                bases, kept = q @ left, sub._stacked_rank(sv)
            for i, basis, k in zip(runs, bases, kept.tolist()):
                states[i] = basis[:, :k]
    return [state.shape[1] == 0 for state in states]


def _tally(law, block: list) -> tuple[int, int, int]:
    """(instances, hypothesis hits, violations) of a rule's law over a
    block of drawn instances, each its circuits and its states."""
    runs = [(circuits, s.basis) for circuits, states in block for s in states]
    states = [state for _, state in runs]
    flags = [
        _fold_impossible([circuits[c] for circuits, _ in runs], states) for c in range(len(runs[0][0]))
    ]
    outcomes = [law(*f) for f in zip(*flags)]
    return len(runs), sum(hyp for hyp, _ in outcomes), sum(hyp and not concl for hyp, concl in outcomes)


def check_rule_suite(dim: int, samples: int = 500, seed: int = 0) -> CheckReport:
    """Randomized check of the projection rules.

    Each rule draws ``samples`` instances from its own generator.  An
    instance is its rule's circuits and the states they run on, drawn in
    this order: the circuits, a random state, then the unconstrained top
    state, the zero state a quarter of the time, and a state inside the
    bias subspace when the rule has one (the pair-join rule biases into
    the joint complement so that its antecedent actually fires).  The
    draws never read a run's result, so the runs wait until the drawn
    states fill a block of about ``_STACK_ENTRIES`` complex entries of
    (dim, dim) matrices, at least one instance, and the last block when
    the draws end.  Each circuit of the rule then runs over the whole
    block as one fold, grouped by basis shape; the rule's law reads the
    flags of its circuits on each state.
    """
    _require_positive("samples", samples)
    top = sub.top(dim)
    results = []
    for index, (name, make, law) in enumerate(_RULES):
        rng = np.random.default_rng([seed, dim, index, 101])
        tallies, block, entries = [], [], 0
        for _ in range(samples):
            circuits, bias_space = make(rng, dim)
            states = [random_subspace(rng, dim), top]
            if rng.random() < 0.25:
                states.append(sub.bottom(dim))
            if bias_space is not None:
                states.append(random_subspace_within(rng, bias_space))
            block.append((circuits, states))
            entries += len(states) * dim * dim
            if entries >= sub._STACK_ENTRIES:
                tallies.append(_tally(law, block))
                block, entries = [], 0
        if block:
            tallies.append(_tally(law, block))
        results.append(CheckResult(name, *map(sum, zip(*tallies))))
    return CheckReport({"dim": dim, "samples": samples, "seed": seed}, {"states": tuple(results)})


# ---------------------------------------------------------------------------
# Axioms through the projective semantics only


def check_axioms_from_rules(dim: int, samples: int = 200, seed: int = 0) -> CheckReport:
    """Check the base axioms using only the projective semantics.

    Verification statements are evaluated by sampling complement rays
    and firing single projection steps, never by containment, mirroring
    how the axioms are derived from the circuit rules.
    """
    sem = SampledSemantics(np.random.default_rng([seed, dim, 7]))
    domain = SubspaceElements()
    results = run_axiom_suite(dim, samples, seed, domain, sem, "base")
    params = {"dim": dim, "samples": samples, "seed": seed, "rays_per_check": RAYS_PER_CHECK}
    return CheckReport(params, {domain.label: results})
