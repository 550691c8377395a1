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


def _rule_orthogonal_wipe(rng, dim):
    """Projecting onto p then onto anything inside p-orthogonal kills the state."""
    p = random_subspace(rng, dim)
    q = random_subspace_within(rng, sub.ortho(p))
    c = Circuit(dim, (p, q))

    def check(s):
        return True, is_impossible(c, s)

    return check, None


def _rule_coarse_then_fine(rng, dim):
    """With q inside p, projecting onto p first changes nothing."""
    p = random_subspace(rng, dim)
    q = random_subspace_within(rng, p)
    both = Circuit(dim, (p, q))
    fine = Circuit(dim, (q,))

    def check(s):
        return True, is_impossible(both, s) == is_impossible(fine, s)

    return check, None


def _rule_coarse_then_fine_then_any(rng, dim):
    p = random_subspace(rng, dim)
    q = random_subspace_within(rng, p)
    r = random_subspace(rng, dim)
    long = Circuit(dim, (p, q, r))
    short = Circuit(dim, (q, r))

    def check(s):
        return True, is_impossible(long, s) == is_impossible(short, s)

    return check, None


def _rule_unitary_conjugation(rng, dim):
    """Projection commutes with a unitary change of frame."""
    p = random_subspace(rng, dim)
    u = random_unitary(rng, dim)
    q = sub.apply_unitary(u, p)
    direct = Circuit(dim, (p,))
    conjugated = Circuit(dim, (u, q))

    def check(s):
        return True, is_impossible(direct, s) == is_impossible(conjugated, s)

    return check, None


def _rule_unitary_preserves_impossibility(rng, dim):
    u = random_unitary(rng, dim)
    through = Circuit(dim, (u,))
    empty = Circuit(dim, ())

    def check(s):
        return True, is_impossible(empty, s) == is_impossible(through, s)

    return check, None


def _rule_orthogonal_pair_join(rng, dim):
    """If two orthogonal rays each wipe the state, so does their join."""
    psi1 = random_ray(rng, dim)
    psi2 = random_ray_within(rng, sub.ortho(psi1))
    joined = sub.join(psi1, psi2)

    def check(s):
        hyp = is_impossible(Circuit(dim, (psi1,)), s) and is_impossible(Circuit(dim, (psi2,)), s)
        concl = is_impossible(Circuit(dim, (joined,)), s)
        return hyp, concl

    return check, sub.ortho(joined)


_RULES = (
    ("orthogonal-wipe", _rule_orthogonal_wipe),
    ("coarse-then-fine", _rule_coarse_then_fine),
    ("coarse-then-fine-then-any", _rule_coarse_then_fine_then_any),
    ("unitary-conjugation", _rule_unitary_conjugation),
    ("unitary-preserves-impossibility", _rule_unitary_preserves_impossibility),
    ("orthogonal-pair-join", _rule_orthogonal_pair_join),
)


def check_rule_suite(dim: int, samples: int = 500, seed: int = 0) -> CheckReport:
    """Randomized check of the projection rules.

    Each rule maker returns a check and a subspace to bias states into,
    or None.  Each instance is evaluated on a random state, on the
    unconstrained top state, occasionally on the zero state, and on a
    state inside the bias subspace if there is one: the pair-join rule
    biases into the joint complement so its antecedent actually fires.
    """
    _require_positive("samples", samples)
    results = []
    for index, (name, make) in enumerate(_RULES):
        rng = np.random.default_rng([seed, dim, index, 101])
        hits = 0
        violations = 0
        instances = 0
        for _ in range(samples):
            check, bias_space = make(rng, dim)
            states = [random_subspace(rng, dim), sub.top(dim)]
            if rng.random() < 0.25:
                states.append(sub.bottom(dim))
            if bias_space is not None:
                states.append(random_subspace_within(rng, bias_space))
            for s in states:
                hyp, concl = check(s)
                instances += 1
                if hyp:
                    hits += 1
                    if not concl:
                        violations += 1
        results.append(CheckResult(name, instances, hits, violations))
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
