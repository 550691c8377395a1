"""Possibilistic circuit evaluation and the projection-rule suite.

A circuit is a finite word of projection and unitary steps acting on a
system state, which is just a subspace: the span of the input states
still considered possible.  Running a circuit folds the steps left to
right; a run is *impossible* when the final state is the zero space.

``verifies`` decides a verification statement in the subspace model:
s verifies p exactly when s is contained in p.  The projective reading,
that every ray orthogonal to p annihilates s under projection, is
sampled by ``SampledSemantics.verify`` in ``pqm.axioms``; the tests
check that the two agree, and the rule suite exercises the circuits the
projective reading mentions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import subspace as sub
from .axioms import CheckReport, CheckResult, SampledSemantics, SubspaceElements, run_axiom_suite
from .lang import CircuitProblem
from .sampling import (
    random_ray,
    random_ray_within,
    random_subspace,
    random_subspace_within,
    random_unitary,
)
from .subspace import DEFAULT_TOL, Subspace, Tolerance, UnitaryOp

__all__ = [
    "ProjectOnto",
    "ApplyUnitary",
    "Step",
    "Circuit",
    "SystemState",
    "run_circuit",
    "run_circuit_trace",
    "is_impossible",
    "verifies",
    "build_circuit",
    "check_rule_suite",
    "check_axioms_from_rules",
]

# A system state is the subspace of inputs still possible; the top
# subspace is the completely unconstrained state.
SystemState = Subspace


@dataclass(frozen=True)
class ProjectOnto:
    subspace: Subspace


@dataclass(frozen=True)
class ApplyUnitary:
    op: UnitaryOp


Step = Union[ProjectOnto, ApplyUnitary]


@dataclass(frozen=True)
class Circuit:
    dim: int
    steps: tuple[Step, ...]

    def __post_init__(self) -> None:
        for s in self.steps:
            d = s.subspace.dim if isinstance(s, ProjectOnto) else s.op.dim
            if d != self.dim:
                raise sub.DimensionMismatchError(
                    f"step on dimension {d} in a dimension-{self.dim} circuit"
                )


def _apply_step(state: Subspace, step: Step, tol: Tolerance) -> Subspace:
    if isinstance(step, ProjectOnto):
        return sub.sasaki_and(state, step.subspace, tol)
    return sub.apply_unitary(step.op, state, tol)


def run_circuit(circuit: Circuit, state: SystemState, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Left fold of the steps over the input state."""
    if state.dim != circuit.dim:
        raise sub.DimensionMismatchError(
            f"state of dimension {state.dim} into a dimension-{circuit.dim} circuit"
        )
    for step in circuit.steps:
        state = _apply_step(state, step, tol)
    return state


def run_circuit_trace(
    circuit: Circuit, state: SystemState, tol: Tolerance = DEFAULT_TOL
) -> list[Subspace]:
    """Intermediate states after each step (input state excluded)."""
    out = []
    for step in circuit.steps:
        state = _apply_step(state, step, tol)
        out.append(state)
    return out


def is_impossible(circuit: Circuit, state: SystemState, tol: Tolerance = DEFAULT_TOL) -> bool:
    return run_circuit(circuit, state, tol).rank == 0


def verifies(state: SystemState, prop: Subspace, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Does the state verify the property subspace?  Decides containment."""
    return sub.leq(state, prop, tol)


def build_circuit(cp: CircuitProblem, tol: Tolerance = DEFAULT_TOL) -> tuple[Circuit, Subspace]:
    """Materialize a parsed circuit file into a circuit and its input."""
    steps: list[Step] = []
    for kind, symbol in cp.steps:
        if kind == "proj":
            steps.append(ProjectOnto(cp.subspaces[symbol]))
        else:
            steps.append(ApplyUnitary(cp.unitaries[symbol]))
    return Circuit(cp.dim, tuple(steps)), cp.subspaces[cp.input_sym]


# ---------------------------------------------------------------------------
# Rule suite


def _proj(p: Subspace) -> Step:
    return ProjectOnto(p)


def _rule_orthogonal_wipe(rng, dim, tol):
    """Projecting onto p then onto anything inside p-orthogonal kills the state."""
    p = random_subspace(rng, dim, tol=tol)
    q = random_subspace_within(rng, sub.ortho(p, tol), tol=tol)
    c = Circuit(dim, (_proj(p), _proj(q)))

    def check(s):
        return True, is_impossible(c, s, tol)

    return check


def _rule_coarse_then_fine(rng, dim, tol):
    """With q inside p, projecting onto p first changes nothing."""
    p = random_subspace(rng, dim, tol=tol)
    q = random_subspace_within(rng, p, tol=tol)
    both = Circuit(dim, (_proj(p), _proj(q)))
    fine = Circuit(dim, (_proj(q),))

    def check(s):
        return True, is_impossible(both, s, tol) == is_impossible(fine, s, tol)

    return check


def _rule_coarse_then_fine_then_any(rng, dim, tol):
    p = random_subspace(rng, dim, tol=tol)
    q = random_subspace_within(rng, p, tol=tol)
    r = random_subspace(rng, dim, tol=tol)
    long = Circuit(dim, (_proj(p), _proj(q), _proj(r)))
    short = Circuit(dim, (_proj(q), _proj(r)))

    def check(s):
        return True, is_impossible(long, s, tol) == is_impossible(short, s, tol)

    return check


def _rule_unitary_conjugation(rng, dim, tol):
    """Projection commutes with a unitary change of frame."""
    p = random_subspace(rng, dim, tol=tol)
    u = random_unitary(rng, dim)
    q = sub.apply_unitary(u, p, tol)
    direct = Circuit(dim, (_proj(p),))
    conjugated = Circuit(dim, (ApplyUnitary(u), _proj(q)))

    def check(s):
        return True, is_impossible(direct, s, tol) == is_impossible(conjugated, s, tol)

    return check


def _rule_unitary_preserves_impossibility(rng, dim, tol):
    u = random_unitary(rng, dim)
    through = Circuit(dim, (ApplyUnitary(u),))
    empty = Circuit(dim, ())

    def check(s):
        return True, is_impossible(empty, s, tol) == is_impossible(through, s, tol)

    return check


def _rule_orthogonal_pair_join(rng, dim, tol):
    """If two orthogonal rays each wipe the state, so does their join."""
    psi1 = random_ray(rng, dim, tol)
    psi2 = random_ray_within(rng, sub.ortho(psi1, tol), tol)
    joined = sub.join(psi1, psi2, tol)

    def check(s):
        hyp = is_impossible(Circuit(dim, (_proj(psi1),)), s, tol) and is_impossible(
            Circuit(dim, (_proj(psi2),)), s, tol
        )
        concl = is_impossible(Circuit(dim, (_proj(joined),)), s, tol)
        return hyp, concl

    return check, sub.ortho(joined, tol)


_RULES = (
    ("orthogonal-wipe", _rule_orthogonal_wipe),
    ("coarse-then-fine", _rule_coarse_then_fine),
    ("coarse-then-fine-then-any", _rule_coarse_then_fine_then_any),
    ("unitary-conjugation", _rule_unitary_conjugation),
    ("unitary-preserves-impossibility", _rule_unitary_preserves_impossibility),
    ("orthogonal-pair-join", _rule_orthogonal_pair_join),
)


def check_rule_suite(
    dim: int,
    samples: int = 500,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> CheckReport:
    """Randomized check of the projection rules.

    Each instance is evaluated on a random state, on the unconstrained
    top state, and occasionally on the zero state; the pair-join rule
    additionally biases the state into the joint complement so its
    antecedent actually fires.
    """
    results = []
    for index, (name, make) in enumerate(_RULES):
        rng = np.random.default_rng([seed, dim, index, 101])
        hits = 0
        violations = 0
        instances = 0
        for _ in range(samples):
            made = make(rng, dim, tol)
            if isinstance(made, tuple):
                check, bias_space = made
            else:
                check, bias_space = made, None
            states = [random_subspace(rng, dim, tol=tol), sub.top(dim)]
            if rng.random() < 0.25:
                states.append(sub.bottom(dim))
            if bias_space is not None:
                states.append(random_subspace_within(rng, bias_space, tol=tol))
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


def check_axioms_from_rules(
    dim: int,
    samples: int = 200,
    seed: int = 0,
    rays_per_check: int = 64,
    tol: Tolerance = DEFAULT_TOL,
) -> CheckReport:
    """Check the base axioms using only the projective semantics.

    Verification statements are evaluated by sampling complement rays
    and firing single projection steps, never by containment, mirroring
    how the axioms are derived from the circuit rules.
    """
    sem = SampledSemantics(np.random.default_rng([seed, dim, 7]), rays_per_check, tol)
    domain = SubspaceElements()
    results = run_axiom_suite(dim, samples, seed, domain, sem, "base", tol)
    params = {"dim": dim, "samples": samples, "seed": seed, "rays_per_check": rays_per_check}
    return CheckReport(params, {domain.label: results})
