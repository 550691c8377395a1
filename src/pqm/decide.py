"""Decision procedure for normalized sentences over the subspace model.

A basic sentence  exists x . /\\ [x:p_i] & /\\ ~[x:q_j]  is true exactly
when the meet of the positives is contained in no negative: a finite
union of strict subspaces can never cover a complex subspace, so a
witness ray avoiding every negative exists precisely then.  Boolean
combinations, whose leaves are BasicSentence objects, are decided
leafwise: each distinct leaf is decided once per call, and its repeated
occurrences share one LeafVerdict, while the trace still lists every
occurrence.  Every verdict carries a full trace and, where the shape
admits one, a concrete witness ray that re-checks against the literals
it came from.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .axioms import (
    CheckReport,
    ExactSemantics,
    RayElements,
    SubspaceElements,
    run_axiom_suite,
)
from .normalize import BAnd, BNot, BOr, BasicSentence, BoolCombo
from .subspace import (
    InternalInvariantError,
    Subspace,
    bottom,
    leq,
    meet,
    ray_in_avoiding,
    subspace_to_json,
    top,
)

__all__ = [
    "LeafVerdict",
    "Verdict",
    "decide_basic",
    "evaluate",
    "check_axiom_suite",
    "verdict_to_json",
]


@dataclass(frozen=True)
class LeafVerdict:
    basic: BasicSentence
    truth: bool
    meet_all: Subspace  # meet of the positive subspaces
    contained: tuple[bool, ...]  # per negative: meet_all <= q_j
    witness: Subspace | None


@dataclass(frozen=True)
class Verdict:
    truth: bool
    witness: Subspace | None
    leaves: tuple[LeafVerdict, ...]


class _LeafDecider:
    """Decides the leaves of one call, each distinct piece of work once.

    Leaf verdicts are keyed by the BasicSentence object, the meet of each
    ordered prefix of positives by (meet of the shorter prefix, literal)
    and containment tests by (meet, negative), all by identity.  Witness
    searches need no table: equal meet and negatives mean an equal leaf,
    and ``normalize`` hands out one BasicSentence per leaf, so the
    verdict table answers first.  Each key object is kept alive by the
    tables or by the caller's combo, so no id is reused during the call.
    Literals are never dropped, reordered or compared by value, so every
    result is bit-for-bit the one the uncached fold computes.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.top = top(dim)
        self.verdicts: dict[int, LeafVerdict] = {}
        self.meets: dict[tuple[int, int], Subspace] = {}
        self.contains: dict[tuple[int, int], bool] = {}

    def __call__(self, basic: BasicSentence) -> LeafVerdict:
        return _once(self.verdicts, id(basic), self._decide, basic)

    def _decide(self, basic: BasicSentence) -> LeafVerdict:
        p_inf = self.top
        for p in basic.positives:
            p_inf = _once(self.meets, (id(p_inf), id(p)), meet, p_inf, p)
        contained = tuple(
            _once(self.contains, (id(p_inf), id(q)), leq, p_inf, q)
            for q in basic.negatives
        )
        truth = not any(contained)
        witness: Subspace | None = None
        if truth:
            if not basic.negatives:
                # The zero space satisfies every positive literal and there is
                # nothing to avoid.
                witness = bottom(self.dim)
            else:
                witness = ray_in_avoiding(p_inf, basic.negatives)
                if witness is None:
                    raise InternalInvariantError("witness search failed after containment check")
        return LeafVerdict(basic, truth, p_inf, contained, witness)


def _once(table: dict, key, fn, *args):
    """fn(*args), computed only the first time key is seen in table."""
    if key not in table:
        table[key] = fn(*args)
    return table[key]


def decide_basic(basic: BasicSentence, dim: int) -> Verdict:
    leaf = _LeafDecider(dim)(basic)
    return Verdict(leaf.truth, leaf.witness, (leaf,))


def evaluate(combo: BoolCombo, dim: int) -> Verdict:
    """Decide a Boolean combination of basic sentences.

    Each distinct leaf is decided once per call, and repeated
    occurrences share one LeafVerdict; there is no short-circuiting, and
    the trace still lists every occurrence, so it is complete and
    deterministic.  A top-level witness is propagated when the truth of
    the combination rests on a single true leaf: from the leaf itself or
    from the first true branch of a disjunction.
    """
    leaves: list[LeafVerdict] = []
    truth, witness = _evaluate_node(combo, _LeafDecider(dim), leaves)
    return Verdict(truth, witness, tuple(leaves))


def _evaluate_node(
    c: BoolCombo, decide_leaf: _LeafDecider, leaves: list[LeafVerdict]
) -> tuple[bool, Subspace | None]:
    """Truth and propagated witness of one node; appends each leaf
    occurrence's verdict to ``leaves``.  A module function, not a closure
    that calls itself: that would be a reference cycle, which would keep
    the decider's tables and every verdict alive until the cycle
    collector ran."""
    if isinstance(c, BasicSentence):
        v = decide_leaf(c)
        leaves.append(v)
        return v.truth, v.witness
    if isinstance(c, BNot):
        t, _ = _evaluate_node(c.arg, decide_leaf, leaves)
        return not t, None
    if isinstance(c, BAnd):
        lt, _ = _evaluate_node(c.left, decide_leaf, leaves)
        rt, _ = _evaluate_node(c.right, decide_leaf, leaves)
        return lt and rt, None
    if isinstance(c, BOr):
        lt, lw = _evaluate_node(c.left, decide_leaf, leaves)
        rt, rw = _evaluate_node(c.right, decide_leaf, leaves)
        return lt or rt, lw if lt else (rw if rt else None)
    raise ValueError(f"unknown combo node {c!r}")


def verdict_to_json(v: Verdict) -> dict:
    """The verdict, with each distinct leaf verdict once, in order of
    first occurrence and with its number of occurrences; leaf k decides
    leaf k of ``combo_to_json`` of the same combination."""
    distinct: dict[int, LeafVerdict] = {}
    occurrences: Counter = Counter()
    for leaf in v.leaves:
        distinct.setdefault(id(leaf.basic), leaf)
        occurrences[id(leaf.basic)] += 1
    return {
        "truth": v.truth,
        "witness": subspace_to_json(v.witness) if v.witness is not None else None,
        "leaves": [
            {
                "truth": leaf.truth,
                "meet_of_positives": subspace_to_json(leaf.meet_all),
                "negative_contains_meet": list(leaf.contained),
                "witness": subspace_to_json(leaf.witness) if leaf.witness is not None else None,
                "occurrences": occurrences[key],
            }
            for key, leaf in distinct.items()
        ],
    }


# ---------------------------------------------------------------------------
# Axiom suite over both element domains


def check_axiom_suite(dim: int, samples: int = 500, seed: int = 0, figure: str = "all") -> CheckReport:
    """Randomized check of every axiom against the subspace model and the
    ray model, under exact containment semantics."""
    sem = ExactSemantics()
    by_domain = {
        domain.label: run_axiom_suite(dim, samples, seed, domain, sem, figure)
        for domain in (SubspaceElements(), RayElements())
    }
    return CheckReport({"dim": dim, "samples": samples, "seed": seed, "figure": figure}, by_domain)
