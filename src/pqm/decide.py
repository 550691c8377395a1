"""Decision procedure for normalized sentences over the subspace model.

A basic sentence  exists x . /\\ [x:p_i] & /\\ ~[x:q_j]  is true exactly
when the meet of the positives is contained in no negative: a finite
union of strict subspaces can never cover a complex subspace, so a
witness ray avoiding every negative exists precisely then.  Boolean
combinations are decided leafwise: each distinct leaf is decided once
per call, and its repeated occurrences share one LeafVerdict, while the
trace still lists every occurrence.  Every verdict carries a full trace
and, where the shape admits one, a concrete witness ray that re-checks
against the literals it came from.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .axioms import (
    CheckReport,
    ExactSemantics,
    RayElements,
    SubspaceElements,
    run_axiom_suite,
)
from .normalize import BAnd, BNot, BOr, BasicSentence, BoolCombo, Leaf
from .subspace import (
    DEFAULT_TOL,
    InternalInvariantError,
    Subspace,
    Tolerance,
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
    "VdCrossCheck",
    "cross_check_vd",
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
    ordered prefix of positives by (meet of the shorter prefix, literal),
    containment tests by (meet, negative) and witness searches by (meet,
    negatives), all by identity.  Each key object is kept alive by the
    tables or by the caller's combo, so no id is reused during the call.
    Literals are never dropped, reordered or compared by value, so every
    result is bit-for-bit the one the uncached fold computes.
    """

    def __init__(self, dim: int, tol: Tolerance, seed: int):
        self.dim, self.tol, self.seed = dim, tol, seed
        self.top = top(dim)
        self.verdicts: dict[int, LeafVerdict] = {}
        self.meets: dict[tuple[int, int], Subspace] = {}
        self.contains: dict[tuple[int, int], bool] = {}
        self.witnesses: dict[tuple, Subspace | None] = {}

    def __call__(self, basic: BasicSentence) -> LeafVerdict:
        return _once(self.verdicts, id(basic), self._decide, basic)

    def _decide(self, basic: BasicSentence) -> LeafVerdict:
        tol = self.tol
        p_inf = self.top
        for p in basic.positives:
            p_inf = _once(self.meets, (id(p_inf), id(p)), meet, p_inf, p, tol)
        contained = tuple(
            _once(self.contains, (id(p_inf), id(q)), leq, p_inf, q, tol)
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
                key = (id(p_inf), tuple(map(id, basic.negatives)))
                witness = _once(
                    self.witnesses, key, ray_in_avoiding, p_inf, list(basic.negatives), tol, self.seed
                )
                if witness is None:
                    raise InternalInvariantError("witness search failed after containment check")
        return LeafVerdict(basic, truth, p_inf, contained, witness)


def _once(table: dict, key, fn, *args):
    """fn(*args), computed only the first time key is seen in table."""
    if key not in table:
        table[key] = fn(*args)
    return table[key]


def decide_basic(
    basic: BasicSentence, dim: int, tol: Tolerance = DEFAULT_TOL, seed: int = 0
) -> Verdict:
    leaf = _LeafDecider(dim, tol, seed)(basic)
    return Verdict(leaf.truth, leaf.witness, (leaf,))


def evaluate(
    combo: BoolCombo, dim: int, tol: Tolerance = DEFAULT_TOL, seed: int = 0
) -> Verdict:
    """Decide a Boolean combination of basic sentences.

    Each distinct leaf is decided once per call, and repeated
    occurrences share one LeafVerdict; there is no short-circuiting, and
    the trace still lists every occurrence, so it is complete and
    deterministic.  A top-level witness is propagated when the truth of
    the combination rests on a single true leaf: from the leaf itself or
    from the first true branch of a disjunction.
    """
    decide_leaf = _LeafDecider(dim, tol, seed)
    leaves: list[LeafVerdict] = []

    def go(c: BoolCombo) -> tuple[bool, Subspace | None]:
        if isinstance(c, Leaf):
            v = decide_leaf(c.basic)
            leaves.append(v)
            return v.truth, v.witness
        if isinstance(c, BNot):
            t, _ = go(c.arg)
            return not t, None
        if isinstance(c, BAnd):
            lt, _ = go(c.left)
            rt, _ = go(c.right)
            return lt and rt, None
        if isinstance(c, BOr):
            lt, lw = go(c.left)
            rt, rw = go(c.right)
            return lt or rt, lw if lt else (rw if rt else None)
        raise ValueError(f"unknown combo node {c!r}")

    truth, witness = go(combo)
    return Verdict(truth, witness, tuple(leaves))


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
# Monte-Carlo cross-check over rays


@dataclass(frozen=True)
class VdCrossCheck:
    decider_truth: bool
    sampler_found: bool
    witness_ok: bool | None
    samples: int

    @property
    def agreement(self) -> bool:
        found_implies_true = (not self.sampler_found) or self.decider_truth
        witness_fine = self.witness_ok is not False
        return found_implies_true and witness_fine


def _satisfies_mask(vectors: np.ndarray, basic: BasicSentence, eq_tol: float) -> np.ndarray:
    """Pointwise satisfaction of the literal conjunction by unit columns."""
    ok = np.ones(vectors.shape[1], dtype=bool)
    for p in basic.positives:
        if p.rank == 0:
            resid = vectors
        else:
            resid = vectors - p.basis @ (p.basis.conj().T @ vectors)
        ok &= np.linalg.norm(resid, axis=0) < eq_tol
    for q in basic.negatives:
        if q.rank == 0:
            resid = vectors
        else:
            resid = vectors - q.basis @ (q.basis.conj().T @ vectors)
        ok &= ~(np.linalg.norm(resid, axis=0) < eq_tol)
    return ok


def cross_check_vd(
    basic: BasicSentence,
    dim: int,
    samples: int = 10_000,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> VdCrossCheck:
    """One-sided Monte-Carlo oracle over random rays (and the zero space).

    A sampled satisfier forces the decider to say true, and a decider
    witness must itself satisfy the literal conjunction.  The converse
    direction (no satisfier sampled) proves nothing and is not asserted.
    """
    verdict = decide_basic(basic, dim, tol, seed)
    rng = np.random.default_rng(seed)

    def draw(basis: np.ndarray | None, count: int) -> np.ndarray:
        k = dim if basis is None else basis.shape[1]
        coeffs = rng.standard_normal((k, count)) + 1j * rng.standard_normal((k, count))
        raw = coeffs if basis is None else basis @ coeffs
        return raw / np.linalg.norm(raw, axis=0, keepdims=True)

    # uniform rays alone would almost never land inside a positive, so
    # part of the budget proposes from the positives and their meet;
    # every candidate still has to pass the pointwise literal check
    streams = [None]
    streams.extend(p.basis for p in basic.positives if p.rank > 0)
    p_inf = verdict.leaves[0].meet_all
    if p_inf.rank > 0 and p_inf.rank < dim:
        streams.append(p_inf.basis)
    share = max(1, samples // len(streams))
    vecs = np.concatenate(
        [draw(b, share) for b in streams] + [draw(None, max(0, samples - share * len(streams)))],
        axis=1,
    )[:, :samples]
    found = bool(_satisfies_mask(vecs, basic, tol.eq_tol).any())
    # the zero space satisfies exactly when there are no negatives
    if not basic.negatives:
        found = True
    witness_ok: bool | None = None
    if verdict.truth and verdict.witness is not None:
        w = verdict.witness
        if w.rank == 0:
            witness_ok = not basic.negatives
        else:
            witness_ok = bool(_satisfies_mask(w.basis, basic, tol.eq_tol).all())
    return VdCrossCheck(verdict.truth, found, witness_ok, samples)


# ---------------------------------------------------------------------------
# Axiom suite over both element domains


def check_axiom_suite(
    dim: int,
    samples: int = 500,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
    figure: str = "all",
) -> CheckReport:
    """Randomized check of every axiom against the subspace model and the
    ray model, under exact containment semantics."""
    sem = ExactSemantics(tol)
    by_domain = {
        domain.label: run_axiom_suite(dim, samples, seed, domain, sem, figure, tol)
        for domain in (SubspaceElements(), RayElements())
    }
    return CheckReport({"dim": dim, "samples": samples, "seed": seed, "figure": figure}, by_domain)
