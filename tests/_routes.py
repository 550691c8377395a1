"""Finite-structure routes that only the tests use.

Ray coverage, the two-ray floor and the incompatible-pair diagnostics
read a structure's filters and least members; ``saturate`` closes a seed
set of subspaces under the operations the axiom checker consults.  The
package's model check does not need them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from pqm import subspace as sub
from pqm.structures import FiniteStructure, kappa_of
from pqm.subspace import Subspace, UnitaryOp


def _strictly_below(p: Subspace, q: Subspace) -> bool:
    return sub.leq(p, q) and not sub.leq(q, p)


def check_ray_coverage(s: FiniteStructure) -> dict[str, bool]:
    """For each fragment symbol naming a ray: is it hit by the element map?"""
    kappa = {m: kappa_of(s, m) for m in s.domain}
    out = {}
    for p, pv in s.subspaces.items():
        if pv.rank != 1:
            continue
        out[p] = any(
            not kappa[m].no_least and sub.eq(kappa[m].value, pv)
            for m in s.domain
        )
    return out


def check_two_ray_floor(s: FiniteStructure) -> tuple[int, list[str]]:
    """Elements whose filter holds two distinct rays must also hold the zero space.

    Returns (instances checked, violating elements).
    """
    val = s.subspaces
    bot_sym = s.bot_symbol()
    checked = 0
    bad = []
    for m in s.domain:
        rays = [p for p in val if s.related(m, p) and val[p].rank == 1]
        distinct = any(
            not sub.eq(val[p], val[q])
            for i, p in enumerate(rays)
            for q in rays[i + 1 :]
        )
        if distinct:
            checked += 1
            if not s.related(m, bot_sym):
                bad.append(m)
    return checked, bad


def check_incompatible_pairs(s: FiniteStructure) -> tuple[int, list[str]]:
    """Incompatible filter members must both be non-minimal in the filter.

    Meaningful from dimension 3 up.  Returns (instances checked,
    violation notes).
    """
    val = s.subspaces
    checked = 0
    bad = []
    for m in s.domain:
        members = [p for p in val if s.related(m, p)]
        for i, p in enumerate(members):
            for q in members[i + 1 :]:
                if sub.compatible(val[p], val[q]):
                    continue
                checked += 1
                for r in (p, q):
                    minimal = not any(
                        x != r and _strictly_below(val[x], val[r]) for x in members
                    )
                    if minimal:
                        bad.append(f"{m}: {r} is minimal despite incompatible partner")
    return checked, bad


@dataclass(frozen=True)
class SaturationResult:
    values: tuple[Subspace, ...]
    added: int
    capped: bool


def saturate(
    values: Sequence[Subspace],
    dim: int,
    projector_values: Sequence[Subspace] | None = None,
    unitaries: Sequence[UnitaryOp] = (),
    include_hook: bool = False,
    max_size: int = 64,
) -> SaturationResult:
    """Close a seed set under the operations the axiom checker consults.

    Meets of all pairs; projections of everything onto the projector
    values and their complements; unitary images; optionally the
    adjoint-hook targets.  ``projector_values`` defaults to the whole
    current set.  Stops at ``max_size`` and reports the truncation.
    """
    pool: list[Subspace] = []

    def add(v: Subspace) -> bool:
        if any(sub.eq(v, w) for w in pool):
            return False
        pool.append(v)
        return True

    add(sub.top(dim))
    add(sub.bottom(dim))
    for v in values:
        if v.dim != dim:
            raise ValueError("saturate: mixed dimensions")
        add(v)
    seeds = len(pool)

    capped = False
    grew = True
    while grew and not capped:
        grew = False
        snapshot = list(pool)
        partners = snapshot if projector_values is None else list(projector_values)
        new: list[Subspace] = []
        for i, p in enumerate(snapshot):
            for q in snapshot[i + 1 :]:
                new.append(sub.meet(p, q))
        for q in partners:
            new.append(sub.ortho(q))
            for p in snapshot:
                new.append(sub.sasaki_and(p, q))
                if include_hook:
                    new.append(sub.sasaki_hook(p, q))
        for u in unitaries:
            for p in snapshot:
                new.append(sub.apply_unitary(u, p))
        for v in new:
            if len(pool) >= max_size:
                capped = True
                break
            if add(v):
                grew = True
    return SaturationResult(tuple(pool), len(pool) - seeds, capped)
