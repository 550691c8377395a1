"""Generated finite structures and fault-injected mutants.

The healthy corpus consists of image structures built from closed
subspace fragments, so each one is a model by construction.  Mutants
tamper with the relation or a projection table at a site chosen so the
damage is visible to both the axiom checker and the morphism checker.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from pqm.sampling import random_unitary
from pqm.structures import FiniteStructure, TableUnitary
from pqm.subspace import InternalInvariantError, UnitaryOp, apply_unitary, eq, leq, sasaki_and, span_of, top


def image_structure(fragment, projector_syms, unitaries, copies=1):
    """The fragment as a structure whose relation is containment, with
    ``copies`` elements per value, and each element's value.  A table
    sends every copy to the first copy of the computed value, which must
    be a fragment value again, or the fragment is not closed."""
    vals, dim = dict(fragment), fragment[0][1].dim
    lookup = FiniteStructure(dim, (), vals, {}, {}, frozenset())
    symbol = {f"{name}_{k}": name for name in vals for k in range(copies)}

    def table(operation, context):
        found = {p: lookup.symbol_of(operation(v)) for p, v in vals.items()}
        if None in found.values():
            raise InternalInvariantError(f"fragment not closed under {context}")
        return {m: f"{found[p]}_0" for m, p in symbol.items()}

    structure = FiniteStructure(
        dim, tuple(symbol), vals,
        {q: table(lambda v: sasaki_and(v, vals[q]), f"projection onto {q}") for q in projector_syms},
        {u: TableUnitary(op, table(lambda v: apply_unitary(op, v), f"image under {u}"))
         for u, op in unitaries.items()},
        frozenset((m, q) for m, p in symbol.items() for q in vals if lookup.leq(p, q)),
    )
    return structure, {m: vals[p] for m, p in symbol.items()}


def _mask_name(bits, dim):
    return {0: "bot", dim: "top"}.get(len(bits)) or "s" + "".join(str(i + 1) for i in bits)


def _frame_power_set(rng, dim):
    """A random orthonormal frame and the spans of its column subsets, smallest first."""
    frame = random_unitary(rng, dim).matrix
    return frame, [(_mask_name(bits, dim), span_of(frame[:, list(bits)].T, dim))
                   for size in range(dim + 1) for bits in combinations(range(dim), size)]


def boolean_fragment(rng, dim):
    """Power set of a random orthonormal frame, every symbol a projector,
    and a cyclic and a swapping permutation of the frame: closed under
    every operation, so its image structure has no skipped instance."""
    frame, fragment = _frame_power_set(rng, dim)
    perms = {"cycle": np.roll(np.eye(dim), 1, axis=0), "swap": np.eye(dim)[[1, 0, *range(2, dim)]]}
    unitaries = {name: UnitaryOp(dim, frame @ perm @ frame.conj().T) for name, perm in perms.items()}
    return fragment, [name for name, _ in fragment], unitaries


def mixed_fragment(rng, dim):
    """Boolean fragment plus a generic probe ray (no coordinate below 0.25
    against the frame) and its projections onto the coordinate spans of 2
    to dim - 1 frame vectors.  Projectors are the Boolean symbols, whose
    projections of probe rays are probe rays, frame rays or the zero
    space; the probe rays are incompatible with off-axis Boolean values."""
    frame, fragment = _frame_power_set(rng, dim)
    boolean_syms = [name for name, _ in fragment]
    while True:
        coeffs = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        coeffs /= np.linalg.norm(coeffs)
        if np.min(np.abs(coeffs)) > 0.25:
            break
    probe, vals = span_of([frame @ coeffs], dim), dict(fragment)
    names = [_mask_name(bits, dim) for size in range(dim - 1, 1, -1) for bits in combinations(range(dim), size)]
    fragment += [("probe", probe)] + [("probe" + n[1:], sasaki_and(probe, vals[n])) for n in names]
    lookup = FiniteStructure(dim, (), dict(fragment), {}, {}, frozenset())
    if any(lookup.symbol_of(value) != name for name, value in fragment):
        raise InternalInvariantError("probe ray degenerated into the frame")
    return fragment, boolean_syms, {"ident": UnitaryOp(dim, np.eye(dim))}


CORPUS_SPECS = [
    ("bool-0", boolean_fragment, 0, 1),
    ("bool-1", boolean_fragment, 1, 2),
    ("bool-2", boolean_fragment, 2, 3),
    ("bool-3", boolean_fragment, 3, 2),
    ("bool-4", boolean_fragment, 4, 5),
    ("bool-5", boolean_fragment, 5, 1),
    ("mixed-0", mixed_fragment, 10, 1),
    ("mixed-1", mixed_fragment, 11, 2),
    ("mixed-2", mixed_fragment, 12, 3),
    ("mixed-3", mixed_fragment, 13, 2),
]


def build_corpus() -> list[tuple[str, FiniteStructure, dict]]:
    out = []
    for name, maker, seed, copies in CORPUS_SPECS:
        s, elem_val = image_structure(*maker(np.random.default_rng(seed), 3), copies)
        out.append((name, s, elem_val))
    return out


def _with(s: FiniteStructure, relation=None, projectors=None) -> FiniteStructure:
    return FiniteStructure(
        dim=s.dim,
        domain=s.domain,
        subspaces=s.subspaces,
        projectors=projectors if projectors is not None else s.projectors,
        unitaries=s.unitaries,
        relation=relation if relation is not None else s.relation,
    )


def drop_top_mutant(s: FiniteStructure, elem_val: dict) -> FiniteStructure:
    """Remove one (m, top) pair: m no longer verifies the full space."""
    top_sym = s.top_symbol()
    for m in s.domain:
        if (m, top_sym) in s.relation:
            return _with(s, relation=s.relation - {(m, top_sym)})
    raise AssertionError("structure relates nothing to the full space")


def drop_upward_mutant(s: FiniteStructure, elem_val: dict) -> FiniteStructure:
    """Remove a strictly-above pair, breaking upward closure of a filter."""
    for m in s.domain:
        val = elem_val[m]
        for p in s.subspaces:
            if (m, p) not in s.relation:
                continue
            target = s.subspaces[p]
            if target.rank < s.dim and leq(val, target) and val.rank < target.rank:
                return _with(s, relation=s.relation - {(m, p)})
    raise AssertionError("no strictly-upward relation pair to drop")


def add_unsupported_mutant(s: FiniteStructure, elem_val: dict) -> FiniteStructure:
    """Claim a verification the element's value does not support."""
    for m in s.domain:
        val = elem_val[m]
        if val.rank == 0:
            continue
        for q in s.subspaces:
            if (m, q) in s.relation:
                continue
            if not leq(val, s.subspaces[q]):
                return _with(s, relation=s.relation | {(m, q)})
    raise AssertionError("relation already claims everything")


def corrupt_projection_mutant(s: FiniteStructure, elem_val: dict) -> FiniteStructure:
    """Redirect one projection-table entry to a full-space element."""
    top_elem = None
    for m in s.domain:
        if eq(elem_val[m], top(s.dim)):
            top_elem = m
            break
    if top_elem is None:
        raise AssertionError("no element carries the full space")
    for q, table in s.projectors.items():
        q_val = s.subspaces[q]
        for m, image in table.items():
            moved = sasaki_and(elem_val[m], q_val)
            if image != top_elem and moved.rank < s.dim:
                new_table = dict(table)
                new_table[m] = top_elem
                projectors = dict(s.projectors)
                projectors[q] = new_table
                return _with(s, projectors=projectors)
    raise AssertionError("every projection already lands on the full space")


MUTATORS = [
    drop_top_mutant,
    drop_upward_mutant,
    add_unsupported_mutant,
    corrupt_projection_mutant,
]


def build_mutants(corpus) -> list[tuple[str, FiniteStructure]]:
    out = []
    for k, (name, s, elem_val) in enumerate(corpus):
        mutator = MUTATORS[k % len(MUTATORS)]
        out.append((f"{name}/{mutator.__name__}", mutator(s, elem_val)))
    return out
