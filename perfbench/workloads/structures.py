"""structures: finite structures parsed from JSON text and checked.

Inputs are Boolean-fragment image structures at dims 3, 4 and 5 (8, 16
and 32 symbols), four mutants of them, and samples/model3.json.  The
Boolean structures are built here, not by pqm: the power set of a random
orthonormal frame, every symbol a projector, a cyclic and a swapping
permutation of the frame as unitaries, and one domain element per
symbol related to every symbol above it.  That is what
``boolean_fragment`` followed by ``image_structure`` exports, but the
tables come from set arithmetic on the frame indices, so each structure
is a model by construction and its inputs stay fixed when pqm changes.

Operations: parse + check_characterization on every structure, and a
kappa_of pass over every element of the dim-3 structure and of
model3.json.  Kappa passes at dims 4 and 5 are left out: kappa_of
rebuilds the fragment index for every element, about 5 s for the 16
elements at dim 4 and about a minute for the 32 at dim 5.
"""

from __future__ import annotations

import json
import os
from itertools import combinations

import numpy as np

import gen
from common import Op, Workload, same_space

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
MODEL3 = os.path.join(ROOT, "samples", "model3.json")


def _pairs(v: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in v]


def mask_name(bits: tuple, dim: int) -> str:
    if not bits:
        return "bot"
    if len(bits) == dim:
        return "top"
    return "s" + "".join(str(i + 1) for i in bits)


def boolean_structure(rng: np.random.Generator, dim: int) -> tuple[dict, dict]:
    """Structure JSON and each element's value as a spanning matrix."""
    frame = gen.random_unitary(rng, dim)
    masks = [bits for size in range(dim + 1) for bits in combinations(range(dim), size)]
    name = {frozenset(b): mask_name(b, dim) for b in masks}
    elem = {frozenset(b): mask_name(b, dim) + "_0" for b in masks}
    perms = {"cycle": [(i + 1) % dim for i in range(dim)], "swap": [1, 0] + list(range(2, dim))}
    unitaries = {}
    for uname, perm in perms.items():
        pm = np.zeros((dim, dim))
        for i, j in enumerate(perm):
            pm[j, i] = 1.0
        matrix = frame @ pm @ frame.conj().T
        table = {elem[frozenset(b)]: elem[frozenset(perm[i] for i in b)] for b in masks}
        unitaries[uname] = {"matrix": [_pairs(row) for row in matrix], "table": table}
    data = {
        "dim": dim,
        "domain": [elem[frozenset(b)] for b in masks],
        "subspaces": {name[frozenset(b)]: [_pairs(frame[:, i]) for i in b] for b in masks},
        "projectors": {
            name[frozenset(q)]: {elem[frozenset(m)]: elem[frozenset(m) & frozenset(q)] for m in masks}
            for q in masks
        },
        "unitaries": unitaries,
        "relation": [[elem[frozenset(m)], name[frozenset(p)]]
                     for m in masks for p in masks if set(m) <= set(p)],
    }
    values = {elem[frozenset(b)]: frame[:, list(b)] for b in masks}
    return data, values


# ---------------------------------------------------------------------------
# Fault injection: each mutant breaks the structure where both the axiom
# check and the morphism check can see it.


def _mask_of(data: dict) -> dict:
    """Element and symbol names back to index sets (names encode them)."""
    dim = data["dim"]

    def bits(sym: str) -> frozenset:
        if sym == "bot":
            return frozenset()
        if sym == "top":
            return frozenset(range(dim))
        return frozenset(int(c) - 1 for c in sym[1:])

    return {s: bits(s) for s in data["subspaces"]}


def drop_top(data: dict, rng: np.random.Generator) -> dict:
    """Remove one (m, top) pair: m no longer verifies the full space."""
    pairs = [p for p in data["relation"] if p[1] == "top"]
    victim = pairs[int(rng.integers(len(pairs)))]
    return {**data, "relation": [p for p in data["relation"] if p != victim]}


def drop_upward(data: dict, rng: np.random.Generator) -> dict:
    """Remove a pair (m, p) with m strictly below a proper p."""
    mask = _mask_of(data)
    dim = data["dim"]
    pairs = [p for p in data["relation"]
             if len(mask[p[1]]) < dim and mask[p[0][:-2]] < mask[p[1]]]
    victim = pairs[int(rng.integers(len(pairs)))]
    return {**data, "relation": [p for p in data["relation"] if p != victim]}


def add_unsupported(data: dict, rng: np.random.Generator) -> dict:
    """Relate a nonzero element to a symbol that does not contain it."""
    mask = _mask_of(data)
    have = {tuple(p) for p in data["relation"]}
    pairs = [[m, s] for m in data["domain"] for s in data["subspaces"]
             if mask[m[:-2]] and not mask[m[:-2]] <= mask[s] and (m, s) not in have]
    return {**data, "relation": data["relation"] + [pairs[int(rng.integers(len(pairs)))]]}


def corrupt_projection(data: dict, rng: np.random.Generator) -> dict:
    """Send one projection-table entry to the full-space element."""
    mask = _mask_of(data)
    dim = data["dim"]
    sites = [(q, m) for q in data["projectors"] for m in data["domain"]
             if len(mask[m[:-2]] & mask[q]) < dim]
    q, m = sites[int(rng.integers(len(sites)))]
    projectors = {k: dict(v) for k, v in data["projectors"].items()}
    projectors[q][m] = "top_0"
    return {**data, "projectors": projectors}


MUTANTS = ((drop_top, 3), (drop_upward, 4), (add_unsupported, 3), (corrupt_projection, 4))


def model3_values() -> dict:
    """model3.json names element sym_k after the symbol it was made from."""
    with open(MODEL3, encoding="utf-8") as fh:
        data = json.load(fh)
    vecs = {s: np.array([[complex(*z) for z in v] for v in vs], dtype=np.complex128).reshape(-1, data["dim"]).T
            for s, vs in data["subspaces"].items()}
    return {m: vecs[m.rsplit("_", 1)[0]] for m in data["domain"]}


# ---------------------------------------------------------------------------


def build(seed: int, tiny: bool, out_dir: str) -> Workload:
    import importlib

    st = importlib.import_module("pqm.structures")

    def parse(text: str):
        return st.parse_structure_json(json.loads(text))

    def check_op(text: str):
        return st.check_characterization(parse(text))

    def kappa_op(text: str):
        s = parse(text)
        return {m: st.kappa_of(s, m) for m in s.domain}

    def kappa_problems(label: str, kappa: dict, values: dict) -> list:
        return [f"{label}: kappa({m}) is not the element's value"
                for m, k in kappa.items()
                if k.no_least or not same_space(k.value.basis, values[m])]

    def expect(label: str, verdict: str, values: dict | None):
        def check(report) -> list:
            found = []
            if report.verdict != verdict:
                found.append(f"{label}: verdict {report.verdict}, expected {verdict}")
            if values is not None:
                found += kappa_problems(label, report.morphism.kappa, values)
            return found
        return check

    def verdict_digest(report):
        return report.verdict, report.axioms.total_violations, report.axioms.total_skipped

    def kappa_digest(kappa: dict):
        return tuple((m, k.member_symbol, k.no_least) for m, k in kappa.items())

    dims = (3,) if tiny else (3, 4, 5)
    structures = {d: boolean_structure(np.random.default_rng([seed, d]), d) for d in dims}
    with open(MODEL3, encoding="utf-8") as fh:
        model3_text = fh.read()
    model3 = model3_values()

    ops = []
    for d, (data, values) in structures.items():
        label = f"check boolean d{d}"
        ops.append(Op(label, lambda t=json.dumps(data): check_op(t), expect(label, "model", values), verdict_digest))
    ops.append(Op("check model3", lambda: check_op(model3_text), expect("model3", "model", model3), verdict_digest))
    mutant_rng = np.random.default_rng([seed, 7])
    for mutate, d in MUTANTS:
        d = min(d, max(dims))
        label = f"check {mutate.__name__} d{d}"
        text = json.dumps(mutate(structures[d][0], mutant_rng))
        ops.append(Op(label, lambda t=text: check_op(t), expect(label, "non-model", None), verdict_digest))
    kappa_inputs = [(f"kappa boolean d{d}", json.dumps(structures[d][0]), structures[d][1])
                    for d in dims if d == 3]
    kappa_inputs.append(("kappa model3", model3_text, model3))
    for label, text, values in kappa_inputs:
        ops.append(Op(label, lambda t=text: kappa_op(t),
                      lambda k, label=label, values=values: kappa_problems(label, k, values),
                      kappa_digest))
    return Workload(ops)
