"""Seeded inputs for the benchmark, built without calling pqm.

The sentence generator mirrors the one the test suite uses (same draw
order, so generator seeds 645 and 173 give the test's heavy sentences),
but it is a copy: edits under ``tests/`` or to ``pqm.sampling`` never
change what the benchmark feeds the program.  Sentences are rendered to
the ``.pqm`` text format, so the program's front end does all parsing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar unitary by QR with phase correction."""
    q, r = np.linalg.qr(complex_gaussian(rng, (dim, dim)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_subspace(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Orthonormal basis (dim, rank) of a random subspace, rank uniform in 0..dim."""
    rank = int(rng.integers(0, dim + 1))
    if rank == 0:
        return np.zeros((dim, 0), dtype=np.complex128)
    return random_unitary(rng, dim)[:, :rank]


@dataclass
class Problem:
    dim: int
    subspaces: dict  # name -> (dim, rank) orthonormal basis
    unitaries: dict  # name -> (dim, dim) unitary matrix


def random_problem(rng: np.random.Generator, dim: int) -> Problem:
    subspaces = {f"p{k}": random_subspace(rng, dim) for k in range(4)}
    subspaces["top"] = np.eye(dim, dtype=np.complex128)
    subspaces["bot"] = np.zeros((dim, 0), dtype=np.complex128)
    unitaries = {f"U{k}": random_unitary(rng, dim) for k in range(2)}
    return Problem(dim, subspaces, unitaries)


# Formulas are tuples: ("atom", term, sym), ("not", f), (op, left, right)
# for op in and/or/imp/iff, (quant, var, body) for exists/forall.
# Terms: ("var", name), ("proj", sym, term), ("apply", sym, term).

_BINARY = ("and", "or", "imp", "iff")


def random_sentence(rng: np.random.Generator, problem: Problem,
                    max_depth: int = 4, max_quants: int = 3) -> tuple:
    sub_syms = list(problem.subspaces)
    uni_syms = list(problem.unitaries)

    def term(var: str, budget: int) -> tuple:
        t = ("var", var)
        for _ in range(int(rng.integers(0, budget + 1))):
            if uni_syms and rng.random() < 0.5:
                t = ("apply", str(rng.choice(uni_syms)), t)
            else:
                t = ("proj", str(rng.choice(sub_syms)), t)
        return t

    def formula(depth: int, scope: tuple, quants: int) -> tuple:
        if depth <= 0 or (scope and rng.random() < 0.3):
            var = str(rng.choice(scope))
            return ("atom", term(var, 2), str(rng.choice(sub_syms)))
        roll = rng.random()
        if quants > 0 and (not scope or roll < 0.35):
            var = f"x{len(scope)}"
            body = formula(depth - 1, scope + (var,), quants - 1)
            return ("exists" if rng.random() < 0.5 else "forall", var, body)
        if roll < 0.5:
            return ("not", formula(depth - 1, scope, quants))
        left = formula(depth - 1, scope, quants)
        right = formula(depth - 1, scope, quants)
        return (_BINARY[int(rng.integers(0, 4))], left, right)

    return formula(max_depth, (), max_quants)


# ---------------------------------------------------------------------------
# Rendering to the .pqm text format


def _num(x: float) -> str:
    return repr(abs(float(x)))


def scalar_text(z: complex) -> str:
    re_part = ("-" if z.real < 0 else "") + _num(z.real)
    return f"{re_part}{'-' if z.imag < 0 else '+'}{_num(z.imag)}i"


def vector_text(v) -> str:
    return "(" + ", ".join(scalar_text(complex(z)) for z in v) + ")"


def definitions_text(dim: int, subspaces: dict, unitaries: dict) -> str:
    lines = [f"dim {dim}"]
    for name, basis in subspaces.items():
        if name in ("top", "bot"):
            continue
        lines.append(f"let {name} = span{{{', '.join(vector_text(c) for c in basis.T)}}}")
    for name, m in unitaries.items():
        lines.append(f"let {name} = matrix{{{', '.join(vector_text(r) for r in m)}}}")
    return "\n".join(lines) + "\n"


def term_text(t: tuple) -> str:
    if t[0] == "var":
        return t[1]
    if t[0] == "proj":
        return f"proj[{t[1]}]({term_text(t[2])})"
    return f"{t[1]}({term_text(t[2])})"


# precedence: quantifier 0, <-> 1, -> 2, | 3, & 4, ~ 5, atom 6
_INFIX = {"iff": ("<->", 1, 2, 1), "imp": ("->", 2, 3, 2), "or": ("|", 3, 3, 4), "and": ("&", 4, 4, 5)}


def formula_text(f: tuple, min_prec: int = 0) -> str:
    kind = f[0]
    if kind == "atom":
        return f"[{term_text(f[1])} : {f[2]}]"
    if kind == "not":
        text, prec = "~" + formula_text(f[1], 5), 5
    elif kind in _INFIX:
        op, prec, lp, rp = _INFIX[kind]
        text = f"{formula_text(f[1], lp)} {op} {formula_text(f[2], rp)}"
    else:
        text, prec = f"{kind} {f[1]} . {formula_text(f[2], 0)}", 0
    return f"({text})" if prec < min_prec else text


def problem_text(problem: Problem, sentence: tuple) -> str:
    defs = definitions_text(problem.dim, problem.subspaces, problem.unitaries)
    return defs + f"assert {formula_text(sentence)}\n"


# ---------------------------------------------------------------------------
# Size of the normal form, counted without any linear algebra
#
# A shape-only copy of the program's quantifier elimination as it stood
# when the benchmark was written: negation normal form with <-> and ->
# expanded, DNF distribution, and each bound variable's literals folded
# into one leaf.  It decides which random draws count as "light"; being a
# frozen copy, it keeps the draw fixed when the program's normalizer
# changes.


class TooLarge(Exception):
    pass


def normal_form_leaves(sentence: tuple, budget: int = 50_000) -> int:
    """Leaves of the sentence's normal form, or TooLarge past ``budget`` nodes."""
    spent = [0]

    def charge(n: int) -> None:
        spent[0] += n
        if spent[0] > budget:
            raise TooLarge()

    # mixed nodes: ("lit", var, positive), ("closed", positive),
    # ("and", items), ("or", items)
    def mk(kind: str, items) -> tuple:
        flat = []
        for it in items:
            flat.extend(it[1] if it[0] == kind else (it,))
        return flat[0] if len(flat) == 1 else (kind, tuple(flat))

    def negate(m: tuple) -> tuple:
        if m[0] == "lit":
            return ("lit", m[1], not m[2])
        if m[0] == "closed":
            return ("closed", not m[1])
        return ("or" if m[0] == "and" else "and", tuple(negate(x) for x in m[1]))

    def dnf(m: tuple) -> list:
        if m[0] in ("lit", "closed"):
            charge(1)
            return [(m,)]
        if m[0] == "or":
            return [c for item in m[1] for c in dnf(item)]
        acc = [()]
        for item in m[1]:
            branches = dnf(item)
            charge(len(acc) * len(branches))
            acc = [conj + br for conj in acc for br in branches]
        return acc

    def eliminate(var: str, m: tuple) -> tuple:
        out = []
        for conj in dnf(m):
            rest = [x for x in conj if not (x[0] == "lit" and x[1] == var)]
            if len(rest) < len(conj):
                rest.append(("closed", True))
            out.append(mk("and", rest))
        return mk("or", out)

    def elim(f: tuple, neg: bool) -> tuple:
        charge(1)
        kind = f[0]
        if kind == "atom":
            t = f[1]
            while t[0] != "var":
                t = t[2]
            return ("lit", t[1], not neg)
        if kind == "not":
            return elim(f[1], not neg)
        if kind in ("and", "or"):
            parts = (elim(f[1], neg), elim(f[2], neg))
            return mk("or" if (kind == "and") == neg else "and", parts)
        if kind == "imp":
            return elim(("or", ("not", f[1]), f[2]), neg)
        if kind == "iff":
            both = ("and", f[1], f[2])
            neither = ("and", ("not", f[1]), ("not", f[2]))
            return elim(("or", both, neither), neg)
        body = elim(f[2], kind == "forall")
        closed = eliminate(f[1], body)
        return negate(closed) if neg != (kind == "forall") else closed

    def leaves(m: tuple) -> int:
        if m[0] == "closed":
            return 1
        if m[0] == "lit":
            raise ValueError("sentence is not closed")
        return sum(leaves(x) for x in m[1])

    return leaves(elim(sentence, False))
