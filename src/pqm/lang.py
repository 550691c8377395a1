"""Front end for the sentence and circuit input language.

A problem file declares an ambient dimension, named subspaces (spans)
and named unitaries (matrices), and asserts one closed sentence::

    dim 3
    let p = span{(1,0,0),(0,1,0)}
    let U = matrix{(0,1,0),(1,0,0),(0,0,1)}
    assert exists x . [x : p] & ~[U(x) : bot]

A circuit file replaces the assertion with a step list and an input::

    circuit = [ proj[p], U ]
    input = top

Tokens: keywords ``dim let span matrix assert exists forall top bot proj
circuit input``; ``i`` is reserved for the imaginary unit.  Complex
literals are ``a``, ``a+bi``, ``bi`` (optionally negated).  Comments run
from ``#`` to end of line.  Connective precedence, loosest to tightest:
``<->``, ``->`` (both right-associative), ``|``, ``&``, ``~``.
Quantifier bodies extend as far right as possible.  The grammar is
spelled out in full in docs/grammar.md.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .subspace import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    UnitaryOp,
    bottom,
    span_of,
    top,
    unitary_deviation,
    UNITARY_TOL,
)

__all__ = [
    "MAX_DIM",
    "MAX_FORMULA_DEPTH",
    "FrontendError",
    "LexError",
    "ParseError",
    "SemanticError",
    "Var",
    "Proj",
    "Apply",
    "Term",
    "Atom",
    "Not",
    "And",
    "Or",
    "Implies",
    "Iff",
    "Exists",
    "Forall",
    "Formula",
    "Problem",
    "CircuitProblem",
    "Diagnostic",
    "parse_problem",
    "parse_circuit_file",
    "parse_definitions",
    "parse_formula",
    "pretty_print",
    "term_to_str",
    "validate",
]


class FrontendError(Exception):
    """Base class for all diagnostics raised by the front end."""


class LexError(FrontendError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line, self.col = line, col


class ParseError(FrontendError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line, self.col = line, col


class SemanticError(FrontendError):
    pass


# ---------------------------------------------------------------------------
# AST


class Term:
    pass


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Proj(Term):
    """Projection step applied to a term: proj[sym](arg)."""

    sym: str
    arg: Term


@dataclass(frozen=True)
class Apply(Term):
    """Unitary application: sym(arg)."""

    sym: str
    arg: Term


class Formula:
    pass


@dataclass(frozen=True)
class Atom(Formula):
    """Verification atom [term : sym]."""

    term: Term
    sym: str


@dataclass(frozen=True)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Problem:
    dim: int
    subspaces: dict[str, Subspace]
    unitaries: dict[str, UnitaryOp]
    sentence: Formula


@dataclass(frozen=True)
class CircuitProblem:
    dim: int
    subspaces: dict[str, Subspace]
    unitaries: dict[str, UnitaryOp]
    steps: tuple[tuple[str, str], ...]  # ("proj"|"apply", symbol)
    input_sym: str


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str


# ---------------------------------------------------------------------------
# Lexer

_KEYWORDS = {
    "dim", "let", "span", "matrix", "assert",
    "exists", "forall", "top", "bot", "proj",
    "circuit", "input",
}

_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class _Token:
    kind: str  # keyword, IDENT, NUMBER, IMAG, operator text, EOF
    value: object
    line: int
    col: int


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isdigit():
            m = _NUMBER_RE.match(text, i)
            lexeme = m.group(0)
            value = float(lexeme)
            end = m.end()
            if end < n and text[end] == "i":
                tokens.append(_Token("IMAG", value, line, col))
                end += 1
            else:
                tokens.append(_Token("NUMBER", value, line, col))
            col += end - i
            i = end
            continue
        if c.isalpha() or c == "_":
            m = _IDENT_RE.match(text, i)
            word = m.group(0)
            if word == "i":
                tokens.append(_Token("IMAG", 1.0, line, col))
            elif word in _KEYWORDS:
                tokens.append(_Token(word, word, line, col))
            else:
                tokens.append(_Token("IDENT", word, line, col))
            col += len(word)
            i = m.end()
            continue
        if text.startswith("<->", i):
            tokens.append(_Token("<->", "<->", line, col))
            i += 3
            col += 3
            continue
        if text.startswith("->", i):
            tokens.append(_Token("->", "->", line, col))
            i += 2
            col += 2
            continue
        if c in "()[]{},:.=~&|+-":
            tokens.append(_Token(c, c, line, col))
            i += 1
            col += 1
            continue
        raise LexError(f"unexpected character {c!r}", line, col)
    tokens.append(_Token("EOF", None, line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser

@dataclass
class _RawFile:
    dim: int
    lets: list[tuple[str, str, object]]  # (name, "span"|"matrix", vectors)
    sentence: Formula | None
    circuit: list[tuple[str, str]] | None
    input_sym: str | None


# Deepest formula the parser accepts.  Depth counts the connectives,
# quantifiers, parentheses, atom brackets and term constructors on the
# way down to a variable; the parser, the validator, the normalizer and
# the evaluator all recurse along it, and at this bound they stay within
# the interpreter's default recursion limit.
MAX_FORMULA_DEPTH = 100

# Largest ambient dimension accepted from a problem file, a structure
# file or a --dim option.  The full space alone is a dim x dim complex
# matrix, 16 MiB at this bound; without one a one-line file could ask
# for any amount of memory.
MAX_DIM = 1024


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.toks = tokens
        self.pos = 0
        self.open = 0  # constructs entered and not yet closed

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def accept(self, kind: str) -> _Token | None:
        if self.peek().kind == kind:
            return self.next()
        return None

    def expect(self, kind: str, what: str | None = None) -> _Token:
        t = self.peek()
        if t.kind != kind:
            expected = what or repr(kind)
            raise ParseError(f"expected {expected}, found {t.kind!r}", t.line, t.col)
        return self.next()

    # -- scalars / vectors

    def scalar(self) -> complex:
        sign = -1.0 if self.accept("-") else 1.0
        t = self.peek()
        if t.kind == "NUMBER":
            self.next()
            re_part = sign * float(t.value)
            if self.accept("+"):
                im = self.expect("IMAG", "imaginary literal (like 2i)")
                return complex(re_part, float(im.value))
            if self.accept("-"):
                im = self.expect("IMAG", "imaginary literal (like 2i)")
                return complex(re_part, -float(im.value))
            return complex(re_part, 0.0)
        if t.kind == "IMAG":
            self.next()
            return complex(0.0, sign * float(t.value))
        raise ParseError(f"expected a number, found {t.kind!r}", t.line, t.col)

    def vector(self) -> list[complex]:
        self.expect("(")
        entries = [self.scalar()]
        while self.accept(","):
            entries.append(self.scalar())
        self.expect(")")
        return entries

    def vector_block(self, opener: str) -> list[list[complex]]:
        self.expect("{")
        vecs: list[list[complex]] = []
        if self.peek().kind != "}":
            vecs.append(self.vector())
            while self.accept(","):
                vecs.append(self.vector())
        self.expect("}")
        return vecs

    # -- formulas
    #
    # Each formula and term method returns the node with its depth
    # (see MAX_FORMULA_DEPTH).

    def level(self, tok: _Token, *depths: int) -> int:
        """Depth of a node built at ``tok`` over children of ``depths``."""
        depth = 1 + max(depths)
        if depth > MAX_FORMULA_DEPTH:
            raise ParseError(
                f"formula nested deeper than {MAX_FORMULA_DEPTH} levels", tok.line, tok.col
            )
        return depth

    def inside(self, tok: _Token, parse):
        """Run ``parse`` one construct further down, within the bound."""
        self.level(tok, self.open)
        self.open += 1
        out = parse()
        self.open -= 1
        return out

    def formula(self) -> tuple[Formula, int]:
        parts = [self.imp()]
        ops = []
        while op := self.accept("<->"):
            ops.append(op)
            parts.append(self.imp())
        out, depth = parts[-1]
        for (f, d), op in zip(reversed(parts[:-1]), reversed(ops)):
            out, depth = Iff(f, out), self.level(op, d, depth)
        return out, depth

    def imp(self) -> tuple[Formula, int]:
        left, depth = self.disj()
        if op := self.accept("->"):
            right, d = self.inside(op, self.imp)
            return Implies(left, right), self.level(op, depth, d)
        return left, depth

    def disj(self) -> tuple[Formula, int]:
        out, depth = self.conj()
        while op := self.accept("|"):
            right, d = self.conj()
            out, depth = Or(out, right), self.level(op, depth, d)
        return out, depth

    def conj(self) -> tuple[Formula, int]:
        out, depth = self.unary()
        while op := self.accept("&"):
            right, d = self.unary()
            out, depth = And(out, right), self.level(op, depth, d)
        return out, depth

    def unary(self) -> tuple[Formula, int]:
        if op := self.accept("~"):
            arg, d = self.inside(op, self.unary)
            return Not(arg), self.level(op, d)
        op = self.peek()
        if op.kind in ("exists", "forall"):
            self.next()
            name = self.expect("IDENT", "a variable name")
            self.expect(".")
            body, d = self.inside(op, self.formula)
            node = Exists if op.kind == "exists" else Forall
            return node(str(name.value), body), self.level(op, d)
        return self.primary()

    def primary(self) -> tuple[Formula, int]:
        if op := self.accept("["):
            t, d = self.term()
            self.expect(":")
            sym = self.symref()
            self.expect("]")
            return Atom(t, sym), self.level(op, d)
        if op := self.accept("("):
            f, d = self.inside(op, self.formula)
            self.expect(")")
            return f, self.level(op, d)
        t = self.peek()
        raise ParseError(f"expected '[', '(', '~' or a quantifier, found {t.kind!r}", t.line, t.col)

    def term(self) -> tuple[Term, int]:
        if op := self.accept("proj"):
            self.expect("[")
            sym = self.symref()
            self.expect("]")
            self.expect("(")
            arg, d = self.inside(op, self.term)
            self.expect(")")
            return Proj(sym, arg), self.level(op, d)
        t = self.peek()
        if t.kind == "IDENT":
            self.next()
            name = str(t.value)
            if self.accept("("):
                arg, d = self.inside(t, self.term)
                self.expect(")")
                return Apply(name, arg), self.level(t, d)
            return Var(name), 1
        raise ParseError(f"expected a term, found {t.kind!r}", t.line, t.col)

    def symref(self) -> str:
        t = self.peek()
        if t.kind in ("IDENT", "top", "bot"):
            self.next()
            return str(t.value)
        raise ParseError(f"expected a subspace symbol, found {t.kind!r}", t.line, t.col)

    # -- file structure

    def raw_file(self) -> _RawFile:
        t = self.expect("dim", "'dim' as the first statement")
        num = self.expect("NUMBER", "a dimension")
        dim_f = float(num.value)
        # the range test comes first: int() of an overflowed literal raises
        if not 1 <= dim_f <= MAX_DIM or dim_f != int(dim_f):
            raise ParseError(
                f"dimension must be an integer from 1 to {MAX_DIM}", num.line, num.col
            )
        lets: list[tuple[str, str, object]] = []
        sentence: Formula | None = None
        circuit: list[tuple[str, str]] | None = None
        input_sym: str | None = None
        while True:
            t = self.peek()
            if t.kind == "EOF":
                break
            if t.kind == "let":
                self.next()
                name = self.expect("IDENT", "a definition name")
                self.expect("=")
                head = self.peek()
                if head.kind == "span":
                    self.next()
                    lets.append((str(name.value), "span", self.vector_block("span")))
                elif head.kind == "matrix":
                    self.next()
                    lets.append((str(name.value), "matrix", self.vector_block("matrix")))
                else:
                    raise ParseError(
                        f"expected 'span' or 'matrix', found {head.kind!r}", head.line, head.col
                    )
                continue
            if t.kind == "assert":
                if sentence is not None:
                    raise ParseError("only one 'assert' is allowed", t.line, t.col)
                self.next()
                sentence, _ = self.formula()
                continue
            if t.kind == "circuit":
                if circuit is not None:
                    raise ParseError("only one 'circuit' is allowed", t.line, t.col)
                self.next()
                self.expect("=")
                self.expect("[")
                circuit = []
                if self.peek().kind != "]":
                    circuit.append(self.circuit_step())
                    while self.accept(","):
                        circuit.append(self.circuit_step())
                self.expect("]")
                continue
            if t.kind == "input":
                if input_sym is not None:
                    raise ParseError("only one 'input' is allowed", t.line, t.col)
                self.next()
                self.expect("=")
                input_sym = self.symref()
                continue
            raise ParseError(
                f"expected 'let', 'assert', 'circuit' or 'input', found {t.kind!r}", t.line, t.col
            )
        return _RawFile(int(dim_f), lets, sentence, circuit, input_sym)

    def circuit_step(self) -> tuple[str, str]:
        if self.accept("proj"):
            self.expect("[")
            sym = self.symref()
            self.expect("]")
            return ("proj", sym)
        t = self.expect("IDENT", "a unitary symbol or proj[...]")
        return ("apply", str(t.value))


# ---------------------------------------------------------------------------
# Semantic assembly

def _build_definitions(
    raw: _RawFile, tol: Tolerance
) -> tuple[dict[str, Subspace], dict[str, UnitaryOp]]:
    dim = raw.dim
    subspaces: dict[str, Subspace] = {"top": top(dim), "bot": bottom(dim)}
    unitaries: dict[str, UnitaryOp] = {}
    for name, kind, vectors in raw.lets:
        if name in subspaces or name in unitaries:
            raise SemanticError(f"duplicate definition of {name!r}")
        # a literal past the float range lexes as infinity
        if not all(map(cmath.isfinite, chain.from_iterable(vectors))):
            raise SemanticError(f"in {name!r}: entries must be finite numbers")
        if kind == "span":
            for v in vectors:
                if len(v) != dim:
                    raise SemanticError(
                        f"in {name!r}: vector of length {len(v)} in dimension {dim}"
                    )
            subspaces[name] = span_of(vectors, dim, tol)
        else:
            rows = vectors
            if len(rows) != dim or any(len(r) != dim for r in rows):
                raise SemanticError(f"in {name!r}: matrix must be {dim}x{dim}")
            m = np.array(rows, dtype=np.complex128)
            dev = unitary_deviation(m)
            if not dev <= UNITARY_TOL:  # NaN from an overflowing product fails too
                raise SemanticError(
                    f"matrix {name!r} is not unitary: max-norm deviation {dev:.3e}"
                )
            unitaries[name] = UnitaryOp(dim, m)
    return subspaces, unitaries


def _check_sentence(
    f: Formula, subspaces: dict[str, Subspace], unitaries: dict[str, UnitaryOp]
) -> None:
    def check_sym(sym: str) -> None:
        if sym not in subspaces:
            if sym in unitaries:
                raise SemanticError(f"unitary symbol {sym!r} used as a subspace")
            raise SemanticError(f"undefined subspace symbol {sym!r}")

    def walk_term(t: Term, bound: frozenset[str]) -> None:
        if isinstance(t, Var):
            if t.name not in bound:
                raise SemanticError(f"free variable {t.name!r} in sentence")
            return
        if isinstance(t, Proj):
            check_sym(t.sym)
            walk_term(t.arg, bound)
            return
        if isinstance(t, Apply):
            if t.sym not in unitaries:
                if t.sym in subspaces:
                    raise SemanticError(f"subspace symbol {t.sym!r} used as a unitary")
                raise SemanticError(f"undefined unitary symbol {t.sym!r}")
            walk_term(t.arg, bound)
            return
        raise SemanticError(f"unknown term node {t!r}")

    def walk(f: Formula, bound: frozenset[str]) -> None:
        if isinstance(f, Atom):
            walk_term(f.term, bound)
            check_sym(f.sym)
        elif isinstance(f, Not):
            walk(f.arg, bound)
        elif isinstance(f, (And, Or, Implies, Iff)):
            walk(f.left, bound)
            walk(f.right, bound)
        elif isinstance(f, (Exists, Forall)):
            walk(f.body, bound | {f.var})
        else:
            raise SemanticError(f"unknown formula node {f!r}")

    walk(f, frozenset())


def parse_problem(text: str, tol: Tolerance = DEFAULT_TOL) -> Problem:
    """Parse and validate a problem file.  Total: every input either
    yields a Problem or raises a positioned/explained FrontendError."""
    raw = _Parser(_lex(text)).raw_file()
    if raw.sentence is None:
        raise SemanticError("problem file must contain an 'assert' statement")
    if raw.circuit is not None or raw.input_sym is not None:
        raise SemanticError("problem file cannot contain 'circuit' or 'input' statements")
    subspaces, unitaries = _build_definitions(raw, tol)
    _check_sentence(raw.sentence, subspaces, unitaries)
    return Problem(raw.dim, subspaces, unitaries, raw.sentence)


def parse_circuit_file(text: str, tol: Tolerance = DEFAULT_TOL) -> CircuitProblem:
    """Parse a circuit file: definitions plus ``circuit = [...]`` and an
    optional ``input = <symbol>`` (default ``top``)."""
    raw = _Parser(_lex(text)).raw_file()
    if raw.circuit is None:
        raise SemanticError("circuit file must contain a 'circuit = [...]' statement")
    if raw.sentence is not None:
        raise SemanticError("circuit file cannot contain an 'assert' statement")
    subspaces, unitaries = _build_definitions(raw, tol)
    for kind, sym in raw.circuit:
        if kind == "proj":
            if sym not in subspaces:
                raise SemanticError(f"undefined subspace symbol {sym!r} in circuit")
        else:
            if sym not in unitaries:
                if sym in subspaces:
                    raise SemanticError(f"subspace symbol {sym!r} used as a circuit unitary")
                raise SemanticError(f"undefined unitary symbol {sym!r} in circuit")
    input_sym = raw.input_sym if raw.input_sym is not None else "top"
    if input_sym not in subspaces:
        raise SemanticError(f"undefined input symbol {input_sym!r}")
    return CircuitProblem(raw.dim, subspaces, unitaries, tuple(raw.circuit), input_sym)


def parse_definitions(text: str, tol: Tolerance = DEFAULT_TOL) -> tuple[int, dict, dict]:
    """Parse a definitions-only file (dim plus lets); returns
    (dim, subspaces, unitaries)."""
    raw = _Parser(_lex(text)).raw_file()
    if raw.sentence is not None or raw.circuit is not None or raw.input_sym is not None:
        raise SemanticError("definitions file cannot contain assert/circuit/input statements")
    subspaces, unitaries = _build_definitions(raw, tol)
    return raw.dim, subspaces, unitaries


def parse_formula(text: str) -> Formula:
    """Parse a bare formula (syntax only, no symbol table)."""
    p = _Parser(_lex(text))
    f, _ = p.formula()
    t = p.peek()
    if t.kind != "EOF":
        raise ParseError(f"trailing input after formula: {t.kind!r}", t.line, t.col)
    return f


# ---------------------------------------------------------------------------
# Pretty printer

def term_to_str(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Proj):
        return f"proj[{t.sym}]({term_to_str(t.arg)})"
    if isinstance(t, Apply):
        return f"{t.sym}({term_to_str(t.arg)})"
    raise ValueError(f"unknown term node {t!r}")


def _pp(f: Formula, min_prec: int) -> str:
    # precedence: quantifier 0, <-> 1, -> 2, | 3, & 4, ~ 5, atom 6
    if isinstance(f, Atom):
        return f"[{term_to_str(f.term)} : {f.sym}]"
    if isinstance(f, Not):
        return _wrap("~" + _pp(f.arg, 5), 5, min_prec)
    if isinstance(f, And):
        return _wrap(f"{_pp(f.left, 4)} & {_pp(f.right, 5)}", 4, min_prec)
    if isinstance(f, Or):
        return _wrap(f"{_pp(f.left, 3)} | {_pp(f.right, 4)}", 3, min_prec)
    if isinstance(f, Implies):
        return _wrap(f"{_pp(f.left, 3)} -> {_pp(f.right, 2)}", 2, min_prec)
    if isinstance(f, Iff):
        return _wrap(f"{_pp(f.left, 2)} <-> {_pp(f.right, 1)}", 1, min_prec)
    if isinstance(f, Exists):
        return _wrap(f"exists {f.var} . {_pp(f.body, 0)}", 0, min_prec)
    if isinstance(f, Forall):
        return _wrap(f"forall {f.var} . {_pp(f.body, 0)}", 0, min_prec)
    raise ValueError(f"unknown formula node {f!r}")


def _wrap(s: str, prec: int, min_prec: int) -> str:
    return f"({s})" if prec < min_prec else s


def pretty_print(f: Formula) -> str:
    """Render a formula so that parse_formula(pretty_print(f)) == f."""
    return _pp(f, 0)


# ---------------------------------------------------------------------------
# Validation of constructed problems

def validate(problem: Problem) -> list[Diagnostic]:
    """Diagnostics for a Problem, including hand-built ones.

    Errors cover undefined symbols, free variables, dimension mismatches
    and non-unitary operators; a warning flags dimensions below 3, where
    the sentence-level theory is only guaranteed sound, not complete.
    """
    out: list[Diagnostic] = []
    if problem.dim < 1:
        out.append(Diagnostic("error", f"dimension must be positive, got {problem.dim}"))
        return out
    for name, s in problem.subspaces.items():
        if s.dim != problem.dim:
            out.append(
                Diagnostic("error", f"subspace {name!r} lives in dimension {s.dim}, not {problem.dim}")
            )
    for name, u in problem.unitaries.items():
        if u.dim != problem.dim:
            out.append(
                Diagnostic("error", f"unitary {name!r} acts on dimension {u.dim}, not {problem.dim}")
            )
        dev = unitary_deviation(u.matrix)
        if dev > UNITARY_TOL:
            out.append(
                Diagnostic("error", f"unitary {name!r} deviates from unitarity by {dev:.3e}")
            )
    for name in ("top", "bot"):
        if name not in problem.subspaces:
            out.append(Diagnostic("error", f"builtin symbol {name!r} is missing"))
    try:
        _check_sentence(problem.sentence, problem.subspaces, problem.unitaries)
    except SemanticError as e:
        out.append(Diagnostic("error", str(e)))
    if problem.dim < 3 and not any(d.severity == "error" for d in out):
        out.append(
            Diagnostic(
                "warning",
                f"dimension {problem.dim} < 3: evaluation is exact but deductive "
                "completeness of the sentence theory is not guaranteed",
            )
        )
    return out
