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

import re
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .subspace import (
    Subspace,
    UnitaryOp,
    bottom,
    span_of,
    top,
    unitary_deviation,
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
#
# A token is a tuple (kind, value, offset): kind is a keyword, IDENT,
# NUMBER, IMAG, the operator's own text or EOF; offset indexes the text,
# and becomes line:col only in an error message.  A '{' token read with
# the block that follows it has that block as its value.

_KEYWORDS = {
    "dim", "let", "span", "matrix", "assert",
    "exists", "forall", "top", "bot", "proj",
    "circuit", "input",
}

# Whitespace and comments match no group and are skipped; a character no
# other alternative takes falls through to BAD.
_TOKENS = r"""(?P<OP><->|->|[()\[\]{},:.=~&|+-])
    | [ \t\r\n]+ | \#[^\n]*
    | (?P<NUMBER>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)(?P<IMAG>i)?
    | (?P<WORD>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<BAD>.)"""
_TOKEN_RE = re.compile(_TOKENS, re.VERBOSE | re.DOTALL)

# A definition block whose entries are all plain literals, ``a``, ``a+bi``
# or ``a-bi`` with unsigned parts and an optional leading minus (the forms
# the printers write), is read whole, as one '{' token that carries its
# entries.  The parser takes a '{' only where a block starts, so a '{'
# elsewhere is the same error whichever way it was read.  complex() reads
# each part of such an entry as float() does, so the entries have the
# bits the token route gives them, signed zeros included.
_WS = r"[ \t\r\n]*"  # the lexer's whitespace, which is narrower than \s
_NUM = r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"
_ENTRY = rf"-?{_NUM}(?:[+-]{_NUM}i)?"
_ROW = rf"\({_WS}{_ENTRY}(?:{_WS},{_WS}{_ENTRY})*{_WS}\)"
_BLOCK = rf"\{{{_WS}(?:{_ROW}(?:{_WS},{_WS}{_ROW})*{_WS})?\}}"
_BLOCK_TOKEN_RE = re.compile(rf"(?P<BLOCK>{_BLOCK}) | {_TOKENS}", re.VERBOSE | re.DOTALL)
_BLOCK_TEXT = str.maketrans("{}),\t\r\ni", "       j")  # for complex(): i as j, and rows split at '('

# A block as read: its entries in reading order, and each vector's length.
_Block = tuple[np.ndarray, tuple[int, ...]]


def _position(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of ``offset`` in ``text``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _read_block(block: str) -> _Block:
    rows = [*map(str.split, block.translate(_BLOCK_TEXT).split("(")[1:])]
    return np.array([*map(complex, chain.from_iterable(rows))], dtype=np.complex128), tuple(map(len, rows))


def _lex(text: str, blocks: bool = False) -> list[tuple]:
    """The tokens of ``text``; with ``blocks``, each block of plain
    literals is one ('{', _read_block(...), offset) token."""
    tokens = []
    append = tokens.append
    for m in (_BLOCK_TOKEN_RE if blocks else _TOKEN_RE).finditer(text):
        group = m.lastgroup
        if group == "OP":
            op = m[0]
            append((op, op, m.start()))
        elif group is None:
            continue
        elif group == "WORD":
            word = m[0]
            if word == "i":
                append(("IMAG", 1.0, m.start()))
            elif word in _KEYWORDS:
                append((word, word, m.start()))
            else:
                append(("IDENT", word, m.start()))
        elif group == "BAD":
            raise LexError(f"unexpected character {m[0]!r}", *_position(text, m.start()))
        elif group == "BLOCK":
            append(("{", _read_block(m[0]), m.start()))
        else:  # NUMBER, or IMAG when an ``i`` follows the number
            append((group, float(m["NUMBER"]), m.start()))
    append(("EOF", None, len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Parser

@dataclass
class _RawFile:
    dim: int
    lets: list[tuple[str, str, _Block]]  # (name, "span"|"matrix", block)
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
    def __init__(self, text: str):
        self.text = text
        self.toks = _lex(text, blocks=True)
        self.pos = 0
        self.open = 0  # constructs entered and not yet closed

    def error(self, message: str, tok: tuple) -> ParseError:
        return ParseError(message, *_position(self.text, tok[2]))

    def peek(self) -> tuple:
        return self.toks[self.pos]

    def next(self) -> tuple:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def accept(self, kind: str) -> tuple | None:
        t = self.toks[self.pos]
        if t[0] == kind:
            self.pos += 1
            return t
        return None

    def expect(self, kind: str, what: str | None = None) -> tuple:
        t = self.toks[self.pos]
        if t[0] != kind:
            raise self.error(f"expected {what or repr(kind)}, found {t[0]!r}", t)
        self.pos += 1
        return t

    # -- vectors
    #
    # The lexer reads a block of plain literals whole; ``vector`` reads
    # the literals of any other block a token at a time, and its loop body
    # is ``scalar`` in docs/grammar.md.

    def vector(self) -> list[complex]:
        self.expect("(")
        toks, pos = self.toks, self.pos
        entries = []
        while True:
            sign = 1.0
            if toks[pos][0] == "-":
                sign, pos = -1.0, pos + 1
            kind, value, _ = toks[pos]
            if kind == "IMAG":
                entries.append(complex(0.0, sign * value))
            elif kind != "NUMBER":
                raise self.error(f"expected a number, found {kind!r}", toks[pos])
            elif (op := toks[pos + 1][0]) in ("+", "-"):
                pos += 2
                im = toks[pos]
                if im[0] != "IMAG":
                    raise self.error(f"expected imaginary literal (like 2i), found {im[0]!r}", im)
                entries.append(complex(sign * value, im[1] if op == "+" else -im[1]))
            else:
                entries.append(complex(sign * value, 0.0))
            pos += 1
            if toks[pos][0] != ",":
                break
            pos += 1
        self.pos = pos
        self.expect(")")
        return entries

    def vector_block(self) -> _Block:
        brace = self.expect("{")
        if isinstance(brace[1], tuple):  # read in bulk
            return brace[1]
        vecs: list[list[complex]] = []
        if self.peek()[0] != "}":
            vecs.append(self.vector())
            while self.accept(","):
                vecs.append(self.vector())
        self.expect("}")
        return np.array([*chain.from_iterable(vecs)], dtype=np.complex128), tuple(map(len, vecs))

    # -- formulas
    #
    # Each formula and term method returns the node with its depth
    # (see MAX_FORMULA_DEPTH).

    def level(self, tok: tuple, *depths: int) -> int:
        """Depth of a node built at ``tok`` over children of ``depths``."""
        depth = 1 + max(depths)
        if depth > MAX_FORMULA_DEPTH:
            raise self.error(f"formula nested deeper than {MAX_FORMULA_DEPTH} levels", tok)
        return depth

    def inside(self, tok: tuple, parse):
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
        if op[0] in ("exists", "forall"):
            self.next()
            name = self.expect("IDENT", "a variable name")
            self.expect(".")
            body, d = self.inside(op, self.formula)
            node = Exists if op[0] == "exists" else Forall
            return node(name[1], body), self.level(op, d)
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
        raise self.error(f"expected '[', '(', '~' or a quantifier, found {t[0]!r}", t)

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
        if t[0] == "IDENT":
            self.next()
            if self.accept("("):
                arg, d = self.inside(t, self.term)
                self.expect(")")
                return Apply(t[1], arg), self.level(t, d)
            return Var(t[1]), 1
        raise self.error(f"expected a term, found {t[0]!r}", t)

    def symref(self) -> str:
        t = self.peek()
        if t[0] in ("IDENT", "top", "bot"):
            self.next()
            return t[1]
        raise self.error(f"expected a subspace symbol, found {t[0]!r}", t)

    # -- file structure

    def raw_file(self) -> _RawFile:
        self.expect("dim", "'dim' as the first statement")
        num = self.expect("NUMBER", "a dimension")
        dim_f = num[1]
        # the range test comes first: int() of an overflowed literal raises
        if not 1 <= dim_f <= MAX_DIM or dim_f != int(dim_f):
            raise self.error(f"dimension must be an integer from 1 to {MAX_DIM}", num)
        lets: list[tuple[str, str, _Block]] = []
        sentence: Formula | None = None
        circuit: list[tuple[str, str]] | None = None
        input_sym: str | None = None
        while True:
            t = self.peek()
            kind = t[0]
            if kind == "EOF":
                break
            if kind == "let":
                self.next()
                name = self.expect("IDENT", "a definition name")[1]
                self.expect("=")
                head = self.next()
                if head[0] not in ("span", "matrix"):
                    raise self.error(f"expected 'span' or 'matrix', found {head[0]!r}", head)
                lets.append((name, head[0], self.vector_block()))
                continue
            if kind == "assert":
                if sentence is not None:
                    raise self.error("only one 'assert' is allowed", t)
                self.next()
                sentence, _ = self.formula()
                continue
            if kind == "circuit":
                if circuit is not None:
                    raise self.error("only one 'circuit' is allowed", t)
                self.next()
                self.expect("=")
                self.expect("[")
                circuit = []
                if self.peek()[0] != "]":
                    circuit.append(self.circuit_step())
                    while self.accept(","):
                        circuit.append(self.circuit_step())
                self.expect("]")
                continue
            if kind == "input":
                if input_sym is not None:
                    raise self.error("only one 'input' is allowed", t)
                self.next()
                self.expect("=")
                input_sym = self.symref()
                continue
            raise self.error(f"expected 'let', 'assert', 'circuit' or 'input', found {kind!r}", t)
        return _RawFile(int(dim_f), lets, sentence, circuit, input_sym)

    def circuit_step(self) -> tuple[str, str]:
        if self.accept("proj"):
            self.expect("[")
            sym = self.symref()
            self.expect("]")
            return ("proj", sym)
        return ("apply", self.expect("IDENT", "a unitary symbol or proj[...]")[1])


# ---------------------------------------------------------------------------
# Semantic assembly

def _build_definitions(raw: _RawFile) -> tuple[dict[str, Subspace], dict[str, UnitaryOp]]:
    dim = raw.dim
    subspaces: dict[str, Subspace] = {"top": top(dim), "bot": bottom(dim)}
    unitaries: dict[str, UnitaryOp] = {}
    for name, kind, (entries, lengths) in raw.lets:
        if name in subspaces or name in unitaries:
            raise SemanticError(f"duplicate definition of {name!r}")
        # a literal past the float range lexes as infinity
        if not np.isfinite(entries).all():
            raise SemanticError(f"in {name!r}: entries must be finite numbers")
        if kind == "span":
            for n in lengths:
                if n != dim:
                    raise SemanticError(f"in {name!r}: vector of length {n} in dimension {dim}")
            subspaces[name] = span_of(entries.reshape(len(lengths), dim), dim)
        else:
            if len(lengths) != dim or any(n != dim for n in lengths):
                raise SemanticError(f"in {name!r}: matrix must be {dim}x{dim}")
            m = entries.reshape(dim, dim)
            try:
                unitaries[name] = UnitaryOp(dim, m)  # checks unitarity
            except ValueError:  # the shape is right, so the matrix is not unitary
                raise SemanticError(
                    f"matrix {name!r} is not unitary: "
                    f"max-norm deviation {unitary_deviation(m):.3e}"
                ) from None
    return subspaces, unitaries


# The sentence walkers are module functions, not closures that call
# themselves: a recursive closure is a reference cycle, which would keep
# every checked problem alive until the cycle collector ran.


def _check_sym(sym: str, subspaces: dict, unitaries: dict) -> None:
    if sym not in subspaces:
        if sym in unitaries:
            raise SemanticError(f"unitary symbol {sym!r} used as a subspace")
        raise SemanticError(f"undefined subspace symbol {sym!r}")


def _check_term(t: Term, bound: frozenset[str], subspaces: dict, unitaries: dict) -> None:
    if isinstance(t, Var):
        if t.name not in bound:
            raise SemanticError(f"free variable {t.name!r} in sentence")
        return
    if isinstance(t, Proj):
        _check_sym(t.sym, subspaces, unitaries)
        _check_term(t.arg, bound, subspaces, unitaries)
        return
    if isinstance(t, Apply):
        if t.sym not in unitaries:
            if t.sym in subspaces:
                raise SemanticError(f"subspace symbol {t.sym!r} used as a unitary")
            raise SemanticError(f"undefined unitary symbol {t.sym!r}")
        _check_term(t.arg, bound, subspaces, unitaries)
        return
    raise SemanticError(f"unknown term node {t!r}")


def _check_sentence(
    f: Formula,
    subspaces: dict[str, Subspace],
    unitaries: dict[str, UnitaryOp],
    bound: frozenset[str] = frozenset(),
) -> None:
    if isinstance(f, Atom):
        _check_term(f.term, bound, subspaces, unitaries)
        _check_sym(f.sym, subspaces, unitaries)
    elif isinstance(f, Not):
        _check_sentence(f.arg, subspaces, unitaries, bound)
    elif isinstance(f, (And, Or, Implies, Iff)):
        _check_sentence(f.left, subspaces, unitaries, bound)
        _check_sentence(f.right, subspaces, unitaries, bound)
    elif isinstance(f, (Exists, Forall)):
        _check_sentence(f.body, subspaces, unitaries, bound | {f.var})
    else:
        raise SemanticError(f"unknown formula node {f!r}")


def parse_problem(text: str) -> Problem:
    """Parse and validate a problem file.  Total: every input either
    yields a Problem or raises a positioned/explained FrontendError."""
    raw = _Parser(text).raw_file()
    if raw.sentence is None:
        raise SemanticError("problem file must contain an 'assert' statement")
    if raw.circuit is not None or raw.input_sym is not None:
        raise SemanticError("problem file cannot contain 'circuit' or 'input' statements")
    subspaces, unitaries = _build_definitions(raw)
    _check_sentence(raw.sentence, subspaces, unitaries)
    return Problem(raw.dim, subspaces, unitaries, raw.sentence)


def parse_circuit_file(text: str) -> CircuitProblem:
    """Parse a circuit file: definitions plus ``circuit = [...]`` and an
    optional ``input = <symbol>`` (default ``top``)."""
    raw = _Parser(text).raw_file()
    if raw.circuit is None:
        raise SemanticError("circuit file must contain a 'circuit = [...]' statement")
    if raw.sentence is not None:
        raise SemanticError("circuit file cannot contain an 'assert' statement")
    subspaces, unitaries = _build_definitions(raw)
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


def parse_definitions(text: str) -> tuple[int, dict, dict]:
    """Parse a definitions-only file (dim plus lets); returns
    (dim, subspaces, unitaries)."""
    raw = _Parser(text).raw_file()
    if raw.sentence is not None or raw.circuit is not None or raw.input_sym is not None:
        raise SemanticError("definitions file cannot contain assert/circuit/input statements")
    subspaces, unitaries = _build_definitions(raw)
    return raw.dim, subspaces, unitaries


def parse_formula(text: str) -> Formula:
    """Parse a bare formula (syntax only, no symbol table)."""
    p = _Parser(text)
    f, _ = p.formula()
    t = p.peek()
    if t[0] != "EOF":
        raise p.error(f"trailing input after formula: {t[0]!r}", t)
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

    Errors cover undefined symbols, free variables and dimension
    mismatches (a UnitaryOp is unitary by construction); a warning flags dimensions below 3, where
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
