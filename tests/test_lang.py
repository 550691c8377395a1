"""Front-end: lexing, parsing, validation, pretty-printing."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pqm.lang import (
    MAX_DIM,
    And,
    Apply,
    Atom,
    Exists,
    Forall,
    FrontendError,
    Iff,
    Implies,
    LexError,
    Not,
    Or,
    ParseError,
    Proj,
    SemanticError,
    Var,
    _lex,
    _Parser,
    parse_circuit_file,
    parse_definitions,
    parse_problem,
    pretty_print,
    validate,
)

from _routes import parse_formula

GOOD = """\
# comment survives anywhere
dim 3
let p = span{(1,0,0),(0,1,0)}   # trailing comment
let U = matrix{(0,1,0),(1,0,0),(0,0,1)}
assert exists x . [x : p] & ~[U(x) : bot]
"""


def test_parse_problem_basics():
    pr = parse_problem(GOOD)
    assert pr.dim == 3
    assert pr.subspaces["p"].rank == 2
    assert pr.unitaries["U"].matrix.shape == (3, 3)
    assert isinstance(pr.sentence, Exists)


def test_complex_literal_forms():
    pr = parse_problem("dim 2\nlet p = span{(i, 1-2i)}\nassert exists x . [x : p]\n")
    v = pr.subspaces["p"].basis[:, 0]
    ratio = v[1] / v[0]
    assert np.isclose(ratio, (1 - 2j) / 1j)


def test_rationals_and_negatives():
    pr = parse_problem(
        "dim 2\nlet p = span{(-0.5, 2.25+0i)}\nassert exists x . [x : p]\n"
    )
    v = pr.subspaces["p"].basis[:, 0]
    assert np.isclose(v[1] / v[0], 2.25 / -0.5)


def test_lex_error_position():
    with pytest.raises(LexError) as exc:
        parse_problem("dim 3\nlet p = span{(1,$,0)}\nassert exists x . [x : p]\n")
    assert "2:" in str(exc.value)


def test_parse_error_reports_expected_token():
    with pytest.raises(ParseError) as exc:
        parse_problem("dim 3\nlet p = span{(1,0,0)}\nassert exists x [x : p]\n")
    assert "expected" in str(exc.value)


def test_reserved_imaginary_unit_name():
    with pytest.raises(ParseError):
        parse_problem("dim 2\nlet i = span{(1,0)}\nassert exists x . [x : i]\n")


def test_semantic_errors():
    with pytest.raises(SemanticError, match="undefined subspace"):
        parse_problem("dim 2\nassert exists x . [x : nosuch]\n")
    with pytest.raises(SemanticError, match="free variable"):
        parse_problem("dim 2\nlet p = span{(1,0)}\nassert [x : p]\n")
    with pytest.raises(SemanticError, match="not unitary"):
        parse_problem(
            "dim 2\nlet U = matrix{(1,0),(0,2)}\nassert forall x . [U(x) : top]\n"
        )


@pytest.mark.parametrize("dim", ["0", "2.5"])
def test_dimension_must_be_a_positive_integer(dim):
    with pytest.raises(ParseError, match=rf"^1:5: dimension must be an integer from 1 to {MAX_DIM}$"):
        parse_problem(f"dim {dim}\nassert exists x . [x : top]\n")


def test_wrong_vector_length_rejected():
    with pytest.raises(FrontendError):
        parse_problem("dim 3\nlet p = span{(1,0)}\nassert exists x . [x : p]\n")


def test_validate_warns_below_completeness_dimension():
    pr = parse_problem("dim 2\nlet p = span{(1,0)}\nassert exists x . [x : p]\n")
    diags = validate(pr)
    assert any(d.severity == "warning" and "dimension 2" in d.message for d in diags)
    pr3 = parse_problem(GOOD)
    assert not any("dimension" in d.message for d in validate(pr3))


def test_circuit_file_and_default_input():
    cp = parse_circuit_file(
        "dim 2\nlet p = span{(1,0)}\nlet U = matrix{(0,1),(1,0)}\n"
        "circuit = [ proj[p], U ]\ninput = p\n"
    )
    assert cp.steps == (("proj", "p"), ("apply", "U"))
    assert cp.input_sym == "p"
    cp2 = parse_circuit_file("dim 2\nlet p = span{(1,0)}\ncircuit = [ proj[p] ]\n")
    assert cp2.input_sym == "top"


def test_definitions_reject_statements():
    with pytest.raises(FrontendError):
        parse_definitions("dim 2\nlet p = span{(1,0)}\nassert exists x . [x : p]\n")


def test_precedence_binds_as_documented():
    f = parse_formula("exists x . [x:p] & [x:q] | [x:r] -> [x:s] <-> [x:t]")
    # quantifier grabs everything; then <->, ->, |, &
    assert isinstance(f, Exists)
    assert isinstance(f.body, Iff)
    assert isinstance(f.body.left, Implies)
    assert isinstance(f.body.left.left, Or)
    assert isinstance(f.body.left.left.left, And)


def test_right_associative_arrows():
    f = parse_formula("[a:p] -> [a:q] -> [a:r]")
    assert isinstance(f, Implies)
    assert isinstance(f.right, Implies)


# structural generator for the print/parse round trip
_vars = st.sampled_from(["x", "y", "z"])
_syms = st.sampled_from(["p", "q", "r", "top", "bot"])
_unis = st.sampled_from(["U", "V"])

_terms = st.recursive(
    _vars.map(Var),
    lambda inner: st.one_of(
        st.tuples(_syms, inner).map(lambda t: Proj(*t)),
        st.tuples(_unis, inner).map(lambda t: Apply(*t)),
    ),
    max_leaves=4,
)

_formulas = st.recursive(
    st.tuples(_terms, _syms).map(lambda t: Atom(*t)),
    lambda inner: st.one_of(
        inner.map(Not),
        st.tuples(inner, inner).map(lambda t: And(*t)),
        st.tuples(inner, inner).map(lambda t: Or(*t)),
        st.tuples(inner, inner).map(lambda t: Implies(*t)),
        st.tuples(inner, inner).map(lambda t: Iff(*t)),
        st.tuples(_vars, inner).map(lambda t: Exists(*t)),
        st.tuples(_vars, inner).map(lambda t: Forall(*t)),
    ),
    max_leaves=12,
)


@given(_formulas)
@example(parse_formula("[x:p] & ([x:q] & [x:r])"))  # operands on the side that needs parentheses
@example(parse_formula("[x:p] | ([x:q] | [x:r])"))
@example(parse_formula("([x:p] -> [x:q]) -> [x:r]"))
@example(parse_formula("([x:p] <-> [x:q]) <-> [x:r]"))
@settings(max_examples=200, deadline=None)
def test_pretty_print_parse_round_trip(f):
    assert parse_formula(pretty_print(f)) == f


# -- blocks of plain literals, read whole, against the token route
#
# The lexer reads a span{...} or matrix{...} block of plain literals as
# one token; a comment inside the block sends it down the token route,
# which reads it a literal at a time.  The comment goes just before the
# newline that opens the block, so every token keeps its line:col.

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def _definitions(dim: int, span: str, matrix: str, token_route: bool) -> str:
    mark = " # token route" if token_route else ""
    return f"dim {dim}\nlet p = span{{{mark}\n{span}}}\nlet U = matrix{{{mark}\n{matrix}}}\n"


def _read(text: str):
    """The raw blocks and the definitions built from them, as bytes; or
    the first diagnostic's class and message, line:col included."""
    try:
        raw = _Parser(text).raw_file()
    except FrontendError as e:
        return type(e), str(e)
    blocks = [(name, kind, entries.tobytes(), lengths) for name, kind, (entries, lengths) in raw.lets]
    try:
        _, subspaces, unitaries = parse_definitions(text)
    except FrontendError as e:
        return blocks, type(e), str(e)
    return (
        blocks,
        {k: (s.basis.shape, s.basis.tobytes()) for k, s in subspaces.items()},
        {k: u.matrix.tobytes() for k, u in unitaries.items()},
    )


def _bulk_blocks(text: str) -> int:
    """How many blocks of ``text`` the lexer reads whole."""
    try:
        tokens = _lex(text, blocks=True)
    except LexError:
        return 0
    return sum(isinstance(t[1], tuple) for t in tokens)


_numbers = st.one_of(
    st.floats(min_value=0, max_value=1e300).map(repr),
    st.sampled_from(["0", "7", "007", "1e-05", "2.5E-4", "1E+3", "1e400", "1e-400"]),
)
_signs = st.sampled_from(["", "-"])
_plain = st.one_of(
    st.tuples(_signs, _numbers).map("".join),
    st.tuples(_signs, _numbers, st.sampled_from("+-"), _numbers).map(lambda t: "".join(t) + "i"),
)
# valid, but read by the token route only
_other = st.sampled_from(["0.3i", "-0.3i", "-0i", "i", "-i", "2+i", "2-i", "1 -2i", "- 1", "1e5i"])
_malformed = st.sampled_from(["1.", ".5", "2 i", "--1", "+1", "1e+", "1ex", "nan"])
_entries = st.one_of(*[_plain] * 12, _other, _malformed)
_spaces = st.sampled_from(["", " ", "  ", "\t", "\n", " \n\t", "\r\n"])


def _separated(draw, rows: list[str]) -> str:
    """``rows`` joined by commas with whitespace drawn around each."""
    return "".join((draw(_spaces) + "," + draw(_spaces) if k else "") + r for k, r in enumerate(rows))


@st.composite
def _block_bodies(draw, dim: int) -> str:
    rows = []
    for _ in range(draw(st.integers(0, dim + 1))):
        width = dim if draw(st.integers(0, 3)) else draw(st.integers(1, dim + 1))
        entries = [draw(_entries) for _ in range(width)]
        row = "(" + "".join(e + draw(st.sampled_from(["", " "])) + "," for e in entries)[:-1] + ")"
        rows.append(draw(st.sampled_from([row] * 12 + ["(1,)", "()"])))
    return _separated(draw, rows) + draw(_spaces)


@st.composite
def _unitary_bodies(draw, dim: int) -> str:
    """A diagonal unitary with random phases, written as the printers write."""
    rows = []
    for k in range(dim):
        t = draw(st.floats(-4, 4))
        entries = [draw(st.sampled_from(["0", "-0", "0+0i", "0-0.0i", "-0.0-0i"])) for _ in range(dim)]
        entries[k] = f"{math.cos(t)!r}{math.sin(t):+}i"
        rows.append("(" + ", ".join(entries) + ")")
    return _separated(draw, rows)


@st.composite
def _definition_bodies(draw) -> tuple[int, str, str]:
    dim = draw(st.integers(1, 3))
    return dim, draw(_block_bodies(dim)), draw(st.one_of(_block_bodies(dim), _unitary_bodies(dim)))


@given(_definition_bodies())
@example((2, "(0.5, -0.5), (0.5+0.25i, 0.5-0.25i)", "(1, 0), (0, 1)"))
@example((2, "(0.5, 0.5)", "(0.6+0.8i, 0), (0, 0.8-0.6i)"))
@example((2, "(-0, 0-0.0i), (-0-0i, 0+0i)", "(0-0.0i, -1), (1, -0)"))
@example((2, "(1e-05, 2.5E-4), (1e400, 1)", "(1, 0), (0, 1e-05)"))
@example((2, "(0.3i, 1), (-0.3i, 1)", "(1, -0.3i), (0.3i, 1)"))  # bi and -bi
@example((2, "(i, -i), (2+i, 2-i)", "(1, 0), (0, 1)"))
@example((3, "(1, 0, 0),\t(0, 1, 0)\n,\n(0, 0, 1) ", "(0, 1, 0) , (1, 0, 0),  (0, 0, 1)"))
@example((2, "(1, 0), # a comment\n(0, 1)", "(1, 0), (0, 1)"))
@example((2, "(1, 0), (1)", "(1, 0), (0, 1, 0)"))  # ragged rows
@example((2, "", "(1, 0), (0, 1)"))  # an empty span
@example((1, "(1.)", "(1)"))
@example((1, "(.5)", "(1)"))
@example((1, "(2 i)", "(1)"))
@example((1, "(--1)", "(1)"))
@example((1, "(1,)", "(1)"))
@example((2, "(1, 0),\x0b(0, 1)", "(1, 0),\x0c(0, 1)"))  # whitespace the lexer rejects
@settings(max_examples=300, deadline=None)
def test_bulk_and_token_routes_agree(case):
    dim, span, matrix = case
    token_route = _definitions(dim, span, matrix, token_route=True)
    assert _bulk_blocks(token_route) == 0
    assert _read(_definitions(dim, span, matrix, token_route=False)) == _read(token_route)


@pytest.mark.parametrize("block", [
    "{(0.5, -0.5)}",
    "{(0.5+0.25i, -0.5-0.25i)}",
    "{(-0, 0-0.0i), (1e-05, 2.5E-4)}",
    "{\t(1, 0),\r\n (1e400-1e400i, 7) }",
    "{}",
])
def test_plain_literals_are_read_whole(block):
    assert _bulk_blocks(f"dim 2\nlet p = span{block}\n") == 1


def test_printed_and_sample_blocks_are_read_whole():
    for path in SAMPLES.glob("*.pqm"):
        text = path.read_text()
        assert _bulk_blocks(text) == text.count("{"), path.name
    pr = parse_problem(GOOD)
    # entries as the CLI prints a witness
    rows = [", ".join(f"{z.real:.10g}{z.imag:+.10g}i" for z in row) for row in pr.unitaries["U"].matrix]
    assert _bulk_blocks("dim 3\nlet V = matrix{" + ", ".join(f"({r})" for r in rows) + "}\n") == 1
