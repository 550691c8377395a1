"""Front-end: lexing, parsing, validation, pretty-printing."""

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
    parse_circuit_file,
    parse_definitions,
    parse_formula,
    parse_problem,
    pretty_print,
    validate,
)

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
