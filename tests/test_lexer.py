"""The lexer against the per-character lexer it replaced.

``_old_lex`` below is that lexer, kept verbatim as the oracle.  On every
input the two give the same token kinds, values and ``line:col``
positions, or the same ``LexError`` message.  One difference is
documented: when a comment ends the text, the old lexer put EOF at the
comment's ``#`` (its comment loop never advanced the column), and the
lexer in ``pqm.lang`` puts EOF at the end of the text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _helpers import random_problem, random_sentence
from pqm.lang import LexError, _lex, _position, pretty_print

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


def _old_lex(text: str) -> list[_Token]:
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


def assert_same_tokens(text: str) -> None:
    try:
        old = [(t.kind, t.value, t.line, t.col) for t in _old_lex(text)]
    except LexError as exc:
        with pytest.raises(LexError) as new_exc:
            _lex(text)
        assert (str(new_exc.value), new_exc.value.line, new_exc.value.col) == (
            str(exc), exc.line, exc.col
        )
        return
    new = [(kind, value, *_position(text, offset)) for kind, value, offset in _lex(text)]
    assert new[:-1] == old[:-1]
    last_line = text.rsplit("\n", 1)[-1]
    end = ("EOF", None, text.count("\n") + 1, len(last_line) + 1)
    assert new[-1] == end
    if "#" in last_line:  # the documented difference: a comment ends the text
        end = ("EOF", None, end[2], last_line.index("#") + 1)
    assert old[-1] == end


def test_sample_files(samples_dir):
    files = sorted(samples_dir.glob("*.pqm"))
    assert files
    for f in files:
        assert_same_tokens(f.read_text())


def _scalar(z: complex) -> str:
    return f"{z.real!r}{'-' if z.imag < 0 else '+'}{abs(z.imag)!r}i"


def _vectors(rows) -> str:
    return ", ".join("(" + ", ".join(_scalar(complex(z)) for z in row) + ")" for row in rows)


def problem_text(seed: int, dim: int) -> str:
    rng = np.random.default_rng(seed)
    problem = random_problem(rng, dim)
    sentence = random_sentence(rng, problem, max_depth=4, max_quants=3)
    lines = [f"# generator seed {seed}", f"dim {dim}"]
    for name, s in problem.subspaces.items():
        if name not in ("top", "bot"):
            lines.append(f"let {name} = span{{{_vectors(s.basis.T)}}}  # rank {s.rank}")
    for name, u in problem.unitaries.items():
        lines.append(f"let {name} =\tmatrix{{{_vectors(u.matrix)}}}")
    lines.append(f"assert {pretty_print(sentence)}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("dim", [3, 6])
@pytest.mark.parametrize("seed", [645, 173, *range(10)])
def test_rendered_random_problems(seed, dim):
    text = problem_text(seed, dim)
    assert_same_tokens(text)
    assert_same_tokens(text.rstrip("\n") + "  # a comment ends the text")


# The grammar's ASCII alphabet, plus characters it does not accept.
_CHARS = "abdeEilmnoprstxU_0123456789()[]{},:.=~&|+-<> \t\r\n#$@!\f\"'"
_PIECES = [
    "dim", "let", "span", "matrix", "assert", "exists", "forall", "top", "bot",
    "proj", "circuit", "input", "i", "x", "p0", "U1", "_a", "2", "0.5", "1e3",
    "2.5E-4", "1e400", "2i", "0.5i", "2in", "2e", "3.", "<->", "->", "<-", "-",
    " ", "\n", "\t", "# note", "#", "$",
]


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.text(alphabet=_CHARS, max_size=40),
    st.lists(st.sampled_from(_PIECES), max_size=20).map("".join),
))
def test_random_ascii_text(text):
    assert_same_tokens(text)
