"""Hostile input through ``main()``: every run exits 0, 1 or 2, raises
nothing, not even a warning, and writes only diagnostics to stderr.

Two mutators, each bounded in examples so the file runs in seconds:

* ``samples/model3.json`` with one node (an object value, a list item or
  the whole document) replaced by a value from a fixed hostile set, run
  through ``model-check`` and ``kappa``;
* each ``samples/*.pqm`` with one token replaced by a hostile piece,
  run through ``decide`` and ``circuit``.

Structure JSON is also generated from scratch: small random domains,
symbol sets (none, duplicate spaces, no full or zero space), tables with
missing or extra rows and relations that name unknown symbols or
elements.

The ``oracle`` subcommands take numbers, so each of their arguments is
drawn from a fixed hostile set or a valid value; every run must also
finish promptly.  Passed without ``--``, a leading minus reaches the
option parser, whose usage errors are one diagnostic too.
"""

import contextlib
import io
import json
import pathlib
import re
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from pqm.cli import main

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"

HOSTILE_VALUES = [
    float("nan"), float("inf"), float("-inf"), 10**400, 1e308, -1e308, 0, 2.5,
    [], [1, 2], [[0, 0]], {}, {"a": 1}, "", "top", "bot_0", None, True, False,
]

HOSTILE_PIECES = [
    "1e400", "1e308", "9" * 400, "0", "2.5", "-", "+", "i", "2i", "(", ")", "[", "]", "{", "}",
    ",", ":", ".", "=", "~", "&", "|", "->", "<->", "#", "let", "dim", "span",
    "matrix", "exists", "forall", "proj", "circuit", "input", "top", "bot", "x", "",
]

# Numbers with their imaginary suffix, words, two-character operators,
# then any other single character; comments are dropped first.
_TOKEN = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?i?|[A-Za-z_]\w*|<->|->|\S")

# passed after "--" and as "--tol=...", so that a leading minus reaches
# the oracle rather than the option parser
HOSTILE_NUMBERS = [
    "nan", "inf", "-inf", "0", "-0.0", "-1", "-0.5", "1e-200", "1e-5", "1e-4", "1e10", "1e308",
    "-1e308", "5e-324",
]

MODEL3 = json.loads((SAMPLES / "model3.json").read_text())
SENTENCE_FILES = sorted(SAMPLES.glob("*.pqm"))


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from _paths(value, path + (k,))


MODEL3_PATHS = list(_paths(MODEL3))


def _replaced(path, value):
    if not path:
        return value
    data = json.loads(json.dumps(MODEL3))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


def _exit_code(argv) -> int:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
    for line in err.getvalue().splitlines():
        assert not line or line.startswith(("error: ", "warning: ")), line
    return code


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(MODEL3_PATHS), st.sampled_from(HOSTILE_VALUES))
def test_structure_json_with_a_hostile_node(path, value):
    with tempfile.TemporaryDirectory() as tmp:
        f = pathlib.Path(tmp) / "structure.json"
        f.write_text(json.dumps(_replaced(path, value)))
        for command in ("model-check", "kappa"):
            assert _exit_code([command, str(f)]) in (0, 1, 2)


ELEMENTS = ["m0", "m1", "m2"]
SYMBOLS = ["p", "q", "r"]


@st.composite
def _rarely(draw, value, fault):
    """``value``, or one time in twelve ``fault``."""
    return fault if draw(st.integers(0, 11)) == 0 else value


@st.composite
def _tables(draw, domain):
    """A total table over ``domain``, sometimes with a row missing or extra."""
    table = {m: draw(st.sampled_from(domain)) for m in domain}
    if domain and draw(_rarely(False, True)):
        del table[draw(st.sampled_from(domain))]
    if draw(_rarely(False, True)):
        table[draw(st.sampled_from(ELEMENTS + ["ghost"]))] = "ghost"
    return table


@st.composite
def structure_json(draw):
    dim = draw(st.integers(1, 3))
    domain = draw(st.lists(st.sampled_from(ELEMENTS), max_size=3, unique=True))
    if domain and draw(_rarely(False, True)):
        domain.append(domain[0])
    entry = st.lists(st.integers(-1, 1), min_size=2, max_size=2)
    vector = st.lists(entry, min_size=dim, max_size=dim)
    spaces = {}
    if draw(_rarely(True, False)):
        spaces["top"] = [[[float(i == j), 0.0] for i in range(dim)] for j in range(dim)]
    if draw(_rarely(True, False)):
        spaces["bot"] = []
    for name in draw(st.lists(st.sampled_from(SYMBOLS), max_size=3, unique=True)):
        spaces[name] = draw(st.lists(vector, max_size=dim + 1))
    if spaces and draw(st.booleans()):  # the same space under a second name
        spaces["dup"] = spaces[draw(st.sampled_from(sorted(spaces)))]
    names = sorted(spaces) or ["top"]
    element = st.sampled_from(domain or ["ghost"])
    projectors = {
        draw(_rarely(q, "nosuch")): draw(_tables(domain))
        for q in draw(st.lists(st.sampled_from(names), max_size=3, unique=True))
    }
    unitaries = {}
    for k in range(draw(st.integers(0, 2))):
        perm = draw(st.permutations(range(dim)))
        matrix = [[[float(perm[i] == j), 0.0] for j in range(dim)] for i in range(dim)]
        matrix[0][0] = draw(_rarely(matrix[0][0], [2.0, 0.0]))  # not unitary
        unitaries[f"u{k}"] = {"matrix": matrix, "table": draw(_tables(domain))}
    pairs = draw(st.integers(0, 12)) if domain else 0
    relation = [[draw(element), draw(st.sampled_from(names))] for _ in range(pairs)]
    if draw(_rarely(False, True)):
        relation.append(draw(st.sampled_from([["ghost", names[0]], [draw(element), "nosuch"]])))
    return {
        "dim": dim, "domain": domain, "subspaces": spaces, "projectors": projectors,
        "unitaries": unitaries, "relation": relation,
    }


@settings(max_examples=150, deadline=None)
@given(structure_json())
@example({"dim": 1, "domain": [], "subspaces": {}, "projectors": {}, "unitaries": {}, "relation": []})
# the base axioms hold, but the projector onto the full space lowers m1's least member
@example({
    "dim": 2, "domain": ["m0", "m1"],
    "subspaces": {
        "top": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], "bot": [], "p": [],
        "q": [[[0, 0], [0, 1]]], "dup": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    },
    "projectors": {"dup": {"m0": "m0", "m1": "m0"}}, "unitaries": {},
    "relation": [["m0", "dup"], ["m1", "dup"], ["m0", "q"], ["m0", "top"], ["m1", "top"]],
})
def test_structure_json_from_scratch(data):
    with tempfile.TemporaryDirectory() as tmp:
        f = pathlib.Path(tmp) / "structure.json"
        f.write_text(json.dumps(data))
        for command in ("model-check", "kappa"):
            assert _exit_code([command, str(f)]) in (0, 1, 2)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SENTENCE_FILES), st.data())
def test_sentence_file_with_a_hostile_token(source, data):
    text = "\n".join(line.split("#", 1)[0] for line in source.read_text().splitlines())
    tokens = list(_TOKEN.finditer(text))
    token = tokens[data.draw(st.integers(0, len(tokens) - 1), label="token")]
    piece = data.draw(st.sampled_from(HOSTILE_PIECES), label="piece")
    with tempfile.TemporaryDirectory() as tmp:
        f = pathlib.Path(tmp) / source.name
        f.write_text(text[: token.start()] + piece + text[token.end():])
        for command in ("decide", "circuit"):
            assert _exit_code([command, str(f)]) in (0, 1, 2)


@pytest.mark.parametrize("emit", ["text", "json"])
@pytest.mark.parametrize("oracle", ["f-steps", "collapse"])
@pytest.mark.parametrize("a", HOSTILE_NUMBERS)
def test_chain_oracle_with_a_hostile_start(oracle, a, emit):
    assert _exit_code(["oracle", oracle, "--emit", emit, "--", a]) == 2


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(HOSTILE_NUMBERS + ["0.5"]),
    st.sampled_from(HOSTILE_NUMBERS + ["0.3"]),
    st.sampled_from(HOSTILE_NUMBERS + ["0.2"]),
    st.sampled_from(HOSTILE_NUMBERS + ["1e-9"]),
    st.sampled_from(["text", "json"]),
)
@example("0.6", "0.6", "5e-5", "1e-9", "text")  # the tolerance band: orthogonal, off the ellipse
def test_ellipse_oracle_with_hostile_numbers(a, x, y, tol, emit):
    argv = ["oracle", "ellipse", "--emit", emit, f"--tol={tol}", "--", a, x, y]
    assert _exit_code(argv) in (0, 1, 2)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["f-steps", "ellipse", "collapse"]),
       st.lists(st.sampled_from(HOSTILE_NUMBERS + HOSTILE_PIECES), max_size=4))
def test_oracle_arguments_without_a_separator(oracle, args):
    assert _exit_code(["oracle", oracle, *args]) in (0, 1, 2)
