"""Hostile input through ``main()``: every run exits 0, 1 or 2 and raises nothing.

Two mutators, each bounded in examples so the file runs in seconds:

* ``samples/model3.json`` with one node (an object value, a list item or
  the whole document) replaced by a value from a fixed hostile set, run
  through ``model-check`` and ``kappa``;
* each ``samples/*.pqm`` with one token replaced by a hostile piece,
  run through ``decide`` and ``circuit``.
"""

import contextlib
import io
import json
import pathlib
import re
import tempfile

from hypothesis import given, settings, strategies as st

from pqm.cli import main

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"

HOSTILE_VALUES = [
    float("nan"), float("inf"), float("-inf"), 10**400, 1e308, -1e308, 0, 2.5,
    [], [1, 2], [[0, 0]], {}, {"a": 1}, "", "top", "bot_0", None, True, False,
]

HOSTILE_PIECES = [
    "1e400", "9" * 400, "0", "2.5", "-", "+", "i", "2i", "(", ")", "[", "]", "{", "}",
    ",", ":", ".", "=", "~", "&", "|", "->", "<->", "#", "let", "dim", "span",
    "matrix", "exists", "forall", "proj", "circuit", "input", "top", "bot", "x", "",
]

# Numbers with their imaginary suffix, words, two-character operators,
# then any other single character; comments are dropped first.
_TOKEN = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?i?|[A-Za-z_]\w*|<->|->|\S")

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
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(MODEL3_PATHS), st.sampled_from(HOSTILE_VALUES))
def test_structure_json_with_a_hostile_node(path, value):
    with tempfile.TemporaryDirectory() as tmp:
        f = pathlib.Path(tmp) / "structure.json"
        f.write_text(json.dumps(_replaced(path, value)))
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
