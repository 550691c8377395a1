"""Command line interface: exit codes, output channels, JSON determinism."""

import hashlib
import json
import shutil
import subprocess
import tracemalloc

import numpy as np
import pytest

from pqm import cli
from pqm.axioms import CheckReport, CheckResult
from pqm.cli import main
from pqm.lang import MAX_DIM, MAX_ELEMENTS, MAX_FORMULA_DEPTH, MAX_UNITARIES
from pqm.subspace import InternalInvariantError

from test_structures import tiny_structure_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_true_sentence_exits_zero(samples_dir, capsys):
    code, out, err = run(capsys, "decide", str(samples_dir / "bell.pqm"))
    assert code == 0
    assert out.splitlines()[0] == "true"
    assert err == ""


def test_decide_false_sentence_exits_one(samples_dir, capsys):
    code, out, _ = run(capsys, "decide", str(samples_dir / "contradiction.pqm"))
    assert code == 1
    assert out.splitlines()[0] == "false"


def test_decide_trace_lists_branches(samples_dir, capsys):
    code, out, _ = run(capsys, "decide", "--trace", str(samples_dir / "bell.pqm"))
    assert code == 0
    assert any(line.startswith("branch 0:") for line in out.splitlines())


def test_decide_emits_normal_form_on_request(tmp_path, capsys):
    f = tmp_path / "imp.pqm"
    f.write_text("dim 3\nlet p = span{(1,0,0)}\nassert forall x . [x : p] -> [x : p]\n")
    code, out, _ = run(capsys, "decide", "--emit-normal-form", str(f))
    assert code == 0
    assert any(line.startswith("normal form:") for line in out.splitlines())


def test_decide_json_payload_shape(samples_dir, capsys):
    code, out, _ = run(
        capsys, "decide", "--emit", "json", "--trace", str(samples_dir / "bell.pqm")
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 2
    assert payload["command"] == "decide"
    assert payload["truth"] is True
    assert payload["leaves"]
    assert all(leaf["occurrences"] >= 1 for leaf in payload["leaves"])


def test_circuit_reachable_output_exits_zero(samples_dir, capsys):
    code, out, _ = run(capsys, "circuit", str(samples_dir / "bell_circuit.pqm"))
    assert code == 0
    assert "possible" in out.splitlines()


def test_circuit_impossible_output_exits_one(samples_dir, capsys):
    code, out, _ = run(capsys, "circuit", str(samples_dir / "bell_circuit_impossible.pqm"))
    assert code == 1
    assert "impossible" in out.splitlines()


def test_circuit_trace_reports_each_step(samples_dir, capsys):
    code, out, _ = run(capsys, "circuit", "--trace", str(samples_dir / "bell_circuit.pqm"))
    assert code == 0
    steps = [line for line in out.splitlines() if line.startswith("after ")]
    assert len(steps) == 3


def test_model_check_accepts_committed_sample(samples_dir, capsys):
    code, out, _ = run(capsys, "model-check", str(samples_dir / "model3.json"))
    assert code == 0
    assert out.splitlines()[0] == "verdict: model"


def test_model_check_rejects_gapped_structure(tmp_path, capsys):
    f = tmp_path / "gap.json"
    f.write_text(json.dumps(tiny_structure_json()))
    code, out, _ = run(capsys, "model-check", str(f))
    assert code == 1
    assert "no least filter member" in out


def test_kappa_lists_least_members(samples_dir, capsys):
    code, out, _ = run(capsys, "kappa", str(samples_dir / "model3.json"))
    assert code == 0
    assert len(out.splitlines()) == 16


def test_kappa_flags_missing_least_member(tmp_path, capsys):
    f = tmp_path / "gap.json"
    f.write_text(json.dumps(tiny_structure_json()))
    code, out, _ = run(capsys, "kappa", str(f))
    assert code == 1
    assert "no least filter member" in out


def test_kappa_prints_a_least_member_named_by_the_empty_string(tmp_path, capsys):
    f = tmp_path / "empty_name.json"
    f.write_text(json.dumps({"dim": 1, "domain": ["m"], "subspaces": {"": [[[1, 0]]], "bot": []},
                             "relation": [["m", ""]]}))
    code, out, _ = run(capsys, "kappa", str(f))
    assert (code, out) == (0, "m: \n")
    code, out, _ = run(capsys, "kappa", "--emit", "json", str(f))
    assert json.loads(out)["elements"]["m"]["symbol"] == ""


def test_kappa_single_element_and_unknown_element(tmp_path, capsys):
    f = tmp_path / "gap.json"
    f.write_text(json.dumps(tiny_structure_json()))
    code, out, _ = run(capsys, "kappa", "--element", "m", str(f))
    assert code == 1
    assert out.splitlines() == ["m: no least filter member (minimal pair p, q)"]

    code, _, err = run(capsys, "kappa", "--element", "ghost", str(f))
    assert code == 2
    assert err.startswith("error:")


def test_missing_file_is_a_usage_error(capsys):
    code, out, err = run(capsys, "decide", "/nonexistent/void.pqm")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_syntax_error_reports_position(tmp_path, capsys):
    f = tmp_path / "bad.pqm"
    f.write_text("dim 3\nassert exists x . [x :\n")
    code, _, err = run(capsys, "decide", str(f))
    assert code == 2
    assert "3:1:" in err  # EOF right after the dangling colon


DEEP_HEAD = "dim 3\nlet p = span{(1,0,0)}\nassert "


@pytest.mark.parametrize("sentence", [
    "exists x . " + "~" * 5000 + "[x : p]",
    "exists x . " + "(" * 5000 + "[x : p]" + ")" * 5000,
    "exists x . " + " & ".join(["[x : p]"] * 5000),
], ids=["negations", "parentheses", "conjuncts"])
def test_overdeep_sentence_is_a_usage_error(tmp_path, capsys, sentence):
    f = tmp_path / "deep.pqm"
    f.write_text(DEEP_HEAD + sentence + "\n")
    code, out, err = run(capsys, "decide", str(f))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: 3:")
    assert f"deeper than {MAX_FORMULA_DEPTH}" in err


def test_sentence_at_depth_bound_decides(tmp_path, capsys):
    # exists, the atom bracket and the variable are three of the levels
    f = tmp_path / "deep.pqm"
    f.write_text(DEEP_HEAD + "exists x . " + "~" * (MAX_FORMULA_DEPTH - 3) + "[x : p]\n")
    code, out, err = run(capsys, "decide", str(f))
    assert code in (0, 1)
    assert err == ""


@pytest.mark.parametrize("dim", ["1e400", "100000000", str(MAX_DIM + 1)])
def test_out_of_range_dim_is_a_usage_error(tmp_path, capsys, dim):
    f = tmp_path / "big.pqm"
    f.write_text(f"dim {dim}\nassert exists x . [x : top]\n")
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "decide", str(f))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: 1:5:")
    assert f"from 1 to {MAX_DIM}" in err
    # rejected before any dim x dim array exists: the full space at
    # MAX_DIM + 1 alone would take 16 MiB
    assert peak < 2**20


@pytest.mark.parametrize("command", ["check-axioms", "check-rules"])
@pytest.mark.parametrize("dim", ["0", str(MAX_DIM + 1)])
def test_out_of_range_dim_option_is_rejected(capsys, command, dim):
    code, _, err = run(capsys, command, "--dim", dim)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "argument --dim" in err


@pytest.mark.parametrize("command", ["check-axioms", "check-rules"])
def test_negative_seed_is_rejected(capsys, command):
    code, out, err = run(capsys, command, "--dim", "2", "--seed=-1")
    assert code == 2
    assert out == ""
    assert err == f"error: pqm {command}: argument --seed: must be at least 0\n"


@pytest.mark.parametrize("option", ["--seed", "--samples", "--dim"])
def test_non_integer_option_is_one_diagnostic(capsys, option):
    argv = ["--dim", "x"] if option == "--dim" else ["--dim", "2", option, "x"]
    code, out, err = run(capsys, "check-rules", *argv)
    assert code == 2
    assert out == ""
    # the message names the option, not the Python function that reads it
    assert err == f"error: pqm check-rules: argument {option}: expected an integer, got 'x'\n"


def test_decide_at_dim_256(tmp_path, capsys):
    """decide end to end near the top of its dim range: two rank-128 spans,
    p and q = U^H p, and a unitary U, so that the sentence holds by
    construction."""
    dim = 256
    rng = np.random.default_rng(256)
    u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    p = rng.normal(size=(dim // 2, dim)) + 1j * rng.normal(size=(dim // 2, dim))
    q = p @ u.conj()  # row k is U^H applied to row k of p

    def block(rows: np.ndarray) -> str:
        return ", ".join("(" + ", ".join(map("{0.real!r}{0.imag:+}i".format, r)) + ")" for r in rows.tolist())

    f = tmp_path / "dim256.pqm"
    f.write_text(
        f"dim {dim}\nlet p = span{{{block(p)}}}\nlet q = span{{{block(q)}}}\n"
        f"let U = matrix{{{block(u)}}}\nassert forall x . [U(x) : p] <-> [x : q]\n"
    )
    assert run(capsys, "decide", str(f)) == (0, "true\n", "")


def test_corrupt_structure_json_is_a_usage_error(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    code, _, err = run(capsys, "model-check", str(f))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("command", ["model-check", "kappa"])
def test_structure_past_the_element_bound_is_one_diagnostic(tmp_path, capsys, command):
    data = tiny_structure_json()
    data["domain"] = [f"m{k}" for k in range(MAX_ELEMENTS + 1)]
    f = tmp_path / "large.json"
    f.write_text(json.dumps(data))
    assert run(capsys, command, str(f)) == (
        2, "", f"error: domain: {MAX_ELEMENTS + 1} elements, more than the {MAX_ELEMENTS} accepted\n"
    )


@pytest.mark.parametrize("command", ["model-check", "kappa"])
def test_structure_past_the_unitary_bound_is_one_diagnostic(tmp_path, capsys, command):
    data = tiny_structure_json()
    data["unitaries"] = {f"u{k}": {"matrix": None, "table": {}} for k in range(MAX_UNITARIES + 1)}
    f = tmp_path / "many.json"
    f.write_text(json.dumps(data))
    assert run(capsys, command, str(f)) == (
        2, "", f"error: unitaries: {MAX_UNITARIES + 1} unitaries, more than the {MAX_UNITARIES} accepted\n"
    )


def test_validation_issues_all_reach_stderr(tmp_path, capsys):
    data = tiny_structure_json()
    data["relation"].append(["ghost", "p"])
    data["relation"].append(["m", "nosuch"])
    f = tmp_path / "invalid.json"
    f.write_text(json.dumps(data))
    code, out, err = run(capsys, "model-check", str(f))
    assert code == 2
    assert out == ""
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 2


@pytest.mark.parametrize("path, value, message", [
    (("relation", 0, 1), ["top"], "relation[0]: expected two names"),
    (("relation", 0, 0), {"m": 1}, "relation[0]: expected two names"),
    (("subspaces", "s1", 0, 0, 0), 10**400, "subspaces.s1[0][0]: expected finite numbers"),
    (("subspaces", "s1", 0, 1, 1), float("inf"), "subspaces.s1[0][1]: expected finite numbers"),
    (("unitaries", "cycle", "matrix", 0, 0, 0), float("nan"),
     "unitaries.cycle.matrix[0][0]: expected finite numbers"),
    (("unitaries", "swap", "matrix", 2, 1, 1), float("-inf"),
     "unitaries.swap.matrix[2][1]: expected finite numbers"),
], ids=["relation-list", "relation-object", "huge-integer", "infinite-vector",
        "nan-matrix", "infinite-matrix"])
@pytest.mark.parametrize("command", ["model-check", "kappa"])
def test_malformed_structure_value_is_a_usage_error(
    samples_dir, tmp_path, capsys, command, path, value, message
):
    data = json.loads((samples_dir / "model3.json").read_text())
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(data))
    code, out, err = run(capsys, command, str(f))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {message}, got ")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry, message", [
    ([float("nan"), 0], "unitaries.cycle.matrix[0][0]: expected finite numbers, got [nan, 0]"),
    ([1e308, 0], "unitaries.cycle.matrix: matrix is not unitary: max-norm deviation inf"),
], ids=["nan", "overflow"])
@pytest.mark.parametrize("command", ["model-check", "kappa"])
def test_bad_unitary_entry_is_one_diagnostic(samples_dir, tmp_path, capsys, command, entry, message):
    # a rejected entry is not reported again as a non-unitary matrix, and
    # an overflowing one raises no numpy warning (an error here)
    data = json.loads((samples_dir / "model3.json").read_text())
    data["unitaries"]["cycle"]["matrix"][0][0] = entry
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(data))
    code, out, err = run(capsys, command, str(f))
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, rows, deviation", [
    ("decide", "(1e308, 0), (0, 1)", "inf"),
    ("circuit", "(1e308, 0), (0, 1)", "inf"),
    ("decide", "(1e308+1e308i, 1e308), (1e308, 1)", "nan"),
], ids=["decide", "circuit", "nan-deviation"])
def test_overflowing_matrix_is_one_diagnostic(tmp_path, capsys, command, rows, deviation):
    use = "assert exists x . [U(x) : top]" if command == "decide" else "circuit = [U]"
    f = tmp_path / "big.pqm"
    f.write_text(f"dim 2\nlet U = matrix{{{rows}}}\n{use}\n")
    code, out, err = run(capsys, command, str(f))
    assert code == 2
    assert out == ""
    assert err == f"error: matrix 'U' is not unitary: max-norm deviation {deviation}\n"


@pytest.mark.parametrize("text", [
    '{"dim": ' + "1" * 5000 + "}",
    "[" * 100_000 + "]" * 100_000,
], ids=["over-long-integer", "over-deep-nesting"])
def test_unreadable_structure_json_is_a_usage_error(tmp_path, capsys, text):
    f = tmp_path / "bad.json"
    f.write_text(text)
    code, out, err = run(capsys, "model-check", str(f))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: unreadable JSON: ")


@pytest.mark.parametrize("command, definition, use", [
    ("decide", "U = matrix{(1e400, 0), (0, 1)}", "assert exists x . [U(x) : top]"),
    ("decide", "p = span{(1e400, 0)}", "assert exists x . [x : p]"),
    ("decide", "p = span{(" + "9" * 400 + ", 1)}", "assert exists x . [x : p]"),
    ("circuit", "U = matrix{(1, 0), (0, -1e400i)}", "circuit = [U]"),
    ("circuit", "p = span{(0, 1+1e400i)}", "circuit = [proj[p]]"),
], ids=["matrix", "span", "long-literal", "circuit-matrix", "circuit-span"])
def test_non_finite_definition_is_a_usage_error(tmp_path, capsys, command, definition, use):
    f = tmp_path / "inf.pqm"
    f.write_text(f"dim 2\nlet {definition}\n{use}\n")
    code, out, err = run(capsys, command, str(f))
    name = definition.split()[0]
    assert code == 2
    assert out == ""
    assert err == f"error: in {name!r}: entries must be finite numbers\n"


def test_undecodable_file_is_a_usage_error(tmp_path, capsys):
    f = tmp_path / "binary.pqm"
    f.write_bytes(b"\x80\x81dim 3\n")
    code, out, err = run(capsys, "decide", str(f))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("char", ["é", "²", "٣"], ids=["letter", "superscript", "arabic-indic"])
def test_non_ascii_character_is_a_lexical_error(tmp_path, capsys, char):
    f = tmp_path / "wide.pqm"
    f.write_text(f"dim 3 {char}\n", encoding="utf-8")
    code, out, err = run(capsys, "decide", str(f))
    assert code == 2
    assert out == ""
    assert err == f"error: 1:7: unexpected character {char!r}\n"


def test_internal_invariant_exits_three(tmp_path, capsys, monkeypatch):
    f = tmp_path / "gap.json"
    f.write_text(json.dumps(tiny_structure_json()))

    def boom(path):
        raise InternalInvariantError("forced for the exit-code contract")

    monkeypatch.setattr(cli, "load_structure", boom)
    code, _, err = run(capsys, "model-check", str(f))
    assert code == 3
    assert err.startswith("internal invariant violated:")


# main() reached through the decider and through a suite
_RAISING_ENTRY_POINTS = pytest.mark.parametrize("entry, argv", [
    ("evaluate", ["decide", "bell.pqm"]),
    ("check_rule_suite", ["check-rules", "--dim", "2", "--samples", "1"]),
], ids=["decide", "check-rules"])


@_RAISING_ENTRY_POINTS
@pytest.mark.parametrize("exc, code, line", [
    (MemoryError(), 2, "error: the input is too large to process in the memory available"),
    (IndexError("index 3 is out of bounds\nfor axis 0"),
     3, "internal error: IndexError('index 3 is out of bounds\\nfor axis 0')"),
    (np.linalg.LinAlgError("SVD did not converge"), 3, "internal error: LinAlgError('SVD did not converge')"),
], ids=["memory", "index", "linalg"])
def test_an_unexpected_exception_is_one_line_and_never_a_verdict(
        samples_dir, capsys, monkeypatch, entry, argv, exc, code, line):
    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, entry, boom)
    argv = [str(samples_dir / a) if a.endswith(".pqm") else a for a in argv]
    assert run(capsys, *argv) == (code, "", line + "\n")


@_RAISING_ENTRY_POINTS
def test_an_interrupt_is_not_caught(samples_dir, monkeypatch, entry, argv):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, entry, interrupt)
    with pytest.raises(KeyboardInterrupt):
        main([str(samples_dir / a) if a.endswith(".pqm") else a for a in argv])


def test_check_axioms_clean_run(capsys):
    code, out, _ = run(capsys, "check-axioms", "--dim", "2", "--samples", "40", "--seed", "1")
    assert code == 0
    assert out.splitlines()[-1] == "OK"


def test_check_rules_with_derived_axioms(capsys):
    code, out, _ = run(
        capsys,
        "check-rules",
        "--dim",
        "2",
        "--samples",
        "40",
        "--seed",
        "1",
        "--derived-axioms",
        "--derived-samples",
        "25",
    )
    assert code == 0
    assert out.splitlines()[-1] == "OK"
    assert any(line.startswith("derived ") for line in out.splitlines())


def test_check_rules_totals_count_derived_violations(capsys, monkeypatch):
    broken = CheckReport(
        {"dim": 2},
        {"subspaces": (
            CheckResult("stub-law", 5, 5, 2, skipped=1),
            CheckResult("stub-note", 5, 5, 4, informational=True),
        )},
    )
    monkeypatch.setattr(cli, "check_axioms_from_rules", lambda dim, samples, seed: broken)
    argv = ["check-rules", "--dim", "2", "--samples", "10", "--seed", "1", "--derived-axioms"]
    code, out, _ = run(capsys, *argv, "--emit", "json")
    payload = json.loads(out)
    assert code == 1
    assert payload["ok"] is False
    assert payload["total_violations"] == 2  # the rule suite itself has none
    assert payload["total_skipped"] == 1
    assert payload["derived_axioms"]["total_violations"] == 2


def test_json_output_is_byte_identical_across_runs(capsys):
    argv = ["check-axioms", "--dim", "2", "--samples", "25", "--seed", "3", "--emit", "json"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    assert json.loads(first)["schema"] == 2


def test_oracle_f_steps(capsys):
    code, out, _ = run(capsys, "oracle", "f-steps", "0.5")
    assert code == 0
    assert out.splitlines()[0] == "steps: 3"

    code, _, err = run(capsys, "oracle", "f-steps", "1.5")
    assert code == 2
    assert err.startswith("error:")


def test_oracle_ellipse_hit_and_miss(capsys):
    code, out, _ = run(capsys, "oracle", "ellipse", "0.6", "0.6", "0.0")
    assert code == 0
    assert "orthogonal" in out.splitlines()

    code, out, _ = run(capsys, "oracle", "ellipse", "0.6", "0.59", "0.0")
    assert code == 1
    assert "not orthogonal" in out.splitlines()


def test_oracle_incompat_paths(tmp_path, capsys):
    f = tmp_path / "defs.pqm"
    f.write_text(
        "dim 3\n"
        "let r1 = span{(1,0,0)}\n"
        "let r2 = span{(1,1,0)}\n"
        "let e1 = span{(1,0,0)}\n"
        "let e2 = span{(0,1,0)}\n"
    )
    code, out, _ = run(capsys, "oracle", "incompat", str(f), "r1", "r2")
    assert code == 0
    assert "mediator rank: 2" in out.splitlines()

    code, out, _ = run(capsys, "oracle", "incompat", str(f), "e1", "e2")
    assert code == 1
    assert out.splitlines() == ["compatible"]
    code, out, _ = run(capsys, "oracle", "incompat", str(f), "e1", "e2", "--emit", "json")
    assert code == 1
    assert json.loads(out) == {"schema": 2, "command": "oracle", "oracle": "incompat", "compatible": True}

    code, _, err = run(capsys, "oracle", "incompat", str(f), "r1", "ghost")
    assert code == 2
    assert "ghost" in err


def test_oracle_collapse(capsys):
    code, out, _ = run(capsys, "oracle", "collapse", "0.5")
    assert code == 0
    assert out.splitlines()[0] == "rounds: 3"


def test_unknown_flag_is_rejected(capsys):
    code, _, err = run(capsys, "decide", "--no-such-flag", "x.pqm")
    assert code == 2
    assert err == "error: pqm: unrecognized arguments: --no-such-flag\n"


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["decide"],
        ["nosuch"],
        ["oracle"],
        ["oracle", "ellipse", "0.5", "-inf", "0"],
        ["oracle", "f-steps", "half"],
        ["kappa", "x.json", "--emit", "xml"],
    ],
)
def test_usage_error_is_one_diagnostic(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: pqm") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["-h"], ["decide", "-h"], ["oracle", "ellipse", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: pqm")


def test_installed_entry_point(samples_dir):
    exe = shutil.which("pqm")
    assert exe is not None
    proc = subprocess.run(
        [exe, "decide", str(samples_dir / "bell.pqm")], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "true"


SAMPLE_OUTPUTS_SHA256 = {
    "decide": "2e460b58454aad9ff6b5adae309bf85be63fed23cb35ff86d2cea9110c837502",
    "circuit": "ad33f74de2a66df329375dde7abb7c9e6b37246630308f81f80576248311fbba",
    "model-check": "57ac407b65a50a0f3e69666d365daa92eaa3da5861f3b80c1f358b71c154f565",
    "kappa": "64f5138af7f5304203fb08965b2c103a8d2b705ab93dc6af00eab5b0f83fffff",
    "check-axioms": "ab956a1888feb54d677e6092b15e0e9238a68d72ec465c120257271e74afa447",
    "check-rules": "325f88316fe0cdf3ef05eee9c86089c36bfa4cd8878390bae30b12f4c4d445e4",
    "oracle": "0a1936ba1140942e0d911c88b9658dd08e104e83e29313c0b22dc44ae4485e2a",
}


def _sample_runs(samples_dir, tmp_path) -> dict[str, list[list[str]]]:
    """Each subcommand's argv set over ``samples/``."""
    defs = tmp_path / "defs.pqm"
    defs.write_text("dim 3\nlet r1 = span{(1,0,0)}\nlet r2 = span{(1,1,0)}\nlet r3 = span{(0,1,0)}\n")
    path, suite = lambda name: str(samples_dir / name), ["--dim", "2", "--samples", "20"]
    return {
        "decide": [["decide", *f, path(p)] for p in ("bell.pqm", "contradiction.pqm")
                   for f in ([], ["--trace"], ["--emit-normal-form"], ["--trace", "--emit-normal-form"])],
        "circuit": [["circuit", *f, path(c)] for f in ([], ["--trace"])
                    for c in ("bell_circuit.pqm", "bell_circuit_impossible.pqm")],
        "model-check": [["model-check", path("model3.json")]],
        "kappa": [["kappa", path("model3.json")]],
        "check-axioms": [["check-axioms", *suite]],
        "check-rules": [["check-rules", *suite, "--derived-axioms"]],
        "oracle": [["oracle", *o.split()] for o in (
            "f-steps 0.5", "ellipse 0.6 0.6 0.0", "ellipse 0.6 0.59 0.0", "collapse 0.5")]
        + [["oracle", "incompat", str(defs), "r1", r] for r in ("r2", "r3")],
    }


def test_sample_outputs_are_pinned(samples_dir, tmp_path, capsys):
    """The sha256 of the exit code, stdout and stderr of each run, in text
    and in JSON, of each subcommand's argv set over ``samples/``.  JSON
    output holds subspace bases as LAPACK returns them, so another LAPACK
    build may change the digests.  A deliberate change of output records
    new digests here and says so in CHANGES.md."""
    emit = ([], ["--emit", "json"])
    outputs = {c: repr([run(capsys, *a, *e) for a in argvs for e in emit])
               for c, argvs in _sample_runs(samples_dir, tmp_path).items()}
    assert {c: hashlib.sha256(o.encode()).hexdigest() for c, o in outputs.items()} == SAMPLE_OUTPUTS_SHA256


def test_every_sample_run_emits_one_json_envelope(samples_dir, tmp_path, capsys):
    for command, argvs in _sample_runs(samples_dir, tmp_path).items():
        for argv in argvs:
            _, out, _ = run(capsys, *argv, "--emit", "json")
            payload = json.loads(out)  # one object, nothing after it
            assert isinstance(payload, dict), argv
            assert (payload["schema"], payload["command"]) == (2, command), argv
            if command == "oracle":
                assert payload["oracle"] == argv[1], argv
