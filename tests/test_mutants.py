"""The mutant list that ``tests/mutate.py`` runs still applies to the tree,
and the runner's ``--only`` runs just the named mutants."""

import json
from pathlib import Path

import mutate
from _mutants import MUTANTS, SUBSETS

ROOT = Path(__file__).resolve().parent.parent


def test_each_mutant_applies_exactly_once():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert (ROOT / m.file).read_text().count(m.old) == 1, m.name
        assert m.old != m.new, m.name
        assert m.expected in ("killed", "equivalent"), m.name
        assert bool(m.why) == (m.expected == "equivalent"), m.name
        assert all((ROOT / t).is_file() for t in SUBSETS[m.file]), m.name


def test_only_an_unknown_mutant_exits_two_and_lists_the_known(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert mutate.main(["--out", str(out), "--only", f"{MUTANTS[0].name},no-such-mutant"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown mutant no-such-mutant; known: ")
    assert all(m.name in err for m in MUTANTS)
    assert not out.exists()


def test_only_runs_the_named_mutants_and_their_baselines(tmp_path, monkeypatch):
    runs = []

    def fake_run(files, tests, deselect, mutant=None):
        runs.append((tests, mutant and mutant.name))
        return (0 if mutant is None or mutant.expected == "equivalent" else 1), [], 0.0

    monkeypatch.setattr(mutate, "_tree_files", lambda: [])
    monkeypatch.setattr(mutate, "_run", fake_run)
    chosen = [m for m in MUTANTS if m.file == "src/pqm/cli.py"][:2]
    out = tmp_path / "report.json"
    assert mutate.main(["--out", str(out), "--only", ",".join(m.name for m in reversed(chosen))]) == 0
    tests = SUBSETS["src/pqm/cli.py"]
    assert runs == [(tests, None)] + [(tests, m.name) for m in chosen]
    report = json.loads(out.read_text())
    assert report["partial"] is True and report["only"] == [m.name for m in chosen]
    assert [r["name"] for r in report["mutants"]] == [m.name for m in chosen]


def test_operator_scan_lists_each_site_and_mutates_only_the_chosen_one():
    source = "def f(a, b):\n    return not (a < b and b == 2)\n"
    assert mutate.operator_sites(source) == [
        (2, "Lt -> LtE"), (2, "2 -> 3"), (2, "Eq -> NotEq"), (2, "And -> Or"), (2, "drop Not"),
    ]
    assert mutate.operator_mutant(source, 1) == "def f(a, b):\n    return not (a < b and b == 3)"
    assert mutate.operator_mutant(source, 4) == "def f(a, b):\n    return a < b and b == 2"


def test_sample_runs_the_drawn_mutants_and_leaves_survivors_unclassified(tmp_path, monkeypatch):
    runs = []

    def fake_run(files, tests, deselect, mutant=None):
        # the listed mutant is killed, every sampled one (named file:line:site) survives
        runs.append(mutant and mutant.name)
        return (1 if mutant is not None and ":" not in mutant.name else 0), [], 0.0

    monkeypatch.setattr(mutate, "_tree_files", lambda: [])
    monkeypatch.setattr(mutate, "_run", fake_run)
    listed = next(m for m in MUTANTS if m.file == "src/pqm/cli.py" and m.expected == "killed")
    drawn = mutate.sample_mutants(["src/pqm/cli.py"], 3, 7)
    out = tmp_path / "report.json"
    argv = ["--out", str(out), "--only", listed.name, "--sample", "3", "--seed", "7", "--files", "src/pqm/cli.py"]
    assert mutate.main(argv) == 0
    assert runs == [None, listed.name] + [m.name for m, _, _ in drawn]
    sample = json.loads(out.read_text())["sample"]
    assert [r["name"] for r in sample["mutants"]] == [m.name for m, _, _ in drawn]
    assert {r["result"] for r in sample["mutants"]} == {"unclassified"}
    assert (sample["killed"], sample["unclassified"], sample["score"]) == (0, 3, 0.0)
    for m, line, change in drawn:
        assert m.old == (ROOT / m.file).read_text() and m.new != m.old and m.expected == "killed"
