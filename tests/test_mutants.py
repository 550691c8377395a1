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
