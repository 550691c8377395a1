"""The mutant list that ``tests/mutate.py`` runs still applies to the tree."""

from pathlib import Path

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
