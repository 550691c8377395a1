"""Package hygiene: no unused imports in its modules, no stale ``__all__``
entry, and no reference cycles left behind by the decide and
model-check paths."""

import ast
import gc
import importlib
from pathlib import Path

import pytest

import pqm

SRC = Path(pqm.__file__).parent
# __init__.py is left out of the import scan: its imports are re-exports.
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name that is never read as a name.

    ``import a.b`` binds ``a``; ``from __future__`` imports are exempt.
    """
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_import_scan_flags_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from . import lang\n"
        "from .subspace import EQ_TOL, leq\n"
        "def f(x) -> leq:\n"
        "    return np.zeros(x) < EQ_TOL\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "lang")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    source = (SRC / f"{module}.py").read_text(encoding="utf-8")
    assert unused_imports(source) == []


@pytest.mark.parametrize("module", ["pqm"] + [f"pqm.{m}" for m in MODULES])
def test_all_names_resolve(module):
    # import_module, not attribute access: pqm.normalize is the re-exported
    # function, not the module.
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_main_paths_leave_no_reference_cycles(samples_dir):
    """With the cycle collector off, every step of ``pqm decide`` and of
    ``pqm model-check`` frees what it made by reference counting alone:
    a cycle would keep a problem's subspaces, the decider's tables and
    every verdict, or a structure and its fragment index, alive until
    the collector ran."""
    lang, normalize, decide, structures = (
        importlib.import_module(f"pqm.{m}") for m in ("lang", "normalize", "decide", "structures")
    )
    gc.collect()
    gc.disable()
    try:
        problems = [
            lang.parse_problem(path.read_text())
            for path in sorted(samples_dir.glob("*.pqm"))
            if "circuit" not in path.name
        ]
        assert problems and gc.collect() == 0
        for problem in problems:
            assert lang.validate(problem) == [] and gc.collect() == 0
            combo = normalize.normalize(problem.sentence, problem)
            assert gc.collect() == 0
            decide.evaluate(combo, problem.dim)
            assert gc.collect() == 0
        structure = structures.load_structure(samples_dir / "model3.json")
        structures.check_characterization(structure)
        assert gc.collect() == 0
    finally:
        gc.enable()
