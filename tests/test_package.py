"""Package hygiene: no unused imports in its modules, no stale ``__all__``
entry, no private helper that nothing in the package uses, no option
that no caller sets, and no reference cycles left behind by the decide
and model-check paths."""

import ast
import gc
import importlib
from pathlib import Path

import pytest

import pqm

SRC = Path(pqm.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
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


def orphaned_helpers(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) of every module-level private function or class in
    ``sources`` (module name -> source) that no code in ``sources`` reads,
    as a name or an attribute, outside the helper's own body."""
    defined, read = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            own = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and own.startswith("_") and not own.startswith("__"):
                defined.append((module, own))
            read |= {
                n.attr if isinstance(n, ast.Attribute) else n.id
                for n in ast.walk(node)
                if isinstance(n, ast.Attribute) or (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
            } - {own}
    return sorted((module, name) for module, name in defined if name not in read)


def test_orphan_scan_flags_only_unread_helpers():
    sources = {
        "a": "def _used():\n    return 1\n"
             "def _recursive(n):\n    return _recursive(n - 1)\n"
             "class _Orphan:\n    pass\n"
             "def __getattr__(name):\n    pass\n"
             "def public():\n    return _used()\n",
        "b": "from . import a\n"
             "def _by_attribute():\n    pass\n"
             "class K:\n    def _method(self):\n        pass\n",
        "c": "from . import b\nx = b._by_attribute\n",
    }
    assert orphaned_helpers(sources) == [("a", "_Orphan"), ("a", "_recursive")]


def test_no_orphaned_helpers():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert orphaned_helpers(sources) == []


def unset_options(modules: list[str], callers: list[str]) -> list[tuple[str, str]]:
    """(callee, parameter) of every defaulted parameter of a public function,
    or of a public class's ``__init__``, in the ``modules`` sources that no
    call in ``modules`` or ``callers`` passes, by keyword or by position.

    Callees are matched by name.  An argument that is a bare parameter of
    the enclosing public function or ``__init__`` sets the option only if
    that parameter is set in turn; ``*args`` and ``**kwargs`` set every
    parameter they could reach.
    """
    options: dict[tuple[str, str], int | None] = {}  # (callee, name) -> index, self not counted
    sets: list[tuple[str, tuple, tuple | None]] = []  # (callee, how, forwarded option)

    def scan_calls(node: ast.AST, encloser: str | None, own: dict) -> None:
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            callee = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            args = [(("pos", i), a) for i, a in enumerate(call.args)]
            args += [(("kw", k.arg), k.value) for k in call.keywords]
            for how, value in args:
                if isinstance(value, ast.Starred):
                    how = ("star", how[1])
                forwarded = None
                if isinstance(value, ast.Name) and value.id in own:
                    forwarded = (encloser, value.id)
                sets.append((callee, how, forwarded))

    def defaulted(fn: ast.FunctionDef, skip: int) -> dict[str, int | None]:
        a = fn.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        out = {p.arg: i - skip for i, p in enumerate(positional) if i >= first}
        out.update({p.arg: None for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None})
        return out

    for source in modules:
        tree = ast.parse(source)
        for node in tree.body:
            own, name = {}, None
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                own, name = defaulted(node, 0), node.name
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                        own, name = defaulted(item, 1), node.name
            options.update({(name, p): i for p, i in own.items()})
            scan_calls(node, name, own)
    for source in callers:
        scan_calls(ast.parse(source), None, {})

    def reaches(how: tuple, option: tuple[str, str]) -> bool:
        index = options[option]
        return (
            how == ("kw", option[1]) or how == ("kw", None)
            or (index is not None and (how == ("pos", index) or (how[0] == "star" and how[1] <= index)))
        )

    set_options: set[tuple[str, str]] = set()
    changed = True
    while changed:
        changed = False
        for callee, how, forwarded in sets:
            if forwarded is not None and forwarded not in set_options:
                continue
            for option in options:
                if option[0] == callee and option not in set_options and reaches(how, option):
                    set_options.add(option)
                    changed = True
    return sorted(set(options) - set_options)


def test_unset_option_scan_follows_forwarded_parameters():
    modules = [
        "def f(a, b=1, *, c=2, d=3):\n    return g(a, d=d)\n"
        "def g(a, d=0, e=0):\n    return a\n"
        "class K:\n    def __init__(self, rng, rays=64):\n        pass\n"
        "def _private(x=1):\n    return K(x, 8)\n"
    ]
    assert unset_options(modules, ["f(0, 5)\n"]) == [("f", "c"), ("f", "d"), ("g", "d"), ("g", "e")]
    assert unset_options(modules, ["f(0, c=1, d=1)\n", "g(*xs)\n"]) == [("f", "b")]


def test_every_option_is_set_by_some_caller():
    modules = [p.read_text(encoding="utf-8") for p in SRC.glob("*.py")]
    callers = [p.read_text(encoding="utf-8") for p in PERFBENCH.rglob("*.py")]
    assert unset_options(modules, callers) == []


def test_main_paths_leave_no_reference_cycles(samples_dir):
    """With the cycle collector off, every step of ``pqm decide`` (with its
    JSON and normal-form output) and of ``pqm model-check`` frees what it made by reference counting alone:
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
            verdict = decide.evaluate(combo, problem.dim)
            assert gc.collect() == 0
            normalize.combo_to_json(combo)
            assert gc.collect() == 0
            lang.pretty_print(normalize.combo_to_formula(combo)[0])
            assert gc.collect() == 0
            decide.verdict_to_json(verdict)
            assert gc.collect() == 0
        structure = structures.load_structure(samples_dir / "model3.json")
        structures.check_characterization(structure)
        assert gc.collect() == 0
    finally:
        gc.enable()
