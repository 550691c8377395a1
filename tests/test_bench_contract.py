"""The benchmark in ``perfbench/`` looks pqm names up by module and
attribute, outside the package.  A rename that drops one of them breaks
only a benchmark run, so each is resolved here against ``import pqm``.

The tracer's span table is read by import; the workloads, ``worker.py``
and ``reference.py`` are read with ``ast``, and every attribute chain
that starts at a pqm module is followed:

* ``name = importlib.import_module("pqm.x")``, then ``name.attr``;
* ``sys.modules["pqm.x"].attr`` (a module that ``import pqm`` loads);
* ``pqm.x.attr`` after ``import pqm`` or ``import pqm.x``, walked as the
  interpreter walks it, from the package's attributes;
* a name bound to one of these, and the tracer's ``_patch(owner, "attr")``.
"""

import ast
import importlib
import importlib.util
import pathlib
import sys

import pytest

import pqm  # noqa: F401  (loads the modules the benchmark looks names up in)

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = [
    PERFBENCH / "tracer.py",
    PERFBENCH / "worker.py",
    PERFBENCH / "reference.py",
    *sorted((PERFBENCH / "workloads").glob("*.py")),
]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


def _chain(node, bases):
    """(how the root is found, root module, attribute names), or None
    when ``node`` does not start at a pqm module."""
    if isinstance(node, ast.Name):
        return bases.get(node.id)
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "import_module"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and str(node.args[0].value).startswith("pqm")
    ):
        return ("import", node.args[0].value, ())
    if (
        isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Constant)
        and str(node.slice.value).startswith("pqm")
    ):
        return ("loaded", node.slice.value, ())
    if isinstance(node, ast.Attribute):
        base = _chain(node.value, bases)
        if base is not None:
            return base[0], base[1], base[2] + (node.attr,)
    return None


def _lookups(path: pathlib.Path) -> set:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "pqm" for a in node.names):
            bases["pqm"] = ("package", "pqm", ())
    # two passes, so a name bound from another bound name is known
    for _ in range(2):
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                chain = _chain(node.value, bases)
                if isinstance(target, ast.Name) and chain is not None:
                    bases[target.id] = chain
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain = _chain(node, bases)
            if chain is not None:
                found.add(chain)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_patch"
            and isinstance(node.args[1], ast.Constant)
        ):
            owner = _chain(node.args[0], bases)
            if owner is not None:
                found.add((owner[0], owner[1], owner[2] + (node.args[1].value,)))
    return found


LOOKUPS = sorted(
    (path.relative_to(PERFBENCH).as_posix(), chain) for path in SOURCES for chain in _lookups(path)
)


def _resolve(how: str, root: str, attrs: tuple):
    if how == "import":
        obj = importlib.import_module(root)
    else:
        assert root in sys.modules, f"{root} is not loaded by import pqm"
        obj = sys.modules[root]
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("module, attr", sorted({**TRACER.SPANS, **TRACER.SPAN_OVERRIDES}))
def test_traced_function_resolves(module, attr):
    # the tracer finds modules among those that import pqm loaded
    assert module in sys.modules, f"{module} is not loaded by import pqm"
    assert callable(getattr(sys.modules[module], attr))


@pytest.mark.parametrize(
    "source, chain", LOOKUPS, ids=[f"{s}:{c[1]}.{'.'.join(c[2])}" for s, c in LOOKUPS]
)
def test_benchmark_lookup_resolves(source, chain):
    _resolve(*chain)


def test_lookups_cover_the_known_entry_points():
    names = {(c[1], *c[2]) for _, c in LOOKUPS}
    for expected in [
        ("pqm", "decide", "check_axiom_suite"),
        ("pqm.normalize", "combo_size"),
        ("pqm.subspace", "Subspace", "__post_init__"),
        ("pqm.structures", "FiniteStructure", "symbol_of"),
        ("pqm.cli", "main"),
        ("pqm.lang", "parse_problem"),
        ("pqm", "meet"),
    ]:
        assert expected in names
