"""In-memory span tracer that wraps pqm's public functions from outside.

``Tracer.install()`` replaces each traced function under every name a
pqm module looks it up by (``pqm.decide.meet``, ``pqm.subspace.join``,
``pqm.meet`` ...), so calls made inside the program are seen too.  Every
wrapped call records a span (name, start, end, parent span) in columnar
arrays and adds to per-name call counts, total time and self time (total
minus the time of wrapped calls nested inside it).  ``uninstall()``
restores the original objects.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

_SUBSPACE_OPS = ("meet", "join", "ortho", "leq", "eq", "sasaki_and", "sasaki_hook", "apply_unitary")
_SAMPLING = (
    "random_unitary", "random_subspace", "random_ray", "random_ray_or_bot",
    "random_subspace_within", "random_ray_within", "random_compatible_pair",
)

# (defining module, function) -> span name
SPANS = {
    ("pqm.lang", "parse_problem"): "lang.parse",
    ("pqm.lang", "parse_circuit_file"): "lang.parse",
    ("pqm.lang", "parse_definitions"): "lang.parse",
    ("pqm.lang", "validate"): "lang.validate",
    ("pqm.normalize", "normalize"): "normalize",
    ("pqm.decide", "evaluate"): "decide",
    ("pqm.decide", "decide_basic"): "decide",
    ("pqm.subspace", "ray_in_avoiding"): "decide.witness",
    **{("pqm.subspace", op): f"subspace.{op}" for op in _SUBSPACE_OPS},
    **{("pqm.sampling", fn): "sampling" for fn in _SAMPLING},
    ("pqm.axioms", "run_axiom_suite"): "axioms",
    ("pqm.circuit", "check_rule_suite"): "circuit.rules",
    ("pqm.circuit", "check_axioms_from_rules"): "circuit.derived",
    ("pqm.structures", "parse_structure_json"): "structures.load",
    ("pqm.structures", "load_structure"): "structures.load",
    ("pqm.structures", "check_structure_axioms"): "structures.axioms",
    ("pqm.structures", "check_strong_morphism"): "structures.morphism",
    ("pqm.structures", "kappa_of"): "structures.kappa",
}

# The derived-axiom suite runs the axiom loop under the projective
# semantics; that time belongs to the circuit layer, so the name the
# circuit module looks run_axiom_suite up under gets the circuit span.
SPAN_OVERRIDES = {("pqm.circuit", "run_axiom_suite"): "circuit.derived"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("H")
        self.parent_col = array("i")
        self.start_col = array("q")
        self.end_col = array("q")
        self._stack: list[int] = []
        self._child_ns: list[int] = []
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, fn, name: str, on_result=None):
        nid = self._name_id(name)
        stack, child_ns = self._stack, self._child_ns
        name_col, parent_col = self.name_col, self.parent_col
        start_col, end_col = self.start_col, self.end_col
        calls, total_ns, self_ns = self.calls, self.total_ns, self.self_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_col)
            name_col.append(nid)
            parent_col.append(stack[-1] if stack else -1)
            start_col.append(0)
            end_col.append(0)
            stack.append(idx)
            child_ns.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                nested = child_ns.pop()
                dur = t1 - t0
                start_col[idx] = t0
                end_col[idx] = t1
                if child_ns:
                    child_ns[-1] += dur
                calls[name] += 1
                total_ns[name] += dur
                self_ns[name] += dur - nested
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counter(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, on_result: dict | None = None) -> None:
        """Wrap every traced function under each pqm module name bound to it.

        ``on_result`` maps a span name to a callback that receives the
        wrapped call's return value (after the span has closed).
        """
        on_result = on_result or {}
        modules = {n: m for n, m in sys.modules.items() if n == "pqm" or n.startswith("pqm.")}
        wrappers = {}
        originals = {}
        for (mod, attr), name in SPANS.items():
            fn = getattr(modules[mod], attr)
            originals[id(fn)] = (fn, name)
        for mod_name, module in modules.items():
            for attr, value in list(vars(module).items()):
                if id(value) not in originals or originals[id(value)][0] is not value:
                    continue
                name = SPAN_OVERRIDES.get((mod_name, attr), originals[id(value)][1])
                key = (id(value), name)
                if key not in wrappers:
                    wrappers[key] = self.span(value, name, on_result.get(name))
                self._patch(module, attr, wrappers[key])
        self._patch(np.linalg, "svd", self.counter(np.linalg.svd, "subspace.svd_calls"))
        subspace_cls = modules["pqm.subspace"].Subspace
        self._patch(subspace_cls, "__post_init__",
                    self.counter(subspace_cls.__post_init__, "subspace.constructions"))
        structure_cls = modules["pqm.structures"].FiniteStructure
        self._patch(structure_cls, "symbol_of",
                    self.counter(structure_cls.symbol_of, "structures.symbol_of_calls"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- results

    def self_ms(self, *names: str) -> float:
        return sum(self.self_ns[n] for n in names) / 1e6

    def write(self, path: str, extra: dict) -> None:
        """Spans as columns (nanosecond clock, parent index -1 for roots)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_col, dtype=np.uint16),
            parent=np.frombuffer(self.parent_col, dtype=np.int32),
            start_ns=np.frombuffer(self.start_col, dtype=np.int64),
            end_ns=np.frombuffer(self.end_col, dtype=np.int64),
            summary=np.array(json.dumps(extra, sort_keys=True)),
        )
