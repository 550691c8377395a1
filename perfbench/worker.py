"""One workload in one process: set up, then run whole rounds of operations.

Started by run.py, never by hand.  Modes:

  setup    set up and report the set-up time only
  measure  timed rounds, untraced, until --seconds of operation time
  trace-a  one untraced round (checked), then one traced round; writes
           the spans and reports layer metrics and the tracing overhead
  trace-b  one traced round, for the repeat check on the counts

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter

MODES = ("setup", "measure", "trace-a", "trace-b")
WORKLOADS = ("cli", "decide", "suites", "structures")


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--t0", type=float, required=True, help="launcher's time.monotonic() at spawn")
    p.add_argument("--out", required=True, help="directory for trace and scratch files")
    p.add_argument("--tiny", action="store_true")
    return p.parse_args(argv)


def run_round(ops, times: list, first: list | None, check: bool):
    """Run each op once, checking its result outside the timed span when
    ``check`` is set; returns (failed, problems, digests)."""
    failed = 0
    problems = []
    digests = []
    for i, op in enumerate(ops):
        t = time.perf_counter()
        try:
            result = op.fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            times.append(time.perf_counter() - t)
            failed += 1
            problems.append(f"{op.label}: raised {type(exc).__name__}: {exc}")
            digests.append(None)
            continue
        times.append(time.perf_counter() - t)
        if check:
            problems += op.check(result)
        digest = op.digest(result)
        digests.append(digest)
        if first is not None and first[i] is not None and digest != first[i]:
            problems.append(f"{op.label}: result differs from the first round")
        del result
    return failed, problems, digests


def layer_metrics(tr, stats: Counter) -> dict:
    from tracer import _SUBSPACE_OPS

    m = {
        "lang.parse_ms": tr.self_ms("lang.parse", "lang.validate"),
        "lang.parse_calls": tr.calls["lang.parse"],
        "normalize.ms": tr.self_ms("normalize"),
        "normalize.dnf_nodes": stats["normalize.dnf_nodes"],
        "decide.ms": tr.self_ms("decide", "decide.witness"),
        "decide.leaves": stats["decide.leaves"],
        "decide.distinct_leaves": stats["decide.distinct_leaves"],
        "decide.witness_searches": tr.calls["decide.witness"],
        "subspace.svd_calls": tr.counts["subspace.svd_calls"],
        "subspace.constructions": tr.counts["subspace.constructions"],
    }
    for op in _SUBSPACE_OPS:
        m[f"subspace.{op}.calls"] = tr.calls[f"subspace.{op}"]
        m[f"subspace.{op}.ms"] = tr.self_ms(f"subspace.{op}")
    cond = stats["axioms.conditional_instances"]
    m.update({
        "sampling.ms": tr.self_ms("sampling"),
        "sampling.calls": tr.calls["sampling"],
        "axioms.ms": tr.self_ms("axioms"),
        "axioms.instances": stats["axioms.instances"],
        "axioms.hit_ratio": stats["axioms.hits"] / cond if cond else 0.0,
        "circuit.rules_ms": tr.self_ms("circuit.rules"),
        "circuit.derived_ms": tr.self_ms("circuit.derived"),
        "circuit.instances": stats["circuit.instances"],
        "structures.load_ms": tr.self_ms("structures.load"),
        "structures.axioms_ms": tr.self_ms("structures.axioms"),
        "structures.morphism_ms": tr.self_ms("structures.morphism"),
        "structures.kappa_ms": tr.self_ms("structures.kappa"),
        "structures.symbol_of_calls": tr.counts["structures.symbol_of_calls"],
    })
    return m


def traced_round(ops, first: list | None, out_path: str | None):
    """One round under the tracer.  Returns (metrics, counts, seconds, failed, problems)."""
    from tracer import Tracer

    # the package re-exports the function normalize under the module's name
    combo_size = sys.modules["pqm.normalize"].combo_size
    stats: Counter = Counter()

    def on_normalize(combo):
        stats["normalize.dnf_nodes"] += combo_size(combo)

    def on_evaluate(verdict):
        stats["decide.leaves"] += len(verdict.leaves)
        stats["decide.distinct_leaves"] += len({id(leaf.basic) for leaf in verdict.leaves})

    def on_axioms(results):
        for r in results:
            stats["axioms.instances"] += r.instances
            if not r.existential:
                stats["axioms.conditional_instances"] += r.instances
                stats["axioms.hits"] += r.hypothesis_hits

    def on_circuit_report(report):
        # the derived span also covers run_axiom_suite, which returns a list
        if hasattr(report, "results"):
            stats["circuit.instances"] += sum(r.instances for r in report.results)

    tr = Tracer()
    per_op = []
    wrapped = []
    for op in ops:
        wrapped.append(type(op)(op.label, tr.span(op.fn, "op"), op.check, op.digest))
    tr.install({
        "normalize": on_normalize,
        "decide": on_evaluate,
        "axioms": on_axioms,
        "circuit.rules": on_circuit_report,
        "circuit.derived": on_circuit_report,
    })
    times: list = []
    try:
        before = Counter()
        failed, problems = 0, []
        for i, op in enumerate(wrapped):
            f, p, _ = run_round([op], times, None if first is None else [first[i]], False)
            failed += f
            problems += p
            now = Counter(stats)
            per_op.append([op.label, round(times[-1] * 1e3, 3),
                           now["decide.leaves"] - before["decide.leaves"],
                           now["decide.distinct_leaves"] - before["decide.distinct_leaves"]])
            before = now
    finally:
        tr.uninstall()
    metrics = layer_metrics(tr, stats)
    counts = {
        "calls": dict(tr.calls),
        "counts": dict(tr.counts),
        "stats": dict(stats),
        "spans": len(tr.name_col),
    }
    if out_path is not None:
        tr.write(out_path, {"ops": per_op, "self_ms": {n: v / 1e6 for n, v in tr.self_ns.items()},
                            "total_ms": {n: v / 1e6 for n, v in tr.total_ns.items()},
                            **counts})
    return metrics, counts, sum(times), failed, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    sys.path.insert(0, os.path.join(root, "src"))
    import numpy  # noqa: F401  (part of set-up, as for any user of pqm)
    import pqm  # noqa: F401
    from workloads import cli, decide, structures, suites

    module = {"cli": cli, "decide": decide, "suites": suites, "structures": structures}[args.workload]
    os.makedirs(args.out, exist_ok=True)
    wl = module.build(args.seed, args.tiny, args.out)
    setup_s = time.monotonic() - args.t0

    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.mode == "measure":
        times: list = []
        attempted = failed = rounds = 0
        problems: list = []
        first = None
        while True:
            f, p, digests = run_round(wl.ops, times, first, check=True)
            first = first or digests
            rounds += 1
            attempted += len(wl.ops)
            failed += f
            problems += p
            if sum(times) >= args.seconds:
                break
        who = resource.RUSAGE_CHILDREN if wl.peak_rss_of_children else resource.RUSAGE_SELF
        out = {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "rounds": rounds,
            "problems": problems[:20],
            "metrics": {
                "ops_per_s": len(times) / sum(times),
                "op_p50_ms": statistics.median(times) * 1e3,
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
            },
        }
        print(json.dumps(out))
        return 0

    ops = wl.traced_ops or wl.ops
    problems = []
    attempted = failed = 0
    untraced_s = None
    first = None
    if args.mode == "trace-a":
        times: list = []
        failed, problems, first = run_round(ops, times, None, check=True)
        untraced_s = sum(times)
        attempted = len(ops)
        # a fresh copy, so that the traced round sees the same inputs as
        # the single traced round of trace-b
        wl = module.build(args.seed, args.tiny, args.out)
        ops = wl.traced_ops or wl.ops
    out_path = os.path.join(args.out, f"trace_{args.workload}.npz") if args.mode == "trace-a" else None
    metrics, counts, traced_s, f, p = traced_round(ops, first, out_path)
    print(json.dumps({
        "correct": not (problems or p),
        "attempted": attempted + len(ops),
        "failed": failed + f,
        "problems": (problems + p)[:20],
        "metrics": metrics,
        "counts": counts,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
