"""suites: the randomized axiom, rule and derived-axiom suites.

One round is a fixed sequence of check_axiom_suite, check_rule_suite and
check_axioms_from_rules calls at dims 3, 8 and 16, each call with its
own seed drawn from --seed.  The work hardly depends on the seed: the
SVD and QR calls of a round vary by 0.7 % (interquartile range over 20
seeds).  The subspace kernel and the samplers do the
work in many small calls; nothing is parsed or normalized.  The spread
of dimensions shows a kernel change that helps d = 3 but costs larger d.
"""

from __future__ import annotations

import numpy as np

from common import Op, Workload

# samples per call, chosen so that every call costs about the same
# (0.35 s on the reference machine): with one cost cluster the median
# operation time does not jump between kinds of call from seed to seed.
# Every conditional item gets hypothesis hits at these sizes.
SAMPLES = {
    ("axioms", 3): 43, ("rules", 3): 110, ("derived", 3): 100,
    ("axioms", 8): 33, ("rules", 8): 80, ("derived", 8): 72,
    ("axioms", 16): 22, ("rules", 16): 41, ("derived", 16): 34,
}
TINY_SAMPLES = {3: 12, 8: 6, 16: 4}
# items per report, from the paper's axiom and rule lists: every axiom in
# both element domains, the six projection rules, the nine base axioms
AXIOM_ITEMS, RULE_ITEMS, DERIVED_ITEMS = 2 * 11, 6, 9


def _results(report) -> list:
    if hasattr(report, "by_domain"):
        return [r for results in report.by_domain.values() for r in results]
    return list(report.results)


def checker(label: str, kind: str, samples: int, tiny: bool):
    def check(report) -> list:
        found = []
        results = _results(report)
        expected = {"axioms": AXIOM_ITEMS, "rules": RULE_ITEMS, "derived": DERIVED_ITEMS}[kind]
        if len(results) != expected:
            found.append(f"{label}: {len(results)} items, expected {expected}")
        for r in results:
            if getattr(r, "informational", False):
                continue
            if r.violations:
                found.append(f"{label}: {r.name} has {r.violations} violations")
            # existential items report hits = 1 when witnessed
            if r.hypothesis_hits == 0 and not tiny:
                found.append(f"{label}: {r.name} is vacuous (no hypothesis hits)")
            if kind == "rules":
                # each sampled rule instance is evaluated on 2 to 4 states
                if not 2 * samples <= r.instances <= 4 * samples:
                    found.append(f"{label}: {r.name} has {r.instances} instances for {samples} samples")
            elif r.instances != samples:
                found.append(f"{label}: {r.name} has {r.instances} instances for {samples} samples")
        if report.total_violations != 0 or not report.ok:
            found.append(f"{label}: report is not ok")
        return found

    return check


def digest(report):
    return tuple((r.name, r.instances, r.hypothesis_hits, r.violations) for r in _results(report))


def build(seed: int, tiny: bool, out_dir: str) -> Workload:
    import pqm.circuit
    import pqm.decide

    calls = {
        "axioms": lambda d, n, s: pqm.decide.check_axiom_suite(d, samples=n, seed=s),
        "rules": lambda d, n, s: pqm.circuit.check_rule_suite(d, samples=n, seed=s),
        "derived": lambda d, n, s: pqm.circuit.check_axioms_from_rules(d, samples=n, seed=s),
    }
    seeds = iter(np.random.default_rng([seed, 3]).integers(0, 2**31, size=9).tolist())
    ops = []
    for dim in (3, 8, 16):
        for kind, call in calls.items():
            samples = TINY_SAMPLES[dim] if tiny else SAMPLES[kind, dim]
            s = next(seeds)
            label = f"{kind} d{dim} n{samples} seed {s}"
            ops.append(Op(label, lambda call=call, dim=dim, samples=samples, s=s: call(dim, samples, s),
                          checker(label, kind, samples, tiny), digest))
    return Workload(ops)
