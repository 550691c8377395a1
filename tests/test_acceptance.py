"""End-to-end acceptance checks, one per shipped guarantee.

Each test exercises one headline property of the package at full sample
counts and prints a single PASS/FAIL line, so a bare ``pytest -v`` run
doubles as the acceptance report.  Everything here goes through public
entry points, checked against the independent routes in ``_routes``.
"""

import math
import time

import numpy as np

from pqm.axioms import RayElements, SubspaceElements
from pqm.circuit import (
    build_circuit,
    check_axioms_from_rules,
    check_rule_suite,
    run_circuit_trace,
)
from pqm.decide import check_axiom_suite, decide_basic
from pqm.lang import parse_circuit_file
from pqm.oracles import (
    CompatibleInputError,
    ellipse_witness,
    f_chain,
    incompat_decompose,
)
from pqm.sampling import random_subspace
from pqm.structures import check_strong_morphism, check_structure_axioms
from pqm.subspace import (
    SubspaceStack,
    compatible,
    eq,
    join,
    leq,
    meet,
    ortho,
    sasaki_and,
    sasaki_hook,
    span_of,
    stacked,
)

from _corpus import build_corpus, build_mutants
from _helpers import instance, random_basic
from _routes import cross_check_vd, principal_angles, projectors_commute, sasaki_and_lattice


def _report(label, problems):
    status = "FAIL" if problems else "PASS"
    print(f"{label}: {status}")
    assert not problems, f"{label}: " + "; ".join(problems)


def _run_sample_circuit(samples_dir, name):
    cp = parse_circuit_file((samples_dir / name).read_text())
    circ, input_space = build_circuit(cp)
    states = run_circuit_trace(circ, input_space)
    return states[-1] if states else input_space


def test_c1_bell_circuit_worked_example(samples_dir):
    problems = []
    started = time.perf_counter()

    final = _run_sample_circuit(samples_dir, "bell_circuit.pqm")
    analytic = span_of([np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)], 4)
    if final.rank != 1:
        problems.append(f"preparation ended at rank {final.rank}, expected a ray")
    else:
        gap = float(principal_angles(final, analytic).max())
        if gap >= 1e-9:
            problems.append(f"principal angle {gap:.3e} from the analytic ray")

    extended = _run_sample_circuit(samples_dir, "bell_circuit_impossible.pqm")
    if extended.rank != 0:
        problems.append(f"extension survived at rank {extended.rank}")

    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f} s, budget is 1 s")
    _report("criterion 1 (entangling circuit worked example)", problems)


def test_c2_ortholattice_and_sasaki_laws():
    problems = []
    started = time.perf_counter()
    rng = np.random.default_rng(20)

    for dim in (2, 3, 4, 5):
        counts = {"orthomodular": 0, "de-morgan": 0, "sasaki-image": 0,
                  "adjunction": 0, "compatibility": 0}
        for _ in range(1000):
            p = random_subspace(rng, dim)
            q = random_subspace(rng, dim)
            r = random_subspace(rng, dim)

            a = meet(p, q)  # a <= q by construction
            if not eq(q, join(a, meet(q, ortho(a)))):
                counts["orthomodular"] += 1
            if not eq(ortho(join(p, q)), meet(ortho(p), ortho(q))):
                counts["de-morgan"] += 1
            if not eq(sasaki_and(p, q), sasaki_and_lattice(p, q)):
                counts["sasaki-image"] += 1
            left = leq(sasaki_and(r, q), p)
            right = leq(r, sasaki_hook(p, q))
            if left != right:
                counts["adjunction"] += 1
            lattice_side = eq(p, join(meet(q, p), meet(ortho(q), p)))
            if not (compatible(p, q) == projectors_commute(p, q) == lattice_side):
                counts["compatibility"] += 1
        for law, bad in counts.items():
            if bad:
                problems.append(f"{law} violated {bad}/1000 times at d={dim}")

    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        problems.append(f"took {elapsed:.1f} s, budget is 30 s")
    _report("criterion 2 (ortholattice and Sasaki law suite)", problems)


def test_c3_axiom_suites_in_both_models():
    problems = []

    for dim in (2, 3, 4):
        report = check_axiom_suite(dim, samples=500, seed=0, figure="base")
        for label, results in report.by_domain.items():
            for r in results:
                if r.violations:
                    problems.append(f"base {r.name} over {label} at d={dim}: {r.violations}")

    for dim in (3, 4):
        report = check_axiom_suite(dim, samples=500, seed=0, figure="revised")
        for label, results in report.by_domain.items():
            for r in results:
                if r.violations:
                    problems.append(f"revised {r.name} over {label} at d={dim}: {r.violations}")
                if r.name == "meet" and r.hypothesis_hits == 0:
                    problems.append(f"unconditioned meet untested over {label} at d={dim}")

    # The unconditioned meet must also survive pairs that are forced to be
    # incompatible, not just whatever the generic sampler happens to draw.
    rng = np.random.default_rng(21)
    for dim in (3, 4):
        for domain in (SubspaceElements(), RayElements()):
            hits = 0
            for _ in range(200):
                while True:
                    p = random_subspace(rng, dim, rank=dim - 1)
                    q = random_subspace(rng, dim, rank=dim - 1)
                    if not compatible(p, q) and meet(p, q).rank > 0:
                        break
                common = meet(p, q)
                if rng.random() < 0.5:
                    x = instance(domain.inside(rng, SubspaceStack(stacked([common.basis], dim), np.array([common.rank]))), 0)
                else:
                    x = instance(domain.free(rng, 1, dim), 0)
                if leq(x, p) and leq(x, q):
                    hits += 1
                    if not leq(x, common):
                        problems.append(
                            f"incompatible-pair meet failed over {domain.label} at d={dim}"
                        )
            if hits == 0:
                problems.append(f"incompatible-pair meet untested over {domain.label} at d={dim}")

    _report("criterion 3 (verification axioms in both models)", problems)


def test_c4_rule_suite_and_sampled_cross_check():
    problems = []

    for dim in (2, 3, 4):
        report = check_rule_suite(dim, samples=500, seed=0)
        for r in report.results:
            if r.violations:
                problems.append(f"rule {r.name} at d={dim}: {r.violations} violations")
            if r.hypothesis_hits == 0:
                problems.append(f"rule {r.name} at d={dim}: hypothesis never satisfied")

    derived = check_axioms_from_rules(3, samples=200, seed=0)
    for r in derived.results:
        if r.violations and not r.informational:
            problems.append(f"sampled-semantics {r.name}: {r.violations} violations")

    _report("criterion 4 (projection rules and sampled-semantics cross-check)", problems)


def test_c5_decider_against_monte_carlo():
    problems = []
    rng = np.random.default_rng(22)
    witnesses = 0

    for k in range(200):
        basic = random_basic(rng, 3)
        verdict = decide_basic(basic, 3)
        check = cross_check_vd(basic, 3, samples=10_000, seed=1000 + k)
        if check.sampler_found and not verdict.truth:
            problems.append(f"sentence {k}: sampler found a witness the decider denies")
        if verdict.truth:
            witnesses += 1
            if verdict.witness is None:
                problems.append(f"sentence {k}: true verdict without a witness")
            elif not check.witness_ok:
                problems.append(f"sentence {k}: witness fails the literal conjunction")

    if witnesses == 0:
        problems.append("no true sentence in the draw, nothing was replayed")
    _report("criterion 5 (decision procedure vs ray Monte-Carlo)", problems)


def test_c6_characterization_corpus_and_mutants():
    problems = []

    corpus = build_corpus()
    if len(corpus) != 10:
        problems.append(f"corpus has {len(corpus)} structures, expected 10")
    for name, structure, _ in corpus:
        if structure.dim != 3:
            problems.append(f"{name}: dim {structure.dim}")
        named = len(structure.subspaces)
        if not 6 <= named <= 20:
            problems.append(f"{name}: {named} named subspaces outside 6..20")
        if not 6 <= len(structure.domain) <= 40:
            problems.append(f"{name}: domain size {len(structure.domain)} outside 6..40")

        axioms = check_structure_axioms(structure)
        if axioms.total_violations or axioms.total_skipped:
            problems.append(
                f"{name}: axiom check violations={axioms.total_violations} "
                f"skipped={axioms.total_skipped}"
            )
        morphism = check_strong_morphism(structure)
        if not morphism.ok:
            problems.append(f"{name}: strong-morphism conditions failed")
        if not morphism.nontrivial:
            problems.append(f"{name}: least-member map collapses to the zero space")

    mutants = build_mutants(corpus)
    if len(mutants) != 10:
        problems.append(f"mutant set has {len(mutants)} structures, expected 10")
    for name, structure in mutants:
        axioms = check_structure_axioms(structure)
        morphism = check_strong_morphism(structure)
        if axioms.ok:
            problems.append(f"{name}: axiom check missed the injected fault")
        if morphism.ok:
            problems.append(f"{name}: morphism check missed the injected fault")

    _report("criterion 6 (model characterization corpus and mutants)", problems)


def test_c7_closed_form_oracles():
    problems = []
    started = time.perf_counter()

    expected = [0.5, 1 / math.sqrt(3), 1 / math.sqrt(2), 1.0]
    chain = f_chain(0.5)
    if len(chain) != 4 or any(abs(c - e) > 1e-12 for c, e in zip(chain, expected)):
        problems.append(f"step chain from 0.5 drifted: {chain}")

    for a in (0.3, 0.6, 0.9):
        b = a / math.sqrt(1 - a * a)
        grid = np.linspace(-1.1 * max(a, b), 1.1 * max(a, b), 50)
        disagreements = 0
        for x in grid:
            for y in grid:
                w = ellipse_witness(a, float(x), float(y), tol=1e-9)
                if w.orthogonal != w.on_ellipse:
                    disagreements += 1
        if disagreements:
            problems.append(f"a={a}: orthogonality and residual disagree at {disagreements} points")

    rng = np.random.default_rng(23)
    for dim in (3, 4):
        done = 0
        while done < 50:
            p = random_subspace(rng, dim)
            q = random_subspace(rng, dim)
            try:
                d = incompat_decompose(p, q)
            except CompatibleInputError:
                continue
            done += 1
            if d.c.rank != 2:
                problems.append(f"mediator rank {d.c.rank} at d={dim}")
            if not (compatible(d.c, p) and compatible(d.c, q)):
                problems.append(f"mediator incompatible with an input at d={dim}")
            if not eq(meet(d.c, p), d.u_span):
                problems.append(f"mediator ^ p misses the u ray at d={dim}")
            if not eq(meet(d.c, q), d.v_span):
                problems.append(f"mediator ^ q misses the v ray at d={dim}")
            if not 0.0 < d.eigenvalue < 1.0:
                problems.append(f"compression eigenvalue {d.eigenvalue} at d={dim}")

    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.1f} s, budget is 10 s")
    _report("criterion 7 (closed-form geometry oracles)", problems)
