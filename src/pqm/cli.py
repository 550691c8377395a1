"""Batch command-line front end.

One command per invocation; results on standard output, diagnostics on
standard error.  Exit codes: 0 the sentence or check holds, 1 it does
not (still a clean run), 2 malformed input or usage, 3 a broken
internal invariant.  JSON output carries a top-level ``"schema": 2``
marker, keys are emitted sorted, and a fixed input plus fixed seed
yields byte-identical bytes; docs/grammar.md lists every key.
"""

from __future__ import annotations

import argparse
import json
import sys

from .circuit import (
    build_circuit,
    check_axioms_from_rules,
    check_rule_suite,
    final_state,
    run_circuit_trace,
)
from .decide import check_axiom_suite, evaluate, verdict_to_json
from .lang import (
    MAX_DIM,
    FrontendError,
    parse_circuit_file,
    parse_definitions,
    parse_problem,
    pretty_print,
    validate,
)
from .normalize import (
    NormalizationLimitError,
    combo_to_formula,
    combo_to_json,
    normalize,
)
from .oracles import (
    CompatibleInputError,
    OracleDomainError,
    ellipse_witness,
    f_chain,
    incompat_decompose,
    two_ray_collapse,
)
from .structures import (
    StructureValidationError,
    check_characterization,
    kappa_of,
    load_structure,
)
from .subspace import InternalInvariantError, Subspace, _pairs_json, subspace_to_json

__all__ = ["main"]


class UsageError(Exception):
    """A command line that cannot run: an argument the parser rejects, or
    one that names something the input does not hold."""


class _Parser(argparse.ArgumentParser):
    """Raises a usage error where argparse would print usage and exit, so
    that ``main()`` reports it as one diagnostic; ``-h`` still exits 0."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _dimension(text: str) -> int:
    value = _positive(text)
    if value > MAX_DIM:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_DIM}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pqm",
        description="Decide verification sentences, run possibilistic circuits, "
        "and check finite structures against the subspace model.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_emit(p):
        p.add_argument("--emit", choices=("text", "json"), default="text",
                       help="output format (default text)")

    p = commands.add_parser("decide", help="decide a sentence file")
    p.set_defaults(run=_cmd_decide)
    p.add_argument("file")
    p.add_argument("--emit-normal-form", action="store_true",
                   help="include the quantifier-free normal form")
    p.add_argument("--trace", action="store_true",
                   help="include the per-branch decision trace")
    add_emit(p)

    p = commands.add_parser(
        "circuit",
        help="run a circuit file (exit 0 if some state survives, 1 if impossible)",
    )
    p.set_defaults(run=_cmd_circuit)
    p.add_argument("file")
    p.add_argument("--trace", action="store_true",
                   help="include the state after every step")
    add_emit(p)

    p = commands.add_parser("check-axioms", help="randomized axiom suite in the subspace and ray models")
    p.set_defaults(run=_cmd_check_axioms)
    p.add_argument("--dim", type=_dimension, required=True)
    p.add_argument("--samples", type=_positive, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--figure", choices=("base", "revised", "all"), default="all")
    add_emit(p)

    p = commands.add_parser("check-rules", help="randomized circuit-rule suite")
    p.set_defaults(run=_cmd_check_rules)
    p.add_argument("--dim", type=_dimension, required=True)
    p.add_argument("--samples", type=_positive, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--derived-axioms", action="store_true",
                   help="also check the base axioms through sampled projective semantics")
    p.add_argument("--derived-samples", type=_positive, default=200)
    add_emit(p)

    p = commands.add_parser("model-check", help="check a finite structure for modelhood")
    p.set_defaults(run=_cmd_model_check)
    p.add_argument("file")
    add_emit(p)

    p = commands.add_parser("kappa", help="least filter members of a structure's elements")
    p.set_defaults(run=_cmd_kappa)
    p.add_argument("file")
    p.add_argument("--element", help="restrict to one domain element")
    add_emit(p)

    p = commands.add_parser("oracle", help="closed-form constructions")
    oracles = p.add_subparsers(dest="oracle", required=True)

    q = oracles.add_parser("f-steps", help="step-map chain from a to 1")
    q.set_defaults(run=_oracle_f_steps)
    q.add_argument("a", type=float)
    add_emit(q)

    q = oracles.add_parser("ellipse", help="two-ray probe orthogonality at (x, y)")
    q.set_defaults(run=_oracle_ellipse)
    q.add_argument("a", type=float)
    q.add_argument("x", type=float)
    q.add_argument("y", type=float)
    q.add_argument("--tol", type=float, default=1e-9)
    add_emit(q)

    q = oracles.add_parser("incompat", help="mediator subspace for an incompatible pair")
    q.set_defaults(run=_oracle_incompat)
    q.add_argument("file", help="definitions file declaring the two subspaces")
    q.add_argument("first")
    q.add_argument("second")
    add_emit(q)

    q = oracles.add_parser("collapse", help="iterate a ray pair to orthogonality")
    q.set_defaults(run=_oracle_collapse)
    q.add_argument("a", type=float)
    add_emit(q)

    return parser


def _print_json(payload: dict) -> None:
    print(json.dumps({"schema": 2, **payload}, sort_keys=True, indent=2))


def _vector_text(s: Subspace) -> str:
    cols = []
    for k in range(s.rank):
        entries = ", ".join(f"{z.real:.10g}{z.imag:+.10g}i" for z in s.basis[:, k])
        cols.append(f"({entries})")
    return " ".join(cols) if cols else "(zero subspace)"


def _cmd_decide(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        text = fh.read()
    problem = parse_problem(text)
    for diag in validate(problem):
        print(f"{diag.severity}: {diag.message}", file=sys.stderr)
    combo = normalize(problem.sentence, problem)
    verdict = evaluate(combo, problem.dim)

    if args.emit == "json":
        payload = {"command": "decide", "truth": verdict.truth, "witness": None}
        if verdict.witness is not None:
            payload["witness"] = subspace_to_json(verdict.witness)
        if args.emit_normal_form:
            payload["normal_form"] = combo_to_json(combo)
        if args.trace:
            payload["leaves"] = verdict_to_json(verdict)["leaves"]
        _print_json(payload)
    else:
        print("true" if verdict.truth else "false")
        if verdict.witness is not None:
            print(f"witness: {_vector_text(verdict.witness)}")
        if args.emit_normal_form:
            formula, _ = combo_to_formula(combo)
            print(f"normal form: {pretty_print(formula)}")
        if args.trace:
            for k, leaf in enumerate(verdict.leaves):
                held = "true" if leaf.truth else "false"
                covering = [j for j, c in enumerate(leaf.contained) if c]
                note = f", contained in negative(s) {covering}" if covering else ""
                print(f"branch {k}: meet of positives has rank {leaf.meet_all.rank}{note} -> {held}")
    return 0 if verdict.truth else 1


def _cmd_circuit(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        text = fh.read()
    cp = parse_circuit_file(text)
    circ, input_space = build_circuit(cp)
    states = run_circuit_trace(circ, input_space)
    final = final_state(states, input_space)
    impossible = final.rank == 0

    if args.emit == "json":
        payload = {
            "command": "circuit",
            "input": subspace_to_json(input_space),
            "final": subspace_to_json(final),
            "impossible": impossible,
        }
        if args.trace:
            payload["states"] = [
                {"kind": kind, "symbol": sym, "state": subspace_to_json(s)}
                for (kind, sym), s in zip(cp.steps, states)
            ]
        _print_json(payload)
    else:
        if args.trace:
            for (kind, sym), s in zip(cp.steps, states):
                print(f"after {kind} {sym}: rank {s.rank}")
        print(f"final rank: {final.rank}")
        print("impossible" if impossible else "possible")
    return 1 if impossible else 0


def _cmd_check_axioms(args) -> int:
    report = check_axiom_suite(args.dim, samples=args.samples, seed=args.seed, figure=args.figure)
    if args.emit == "json":
        _print_json({"command": "check-axioms", **report.to_json()})
    else:
        for label, results in report.by_domain.items():
            for r in results:
                extra = " (informational)" if r.informational else ""
                print(
                    f"{label:10s} {r.name:18s} instances={r.instances} "
                    f"hits={r.hypothesis_hits} violations={r.violations}{extra}"
                )
        print("OK" if report.ok else "FAIL")
    return 0 if report.ok else 1


def _cmd_check_rules(args) -> int:
    report = check_rule_suite(args.dim, samples=args.samples, seed=args.seed)
    ok = report.ok
    derived = None
    if args.derived_axioms:
        derived = check_axioms_from_rules(args.dim, samples=args.derived_samples, seed=args.seed)
        ok = ok and derived.ok

    if args.emit == "json":
        payload = {"command": "check-rules", **report.to_json()}
        if derived is not None:
            payload["derived_axioms"] = derived.to_json()
            payload["ok"] = ok
            payload["total_violations"] += derived.total_violations
            payload["total_skipped"] += derived.total_skipped
        _print_json(payload)
    else:
        for r in report.results:
            print(
                f"{r.name:24s} instances={r.instances} "
                f"hits={r.hypothesis_hits} violations={r.violations}"
            )
        if derived is not None:
            for r in derived.results:
                extra = " (informational)" if r.informational else ""
                print(
                    f"derived {r.name:18s} instances={r.instances} "
                    f"hits={r.hypothesis_hits} violations={r.violations}{extra}"
                )
        print("OK" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_model_check(args) -> int:
    structure = load_structure(args.file)
    report = check_characterization(structure)
    if args.emit == "json":
        _print_json({"command": "model-check", **report.to_json()})
    else:
        print(f"verdict: {report.verdict}")
        for r in report.axioms.results:
            if r.violations or r.skipped:
                print(f"axiom {r.name}: checked={r.instances} skipped={r.skipped} violations={r.violations}")
                for ex in r.examples:
                    print(f"  {ex}")
        m = report.morphism
        if not m.ok:
            for note in m.no_least:
                print(f"no least filter member: {note}")
            for note in m.relation_violations + m.projector_violations + m.unitary_violations:
                print(note)
            if not m.nontrivial:
                print("the least-member map sends everything to the zero space")
    if report.verdict == "mismatch":
        print(
            "axiom check and morphism check disagree without skipped instances",
            file=sys.stderr,
        )
        return 3
    return 0 if report.verdict == "model" else 1


def _cmd_kappa(args) -> int:
    structure = load_structure(args.file)
    if args.element is not None:
        elements = [args.element]
    else:
        elements = list(structure.domain)
    try:
        results = {m: kappa_of(structure, m) for m in elements}
    except ValueError as exc:  # an unknown --element
        raise UsageError(str(exc)) from None
    ok = all(not r.no_least for r in results.values())

    if args.emit == "json":
        payload = {
            "command": "kappa",
            "ok": ok,
            "elements": {
                m: {**r.to_json(), "basis": subspace_to_json(r.value)["basis"]}
                for m, r in results.items()
            },
        }
        _print_json(payload)
    else:
        for m, r in results.items():
            if r.no_least:
                conflict = f" (minimal pair {r.conflict[0]}, {r.conflict[1]})" if r.conflict else ""
                print(f"{m}: no least filter member{conflict}")
            else:
                print(f"{m}: {r.member_symbol}")
    return 0 if ok else 1


def _oracle_f_steps(args) -> int:
    chain = f_chain(args.a)
    if args.emit == "json":
        _print_json(
            {
                "command": "oracle",
                "oracle": "f-steps",
                "a": args.a,
                "steps": len(chain) - 1,
                "chain": chain,
            }
        )
    else:
        print(f"steps: {len(chain) - 1}")
        print("chain: " + " -> ".join(f"{x:.12g}" for x in chain))
    return 0


def _oracle_ellipse(args) -> int:
    w = ellipse_witness(args.a, args.x, args.y, tol=args.tol)
    if w.orthogonal != w.on_ellipse:
        print(
            "warning: the probe sits in the tolerance band where the two tests differ",
            file=sys.stderr,
        )
    if args.emit == "json":
        _print_json(
            {
                "command": "oracle",
                "oracle": "ellipse",
                "a": w.a,
                "x": w.x,
                "y": w.y,
                "inner": w.inner,
                "residual": w.residual,
                "orthogonal": w.orthogonal,
                "on_ellipse": w.on_ellipse,
            }
        )
    else:
        print(f"inner: {w.inner:.12g}")
        print(f"residual: {w.residual:.12g}")
        print("orthogonal" if w.orthogonal else "not orthogonal")
    return 0 if w.orthogonal else 1


def _oracle_incompat(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        text = fh.read()
    _, subspaces, _ = parse_definitions(text)
    for name in (args.first, args.second):
        if name not in subspaces:
            raise UsageError(f"{name!r} is not defined in {args.file}")
    try:
        d = incompat_decompose(subspaces[args.first], subspaces[args.second])
    except CompatibleInputError:
        print("compatible")
        return 1
    if args.emit == "json":
        _print_json(
            {
                "command": "oracle",
                "oracle": "incompat",
                "eigenvalue": d.eigenvalue,
                "u": _pairs_json(d.u),
                "v": _pairs_json(d.v),
                "mediator": subspace_to_json(d.c),
            }
        )
    else:
        print(f"eigenvalue: {d.eigenvalue:.12g}")
        print(f"u: {_vector_text(d.u_span)}")
        print(f"v: {_vector_text(d.v_span)}")
        print(f"mediator rank: {d.c.rank}")
    return 0


def _oracle_collapse(args) -> int:
    t = two_ray_collapse(args.a)
    if args.emit == "json":
        _print_json(
            {
                "command": "oracle",
                "oracle": "collapse",
                "a": t.a,
                "rounds": t.rounds,
                "parameters": list(t.parameters),
                "final_meet_rank": t.final_meet_rank,
            }
        )
    else:
        print(f"rounds: {t.rounds}")
        print("parameters: " + " -> ".join(f"{x:.12g}" for x in t.parameters))
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except (
        FrontendError, NormalizationLimitError, OracleDomainError, OSError, UnicodeDecodeError,
        UsageError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StructureValidationError as exc:
        for issue in exc.issues:
            print(f"error: {issue}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
