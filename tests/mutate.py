"""Mutation runner: each mutant of ``tests/_mutants.py`` against its file's tests.

    python tests/mutate.py --out MUTATION.json
    python tests/mutate.py --out partial.json --only NAME[,NAME...]
    python tests/mutate.py --out MUTATION.json --sample N --seed S [--files FILE,...]

Every run, the baseline ones included, gets a fresh copy of the tree (the
files git tracks or would track, as they stand in the working tree) in a
temporary directory, and one pytest process at a time, with hypothesis
seeded.  First each test subset runs unmutated; the tests that fail there
fail whatever the mutant, so they are deselected in the mutant runs.
Then each mutant runs with ``-x``: it is killed when any test fails or
errors, or when the run passes ``TIMEOUT`` seconds, and survives otherwise.
``--only`` runs just the named mutants and the baselines of their test
subsets; an unknown name exits 2 and lists the known ones.

``--sample N --seed S`` also draws N operator mutants, with
``random.Random(S)``, from an AST scan of the files of ``src/pqm/`` that
have a test subset (or of ``--files``), and runs each on its file's
subset in the same way.  An operator mutant flips one comparison (``<``
and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``is`` and ``is not``,
``in`` and ``not in``), swaps ``and`` and ``or``, drops a ``not`` or a
``~``, or raises an int literal 0, 1 or 2 by one; the mutated file is
the tree unparsed, which ``ast`` checks parses back to the same tree
unmutated.  Nobody chose these mutants, so a survivor is
``"unclassified"`` until a test kills it or an argument marks it
equivalent, and the sample's score is its killed mutants over all it
drew.

The report lists each mutant's result and the score, the killed mutants
over all mutants but the survivors marked equivalent, and under
``"sample"`` the sampled mutants and their score; a report of an
``--only`` run says ``"partial": true`` and names the mutants it ran, so
it is never taken for the score of the whole list.  The exit status is
1 when a result differs from the one the list expects, 2 when a mutant's
text does not occur exactly once in its file or a baseline run cannot
collect its tests, and 0 otherwise.  Not collected by pytest.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from _mutants import MUTANTS, SUBSETS, Mutant  # noqa: E402

HYPOTHESIS_SEED = 0
TIMEOUT = 600.0  # seconds per pytest run


def _tree_files() -> list[str]:
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout.decode()
    return [f for f in listed.split("\0") if f and (ROOT / f).is_file()]


_FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
}


class _OperatorSites(ast.NodeTransformer):
    """Lists the operator sites of a tree in visiting order as (line,
    change), and mutates the site numbered ``target``, if given."""

    def __init__(self, target: int | None = None):
        self.sites: list[tuple[int, str]] = []
        self.target = target

    def _site(self, node, change: str) -> bool:
        self.sites.append((node.lineno, change))
        return len(self.sites) - 1 == self.target

    def visit_Compare(self, node):
        self.generic_visit(node)
        for k, op in enumerate(node.ops):
            flipped = _FLIPS.get(type(op))
            if flipped is not None and self._site(node, f"{type(op).__name__} -> {flipped.__name__}"):
                node.ops[k] = flipped()
        return node

    def visit_BoolOp(self, node):
        self.generic_visit(node)
        swapped = ast.Or if isinstance(node.op, ast.And) else ast.And
        if self._site(node, f"{type(node.op).__name__} -> {swapped.__name__}"):
            node.op = swapped()
        return node

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if isinstance(node.op, (ast.Not, ast.Invert)) and self._site(node, f"drop {type(node.op).__name__}"):
            return node.operand
        return node

    def visit_Constant(self, node):
        if type(node.value) is int and 0 <= node.value <= 2 and self._site(node, f"{node.value} -> {node.value + 1}"):
            return ast.copy_location(ast.Constant(node.value + 1), node)
        return node


def operator_sites(source: str) -> list[tuple[int, str]]:
    """The (line, change) of every operator site of a module's source."""
    scan = _OperatorSites()
    scan.visit(ast.parse(source))
    return scan.sites


def operator_mutant(source: str, site: int) -> str:
    """The source unparsed with operator site ``site`` mutated.  Raises
    when the unparsed source, unmutated, would not parse to the same
    tree."""
    tree = ast.parse(source)
    if ast.dump(ast.parse(ast.unparse(tree))) != ast.dump(tree):
        raise ValueError("the source does not survive an unparse")
    return ast.unparse(_OperatorSites(site).visit(tree))


def sample_mutants(files: list[str], n: int, seed: int) -> list[tuple[Mutant, int, str]]:
    """n operator mutants drawn with ``random.Random(seed)`` from the
    operator sites of ``files``, in file then site order, as (mutant, line,
    change); each mutant replaces its whole file."""
    pool = []
    for f in files:
        source = (ROOT / f).read_text()
        pool += [(f, source, k, line, change) for k, (line, change) in enumerate(operator_sites(source))]
    drawn = random.Random(seed).sample(pool, min(n, len(pool)))
    return [
        (Mutant(f"{Path(f).stem}:{line}:{k}", f, source, operator_mutant(source, k), "killed"), line, change)
        for f, source, k, line, change in drawn
    ]


def _run(files: list[str], tests: tuple[str, ...], deselect: list[str],
         mutant=None) -> tuple[int | None, list[str], float]:
    """pytest's exit status (None past the timeout), the ids of the tests
    that failed or errored, and the seconds taken, on a fresh copy of the
    tree with the mutant applied."""
    with tempfile.TemporaryDirectory(prefix="pqm-mutant-") as tmp:
        tree = Path(tmp)
        for f in files:
            (tree / f).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / f, tree / f)
        if mutant is not None:
            path = tree / mutant.file
            path.write_text(path.read_text().replace(mutant.old, mutant.new))
        cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
               f"--hypothesis-seed={HYPOTHESIS_SEED}", *tests, *(f"--deselect={t}" for t in deselect)]
        if mutant is not None:
            cmd.append("-x")
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        try:
            done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return None, [], time.perf_counter() - start
        failed = [
            line.split(" ", 1)[1].split(" - ", 1)[0]
            for line in done.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))
        ]
        return done.returncode, failed, time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write the JSON report")
    parser.add_argument("--only", metavar="NAME[,NAME...]",
                        help="run only these mutants, and the baselines of their test subsets")
    parser.add_argument("--sample", type=int, metavar="N", help="also run N operator mutants drawn at random")
    parser.add_argument("--seed", type=int, metavar="S", help="the seed of --sample's draw")
    parser.add_argument("--files", metavar="FILE[,FILE...]",
                        help="the files --sample draws from (default: every file with a test subset)")
    args = parser.parse_args(argv)
    if args.sample is not None and args.seed is None:
        parser.error("--sample needs --seed")
    sample_files = args.files.split(",") if args.files else sorted(SUBSETS)
    unknown_files = [f for f in sample_files if f not in SUBSETS]
    if unknown_files:
        print(f"error: no test subset for {', '.join(unknown_files)}", file=sys.stderr)
        return 2

    mutants = MUTANTS
    if args.only is not None:
        names = args.only.split(",")
        known = [m.name for m in MUTANTS]
        unknown = [name for name in names if name not in known]
        if unknown:
            print(f"error: unknown mutant {', '.join(unknown)}; known: {', '.join(known)}", file=sys.stderr)
            return 2
        mutants = tuple(m for m in MUTANTS if m.name in names)

    stale = [m.name for m in MUTANTS if (ROOT / m.file).read_text().count(m.old) != 1]
    if stale:
        print(f"error: text not found exactly once: {stale}", file=sys.stderr)
        return 2
    sampled = sample_mutants(sample_files, args.sample, args.seed) if args.sample is not None else []
    files = _tree_files()

    baseline: dict[tuple[str, ...], dict] = {}
    for tests in dict.fromkeys(SUBSETS[m.file] for m in (*mutants, *(m for m, _, _ in sampled))):
        status, failed, seconds = _run(files, tests, [])
        if status not in (0, 1):
            print(f"error: the unmutated run of {' '.join(tests)} gave pytest status {status}", file=sys.stderr)
            return 2
        baseline[tests] = {"tests": list(tests), "failed": failed, "seconds": round(seconds, 1)}
        print(f"baseline {' '.join(tests)}: {len(failed)} failed, {seconds:.0f} s", flush=True)

    def run(m: Mutant) -> dict:
        tests = SUBSETS[m.file]
        status, failed, seconds = _run(files, tests, baseline[tests]["failed"], m)
        result = "survived" if status == 0 else "killed"
        by = "timeout" if status is None else (failed[0] if failed else None)
        print(f"{m.name}: {result} ({by}), {seconds:.0f} s", flush=True)
        return {"name": m.name, "file": m.file, "result": result, "by": by, "seconds": round(seconds, 1)}

    results = []
    for m in mutants:
        r = run(m)
        results.append({**r, "expected": m.expected, "why": m.why or None})

    killed = sum(r["result"] == "killed" for r in results)
    equivalent = sum(r["result"] == "survived" and r["expected"] == "equivalent" for r in results)
    unexpected = [r["name"] for r in results if (r["result"] == "killed") != (r["expected"] == "killed")]
    report = {
        "hypothesis_seed": HYPOTHESIS_SEED,
        "baseline": list(baseline.values()),
        "mutants": results,
        "killed": killed,
        "equivalent": equivalent,
        "survived": len(results) - killed - equivalent,
        "score": round(killed / max(1, len(results) - equivalent), 4),
        "unexpected": unexpected,
    }
    if args.only is not None:
        report.update(partial=True, only=[m.name for m in mutants])
    if args.sample is not None:
        drawn = []
        for m, line, change in sampled:
            r = run(m)
            drawn.append({**r, "line": line, "change": change,
                          "result": "killed" if r["result"] == "killed" else "unclassified"})
        sample_killed = sum(r["result"] == "killed" for r in drawn)
        report["sample"] = {
            "n": args.sample, "seed": args.seed, "files": sample_files, "mutants": drawn,
            "killed": sample_killed, "unclassified": len(drawn) - sample_killed,
            "score": round(sample_killed / max(1, len(drawn)), 4),
        }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"{'partial ' if args.only is not None else ''}score {report['score']}: {killed} killed, "
          f"{equivalent} equivalent, {report['survived']} survived; unexpected: {unexpected or 'none'}")
    if args.sample is not None:
        print(f"sample score {report['sample']['score']}: {report['sample']['killed']} killed, "
              f"{report['sample']['unclassified']} unclassified")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
