"""Mutation runner: each mutant of ``tests/_mutants.py`` against its file's tests.

    python tests/mutate.py --out MUTATION.json
    python tests/mutate.py --out partial.json --only NAME[,NAME...]

Every run, the baseline ones included, gets a fresh copy of the tree (the
files git tracks or would track, as they stand in the working tree) in a
temporary directory, and one pytest process at a time, with hypothesis
seeded.  First each test subset runs unmutated; the tests that fail there
fail whatever the mutant, so they are deselected in the mutant runs.
Then each mutant runs with ``-x``: it is killed when any test fails or
errors, or when the run passes ``TIMEOUT`` seconds, and survives otherwise.
``--only`` runs just the named mutants and the baselines of their test
subsets; an unknown name exits 2 and lists the known ones.

The report lists each mutant's result and the score, the killed mutants
over all mutants but the survivors marked equivalent; a report of an
``--only`` run says ``"partial": true`` and names the mutants it ran, so
it is never taken for the score of the whole list.  The exit status is
1 when a result differs from the one the list expects, 2 when a mutant's
text does not occur exactly once in its file or a baseline run cannot
collect its tests, and 0 otherwise.  Not collected by pytest.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from _mutants import MUTANTS, SUBSETS  # noqa: E402

HYPOTHESIS_SEED = 0
TIMEOUT = 600.0  # seconds per pytest run


def _tree_files() -> list[str]:
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout.decode()
    return [f for f in listed.split("\0") if f and (ROOT / f).is_file()]


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
    args = parser.parse_args(argv)

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
    files = _tree_files()

    baseline: dict[tuple[str, ...], dict] = {}
    for tests in dict.fromkeys(SUBSETS[m.file] for m in mutants):
        status, failed, seconds = _run(files, tests, [])
        if status not in (0, 1):
            print(f"error: the unmutated run of {' '.join(tests)} gave pytest status {status}", file=sys.stderr)
            return 2
        baseline[tests] = {"tests": list(tests), "failed": failed, "seconds": round(seconds, 1)}
        print(f"baseline {' '.join(tests)}: {len(failed)} failed, {seconds:.0f} s", flush=True)

    results = []
    for m in mutants:
        tests = SUBSETS[m.file]
        status, failed, seconds = _run(files, tests, baseline[tests]["failed"], m)
        result = "survived" if status == 0 else "killed"
        results.append({
            "name": m.name, "file": m.file, "expected": m.expected, "result": result,
            "by": "timeout" if status is None else (failed[0] if failed else None),
            "why": m.why or None, "seconds": round(seconds, 1),
        })
        print(f"{m.name}: {result} ({results[-1]['by']}), {seconds:.0f} s", flush=True)

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
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"{'partial ' if args.only is not None else ''}score {report['score']}: {killed} killed, "
          f"{equivalent} equivalent, {report['survived']} survived; unexpected: {unexpected or 'none'}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
