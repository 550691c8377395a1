"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 15 --trace 0

Run from the repository root.  With ``--trace 0`` the workload runs
untraced in a child process and the last line printed is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (ops_per_s, op_p50_ms, setup_s,
peak_rss_mb).  ``setup_s`` is the median over SETUP_SAMPLES processes
that each set the workload up from a cold interpreter.  With
``--trace 1`` two traced child processes give the per-layer metrics;
their counts must agree exactly.  Children run with BLAS pinned to one
thread.  Only the standard library is used here; a missing ``src/pqm``
is an error (exit 2) and nothing is printed on standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 5
START_SAMPLES = 7
DEADLINE_S = 170.0
PINNED = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(cmd: list, deadline: float) -> str:
    """Run to completion (killed at the deadline) and return its stdout."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {' '.join(cmd[1:4])}") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:4])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def worker(args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--out", OUT, "--t0", repr(time.monotonic())]
    if args.tiny:
        cmd.append("--tiny")
    lines = run_child(cmd, deadline).strip().splitlines()
    if not lines:
        raise BenchError(f"worker {mode} printed nothing")
    return json.loads(lines[-1])


def start_ms(code: str, deadline: float) -> float:
    """Median wall time of ``python3 -c code`` from spawn to exit."""
    samples = []
    for _ in range(START_SAMPLES):
        t = time.perf_counter()
        run_child([sys.executable, "-c", code], deadline)
        samples.append((time.perf_counter() - t) * 1e3)
    return statistics.median(samples)


def measure(args, deadline: float) -> dict:
    setups = [worker(args, "setup", deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    result = worker(args, "measure", deadline)
    setups.append(result["metrics"]["setup_s"])
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["setup_samples"] = setups
    return result


def trace(args, deadline: float) -> dict:
    starts = {
        "start.python_ms": start_ms("pass", deadline),
        "start.numpy_ms": start_ms("import numpy", deadline),
        "start.pqm_import_ms": start_ms("import pqm", deadline),
    }
    a = worker(args, "trace-a", deadline)
    b = worker(args, "trace-b", deadline)
    problems = list(a["problems"]) + list(b["problems"])
    if a["counts"] != b["counts"]:
        differ = sorted(
            f"{group}.{key}"
            for group in ("calls", "counts", "stats")
            for key in set(a["counts"][group]) | set(b["counts"][group])
            if a["counts"][group].get(key) != b["counts"][group].get(key)
        )
        problems.append(f"counts differ between two traced runs: {differ or ['spans']}")
    metrics = {**starts, **a["metrics"]}
    metrics["trace.overhead_pct"] = (a["traced_s"] / a["untraced_s"] - 1.0) * 100.0
    metrics["trace.spans"] = a["counts"]["spans"]
    return {
        "correct": a["correct"] and b["correct"] and not problems,
        "attempted": a["attempted"] + b["attempted"],
        "failed": a["failed"] + b["failed"],
        "problems": problems,
        "metrics": metrics,
    }


def units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("cli", "decide", "suites", "structures"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "pqm", "__init__.py")):
        print("perfbench: src/pqm not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    try:
        result = trace(args, deadline) if args.trace else measure(args, deadline)
        unit_of = units()
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for problem in result.get("problems", []):
        print(f"problem: {problem}", file=sys.stderr)
    metrics = {name: {"value": value, "unit": unit_of[name]} for name, value in result["metrics"].items()}
    line = json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    })
    name = f"result_{args.workload}_seed{args.seed}_trace{args.trace}{'_tiny' if args.tiny else ''}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump({**result, "line": json.loads(line)}, fh, indent=1, sort_keys=True)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
