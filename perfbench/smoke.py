"""Smoke run of the benchmark at tiny sizes; no timing thresholds.

    python3 perfbench/smoke.py

Runs every workload with ``--tiny``, untraced and traced, and asserts
that the last line names exactly the metrics of BENCHMARK.json with
their units, that every operation succeeded and every check held.  Also
asserts that a copy holding only BENCHMARK.json and perfbench/ (no
program to measure) exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)


def check_output(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, f"{workload} trace {trace}: checks failed\n{proc.stderr}"
    assert result["failed"] == 0, f"{workload} trace {trace}: {result['failed']} failed\n{proc.stderr}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    assert set(got) == set(wanted), f"missing {set(wanted) - set(got)}, extra {set(got) - set(wanted)}"
    for name, unit in wanted.items():
        assert got[name]["unit"] == unit, (name, got[name])
        assert isinstance(got[name]["value"], (int, float)), (name, got[name])


def check_without_program() -> None:
    bare = os.path.join(HERE, "out", "bare-copy")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run(bare, "decide", 0)
        assert proc.returncode != 0, "ran without the program"
        assert proc.stdout.strip() == "", proc.stdout
    finally:
        shutil.rmtree(bare)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_without_program()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_output(spec, workload, trace)
            print(f"ok {workload} trace {trace}", flush=True)
    print("smoke: all workloads ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
