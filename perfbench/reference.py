"""Reference figures for the table in ROADMAP item 1, and the src/ line count.

    python3 perfbench/reference.py

Each figure is the median of REPEATS timings on one process with BLAS
pinned to one thread.  Not a gated benchmark: the numbers go into
perfbench/README.md by hand.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REPEATS = 5


def median_s(fn, repeats: int = REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t)
    return statistics.median(samples)


def main() -> int:
    sys.path.insert(0, HERE)
    from run import child_env

    def wall(args: list) -> float:
        return median_s(lambda: subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                                               stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL))

    rows = [
        ("python3 -c pass", wall(["-c", "pass"])),
        ("python3 -c 'import numpy'", wall(["-c", "import numpy"])),
        ("python3 -c 'import pqm'", wall(["-c", "import pqm"])),
        ("pqm decide samples/bell.pqm", wall(["-m", "pqm.cli", "decide", "samples/bell.pqm"])),
        ("pqm model-check samples/model3.json", wall(["-m", "pqm.cli", "model-check", "samples/model3.json"])),
        ("pqm kappa samples/model3.json", wall(["-m", "pqm.cli", "kappa", "samples/model3.json"])),
    ]

    os.environ.update({k: v for k, v in child_env().items() if k.endswith("THREADS")})
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    import pqm
    from workloads.structures import boolean_structure

    rows += [
        ("axiom suite, dim 3, 500 samples", median_s(lambda: pqm.check_axiom_suite(3, samples=500), 1)),
        ("axiom suite, dim 8, 200 samples", median_s(lambda: pqm.check_axiom_suite(8, samples=200), 1)),
        ("rule suite, dim 3, 500 samples", median_s(lambda: pqm.check_rule_suite(3, samples=500), 1)),
    ]
    for d in (3, 4, 5):
        s = pqm.parse_structure_json(json.loads(json.dumps(boolean_structure(np.random.default_rng(d), d)[0])))
        rows.append((f"model-check, Boolean fragment, dim {d}",
                     median_s(lambda: pqm.check_characterization(s), 1 if d == 5 else 3)))
    rng = np.random.default_rng(0)
    for d in (3, 16, 64):
        p = pqm.random_subspace(rng, d, rank=d // 2)
        q = pqm.random_subspace(rng, d, rank=d // 2 + 1)
        n = 2000 if d < 64 else 100
        rows.append((f"meet at d = {d}", median_s(lambda: [pqm.meet(p, q) for _ in range(n)]) / n))
        if d == 3:
            m = np.hstack([p.basis, q.basis])
            rows.append(("one SVD of the same pair at d = 3",
                         median_s(lambda: [np.linalg.svd(m) for _ in range(n)]) / n))

    for label, seconds in rows:
        print(f"{label:40s} {seconds * 1e3:10.3f} ms")
    src = os.path.join(ROOT, "src")
    lines = sum(
        sum(1 for _ in open(os.path.join(dirpath, f), encoding="utf-8"))
        for dirpath, _, files in os.walk(src) for f in files if f.endswith(".py")
    )
    print(f"{'src/ lines (*.py)':40s} {lines:10d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
