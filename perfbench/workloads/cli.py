"""cli: ``python -m pqm.cli`` subprocesses, one at a time.

No ``pqm`` executable is installed in a plain checkout, so the module is
run with ``-m`` and ``PYTHONPATH=src``.  One round covers every
subcommand on samples/ (decide, circuit, model-check, kappa,
check-axioms and check-rules at small sample counts, and the four
oracles), each in text and in ``--emit json``.  Process start and
imports are most of an invocation; kappa is the one with real in-process
work.  The traced run calls ``pqm.cli.main`` in process with the same
arguments, so the layer split of an invocation is visible.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np

import gen
from common import Op, Workload, projector, same_space
from workloads.structures import model3_values


def own_steps(a: float) -> int:
    """Applications of a -> a / sqrt(1 - a^2) until the value reaches 1."""
    x, k = a, 0
    while x < 1.0:
        x = x / math.sqrt(1.0 - x * x)
        k += 1
    return k


def ellipse_inner(a: float, x: float, y: float) -> float:
    """Inner product of the residuals of (+-a, 0, 1) against the probe (x, y, 1)."""
    w = np.array([x, y, 1.0])
    v = [u - (w @ u) / (w @ w) * w for u in (np.array([a, 0.0, 1.0]), np.array([-a, 0.0, 1.0]))]
    return float(v[0] @ v[1])


def interior_eigenvalue(p: np.ndarray, q: np.ndarray) -> float:
    """Eigenvalue of q's projector compressed to p, strictly inside (0, 1), nearest 1/2."""
    lam = np.linalg.eigvalsh(p.conj().T @ projector(q) @ p)
    inside = [x for x in lam if 1e-9 < x < 1 - 1e-9]
    return min(inside, key=lambda x: abs(x - 0.5))


def _basis(obj: dict) -> np.ndarray:
    cols = [[complex(re, im) for re, im in v] for v in obj["basis"]]
    return np.array(cols, dtype=np.complex128).reshape(-1, obj["dim"]).T


def build(seed: int, tiny: bool, out_dir: str) -> Workload:
    import importlib

    cli = importlib.import_module("pqm.cli")
    rng = np.random.default_rng([seed, 11])
    # 1/a^2 sits halfway between integers, far from the step count's jumps
    n_steps = int(rng.integers(3, 12))
    a_steps = 1.0 / math.sqrt(n_steps + 0.5)
    a_collapse = 1.0 / math.sqrt(int(rng.integers(2, 8)) + 0.5)
    a_ell = float(rng.uniform(0.3, 0.8))
    x_ell = float(rng.uniform(0.1, 0.9)) * a_ell
    y_ell = math.sqrt((a_ell**2 - x_ell**2) / (1.0 - a_ell**2))  # on the ellipse
    plane, ray = gen.random_unitary(rng, 3)[:, :2], gen.random_unitary(rng, 3)[:, :1]
    defs = os.path.join(out_dir, f"cli_incompat_{seed}.pqm")
    with open(defs, "w", encoding="utf-8") as fh:
        fh.write(gen.definitions_text(3, {"r1": plane, "r2": ray}, {}))
    suite_seed = str(int(rng.integers(0, 2**31)))
    samples = "4" if tiny else "20"
    model3 = model3_values()

    def circuit_check(code, out):
        if out["impossible"] != (code == 1):
            return ["impossible flag disagrees with the exit code"]
        if code == 0:
            v = _basis(out["final"])
            e = np.array([1, 0, 0, 1]) / math.sqrt(2)
            if v.shape[1] != 1 or abs(abs(np.vdot(e, v[:, 0])) - 1) > 1e-9:
                return ["final state is not the ray of (1,0,0,1)/sqrt(2)"]
        return []

    def kappa_check(code, out):
        found = []
        for m, r in out["elements"].items():
            if r["symbol"] != m.rsplit("_", 1)[0]:
                found.append(f"kappa({m}) = {r['symbol']}")
            elif not same_space(_basis({"dim": 3, **r}), model3[m]):
                found.append(f"kappa({m}) basis is not the element's value")
        return found

    # name, argv, expected exit code, json check (code, parsed) -> problems,
    # text check (stdout) -> problems
    specs = [
        # bell.pqm: "no state can end there" -- the assertion holds
        ("decide bell", ["decide", "samples/bell.pqm"], 0,
         lambda c, o: [] if o["truth"] is True else ["truth is not true"],
         lambda t: [] if t.splitlines()[0] == "true" else ["first line is not 'true'"]),
        # contradiction.pqm: "the assertion is false and the command exits 1"
        ("decide contradiction", ["decide", "samples/contradiction.pqm"], 1,
         lambda c, o: [] if o["truth"] is False else ["truth is not false"],
         lambda t: [] if t.splitlines()[0] == "false" else ["first line is not 'false'"]),
        # bell_circuit.pqm: "the final state is the ray spanned by (1,0,0,1)/sqrt(2)"
        ("circuit bell", ["circuit", "samples/bell_circuit.pqm"], 0, circuit_check,
         lambda t: [] if t.splitlines()[-1] == "possible" else ["not 'possible'"]),
        # bell_circuit_impossible.pqm: "the final subspace collapses to the zero space"
        ("circuit impossible", ["circuit", "samples/bell_circuit_impossible.pqm"], 1, circuit_check,
         lambda t: [] if t.splitlines()[-1] == "impossible" else ["not 'impossible'"]),
        # model3.json is the image structure of a Boolean fragment: a model
        ("model-check model3", ["model-check", "samples/model3.json"], 0,
         lambda c, o: [] if o["verdict"] == "model" else [f"verdict {o['verdict']}"],
         lambda t: [] if t.splitlines()[0] == "verdict: model" else ["verdict is not model"]),
        ("kappa model3", ["kappa", "samples/model3.json"], 0, kappa_check,
         lambda t: [f"line {line!r}" for line in t.splitlines()
                    if line.split(": ")[1] != line.split(": ")[0].rsplit("_", 1)[0]]),
        ("check-axioms", ["check-axioms", "--dim", "3", "--samples", samples, "--seed", suite_seed], 0,
         lambda c, o: [] if o["ok"] and o["total_violations"] == 0 else ["suite not ok"],
         lambda t: [] if t.splitlines()[-1] == "OK" else ["suite not OK"]),
        ("check-rules", ["check-rules", "--dim", "3", "--samples", samples, "--seed", suite_seed,
                         "--derived-axioms", "--derived-samples", samples], 0,
         lambda c, o: [] if o["ok"] and o["total_violations"] == 0 else ["suite not ok"],
         lambda t: [] if t.splitlines()[-1] == "OK" else ["suite not OK"]),
        ("oracle f-steps", ["oracle", "f-steps", repr(a_steps)], 0,
         lambda c, o: [] if o["steps"] == own_steps(a_steps) else [f"steps {o['steps']}"],
         lambda t: [] if t.splitlines()[0] == f"steps: {own_steps(a_steps)}" else ["wrong step count"]),
        ("oracle ellipse", ["oracle", "ellipse", repr(a_ell), repr(x_ell), repr(y_ell)], 0,
         lambda c, o: [] if o["orthogonal"] and abs(o["inner"] - ellipse_inner(a_ell, x_ell, y_ell)) < 1e-9
         else ["probe on the ellipse not reported orthogonal"],
         lambda t: [] if t.splitlines()[-1] == "orthogonal" else ["not 'orthogonal'"]),
        ("oracle incompat", ["oracle", "incompat", defs, "r1", "r2"], 0,
         lambda c, o: [] if abs(o["eigenvalue"] - interior_eigenvalue(plane, ray)) < 1e-9
         else [f"eigenvalue {o['eigenvalue']}"],
         lambda t: [] if t.startswith("eigenvalue: ") else ["no eigenvalue line"]),
        ("oracle collapse", ["oracle", "collapse", repr(a_collapse)], 0,
         lambda c, o: [] if o["rounds"] == own_steps(a_collapse) else [f"rounds {o['rounds']}"],
         lambda t: [] if t.splitlines()[0] == f"rounds: {own_steps(a_collapse)}" else ["wrong round count"]),
    ]

    def subprocess_run(argv: list):
        proc = subprocess.run([sys.executable, "-m", "pqm.cli", *argv], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        return proc.returncode, proc.stdout, proc.stderr

    def in_process_run(argv: list):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    first_json: dict[str, str] = {}

    def make_op(run, name: str, argv: list, code: int, json_check, text_check, emit: str) -> Op:
        label = f"{name} ({emit})"
        argv = argv + (["--emit", "json"] if emit != "text" else [])

        def fn():
            result = run(argv)
            if result[0] not in (0, 1):
                raise RuntimeError(f"exit {result[0]}: {result[2].strip()[-300:]}")
            return result

        def check(result) -> list:
            got, out, _ = result
            found = [] if got == code else [f"exit {got}, expected {code}"]
            if emit == "text":
                found += text_check(out)
            elif emit == "json":
                first_json[name] = out
                found += json_check(got, json.loads(out))
            elif out != first_json[name]:
                found.append("second --emit json run printed different bytes")
            return [f"{label}: {p}" for p in found]

        return Op(label, fn, check, lambda result: (result[0], result[1]))

    def ops_for(run) -> list:
        # two json runs of each input, checked to be byte-identical
        return [make_op(run, *spec, emit) for spec in specs for emit in ("text", "json", "json again")]

    return Workload(ops_for(subprocess_run), traced_ops=ops_for(in_process_run), peak_rss_of_children=True)
