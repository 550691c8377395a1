"""Named mutants of the program, run by ``tests/mutate.py``.

A mutant replaces one piece of text, which must occur exactly once in
its file, with another.  ``expected`` is what the file's test subset
should do to it: ``"killed"`` (some test fails) or ``"equivalent"`` (no
test can tell, and ``why`` argues so in one line).  The runner checks
both: a mutant marked killed that survives, or one marked equivalent
that is killed, means the tests or this list need a look.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    expected: str  # "killed" or "equivalent"
    why: str = ""  # for an equivalent mutant: why no test can tell


_KERNEL_AND_CHECKS = (
    "tests/test_subspace.py", "tests/test_decide.py", "tests/test_axioms.py", "tests/test_structures.py",
)

# The tests run against a mutant of each file.
SUBSETS: dict[str, tuple[str, ...]] = {
    "src/pqm/subspace.py": (*_KERNEL_AND_CHECKS, "tests/test_normalize.py"),
    "src/pqm/structures.py": _KERNEL_AND_CHECKS,
    "src/pqm/normalize.py": ("tests/test_normalize.py", "tests/test_decide.py"),
}

MUTANTS: tuple[Mutant, ...] = (
    # -- the lattice kernel
    Mutant(
        "rank-cut-without-absolute-floor", "src/pqm/subspace.py",
        "cut = RANK_TOL * max(1.0, float(s[0]))", "cut = RANK_TOL * float(s[0])", "killed",
    ),
    Mutant(
        "meet-without-frobenius-shortcut", "src/pqm/subspace.py",
        "    if float(_squared_columns(resid).sum()) < EQ_TOL**2:\n        return p\n", "", "killed",
    ),
    Mutant(
        "meet-vectors-reversed", "src/pqm/subspace.py",
        "p.basis @ vh[::-1][:kept].conj().T", "p.basis @ vh[::-1][:kept][::-1].conj().T", "killed",
    ),
    Mutant(
        "leq-without-column-norm-shortcut", "src/pqm/subspace.py",
        "    if float(columns.max()) >= EQ_TOL**2:\n        return False\n", "", "equivalent",
        "the largest sine is at least the largest column norm, so the SVD that follows says False too",
    ),
    Mutant(
        "leq-without-frobenius-shortcut", "src/pqm/subspace.py",
        "    if float(columns.sum()) < EQ_TOL**2:\n        return True\n", "", "equivalent",
        "the largest sine is at most the Frobenius norm, so the SVD that follows says True too",
    ),
    Mutant(
        "meet-cut-inclusive", "src/pqm/subspace.py",
        "kept = int(np.count_nonzero(sin < EQ_TOL))", "kept = int(np.count_nonzero(sin <= EQ_TOL))",
        "equivalent", "a computed sine lands exactly on EQ_TOL with probability zero",
    ),
    Mutant(
        "leq-cut-inclusive", "src/pqm/subspace.py",
        "return float(np.linalg.svd(resid, compute_uv=False)[0]) < EQ_TOL",
        "return float(np.linalg.svd(resid, compute_uv=False)[0]) <= EQ_TOL",
        "equivalent", "a computed sine lands exactly on EQ_TOL with probability zero",
    ),
    Mutant(
        "eq-tol-raised-hundredfold", "src/pqm/subspace.py",
        "EQ_TOL = 1e-8 ", "EQ_TOL = 1e-6 ", "killed",
    ),
    Mutant(
        "rank-tol-raised-hundredfold", "src/pqm/subspace.py",
        "RANK_TOL = 1e-10 ", "RANK_TOL = 1e-8 ", "killed",
    ),
    # -- the structure check
    Mutant(
        "skip-mask-dropped", "src/pqm/structures.py",
        "failed = hypothesis & ~skip & ~held", "failed = hypothesis & ~held", "killed",
    ),
    Mutant(
        "existential-shows-one-example", "src/pqm/structures.py",
        "[case_names(c) for c in np.flatnonzero(failed)[:_MAX_EXAMPLES]]",
        "[case_names(c) for c in np.flatnonzero(failed)[:1]]", "killed",
    ),
    Mutant(
        "morphism-evaluated-mask-dropped", "src/pqm/structures.py",
        "bad = evaluated & ((got < 0) |", "bad = ((got < 0) |", "killed",
    ),
    # -- the normal form
    Mutant(
        "negation-wraps-a-bnot", "src/pqm/normalize.py",
        "    if isinstance(m, BNot):\n        return m.arg\n",
        "    if isinstance(m, BNot):\n        return BNot(m)\n", "killed",
    ),
    Mutant(
        "flattening-stops-splicing", "src/pqm/normalize.py",
        "flat.extend(it.items)", "flat.append(it)", "killed",
    ),
    Mutant(
        "dnf-literals-free", "src/pqm/normalize.py",
        "    if isinstance(m, (_Lit, Leaf, BNot)):\n        run.charge(1)\n",
        "    if isinstance(m, (_Lit, Leaf, BNot)):\n", "killed",
    ),
)
