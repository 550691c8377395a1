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

_SUITES = ("tests/test_axioms.py", "tests/test_circuit.py", "tests/test_sampling.py")

# The tests run against a mutant of each file.
SUBSETS: dict[str, tuple[str, ...]] = {
    "src/pqm/sampling.py": _SUITES,
    "src/pqm/axioms.py": _SUITES,
    "src/pqm/circuit.py": _SUITES,
    "src/pqm/subspace.py": (*_KERNEL_AND_CHECKS, "tests/test_normalize.py"),
    "src/pqm/structures.py": _KERNEL_AND_CHECKS,
    "src/pqm/normalize.py": ("tests/test_normalize.py", "tests/test_decide.py"),
    "src/pqm/decide.py": ("tests/test_normalize.py", "tests/test_decide.py"),
    "src/pqm/lang.py": ("tests/test_lang.py", "tests/test_lexer.py", "tests/test_cli.py"),
    "src/pqm/cli.py": ("tests/test_cli.py",),
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
    Mutant(
        "span-of-finiteness-unchecked", "src/pqm/subspace.py",
        "    if not np.isfinite(a).all():\n        raise ValueError(\"vector entries must be finite\")\n", "",
        "killed",
    ),
    # -- the stacked kernel
    Mutant(
        "stacked-rank-cut-without-absolute-floor", "src/pqm/subspace.py",
        "cut = RANK_TOL * np.maximum(1.0, s[:, 0])", "cut = RANK_TOL * s[:, 0]", "killed",
    ),
    Mutant(
        "stacked-meet-cut-inclusive", "src/pqm/subspace.py",
        "rank[chunk] = np.count_nonzero(sin < EQ_TOL, axis=-1)",
        "rank[chunk] = np.count_nonzero(sin <= EQ_TOL, axis=-1)",
        "equivalent", "a computed sine lands exactly on EQ_TOL with probability zero",
    ),
    Mutant(
        "leq-table-band-always-contained", "src/pqm/subspace.py",
        "below[j, i] = np.linalg.svd(band, compute_uv=False)[:, 0] < EQ_TOL", "below[j, i] = True", "killed",
    ),
    Mutant(
        "leq-table-band-never-contained", "src/pqm/subspace.py",
        "below[j, i] = np.linalg.svd(band, compute_uv=False)[:, 0] < EQ_TOL", "below[j, i] = False", "killed",
    ),
    Mutant(
        "stacked-leq-band-svd-skipped", "src/pqm/subspace.py",
        "        if band.size:\n"
        "            below[band] = np.linalg.svd(resid[band], compute_uv=False)[:, 0] < EQ_TOL\n",
        "", "killed",
    ),
    Mutant(
        "leq-table-empty-second-stack-reshaped", "src/pqm/subspace.py",
        "if k == 0 or not len(q):", "if k == 0:", "killed",
    ),
    # -- the samplers
    Mutant(
        "sampler-keeps-every-column", "src/pqm/sampling.py",
        "_phase_corrected_q(z[:, :rank])", "_phase_corrected_q(z)", "killed",
    ),
    Mutant(
        "sampler-factors-every-column", "src/pqm/sampling.py",
        "_phase_corrected_q(z[:, :rank])", "_phase_corrected_q(z)[:, :rank]", "equivalent",
        "the first k columns of a Householder QR's Q depend only on the first k columns of the matrix; "
        "this is the route the sampler tests compare against, so only the time differs",
    ),
    Mutant(
        "ray-or-bot-draws-a-block-of-two", "src/pqm/sampling.py",
        "return _first(random_rays_or_bot(rng, 1, dim))", "return _first(random_rays_or_bot(rng, 2, dim))",
        "killed",
    ),
    Mutant(
        "within-mask-takes-a-padding-row", "src/pqm/sampling.py",
        "mask = (columns < s.rank[:, None])", "mask = (columns <= s.rank[:, None])", "equivalent",
        "the extra row of coefficients multiplies a zero padding column of s, and the Gaussian is drawn whole "
        "either way",
    ),
    # -- the random suites
    Mutant(
        "meet-informational-at-every-dim", "src/pqm/axioms.py",
        "informational=(axiom.name == \"meet\" and dim < 3)",
        "informational=(axiom.name == \"meet\" or dim < 3)", "killed",
    ),
    Mutant(
        "sampled-verify-draws-for-a-full-p", "src/pqm/axioms.py",
        "todo = np.flatnonzero(s[:, :, 0].any(axis=-1) & ~p[:, :, -1].any(axis=-1))",
        "todo = np.flatnonzero(s[:, :, 0].any(axis=-1))", "killed",
    ),
    Mutant(
        "sampled-overlap-cut-inclusive", "src/pqm/axioms.py",
        "np.all(overlaps < EQ_TOL**2 * sub._squared_columns(coeffs), axis=-1)",
        "np.all(overlaps <= EQ_TOL**2 * sub._squared_columns(coeffs), axis=-1)", "equivalent",
        "an overlap lands exactly on its cut with probability zero; a zero cut needs a zero complement, "
        "which is decided without a draw",
    ),
    # -- the blocks of the random axiom suites
    Mutant(
        "project-chain-free-coin-inclusive", "src/pqm/axioms.py",
        "free = rng.random(n) < 0.5", "free = rng.random(n) <= 0.5", "equivalent",
        "rng.random() returns exactly 0.5 with probability 2**-53",
    ),
    Mutant(
        "project-chain-shift-coin-inclusive", "src/pqm/axioms.py",
        "shifted = (rng.random(len(ones)) < 0.5)", "shifted = (rng.random(len(ones)) <= 0.5)", "equivalent",
        "rng.random() returns exactly 0.5 with probability 2**-53",
    ),
    Mutant(
        "meet-padding-mask-off-by-one", "src/pqm/axioms.py",
        "padding = np.arange(dim) >= p.rank[:, None]", "padding = np.arange(dim) > p.rank[:, None]", "killed",
    ),
    Mutant(
        "both-reads-only-its-first-side", "src/pqm/axioms.py",
        "both, no = staticmethod(lambda a, b: a & b()), staticmethod(np.logical_not)",
        "both, no = staticmethod(lambda a, b: a), staticmethod(np.logical_not)", "killed",
    ),
    Mutant(
        "axiom-block-bound-ignored", "src/pqm/axioms.py",
        "for block in sub.stack_chunks(samples, dim * dim):", "for block in sub.stack_chunks(samples, 1):",
        "killed",
    ),
    Mutant(
        "conclusion-read-only-where-the-hypothesis-holds", "src/pqm/axioms.py",
        "            concl = np.broadcast_to(axiom.conclusion(interp, *args), n)\n",
        "            concl = np.ones(n, dtype=bool)\n"
        "            held = [a[hyp] if isinstance(a, np.ndarray) else _take(a, hyp) for a in args]\n"
        "            concl[hyp] = axiom.conclusion(_OverStacks(verify, int(hyp.sum()), dim), *held)\n",
        "killed",
    ),
    Mutant(
        "fold-flag-at-most-one", "src/pqm/circuit.py",
        "return [state.shape[1] == 0 for state in states]", "return [state.shape[1] <= 1 for state in states]",
        "killed",
    ),
    Mutant(
        "fold-projection-without-adjoint", "src/pqm/circuit.py",
        "q.conj().swapaxes(-1, -2) @ s", "q.swapaxes(-1, -2) @ s", "killed",
    ),
    Mutant(
        "fold-unitary-rank-unchecked", "src/pqm/circuit.py",
        "                if np.any(kept != rank):\n"
        "                    raise sub.InternalInvariantError(\"unitary image changed rank\")\n",
        "", "killed",
    ),
    Mutant(
        "pair-join-law-either-ray", "src/pqm/circuit.py",
        "(one and two, joined)", "(one or two, joined)", "killed",
    ),
    Mutant(
        "last-partial-block-never-flushed", "src/pqm/circuit.py",
        "        if block:\n            tallies.append(_tally(law, block))\n", "", "killed",
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
    Mutant(  # the bare interp.unresolved is a Python bool where no conclusion verifies, and crashes on .sum()
        "skip-mask-without-hypothesis", "src/pqm/structures.py",
        "skip = hypothesis & interp.unresolved", "skip = np.logical_or(interp.unresolved, False)", "killed",
    ),
    Mutant(
        "hits-leave-out-skipped-instances", "src/pqm/structures.py",
        "hits, skipped = int(hypothesis.sum()), int(skip.sum())",
        "hits, skipped = int((hypothesis & ~skip).sum()), int(skip.sum())", "killed",
    ),
    Mutant(
        "conditional-shows-one-example-fewer", "src/pqm/structures.py",
        "np.unravel_index(np.flatnonzero(failed)[:_MAX_EXAMPLES], shape)",
        "np.unravel_index(np.flatnonzero(failed)[:_MAX_EXAMPLES - 1], shape)", "killed",
    ),
    Mutant(
        "morphism-evaluated-mask-dropped", "src/pqm/structures.py",
        "bad = evaluated & ((got < 0) |", "bad = ((got < 0) |", "killed",
    ),
    # -- the fragment index's shortcuts
    Mutant(
        "meet-table-mirror-dropped", "src/pqm/structures.py",
        "                if term == \"meet\":\n                    table[second, first] = table[first, second]\n",
        "", "killed",
    ),
    Mutant(
        "ordered-pair-reads-the-larger-symbol", "src/pqm/structures.py",
        "np.where(self.below, self._first_equal[:, None], self._first_equal)",
        "np.where(self.below, self._first_equal, self._first_equal[:, None])", "killed",
    ),
    Mutant(
        "sasaki-and-table-taken-as-symmetric", "src/pqm/structures.py",
        "symmetric=term == \"meet\"", "symmetric=True", "killed",
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
        "    if isinstance(m, (_Lit, BasicSentence, BNot)):\n        run.charge(1)\n",
        "    if isinstance(m, (_Lit, BasicSentence, BNot)):\n", "killed",
    ),
    # -- the decider
    Mutant(
        "containment-keyed-by-negative", "src/pqm/decide.py",
        "_once(self.contains, (id(p_inf), id(q)), leq, p_inf, q)",
        "_once(self.contains, id(q), leq, p_inf, q)", "killed",
    ),
    Mutant(
        "meet-keyed-by-literal", "src/pqm/decide.py",
        "_once(self.meets, (id(p_inf), id(p)), meet, p_inf, p)",
        "_once(self.meets, id(p), meet, p_inf, p)", "killed",
    ),
    Mutant(
        "disjunction-witness-from-the-right", "src/pqm/decide.py",
        "lw if lt else (rw if rt else None)", "rw if rt else (lw if lt else None)", "killed",
    ),
    # -- the front end
    Mutant(
        "depth-bound-inclusive", "src/pqm/lang.py",
        "if depth > MAX_FORMULA_DEPTH:", "if depth >= MAX_FORMULA_DEPTH:", "killed",
    ),
    Mutant(
        "imaginary-part-sign-dropped", "src/pqm/lang.py",
        "im[1] if op == \"+\" else -im[1]", "im[1]", "killed",
    ),
    Mutant(
        "conjunction-right-operand-unwrapped", "src/pqm/lang.py",
        "f\"{_pp(f.left, 4)} & {_pp(f.right, 5)}\"", "f\"{_pp(f.left, 4)} & {_pp(f.right, 4)}\"", "killed",
    ),
    Mutant(
        "fractional-dimension-accepted", "src/pqm/lang.py",
        " or dim_f != int(dim_f)", "", "killed",
    ),
    Mutant(
        "bulk-imaginary-sign-dropped", "src/pqm/lang.py",
        "[*map(complex, chain.from_iterable(rows))]",
        "[complex(z.real, abs(z.imag)) for z in map(complex, chain.from_iterable(rows))]", "killed",
    ),
    Mutant(
        "bulk-real-entry-imaginary-zero-negated", "src/pqm/lang.py",
        "[*map(complex, chain.from_iterable(rows))]",
        "[complex(e) if \"j\" in e else complex(float(e), -0.0) for e in chain.from_iterable(rows)]",
        "killed",
    ),
    Mutant(
        "bulk-whitespace-widened", "src/pqm/lang.py",
        "_WS = r\"[ \\t\\r\\n]*\"", "_WS = r\"\\s*\"", "killed",
    ),
    Mutant(
        "bulk-accepts-bare-imaginary", "src/pqm/lang.py",
        "(?:[+-]{_NUM}i)?\"", "(?:[+-]{_NUM}i|i)?\"", "equivalent",
        "complex(\"-bj\") has the real part +0.0 that the token route gives -bi (only the expression -(bj) has -0.0)",
    ),
    # -- the command line
    Mutant(
        "envelope-without-oracle", "src/pqm/cli.py",
        "    if args.command == \"oracle\":\n        head[\"oracle\"] = args.oracle\n", "", "killed",
    ),
    Mutant(
        "law-line-not-informational", "src/pqm/cli.py",
        "extra = \" (informational)\" if r.informational else \"\"", "extra = \"\"", "killed",
    ),
    Mutant(
        "memory-error-as-internal-error", "src/pqm/cli.py",
        "    except MemoryError:\n", "    except ArithmeticError:\n", "killed",
    ),
    Mutant(
        "seed-accepts-minus-one", "src/pqm/cli.py",
        "def _non_negative(text: str, least: int = 0)", "def _non_negative(text: str, least: int = -1)",
        "killed",
    ),
)
