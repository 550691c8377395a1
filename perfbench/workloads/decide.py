"""decide: sentence texts through parse_problem, validate, normalize, evaluate.

The draw is seeded: random spans and unitaries at dims 3 and 6 and
sentences of depth <= 4 with <= 3 quantifiers, kept when their normal
form has at most LIGHT_LEAVES leaves.  Two fixed heavy sentences are
added whatever the seed: generator seeds 645 (41,472 leaves, 11 distinct
leaf objects) and 173 (15,309 leaves, 6,565 distinct).  They hold the
run time steady across seeds and carry ``ops_per_s``; the light draw
carries ``op_p50_ms``.  Every sentence S is followed by its negation ~S.
"""

from __future__ import annotations

import numpy as np

import gen
from common import Op, Workload, projector, residuals, same_space

# light sentences per dimension, three at dim 3 to one at dim 6: dim-6
# texts take about twice as long, and a 1:1 mix would put the median
# operation time in the gap between the two clusters
LIGHT = {3: 300, 6: 100}
LIGHT_LEAVES = 256
HEAVY_SEEDS = (645, 173)
EQ_TOL = 1e-8  # the containment tolerance of the semantics


def light_draw(seed: int, dim: int, count: int) -> list:
    """The first ``count`` draws at ``dim`` whose normal form is light."""
    out = []
    k = 0
    while len(out) < count:
        rng = np.random.default_rng([seed, dim, k])
        k += 1
        problem = gen.random_problem(rng, dim)
        sentence = gen.random_sentence(rng, problem, 4, 3)
        try:
            if gen.normal_form_leaves(sentence, budget=4096) > LIGHT_LEAVES:
                continue
        except gen.TooLarge:
            continue
        out.append((f"d{dim}/{k - 1}", problem, sentence))
    return out


def heavy(seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    problem = gen.random_problem(rng, 3)
    return f"heavy/{seed}", problem, gen.random_sentence(rng, problem, 4, 3)


# ---------------------------------------------------------------------------
# Independent checks


def witness_problems(verdict) -> list:
    """Each true leaf's witness must satisfy that leaf's literals."""
    groups: dict[int, tuple] = {}
    problems = []
    for leaf in verdict.leaves:
        if not leaf.truth:
            continue
        w = leaf.witness
        if w is None:
            problems.append("true leaf without witness")
            continue
        if w.rank == 0:
            if leaf.basic.negatives:
                problems.append("zero witness for a leaf with negative literals")
            continue
        if w.rank != 1:
            problems.append(f"witness of rank {w.rank}")
            continue
        groups.setdefault(id(leaf.basic), (leaf.basic, []))[1].append(w.basis[:, 0])
    for basic, cols in groups.values():
        w = np.column_stack(cols)
        for p in basic.positives:
            if residuals(projector(p.basis), w).max() >= EQ_TOL:
                problems.append("witness outside a positive literal")
        for q in basic.negatives:
            if residuals(projector(q.basis), w).min() < EQ_TOL:
                problems.append("witness inside a negative literal")
    return problems


class Unclear(Exception):
    """A rank or containment decision fell between ZERO and CLEAR."""


ZERO, CLEAR = 1e-10, 1e-5


def _null_space(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of m, refusing borderline ranks."""
    _, s, vh = np.linalg.svd(m)
    s = np.concatenate([s, np.zeros(m.shape[1] - s.size)])
    if np.any((s > ZERO) & (s < CLEAR)):
        raise Unclear()
    return vh.conj().T[:, s <= ZERO]


class RayEvaluator:
    """Evaluates a sentence over sampled rays and the zero space, without
    any normal form, by vector arithmetic alone.

    Every atom [t : p] on a variable x holds exactly on a subspace: the
    null space of (I - P_p) A_t, where A_t composes the projectors and
    unitaries of the term t.  For each quantifier the sample holds the
    zero vector and one random ray from every intersection of its atoms'
    subspaces.  A random ray of an intersection satisfies exactly the
    atoms whose subspace contains that intersection, so the sample shows
    every pattern of atom truth values that any element can show, and the
    evaluation is exact.  A decision too close to its threshold raises
    Unclear instead of answering.
    """

    def __init__(self, problem: gen.Problem, rng: np.random.Generator):
        self.dim = problem.dim
        self.proj = {n: projector(b) for n, b in problem.subspaces.items()}
        self.uni = problem.unitaries
        self.rng = rng
        self.samples: dict[int, list] = {}

    def atom_space(self, term: tuple, sym: str) -> np.ndarray:
        a = np.eye(self.dim, dtype=np.complex128)
        chain = []
        while term[0] != "var":
            chain.append(term)
            term = term[2]
        for t in reversed(chain):
            a = (self.proj[t[1]] if t[0] == "proj" else self.uni[t[1]]) @ a
        return _null_space((np.eye(self.dim) - self.proj[sym]) @ a)

    def sample(self, quant: tuple) -> list:
        """Truth-value patterns {atom: bool} that elements of the quantifier's variable show."""
        if id(quant) in self.samples:
            return self.samples[id(quant)]
        var, atoms = quant[1], set()

        def collect(f: tuple) -> None:
            if f[0] == "atom":
                t = f[1]
                while t[0] != "var":
                    t = t[2]
                if t[1] == var:
                    atoms.add((f[1], f[2]))
            else:
                for g in f[1:]:
                    if isinstance(g, tuple):
                        collect(g)

        collect(quant[2])
        spaces = {atom: self.atom_space(*atom) for atom in atoms}
        meets = [np.eye(self.dim, dtype=np.complex128)]
        for s in spaces.values():
            for m in list(meets):
                if m.shape[1] == 0 or s.shape[1] == 0:
                    continue
                both = np.linalg.qr(m @ _null_space(np.hstack([m, -s]))[: m.shape[1]])[0]
                if both.shape[1] and all(not same_space(both, k) for k in meets):
                    meets.append(both)
        patterns = [{atom: True for atom in atoms}]  # the zero space
        for m in meets:
            ray = m @ gen.complex_gaussian(self.rng, m.shape[1])
            pattern = {}
            for atom, s in spaces.items():
                r = residuals(projector(s), ray[:, None])[0] if s.shape[1] else 1.0
                if ZERO * 100 < r < CLEAR:
                    raise Unclear()
                pattern[atom] = bool(r <= ZERO * 100)
            if pattern not in patterns:
                patterns.append(pattern)
        self.samples[id(quant)] = patterns
        return patterns

    def eval(self, f: tuple, env: dict | None = None) -> bool:
        env = env or {}
        kind = f[0]
        if kind == "atom":
            t = f[1]
            while t[0] != "var":
                t = t[2]
            return env[t[1]][(f[1], f[2])]
        if kind == "not":
            return not self.eval(f[1], env)
        if kind in _OPS:
            return _OPS[kind](self.eval(f[1], env), self.eval(f[2], env))
        found = (self.eval(f[2], {**env, f[1]: p}) for p in self.sample(f))
        return any(found) if kind == "exists" else all(found)


_OPS = {
    "and": lambda a, b: a and b,
    "or": lambda a, b: a or b,
    "imp": lambda a, b: (not a) or b,
    "iff": lambda a, b: a == b,
}


# ---------------------------------------------------------------------------


def build(seed: int, tiny: bool, out_dir: str) -> Workload:
    import importlib

    decide = importlib.import_module("pqm.decide")
    lang = importlib.import_module("pqm.lang")
    # the package re-exports the function normalize under the module's name
    normalize = importlib.import_module("pqm.normalize")

    count = {3: 12, 6: 4} if tiny else LIGHT
    d3, d6 = light_draw(seed, 3, count[3]), light_draw(seed, 6, count[6])
    light = [x for k, d6_item in enumerate(d6) for x in d3[3 * k:3 * k + 3] + [d6_item]]
    # heavy sentences sit between chunks of light ones, so the light
    # timings are spread over the whole run rather than its first seconds
    heavies = [] if tiny else [heavy(s) for s in HEAVY_SEEDS]
    chunk = -(-len(light) // (len(heavies) + 1))
    items = []
    for k in range(len(heavies) + 1):
        items += light[k * chunk:(k + 1) * chunk] + heavies[k:k + 1]

    def run(text: str):
        problem = lang.parse_problem(text)
        diags = lang.validate(problem)
        combo = normalize.normalize(problem.sentence, problem)
        return diags, decide.evaluate(combo, problem.dim)

    def digest(result):
        return result[1].truth, len(result[1].leaves)

    truths: dict[str, bool] = {}

    def checker(index: int, label: str, problem: gen.Problem, sentence: tuple, negated: bool):
        def check(result) -> list:
            diags, verdict = result
            found = [f"{label}: {d.severity}: {d.message}" for d in diags if d.severity == "error"]
            found += [f"{label}: {p}" for p in witness_problems(verdict)]
            if negated:
                if verdict.truth == truths[label]:
                    found.append(f"{label}: S and ~S got the same verdict {verdict.truth}")
            else:
                truths[label] = verdict.truth
                try:
                    rays = RayEvaluator(problem, np.random.default_rng([seed, index])).eval(sentence)
                except Unclear:
                    rays = verdict.truth
                if rays != verdict.truth:
                    found.append(f"{label}: sampled rays say {rays}, decider says {verdict.truth}")
            return found

        return check

    ops = []
    for index, (label, problem, sentence) in enumerate(items):
        for negated in (False, True):
            s = ("not", sentence) if negated else sentence
            text = gen.problem_text(problem, s)
            ops.append(Op(
                ("~" if negated else "") + label,
                lambda text=text: run(text),
                checker(index, label, problem, sentence, negated),
                digest,
            ))
    return Workload(ops)
