"""Finite structures: validation, filters, least members, modelhood."""

import hashlib
import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pqm.axioms
import pqm.subspace
from pqm.lang import MAX_DIM, MAX_ELEMENTS, MAX_SYMBOLS, MAX_UNITARIES
from pqm.structures import (
    FiniteStructure,
    StructureValidationError,
    TableUnitary,
    _vector,
    _vectors,
    check_characterization,
    check_strong_morphism,
    check_structure_axioms,
    kappa_of,
    load_structure,
    parse_structure_json,
)
from pqm.sampling import random_subspace, random_unitary
from pqm.subspace import (
    EQ_TOL,
    DimensionMismatchError,
    InternalInvariantError,
    Subspace,
    UnitaryOp,
    apply_unitary,
    bottom,
    compatible,
    eq,
    leq,
    meet,
    ortho,
    sasaki_and,
    sasaki_hook,
    span_of,
    top,
)

from _corpus import (
    boolean_fragment, build_corpus, build_mutants, image_structure, mixed_fragment, structure_to_json,
)
from _routes import (
    check_incompatible_pairs, check_ray_coverage, check_two_ray_floor, filter_of, fragment_tables_by_all_pairs,
    projectors_commute, saturate, strong_morphism_by_pairs, structure_axioms_by_instances,
)
from test_fuzz import HOSTILE_VALUES, structure_json

E1 = np.array([1, 0, 0], dtype=complex)
E2 = np.array([0, 1, 0], dtype=complex)
E3 = np.array([0, 0, 1], dtype=complex)


def _basis_json(*vecs):
    cols = np.array(vecs, dtype=complex).T
    return [[[float(z.real), float(z.imag)] for z in cols[:, k]] for k in range(cols.shape[1])]


def tiny_structure_json():
    """One element verifying two planes whose line meet is absent."""
    return {
        "dim": 3,
        "domain": ["m"],
        "subspaces": {
            "top": _basis_json(E1, E2, E3),
            "bot": [],
            "p": _basis_json(E1, E2),
            "q": _basis_json(E2, E3),
        },
        "projectors": {},
        "unitaries": {},
        "relation": [["m", "top"], ["m", "p"], ["m", "q"]],
    }


def test_committed_sample_is_a_model(samples_dir):
    s = load_structure(str(samples_dir / "model3.json"))
    report = check_characterization(s)
    assert report.verdict == "model"
    assert report.axioms.total_skipped == 0


def test_json_round_trip(samples_dir):
    s = load_structure(str(samples_dir / "model3.json"))
    back = parse_structure_json(structure_to_json(s))
    assert back.domain == s.domain
    assert back.relation == s.relation
    for sym in s.subspaces:
        assert eq(back.subspaces[sym], s.subspaces[sym])


def test_validation_collects_every_issue():
    data = tiny_structure_json()
    data["relation"].append(["ghost", "p"])
    data["relation"].append(["m", "nosuch"])
    data["projectors"] = {"p": {"m": "alsomissing"}}
    with pytest.raises(StructureValidationError) as exc:
        parse_structure_json(data)
    text = "\n".join(exc.value.issues)
    assert "ghost" in text and "nosuch" in text and "alsomissing" in text
    assert len(exc.value.issues) >= 3


@pytest.mark.parametrize("dim", [0, MAX_DIM + 1, 10**8, 1e400])
def test_structure_dim_out_of_range_is_rejected(dim):
    data = tiny_structure_json()
    data["dim"] = dim
    with pytest.raises(StructureValidationError) as exc:
        parse_structure_json(data)
    assert any(i.startswith(f"dim: expected an integer from 1 to {MAX_DIM}") for i in exc.value.issues)


def _filled(key: str, count: int):
    """``count`` symbols with no vector list, ``count`` unitaries with no
    matrix, or ``count`` element names."""
    if key == "domain":
        return [f"m{k}" for k in range(count)]
    return {f"{key[0]}{k}": None for k in range(count)}


@pytest.mark.parametrize("key, bound, what", [
    ("subspaces", MAX_SYMBOLS, "symbols"), ("domain", MAX_ELEMENTS, "elements"),
    ("unitaries", MAX_UNITARIES, "unitaries"),
])
def test_structure_past_a_size_bound_is_rejected_before_it_is_read(key, bound, what):
    # every symbol would be an issue of its own if the structure were read
    data = tiny_structure_json()
    data[key] = _filled(key, bound + 1)
    with pytest.raises(StructureValidationError) as exc:
        parse_structure_json(data)
    assert exc.value.issues == (f"{key}: {bound + 1} {what}, more than the {bound} accepted",)
    data[key] = _filled(key, bound)
    with pytest.raises(StructureValidationError) as exc:
        parse_structure_json(data)
    assert not any("accepted" in issue for issue in exc.value.issues)


@st.composite
def vector_list(draw):
    """A list of vectors of [re, im] pairs of ints and floats, signed
    zeros among them, with one node replaced by a hostile value half the
    time."""
    dim, n = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    number = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-(2**70), 2**70),
                       st.sampled_from([0.0, -0.0, 0, 1]))
    vecs = [[[draw(number), draw(number)] for _ in range(dim)] for _ in range(n)]
    if n and draw(st.booleans()):
        k, j, part = draw(st.integers(0, n - 1)), draw(st.integers(0, dim - 1)), draw(st.integers(0, 2))
        value = draw(st.sampled_from(HOSTILE_VALUES))
        if part == 2:
            vecs[k][j] = value
        else:
            vecs[k][j][part] = value
    return dim, vecs


@settings(max_examples=300, deadline=None)
@given(vector_list())
def test_vector_lists_read_as_entry_by_entry(drawn):
    """The one-call read of a vector list gives the bytes and the issues
    of reading it entry by entry."""
    dim, vecs = drawn
    fast, slow = [], []
    got = _vectors(vecs, dim, "x", fast)
    expected = np.array([_vector(v, dim, f"x[{k}]", slow) for k, v in enumerate(vecs)], dtype=complex)
    assert fast == slow
    assert np.asarray(got, dtype=complex).tobytes() == expected.tobytes()


def test_load_reports_json_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 3,,}')
    with pytest.raises(StructureValidationError) as exc:
        load_structure(str(bad))
    assert "line" in str(exc.value.issues[0])


def test_filter_contents(samples_dir):
    s = load_structure(str(samples_dir / "model3.json"))
    f = filter_of(s, "s1_0")
    assert "top" in f.members and "s1" in f.members
    assert not f.issues
    # upward closed: anything above a member is a member
    for a in f.members:
        for b in s.subspaces:
            if leq(s.subspaces[a], s.subspaces[b]):
                assert b in f.members


def test_kappa_picks_least_member(samples_dir):
    s = load_structure(str(samples_dir / "model3.json"))
    for m in s.domain:
        r = kappa_of(s, m)
        assert not r.no_least
        assert r.member_symbol is not None
        for member in r.members:
            assert leq(r.value, s.subspaces[member])


def test_no_least_reports_conflict_pair():
    s = parse_structure_json(tiny_structure_json())
    r = kappa_of(s, "m")
    assert r.no_least
    assert r.conflict is not None and set(r.conflict) == {"p", "q"}
    assert r.value.rank == 1  # the fold still lands on the line


def test_missing_meet_yields_undetermined(tiny=tiny_structure_json):
    s = parse_structure_json(tiny())
    report = check_characterization(s)
    assert report.axioms.ok
    assert report.axioms.total_skipped > 0
    assert not report.morphism.ok
    assert report.verdict == "undetermined-skip"


def lowering_structure_json():
    """The projector onto the full space sends m1 (least member top) to m0
    (least member the line e2): every base axiom holds, project-adjoint fails."""
    return {
        "dim": 3,
        "domain": ["m0", "m1"],
        "subspaces": {"top": _basis_json(E1, E2, E3), "bot": [], "q": _basis_json(E2)},
        "projectors": {"top": {"m0": "m0", "m1": "m0"}},
        "unitaries": {},
        "relation": [["m0", "top"], ["m0", "q"], ["m1", "top"]],
    }


def test_lowering_projector_table_is_a_non_model():
    s = parse_structure_json(lowering_structure_json())
    assert check_structure_axioms(s, "base").ok
    report = check_characterization(s)
    assert not report.morphism.ok
    assert report.verdict == "non-model"
    assert report.axioms.to_json()["figure"] == "all"
    failed = {r.name for r in report.axioms.results if r.violations}
    assert failed == {"project-adjoint"}


def test_morphism_conditions_on_corpus_sample():
    name, s, elem_val = build_corpus()[0]
    report = check_strong_morphism(s)
    assert report.ok and report.nontrivial
    assert not report.no_least
    # spot check condition 2 by hand on one table entry
    q = next(iter(s.projectors))
    m = s.domain[0]
    image = s.projectors[q][m]
    lhs = kappa_of(s, image).value
    rhs = sasaki_and(kappa_of(s, m).value, s.subspaces[q])
    assert eq(lhs, rhs)


def unresolved_projection_json():
    """m0's least member is a tilted ray, whose projection onto the plane
    of e1 and e2 is the line e1, which no symbol denotes."""
    return {
        "dim": 3,
        "domain": ["m0"],
        "subspaces": {"top": _basis_json(E1, E2, E3), "bot": [], "p": _basis_json(E1, E2), "r": _basis_json(E1 + E3)},
        "projectors": {"p": {"m0": "m0"}},
        "unitaries": {},
        "relation": [["m0", "top"], ["m0", "r"]],
    }


# SHA-256 of the JSON list of ``check_strong_morphism(s).to_json()``, every
# kappa entry included, over the corpus, its mutants, and the tiny, the
# lowering and the unresolved-projection structures.  Recorded with the
# morphism check that compared stacked spans of the kappa values, before
# it read the index's tables.
MORPHISM_SHA256 = "04bd0babbae9f72ceb3a8d09d6d105ffd6e8d32ecae86af56b7461949cb65e9d"


def _morphism_pin_structures():
    corpus = build_corpus()
    return (
        [s for _, s, _ in corpus] + [m for _, m in build_mutants(corpus)]
        + [parse_structure_json(f()) for f in (tiny_structure_json, lowering_structure_json, unresolved_projection_json)]
    )


def test_morphism_reports_are_pinned():
    reports = [check_strong_morphism(s).to_json() for s in _morphism_pin_structures()]
    assert hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest() == MORPHISM_SHA256


def test_mutants_fail_both_checks():
    corpus = build_corpus()
    for name, mutant in build_mutants(corpus):
        axioms = check_structure_axioms(mutant)
        morphism = check_strong_morphism(mutant)
        assert not axioms.ok, name
        assert not morphism.ok, name
        assert check_characterization(mutant).verdict in ("non-model", "undetermined-skip"), name


def test_axiom_report_names_violations():
    corpus = build_corpus()
    _, mutant = build_mutants(corpus)[0]  # drops an (m, top) pair
    report = check_structure_axioms(mutant)
    bad = {r.name: r for r in report.results if r.violations}
    assert "verify-top" in bad
    assert bad["verify-top"].examples


@pytest.mark.parametrize("extra, shown", [(0, ["top", "p", "q"]), (4, ["top", "p", "q", "r0", "r1"])])
def test_existential_lists_each_failed_case_up_to_five(monkeypatch, extra, shown):
    """An existential with a case per symbol, "some element misses p",
    fails for every symbol that each element verifies: three in the tiny
    structure, seven with four more related rays.  The report names them
    in case order, up to five."""
    everywhere = replace(
        next(a for a in pqm.axioms.AXIOMS if a.existential),
        cases=lambda s: np.arange(len(s.subspaces))[:, None],
        hypothesis=lambda I, x, p: True,
        conclusion=lambda I, x, p: I.no(I.verify(x, p)),
        note=lambda I, p: f"every element verifies {p}",
    )
    monkeypatch.setattr(pqm.axioms, "AXIOMS", (everywhere,))
    data = tiny_structure_json()
    for k in range(extra):
        data["subspaces"][f"r{k}"] = _basis_json(E1)
        data["relation"].append(["m", f"r{k}"])
    result = check_structure_axioms(parse_structure_json(data), "base").results[0]
    assert (result.instances, result.violations) == (4 + extra, 3 + extra)
    assert result.examples == tuple(f"every element verifies {p}" for p in shown)


def test_two_ray_floor():
    data = tiny_structure_json()
    data["subspaces"]["r1"] = _basis_json(E1)
    data["subspaces"]["r2"] = _basis_json(E2)
    data["relation"] = [["m", "top"], ["m", "r1"], ["m", "r2"]]
    s = parse_structure_json(data)
    checked, violations = check_two_ray_floor(s)
    assert checked >= 1 and violations == ["m"]


def test_incompatible_members_flagged():
    data = tiny_structure_json()
    tilted = (E1 + E2) / np.sqrt(2)
    data["subspaces"]["t"] = _basis_json(tilted, E3)
    data["relation"].append(["m", "t"])
    s = parse_structure_json(data)
    checked, notes = check_incompatible_pairs(s)
    assert checked >= 1
    assert notes  # p and t are incompatible and both minimal in the filter


def test_ray_coverage_on_corpus():
    for name, s, _ in build_corpus()[:2]:
        coverage = check_ray_coverage(s)
        assert coverage and all(coverage.values()), (name, coverage)


def test_saturate_closes_boolean_fragment(rng):
    values = [span_of([E1], 3), span_of([E2, E3], 3)]
    result = saturate(values, 3, projector_values=values, include_hook=False)
    assert not result.capped
    syms = result.values
    # meet-closure and complement pairs present
    assert any(v.rank == 0 for v in syms)
    assert any(v.rank == 3 for v in syms)


def test_saturate_respects_cap(rng):
    vals = [span_of([rng.standard_normal(3) + 1j * rng.standard_normal(3)], 3)
            for _ in range(6)]
    result = saturate(vals, 3, projector_values=vals, max_size=10)
    assert result.capped
    assert len(result.values) <= 10


def test_image_structure_rejects_open_fragment():
    # projecting q onto p gives the ray of E2, which no symbol denotes
    fragment = [("p", span_of([E1, E2], 3)), ("q", span_of([E2, E3], 3))]
    with pytest.raises(InternalInvariantError):
        image_structure(fragment, projector_syms=["p", "q"], unitaries={})


def test_mixed_fragment_probe_is_generic(rng):
    fragment, proj_syms, unitaries = mixed_fragment(rng, dim=3)
    by_name = dict(fragment)
    probe = by_name["probe"]
    assert probe.rank == 1
    assert all(abs(c) > 0.25 for c in probe.basis[:, 0])
    assert "probe" not in proj_syms


def test_mixed_fragment_closed_at_dim_4():
    fragment, proj_syms, unitaries = mixed_fragment(np.random.default_rng(0), dim=4)
    assert len(fragment) == 27
    s, _ = image_structure(fragment, proj_syms, unitaries)
    report = check_characterization(s)
    assert report.verdict == "model"
    assert report.axioms.total_skipped == 0


@pytest.mark.parametrize("missing", ["top", "bot"])
def test_checks_reading_a_lost_builtin_symbol_raise(missing):
    base = parse_structure_json(tiny_structure_json())
    s = FiniteStructure(
        3,
        base.domain,
        {k: v for k, v in base.subspaces.items() if k != missing},
        {},
        {},
        frozenset(pair for pair in base.relation if pair[1] != missing),
    )
    with pytest.raises(InternalInvariantError):
        check_structure_axioms(s, "base")
    with pytest.raises(InternalInvariantError):
        if missing == "top":
            filter_of(s, "m")
        else:
            check_two_ray_floor(s)


# ---------------------------------------------------------------------------
# The fragment index against the routes it replaces


def _scan_symbol_of(s, value):
    """The lookup the fragment index replaces: a scan in declared order
    for mutual containment, the two-way route of ``eq``."""
    for name, v in s.subspaces.items():
        if leq(v, value) and leq(value, v):
            return name
    return None


def _tilted(v, residual, rng):
    """v with its first basis vector tilted off v by ``residual`` (for a
    ray, exactly the containment residual either way, to first order)."""
    if v.rank in (0, v.dim):
        return v
    direction = ortho(v).basis @ rng.standard_normal(v.dim - v.rank)
    basis = v.basis.copy()
    basis[:, 0] += residual * direction / np.linalg.norm(direction)
    return span_of(basis.T, v.dim)


def _lookup_structure(rng, dim):
    """Random symbols with repeats, in shuffled declared order: one object
    under two names, a re-spanned copy, and copies of a ray tilted by half
    and by twice ``EQ_TOL``."""
    ray = random_subspace(rng, dim, rank=1)
    values = {"top": top(dim), "bot": bottom(dim), "ray": ray, "same": ray,
              "respanned": span_of(ray.basis.T, dim),
              "near": _tilted(ray, 0.5 * EQ_TOL, rng), "far": _tilted(ray, 2 * EQ_TOL, rng)}
    for k in range(4):
        values[f"s{k}"] = random_subspace(rng, dim)
    names = list(values)
    rng.shuffle(names)
    return FiniteStructure(dim, (), {n: values[n] for n in names}, {}, {}, frozenset())


@pytest.mark.parametrize("dim", range(1, 7))
def test_index_lookup_matches_the_scan(dim):
    rng = np.random.default_rng([41, dim])
    for _ in range(5):
        s = _lookup_structure(rng, dim)
        values = list(s.subspaces.values())
        queries = values + [random_subspace(rng, dim) for _ in range(4)]
        queries += [_tilted(v, scale * EQ_TOL, rng) for v in values for scale in (0.5, 2)]
        queries += [meet(p, q) for p in values[:4] for q in values[:4]]
        queries += [sasaki_and(p, q) for p in values[:4] for q in values[:4]]
        for value in queries:
            assert s.symbol_of(value) == _scan_symbol_of(s, value)
        with pytest.raises(DimensionMismatchError):
            s.symbol_of(top(dim + 1))
        if dim > 1:  # first in declared order wins; the tilted copies straddle the threshold
            ray = s.subspaces["ray"]
            assert s.symbol_of(ray) == next(n for n in s.subspaces if n in ("ray", "same", "respanned", "near"))
            assert eq(ray, s.subspaces["near"]) and not eq(ray, s.subspaces["far"])


@pytest.mark.parametrize("scale, contained", [(1.2, False), (0.8, True)])
def test_containment_does_not_depend_on_the_basis(scale, contained):
    """Containment reads the largest sine of the principal angles, not the
    residual of each basis column.  The plane of e1 and e2, tilted by
    ``scale * EQ_TOL`` towards e3, has that largest sine; in the basis
    (e1 +- e2) / sqrt(2) each column leaves a residual of only
    ``scale * EQ_TOL / sqrt(2)``.  Either basis gives one answer, in both
    directions, and the lookup follows it."""
    theta = scale * EQ_TOL
    e1, e2, e3 = np.eye(3, dtype=complex)
    tilted = Subspace(3, np.column_stack([np.cos(theta) * e1 + np.sin(theta) * e3, e2]))
    plane = Subspace(3, np.column_stack([e1, e2]))
    value = Subspace(3, np.column_stack([e1 + e2, e1 - e2]) / np.sqrt(2))
    columns = value.basis - tilted.projector() @ value.basis
    assert np.linalg.norm(columns, axis=0).max() < EQ_TOL
    assert leq(value, tilted) == leq(tilted, value) == leq(plane, tilted) == contained
    assert meet(value, tilted).rank == (2 if contained else 1)
    s = FiniteStructure(3, (), {"top": top(3), "bot": bottom(3), "tilted": tilted}, {}, {}, frozenset())
    assert s.symbol_of(value) == ("tilted" if contained else None)


@pytest.mark.parametrize("dim", range(1, 5))
def test_index_compatible_matches_the_kernel(dim):
    rng = np.random.default_rng([43, dim])
    s = _lookup_structure(rng, dim)
    for p, pv in s.subspaces.items():
        for q, qv in s.subspaces.items():
            assert s.compatible(p, q) == compatible(pv, qv)
            assert s.leq(p, q) == leq(pv, qv)


# ---------------------------------------------------------------------------
# The stacked tables against the per-pair kernel routes they replace


def _kernel_term(term, s, args):
    """The value of a lattice term by the per-pair kernel route."""
    v = s.subspaces
    if term == "ortho":
        return ortho(v[args[0]])
    if term == "meet":
        return meet(v[args[0]], v[args[1]])
    if term == "sasaki_and":
        return sasaki_and(v[args[0]], v[args[1]])
    if term == "sasaki_hook":
        return sasaki_hook(v[args[0]], v[args[1]])
    op = s.unitaries[args[0]].op
    return apply_unitary(op if term == "image" else op.adjoint(), v[args[1]])


def _term_symbols(s, term):
    """A term table of the index keyed by the names of its arguments,
    with the name of each value's symbol, or None."""
    index = s._index
    axes = [list(s.unitaries) if term in ("image", "preimage") and k == 0 else index.names
            for k in range(index.term(term).ndim)]
    return {
        tuple(axis[k] for axis, k in zip(axes, at)): index.names[found] if found >= 0 else None
        for at, found in np.ndenumerate(index.term(term))
    }


def _assert_tables_match_the_kernel(s, terms):
    """Every table of ``terms`` the index holds, and its ``leq`` and
    ``compatible`` tables, against the kernel route followed by the
    linear ``eq`` scan.  Returns the pairs where the lattice test of
    compatibility and the projector commutator disagree."""
    index = s._index
    assert set(index._terms) == set(terms)
    for term in terms:
        for args, symbol in _term_symbols(s, term).items():
            assert symbol == _scan_symbol_of(s, _kernel_term(term, s, args)), (term, args)
    split = []
    for p, pv in s.subspaces.items():
        for q, qv in s.subspaces.items():
            assert s.leq(p, q) == leq(pv, qv), (p, q)
            assert s.compatible(p, q) == compatible(pv, qv), (p, q)
            if s.compatible(p, q) != projectors_commute(pv, qv):
                split.append((p, q))
    return split


BASE_TERMS = {"meet", "ortho", "sasaki_and", "image", "preimage"}


@pytest.mark.parametrize("figure, terms", [("base", BASE_TERMS), ("all", BASE_TERMS | {"sasaki_hook"})])
def test_tables_match_the_kernel_on_the_corpus(figure, terms):
    corpus = build_corpus()
    structures = [s for _, s, _ in corpus] + [m for _, m in build_mutants(corpus)]
    for s in structures:
        check_structure_axioms(s, figure)
        assert _assert_tables_match_the_kernel(s, terms) == []


def _degenerate_structure(dim, rng):
    """Symbols in general and in degenerate position: a plane and a copy
    with noise of 1e-9 on its basis, between ``RANK_TOL`` and ``EQ_TOL``;
    a nested chain of spans; two planes that share a ray, whose meet is
    that ray; one space under two names; and a tilted ray incompatible
    with the frame.  Unitaries: a frame swap, and a random one."""
    frame = random_unitary(rng, dim).matrix
    e = [frame[:, k] for k in range(dim)]
    noise = 1e-9 * (rng.standard_normal((2, dim)) + 1j * rng.standard_normal((2, dim)))
    values = {
        "top": top(dim), "bot": bottom(dim),
        "plane": span_of([e[0], e[1]], dim), "noisy": span_of([e[0] + noise[0], e[1] + noise[1]], dim),
        "ray": span_of([e[0]], dim), "again": span_of([e[0]], dim),
        "other": span_of([e[0], e[2]], dim), "third": span_of([e[2]], dim),
        "chain": span_of(e[: dim - 1], dim), "tilted": span_of([e[0] + e[1]], dim),
    }
    swap = frame[:, [1, 0] + list(range(2, dim))] @ frame.conj().T
    unitaries = {"swap": swap, "random": random_unitary(rng, dim).matrix}
    tables = {
        name: TableUnitary(UnitaryOp(dim, m), {}) for name, m in unitaries.items()
    }
    return FiniteStructure(dim, (), values, {}, tables, frozenset())


@pytest.mark.parametrize("dim", [3, 4])
def test_tables_match_the_kernel_on_degenerate_fragments(dim):
    s = _degenerate_structure(dim, np.random.default_rng([47, dim]))
    terms = BASE_TERMS | {"sasaki_hook"}
    for term in terms:
        s._index.term(term)
    # The noisy copy's noise sits between RANK_TOL and EQ_TOL.  The meet
    # and the lattice test of compatibility cut the sines of the principal
    # angles at EQ_TOL, as eq does, so the copy meets and commutes like
    # the plane: the lattice test and the projector commutator agree on
    # every pair, and every lookup of the copy's value answers "plane",
    # the first in declared order.
    assert _assert_tables_match_the_kernel(s, terms) == []
    assert eq(s.subspaces["plane"], s.subspaces["noisy"])
    assert s.compatible("plane", "noisy") and s.compatible("noisy", "plane")
    meets = _term_symbols(s, "meet")
    assert meets["plane", "noisy"] == "plane"
    assert meets["noisy", "top"] == "plane"
    assert meets["plane", "other"] == "ray"
    assert meets["chain", "plane"] == "plane"


# ---------------------------------------------------------------------------
# The morphism check against the per-pair route it replaces


def _assert_morphism_matches_the_pairs(s):
    expected = strong_morphism_by_pairs(s)
    assert check_strong_morphism(s).to_json() == expected
    for m in s.domain:
        assert kappa_of(s, m).to_json() == expected["kappa"][m]


def test_morphism_matches_the_pairs_on_the_corpus():
    for s in _morphism_pin_structures():
        _assert_morphism_matches_the_pairs(s)


@settings(max_examples=300, deadline=None)
@given(structure_json())
def test_morphism_matches_the_pairs_on_fuzzed_structures(data):
    try:
        s = parse_structure_json(data)
    except StructureValidationError:
        return  # the draw is malformed on purpose; the fuzz tests read it
    _assert_morphism_matches_the_pairs(s)


@st.composite
def near_tolerance_structure(draw):
    """The symbols of ``_lookup_structure`` and three elements, each related
    to the full space, to a drawn set of the ray's copies (the ray under
    two names, re-spanned, and tilted by half and by twice ``EQ_TOL``) and
    to up to two other symbols.  Drawn tables: a projector onto a copy or
    the full space, the identity and a random unitary."""
    dim = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = _lookup_structure(rng, dim)
    copies = ["ray", "same", "respanned", "near", "far"]
    domain = ("m0", "m1", "m2")
    relation = set()
    for m in domain:
        related = draw(st.sets(st.sampled_from(copies), min_size=1))
        related |= draw(st.sets(st.sampled_from(list(base.subspaces)), max_size=2))
        relation |= {(m, p) for p in related | {"top"}}
    table = st.fixed_dictionaries({m: st.sampled_from(domain) for m in domain})
    projectors = {draw(st.sampled_from(copies + ["top"])): draw(table)}
    unitaries = {
        "id": TableUnitary(UnitaryOp(dim, np.eye(dim)), draw(table)),
        "u": TableUnitary(random_unitary(rng, dim), draw(table)),
    }
    return FiniteStructure(dim, domain, base.subspaces, projectors, unitaries, frozenset(relation))


@settings(max_examples=200, deadline=None)
@given(near_tolerance_structure())
def test_morphism_matches_the_pairs_near_the_threshold(s):
    _assert_morphism_matches_the_pairs(s)


# ---------------------------------------------------------------------------
# The index's meet, sasaki_and and compatible tables against all pairs


def _copy(s):
    return FiniteStructure(s.dim, s.domain, s.subspaces, s.projectors, s.unitaries, s.relation)


def _assert_tables_match_all_pairs(s):
    """The index's tables equal those of every ordered pair through the
    kernel, each route on its own copy of ``s``."""
    expected, index = fragment_tables_by_all_pairs(_copy(s)), _copy(s)._index
    for term in ("meet", "sasaki_and"):
        np.testing.assert_array_equal(index.term(term), expected[term], err_msg=term)
    np.testing.assert_array_equal(index.compatible, expected["compatible"], err_msg="compatible")


def test_tables_match_all_pairs(samples_dir):
    corpus = build_corpus()
    structures = [s for _, s, _ in corpus] + [m for _, m in build_mutants(corpus)]
    structures.append(load_structure(str(samples_dir / "model3.json")))
    for s in structures:
        _assert_tables_match_all_pairs(s)


@settings(max_examples=300, deadline=None)
@given(structure_json())
def test_tables_match_all_pairs_on_fuzzed_structures(data):
    try:
        s = parse_structure_json(data)
    except StructureValidationError:
        return  # the draw is malformed on purpose; the fuzz tests read it
    _assert_tables_match_all_pairs(s)


@settings(max_examples=200, deadline=None)
@given(near_tolerance_structure())
def test_tables_match_all_pairs_near_the_threshold(s):
    _assert_tables_match_all_pairs(s)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_ordered_pairs_read_the_first_equal_symbol(dim):
    """A ray under two names, ``first`` declared before ``second``: every
    pair with ``second`` that ``leq`` orders reads ``first`` for its meet
    and its Sasaki conjunction, as the kernel route does."""
    rng = np.random.default_rng([53, dim])
    ray = random_subspace(rng, dim, rank=1)
    plane = span_of([ray.basis[:, 0], rng.standard_normal(dim)], dim)
    values = {"top": top(dim), "bot": bottom(dim), "first": ray, "plane": plane, "second": ray,
              "other": random_subspace(rng, dim, rank=1)}
    s = FiniteStructure(dim, (), values, {}, {}, frozenset())
    _assert_tables_match_all_pairs(s)
    meets, conjunctions = _term_symbols(s, "meet"), _term_symbols(s, "sasaki_and")
    for other in ("top", "plane", "second", "first"):
        assert meets["second", other] == meets[other, "second"] == "first"
        assert conjunctions["second", other] == conjunctions[other, "second"] == "first"
    assert meets["bot", "second"] == meets["second", "bot"] == "bot"


# ---------------------------------------------------------------------------
# The axiom check against the per-instance route it replaces


def _shared_name_structure_json(table):
    """Two rays of the plane, and two unitaries: the identity, and a swap
    of the rays under the name of the first ray's symbol, whose table is
    ``table``."""
    swap = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
    identity = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    domain = ["m0", "m1", "m2"]
    e1, e2 = E1[:2], E2[:2]
    return {
        "dim": 2, "domain": domain,
        "subspaces": {"top": _basis_json(e1, e2), "bot": [], "a": _basis_json(e1), "b": _basis_json(e2)},
        "projectors": {},
        "unitaries": {
            "id": {"matrix": identity, "table": {m: m for m in domain}},
            "a": {"matrix": swap, "table": table},
        },
        "relation": [["m0", "top"], ["m0", "a"], ["m1", "top"], ["m1", "b"], ["m2", "top"]],
    }


def _assert_axioms_match_the_instances(s):
    """The same report, notes included, and the same term tables built,
    each route on its own copy of ``s``."""
    for figure in ("base", "all"):
        fast, slow = (FiniteStructure(s.dim, s.domain, s.subspaces, s.projectors, s.unitaries, s.relation)
                      for _ in range(2))
        expected = structure_axioms_by_instances(slow, figure).to_json()
        assert check_structure_axioms(fast, figure).to_json() == expected
        assert set(fast._index._terms) == set(slow._index._terms)


def test_axioms_match_the_instances(samples_dir):
    """The corpus and its mutants, the committed sample, the hand-made
    structures, an empty domain, a structure with no projector and no
    unitary (so no cases for their axioms), and a unitary that shares
    its name with a symbol, with its right table and with a wrong one."""
    corpus = build_corpus()
    structures = [s for _, s, _ in corpus] + [m for _, m in build_mutants(corpus)]
    structures.append(load_structure(str(samples_dir / "model3.json")))
    structures += [parse_structure_json(f()) for f in (
        tiny_structure_json, lowering_structure_json, unresolved_projection_json,
        lambda: dict(tiny_structure_json(), domain=[], relation=[]),
        lambda: dict(lowering_structure_json(), projectors={}),
        lambda: _shared_name_structure_json({"m0": "m1", "m1": "m0", "m2": "m2"}),
        lambda: _shared_name_structure_json({"m0": "m0", "m1": "m0", "m2": "m1"}),
    )]
    for s in structures:
        _assert_axioms_match_the_instances(s)


@settings(max_examples=300, deadline=None)
@given(structure_json())
def test_axioms_match_the_instances_on_fuzzed_structures(data):
    try:
        s = parse_structure_json(data)
    except StructureValidationError:
        return  # the draw is malformed on purpose; the fuzz tests read it
    _assert_axioms_match_the_instances(s)


@pytest.mark.parametrize("budget", [1, 100])
def test_chunked_tables_give_the_same_reports(monkeypatch, budget):
    """A stack split into one-item or few-item chunks gives the reports
    of one chunk, kappa bases included."""
    corpus = build_corpus()
    structures = [s for _, s, _ in corpus[5:7]] + [m for _, m in build_mutants(corpus)[5:7]]

    def reports(entries):
        monkeypatch.setattr(pqm.subspace, "_STACK_ENTRIES", entries)
        out = []
        for s in structures:
            fresh = FiniteStructure(s.dim, s.domain, s.subspaces, s.projectors, s.unitaries, s.relation)
            report = check_characterization(fresh)
            bases = [k.value.basis.tobytes() for k in report.morphism.kappa.values()]
            out.append((report.to_json(), check_structure_axioms(fresh, "all"), bases))
        return out

    assert reports(budget) == reports(1 << 40)


def test_characterization_work_is_pinned(monkeypatch):
    """SVD calls, the matrices they take, per-pair containment tests and
    reads of each axiom's hypothesis and conclusion in one
    characterization of a Boolean image structure at dims 4 and 5; a
    batched call counts once, and each matrix of its stack counts.  The
    linear lookup scan made 2,227 SVDs and 5,192 ``leq`` calls at dim 4, the
    per-pair fragment index 1,442 and 2,276 there and 5,788 and 8,644
    at dim 5, and the stacked tables with the De Morgan meet 216 and 697
    SVDs.  The residual meet takes one SVD where that meet took three,
    in the tables and in the meet fold of ``kappa_of``, and none where
    the fold's value already lies in the next member: 45 and 95.  The
    morphism check then read the index's tables instead of spanning the
    least members' projections and images: 43 and 90.  The axiom check
    read each side once per case and element; it reads it once over
    arrays of all of them.  The term tables took 1,068 and 4,188
    matrices, one per ordered symbol pair; they then read each pair that
    ``leq`` orders off that table, and take each unordered pair once
    for the symmetric ``meet`` and ``compatible``: 40 SVDs of 367
    matrices, and 79 of 1,613."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def svd(a, *args, taken=np.linalg.svd, **kwargs):
        counts["matrices"] += int(np.prod(np.shape(a)[:-2]))
        return taken(a, *args, **kwargs)

    monkeypatch.setattr(pqm.subspace.np.linalg, "svd", counted("svd", svd))
    monkeypatch.setattr(pqm.subspace, "leq", counted("leq", pqm.subspace.leq))
    monkeypatch.setattr(pqm.axioms, "AXIOMS", tuple(
        replace(a, hypothesis=counted((a.name, "hypothesis"), a.hypothesis),
                conclusion=counted((a.name, "conclusion"), a.conclusion))
        for a in pqm.axioms.AXIOMS
    ))
    for dim, svds, matrices in [(4, 40, 367), (5, 79, 1613)]:
        s, _ = image_structure(*boolean_fragment(np.random.default_rng(dim), dim))
        counts.clear()
        report = check_characterization(s)
        assert report.verdict == "model" and report.axioms.to_json()["figure"] == "base"
        assert counts["svd"] <= svds, dim
        assert counts["matrices"] <= matrices, dim
        assert counts["leq"] == 0, dim
        sides = {name: n for name, n in counts.items() if isinstance(name, tuple)}
        assert sides and max(sides.values()) == 1, (dim, sides)
