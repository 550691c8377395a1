"""Finite structures: validation, filters, least members, modelhood."""

from collections import Counter

import numpy as np
import pytest

import pqm.subspace
from pqm.lang import MAX_DIM
from pqm.structures import (
    FiniteStructure,
    StructureValidationError,
    boolean_fragment,
    check_characterization,
    check_strong_morphism,
    check_structure_axioms,
    image_structure,
    kappa_of,
    load_structure,
    mixed_fragment,
    parse_structure_json,
    structure_to_json,
)
from pqm.sampling import random_subspace
from pqm.subspace import (
    EQ_TOL,
    InternalInvariantError,
    bottom,
    compatible,
    eq,
    leq,
    meet,
    ortho,
    sasaki_and,
    span_of,
    top,
)

from _corpus import build_corpus, build_mutants
from _routes import (
    check_incompatible_pairs, check_ray_coverage, check_two_ray_floor, filter_of, saturate,
)

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
    fragment = [("top", top(3)), ("p", span_of([E1, E2], 3))]
    # projection of top through p lands on p, fine; but meet with an
    # absent complement cannot be represented once demanded
    with pytest.raises(InternalInvariantError):
        image_structure(
            [("p", span_of([E1, E2], 3)), ("q", span_of([E2, E3], 3))],
            3,
            projector_syms=["p", "q"],
            unitaries={},
        )


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
    s, _ = image_structure(fragment, 4, proj_syms, unitaries)
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


@pytest.mark.parametrize("maker", [boolean_fragment, mixed_fragment])
def test_fragment_builders_reject_dimension_below_two(maker):
    with pytest.raises(ValueError):
        maker(np.random.default_rng(0), dim=1)


# ---------------------------------------------------------------------------
# The fragment index against the routes it replaces


def _scan_symbol_of(s, value):
    """The lookup the fragment index replaces: an ``eq`` scan in declared order."""
    for name, v in s.subspaces.items():
        if eq(v, value):
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
        if dim > 1:  # first in declared order wins; the tilted copies straddle the threshold
            ray = s.subspaces["ray"]
            assert s.symbol_of(ray) == next(n for n in s.subspaces if n in ("ray", "same", "respanned", "near"))
            assert eq(ray, s.subspaces["near"]) and not eq(ray, s.subspaces["far"])


@pytest.mark.parametrize("dim", range(1, 5))
def test_index_compatible_matches_the_kernel(dim):
    rng = np.random.default_rng([43, dim])
    s = _lookup_structure(rng, dim)
    for p, pv in s.subspaces.items():
        for q, qv in s.subspaces.items():
            assert s.compatible(p, q) == compatible(pv, qv)
            assert s.leq(p, q) == leq(pv, qv)


def test_index_keeps_a_probe_image_not_a_projector():
    s = parse_structure_json(tiny_structure_json())
    s.symbol_of(top(3))
    ((_, images),) = [b for rank, b in s._index._buckets.items() if rank == 2]
    assert images.shape == (2, 3 * 3)  # two planes, (dim, min(dim, 4)) probe images


def test_characterization_work_is_pinned(monkeypatch):
    """SVDs and containment tests of one characterization at dim 4; the
    linear lookup scan, which rebuilt complements per use, made 2,227 SVDs
    and 5,192 ``leq`` calls."""
    fragment, proj_syms, unitaries = boolean_fragment(np.random.default_rng(4), dim=4)
    s, _ = image_structure(fragment, 4, proj_syms, unitaries)
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pqm.subspace.np.linalg, "svd", counted("svd", np.linalg.svd))
    monkeypatch.setattr(pqm.subspace, "leq", counted("leq", pqm.subspace.leq))
    assert check_characterization(s).verdict == "model"
    assert counts["svd"] <= 1442
    assert counts["leq"] <= 2276
