"""Lattice arithmetic on subspaces: laws, dual routes, edge ranks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pqm.sampling import (
    random_compatible_pair,
    random_ray,
    random_ray_or_bot,
    random_ray_within,
    random_subspace,
    random_subspace_within,
    random_unitary,
)
import pqm.subspace as kernel
from pqm.subspace import (
    EQ_TOL,
    RANK_TOL,
    UNITARY_TOL,
    DimensionMismatchError,
    Subspace,
    UnitaryOp,
    _span_from_matrix,
    apply_unitary,
    bottom,
    compatible,
    eq,
    join,
    leq,
    meet,
    ortho,
    principal_angles,
    ray_in_avoiding,
    sasaki_and,
    sasaki_hook,
    span_of,
    stacked,
    stacked_compatible,
    stacked_leq_table,
    stacked_meet,
    stacked_span,
    subspace_to_json,
    top,
    unitary_deviation,
)

from _routes import meet_by_complements, projectors_commute, sasaki_and_lattice

seeds = st.integers(0, 2**32 - 1)
dims = st.integers(1, 4)


def pq(seed, dim):
    rng = np.random.default_rng(seed)
    return random_subspace(rng, dim), random_subspace(rng, dim), rng


def test_span_drops_dependent_vectors():
    s = span_of([np.array([1, 0, 0]), np.array([2, 0, 0]), np.array([0, 1, 0])], 3)
    assert s.rank == 2


def test_span_of_nothing_is_bottom():
    assert span_of([], 3).rank == 0
    assert eq(span_of([np.zeros(3)], 3), bottom(3))


@pytest.mark.parametrize(
    "family",
    [[[1, 0]], [[1, 0, 0], [1, 0]], np.ones((2, 4)), np.ones((2, 2, 2))],
    ids=["short-vector", "ragged", "wide-array", "3d-array"],
)
def test_span_of_rejects_a_family_of_the_wrong_shape(family):
    with pytest.raises(DimensionMismatchError):
        span_of(family, 3)


@pytest.mark.parametrize(
    "family", [lambda: np.zeros((0, 3)), lambda: iter(())], ids=["empty-array", "empty-generator"],
)
def test_span_of_an_empty_family_is_the_zero_space(family):
    s = span_of(family(), 3)
    assert s.dim == 3 and s.rank == 0


def test_span_of_reads_every_family_alike():
    """The rows of an array, a list or tuple of vectors, nested lists and
    a generator give the same basis, byte for byte."""
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    expected = span_of(list(rows), 4).basis
    for family in (rows, tuple(rows), [list(v) for v in rows], (v for v in rows)):
        got = span_of(family, 4).basis
        assert got.tobytes() == expected.tobytes() and got.strides == expected.strides


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.inf)])
def test_non_finite_input_is_rejected(bad):
    # an infinite entry must not make the span numerically zero, and a NaN
    # deviation must pass neither the unitarity nor the orthonormality test
    with pytest.raises(ValueError, match="finite"):
        span_of([np.array([bad, 1, 0])], 3)
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="not unitary"):
            UnitaryOp(2, np.array([[bad, 0], [0, 1]]))
        with pytest.raises(ValueError, match="not orthonormal"):
            Subspace(2, np.array([[bad], [0]]))


@pytest.mark.parametrize(
    "dim, basis, message",
    [
        (2, [[1, 1], [0, 1]], "not orthonormal"),
        (2, [[2], [0]], "not orthonormal"),
        (3, np.eye(2), r"\(3, rank\) matrix"),
        (2, [1, 0], r"\(2, rank\) matrix"),
        (2, np.ones((2, 3)) / np.sqrt(2), "rank cannot exceed"),
        (0, np.zeros((0, 0)), "must be positive, got 0"),
        (-1, np.zeros((1, 0)), "must be positive, got -1"),
    ],
    ids=["skew", "long", "rows", "vector", "rank", "dim0", "dim-1"],
)
def test_subspace_rejects_finite_bad_basis(dim, basis, message):
    with pytest.raises(ValueError, match=message):
        Subspace(dim, np.array(basis))


@pytest.mark.parametrize(
    "dim, matrix, message",
    [
        (2, [[1, 1], [0, 1]], "not unitary"),
        (2, 2 * np.eye(2), "not unitary"),
        (2, np.eye(3), r"must be \(2, 2\)"),
        (2, np.eye(2, 3), r"must be \(2, 2\)"),
        (0, np.zeros((0, 0)), "must be positive, got 0"),
    ],
    ids=["shear", "scaled", "size", "wide", "dim0"],
)
def test_unitary_rejects_finite_bad_matrix(dim, matrix, message):
    with pytest.raises(ValueError, match=message):
        UnitaryOp(dim, np.array(matrix))


@pytest.mark.parametrize(
    "make",
    [
        top,
        bottom,
        lambda d: span_of([[]], d),
        lambda d: random_unitary(np.random.default_rng(0), d),
        lambda d: random_subspace(np.random.default_rng(0), d),
        lambda d: random_ray(np.random.default_rng(0), d),
        lambda d: random_ray_or_bot(np.random.default_rng(0), d),
        lambda d: random_compatible_pair(np.random.default_rng(0), d),
    ],
    ids=["top", "bottom", "span_of", "random_unitary", "random_subspace", "random_ray",
         "random_ray_or_bot", "random_compatible_pair"],
)
@pytest.mark.parametrize("dim", [0, -2])
def test_dimension_below_one_is_rejected(make, dim):
    with pytest.raises(ValueError, match=f"ambient dimension must be positive, got {dim}"):
        make(dim)


@pytest.mark.parametrize("rank", [-1, 3])
def test_rank_out_of_range_inside_is_rejected(rank):
    p = random_subspace(np.random.default_rng(0), 4, rank=2)
    with pytest.raises(ValueError, match=f"rank {rank} out of range inside a rank-2 subspace"):
        random_subspace_within(np.random.default_rng(0), p, rank=rank)


def test_containment_threshold_sits_at_eq_tol():
    p = Subspace(3, np.array([[1.0], [0.0], [0.0]]))

    def ray_at_residual(r):
        # e0 leaves a residual of exactly r off this ray
        return Subspace(3, np.array([[np.sqrt(1.0 - r * r)], [r], [0.0]]))

    assert leq(p, ray_at_residual(0.5 * EQ_TOL))
    assert not leq(p, ray_at_residual(2.0 * EQ_TOL))


@pytest.mark.parametrize("sine, equal", [(1e-7, False), (1e-9, True)])
def test_equality_threshold_in_absolute_terms(sine, equal):
    """Two rays at a sine of 1e-7 are distinct and at 1e-9 equal, in
    both directions and for their meet: a pin in numbers, not in
    multiples of ``EQ_TOL``, so that it holds the threshold still."""
    p = Subspace(3, np.array([[1.0], [0.0], [0.0]]))
    q = Subspace(3, np.array([[np.sqrt(1.0 - sine * sine)], [sine], [0.0]]))
    assert leq(p, q) == leq(q, p) == eq(p, q) == equal
    assert meet(p, q).rank == meet(q, p).rank == int(equal)


@pytest.mark.parametrize("largest", [1.0, 1e3])
def test_rank_cut_in_absolute_terms(largest):
    """A span whose smaller singular value is 1e-9 of the larger one
    (and of 1) keeps both: a pin in numbers, not in multiples of
    ``RANK_TOL``."""
    assert span_of([[largest, 0, 0], [0, 1e-9 * largest, 0]], 3).rank == 2


@pytest.mark.parametrize("largest", [0.5, 3.0])
def test_rank_cut_sits_at_rank_tol(largest):
    cut = RANK_TOL * max(1.0, largest)

    def rank_with(second):
        return span_of([[largest, 0, 0], [0, second, 0]], 3).rank

    assert rank_with(2.0 * cut) == 2
    assert rank_with(0.5 * cut) == 1


def test_unitarity_threshold_sits_at_unitary_tol():
    def deviating_by(d):
        # U*U - I = diag(d, 0)
        return np.diag([np.sqrt(1.0 + d), 1.0])

    assert unitary_deviation(deviating_by(0.5 * UNITARY_TOL)) == pytest.approx(0.5 * UNITARY_TOL)
    UnitaryOp(2, deviating_by(0.5 * UNITARY_TOL))
    with pytest.raises(ValueError, match="not unitary"):
        UnitaryOp(2, deviating_by(2.0 * UNITARY_TOL))


def _assert_checked_path_agrees(p):
    # the trusted constructors store what the checked constructor would
    checked = Subspace(p.dim, p.basis)
    assert np.array_equal(checked.basis, p.basis)
    assert checked.basis.strides == p.basis.strides
    assert not p.basis.flags.writeable
    assert p.basis.flags.owndata  # a copy: no view keeps a whole factor alive


@given(seeds, st.integers(1, 16))
@settings(max_examples=60, deadline=None)
def test_trusted_results_pass_the_checked_constructor(seed, dim):
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, dim)
    for m in (u.matrix, u.adjoint().matrix):
        assert unitary_deviation(m) <= UNITARY_TOL
        assert not m.flags.writeable
    p, q = random_subspace(rng, dim), random_subspace(rng, dim)
    drawn = [p, q, *random_compatible_pair(rng, dim), random_ray(rng, dim),
             random_ray_or_bot(rng, dim), random_subspace_within(rng, p),
             random_ray_within(rng, q), top(dim), bottom(dim)]
    results = [apply_unitary(u, p), apply_unitary(u.adjoint(), q)]
    for a in drawn:
        results.append(ortho(a))
        for b in (p, q):
            results += [join(a, b), meet(a, b), sasaki_and(a, b), sasaki_hook(a, b)]
    for x in drawn + results:
        _assert_checked_path_agrees(x)


def test_top_bottom_extremes():
    p = span_of([np.array([1j, 1, 0])], 3)
    assert leq(bottom(3), p) and leq(p, top(3))
    assert eq(meet(p, top(3)), p)
    assert eq(join(p, bottom(3)), p)


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        meet(top(2), top(3))


@given(seeds, dims)
@settings(max_examples=60, deadline=None)
def test_ortho_involution(seed, dim):
    p, _, _ = pq(seed, dim)
    assert eq(ortho(ortho(p)), p)
    assert p.rank + ortho(p).rank == dim


@given(seeds, dims)
@settings(max_examples=60, deadline=None)
def test_de_morgan(seed, dim):
    p, q, _ = pq(seed, dim)
    assert eq(ortho(meet(p, q)), join(ortho(p), ortho(q)))
    assert eq(ortho(join(p, q)), meet(ortho(p), ortho(q)))


@given(seeds, dims)
@settings(max_examples=60, deadline=None)
def test_lattice_absorption_and_commutativity(seed, dim):
    p, q, _ = pq(seed, dim)
    assert eq(meet(p, join(p, q)), p)
    assert eq(join(p, meet(p, q)), p)
    assert eq(meet(p, q), meet(q, p))
    assert eq(join(p, q), join(q, p))


@given(seeds, dims)
@settings(max_examples=40, deadline=None)
def test_orthomodular_law(seed, dim):
    _, q, rng = pq(seed, dim)
    # force p <= q
    from pqm.sampling import random_subspace_within
    p = random_subspace_within(rng, q)
    assert eq(q, join(p, meet(q, ortho(p))))


@given(seeds, dims)
@settings(max_examples=60, deadline=None)
def test_sasaki_dual_routes_agree(seed, dim):
    p, q, _ = pq(seed, dim)
    assert eq(sasaki_and(p, q), sasaki_and_lattice(p, q))


@given(seeds, dims)
@settings(max_examples=60, deadline=None)
def test_sasaki_adjunction(seed, dim):
    p, q, rng = pq(seed, dim)
    r = random_subspace(rng, dim)
    # x & q <= p  iff  x <= p hook q
    lhs = leq(sasaki_and(r, q), p)
    rhs = leq(r, sasaki_hook(p, q))
    assert lhs == rhs


@given(seeds, dims)
@settings(max_examples=60, deadline=None)
def test_compatibility_routes_agree(seed, dim):
    p, q, _ = pq(seed, dim)
    lattice = eq(p, join(meet(q, p), meet(ortho(q), p)))
    assert compatible(p, q) == projectors_commute(p, q) == lattice


def _degenerate_pairs(rng, dim):
    """Random pairs and pairs in degenerate position: two spans sharing
    a ray, nested spans, a meet against its own arguments, and a span and
    a copy with 1e-9 noise on its basis, between ``RANK_TOL`` and
    ``EQ_TOL``.  Yields (p, q, noisy), both orders of each pair."""
    p, q = random_subspace(rng, dim), random_subspace(rng, dim)
    ray = random_ray(rng, dim)
    extra = int(rng.integers(0, dim))
    shared = join(ray, random_subspace(rng, dim, rank=extra))
    other = join(ray, random_subspace(rng, dim, rank=int(rng.integers(0, dim - extra))))
    inner = random_subspace_within(rng, q)
    m = meet(p, q)
    plane = random_subspace(rng, dim, rank=int(rng.integers(1, dim + 1)))
    noise = 1e-9 * (rng.standard_normal(plane.basis.shape) + 1j * rng.standard_normal(plane.basis.shape))
    copy = span_of((plane.basis + noise).T, dim)
    pairs = [(p, q, False), (shared, other, False), (inner, q, False), (m, p, False), (m, q, False),
             (plane, copy, True)]
    for a, b, noisy in pairs:
        yield a, b, noisy
        yield b, a, noisy


@given(seeds, st.sampled_from([2, 3, 4, 6]))
@settings(max_examples=150, deadline=None)
def test_residual_meet_agrees_with_containment_and_the_oracles(seed, dim):
    rng = np.random.default_rng(seed)
    for p, q, noisy in _degenerate_pairs(rng, dim):
        m = meet(p, q)
        assert leq(p, q) == (m.rank == p.rank)
        assert leq(m, p) and leq(m, q)
        assert compatible(p, q) == projectors_commute(p, q)
        if noisy:  # the De Morgan meet cuts the copy's noise at RANK_TOL and can lose rank
            assert eq(p, q) and eq(m, p)
        else:
            oracle = meet_by_complements(p, q)
            assert m.rank == oracle.rank and eq(m, oracle)


@given(seeds, dims)
@settings(max_examples=40, deadline=None)
def test_compatible_pairs_turn_sasaki_into_meet(seed, dim):
    p, q, rng = pq(seed, dim)
    if not compatible(p, q):
        q = ortho(p)  # orthogonal pairs commute
    assert eq(sasaki_and(p, q), meet(p, q))


def test_principal_angles_identity_and_orthogonal():
    p = span_of([np.array([1, 0, 0]), np.array([0, 1, 0])], 3)
    assert np.allclose(principal_angles(p, p), 0.0, atol=1e-12)
    q = span_of([np.array([0, 0, 1])], 3)
    assert np.allclose(principal_angles(p, q)[-1:], np.pi / 2, atol=1e-12)


def test_principal_angles_known_rotation():
    theta = 0.3
    p = span_of([np.array([1.0, 0.0])], 2)
    q = span_of([np.array([np.cos(theta), np.sin(theta)])], 2)
    assert abs(principal_angles(p, q)[0] - theta) < 1e-12


def test_principal_angles_resolve_tiny_angles():
    # arccos of an inner product would flatten 1e-9 into ~1e-8 noise
    eps = 1e-9
    p = span_of([np.array([1.0, 0.0])], 2)
    q = span_of([np.array([np.cos(eps), np.sin(eps)])], 2)
    assert abs(principal_angles(p, q)[0] - eps) < 1e-15


@given(seeds, st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_unitary_is_lattice_automorphism(seed, dim):
    p, q, rng = pq(seed, dim)
    u = random_unitary(rng, dim)
    assert eq(apply_unitary(u, meet(p, q)), meet(apply_unitary(u, p), apply_unitary(u, q)))
    assert eq(apply_unitary(u, join(p, q)), join(apply_unitary(u, p), apply_unitary(u, q)))
    assert eq(apply_unitary(u, ortho(p)), ortho(apply_unitary(u, p)))
    assert leq(p, q) == leq(apply_unitary(u, p), apply_unitary(u, q))


@given(seeds, st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_ray_in_avoiding_avoids(seed, dim):
    rng = np.random.default_rng(seed)
    p = random_subspace(rng, dim, rank=int(rng.integers(1, dim + 1)))
    avoid = [random_subspace(rng, dim, rank=int(rng.integers(0, dim))) for _ in range(3)]
    w = ray_in_avoiding(p, avoid)
    if any(leq(p, a) for a in avoid):
        assert w is None
    else:
        assert w is not None and w.rank == 1 and leq(w, p)
        assert not any(leq(w, a) for a in avoid)


def test_ray_in_avoiding_survives_many_hyperplanes():
    # more avoided planes than the random retry budget would suggest
    dim = 3
    p = top(dim)
    rng = np.random.default_rng(7)
    avoid = [random_subspace(rng, dim, rank=2) for _ in range(80)]
    w = ray_in_avoiding(p, avoid)
    assert w is not None
    assert not any(leq(w, a) for a in avoid)


def test_subspace_json_round_trip(rng):
    p = random_subspace(rng, 3)
    obj = subspace_to_json(p)
    back = span_of([[complex(re, im) for re, im in vec] for vec in obj["basis"]], obj["dim"])
    assert back.rank == obj["rank"]
    assert eq(p, back)


# ---------------------------------------------------------------------------
# The stacked kernel against the per-pair operations


def _kernel_family(seed, dim):
    """Subspaces of C^dim in generic and degenerate position, the zero
    space and the whole space among them."""
    rng = np.random.default_rng([seed, dim])
    spaces = [bottom(dim), top(dim)]
    spaces += [random_subspace(rng, dim, rank=r) for r in range(dim + 1)]
    for p, q, _ in _degenerate_pairs(rng, dim):
        spaces.append(p)
    return spaces


def _stack_of(spaces, dim):
    return stacked([s.basis for s in spaces], dim)


def _by_rank(spaces):
    """The spaces of each rank, as an unpadded (n, dim, rank) stack."""
    for rank in sorted({s.rank for s in spaces}):
        group = [s for s in spaces if s.rank == rank]
        yield group, np.stack([s.basis for s in group])


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("seed", range(3))
def test_stacked_leq_table_matches_leq(seed, dim):
    spaces = _kernel_family(seed, dim)
    padded = _stack_of(spaces, dim)
    table = stacked_leq_table(padded, padded)
    assert table.tolist() == [[leq(p, q) for q in spaces] for p in spaces]
    # one rank on each side, unpadded, as a symbol lookup asks it
    for ps, p_stack in _by_rank(spaces):
        for qs, q_stack in _by_rank(spaces):
            assert stacked_leq_table(p_stack, q_stack).tolist() == [[leq(p, q) for q in qs] for p in ps]


@pytest.mark.parametrize("n, m", [(2, 0), (0, 2), (0, 0)])
def test_stacked_leq_table_of_an_empty_stack_is_empty(n, m):
    rng = np.random.default_rng(0)
    p = np.array([random_subspace(rng, 3, 1).basis for _ in range(n)]).reshape(n, 3, 1)
    q = np.array([random_subspace(rng, 3, 2).basis for _ in range(m)]).reshape(m, 3, 2)
    table = stacked_leq_table(p, q)
    assert table.shape == (n, m) and table.dtype == bool


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("seed", range(3))
def test_stacked_meet_and_compatible_match_the_pair_forms(seed, dim):
    spaces = _kernel_family(seed, dim)
    for ps, p_stack in _by_rank(spaces):
        pairs = [(i, q) for i in range(len(ps)) for q in spaces]
        p_rows = p_stack[[i for i, _ in pairs]]
        q_rows = _stack_of([q for _, q in pairs], dim)  # zero-padded
        meets, ranks = stacked_meet(p_rows, q_rows)
        fits = stacked_compatible(p_rows, q_rows)
        for (i, q), m, r, fit in zip(pairs, meets, ranks, fits):
            expected = meet(ps[i], q)
            assert r == expected.rank and not m[:, r:].any()
            assert eq(Subspace(dim, m[:, :r]), expected)
            assert fit == compatible(ps[i], q)


def _span_inputs(seed, dim):
    """(dim, dim + 1) matrices: zero, generic, of lower rank, and one whose
    second singular value lies above RANK_TOL times the largest (0.5) but
    below the absolute floor RANK_TOL, so it is cut."""
    rng = np.random.default_rng([seed, dim])
    gauss = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)  # noqa: E731
    low = gauss(dim, max(dim - 1, 1)) @ gauss(max(dim - 1, 1), dim + 1)
    floor = np.zeros((dim, dim + 1), dtype=complex)
    floor[0, 0] = 0.5
    if dim > 1:
        floor[1, 1] = 0.6 * RANK_TOL
    return [np.zeros((dim, dim + 1)), gauss(dim, dim + 1), low, floor]


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
@pytest.mark.parametrize("seed", range(3))
def test_stacked_span_matches_span_from_matrix(seed, dim):
    mats = _span_inputs(seed, dim)
    spans, ranks = stacked_span(np.stack(mats))
    for a, s, r in zip(mats, spans, ranks):
        expected = _span_from_matrix(a, dim)
        assert r == expected.rank and not s[:, r:].any()
        assert eq(Subspace(dim, s[:, :r]), expected)
    assert ranks[-1] == 1  # the floor cuts the second column


@pytest.mark.parametrize("entries", [1, 40])
def test_stacked_forms_are_the_same_in_small_chunks(monkeypatch, entries):
    dim = 3
    spaces = _kernel_family(5, dim)
    padded = _stack_of(spaces, dim)
    rays = np.stack([s.basis for s in spaces if s.rank == 1])
    q_rows = padded[: len(rays)]
    mats = np.stack(_span_inputs(5, dim) * 3)

    def run():
        return (stacked_leq_table(padded, padded), *stacked_meet(rays, q_rows),
                stacked_compatible(rays, q_rows), *stacked_span(mats))

    whole = run()
    monkeypatch.setattr(kernel, "_STACK_ENTRIES", entries)
    assert len(list(kernel.stack_chunks(len(padded), len(padded) * dim * dim))) == len(padded)
    for got, want in zip(run(), whole):
        assert np.array_equal(got, want)


def _tilted_plane(sine):
    """A checked orthonormal basis of a plane of C^3 tilted off span(e1,
    e2) by ``sine``, the tilt spread evenly over both columns."""
    w = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
    u = np.array([np.sqrt(1 - sine**2) / np.sqrt(2)] * 2 + [sine])
    return Subspace(3, np.column_stack([w + u, w - u]) / np.sqrt(2))


E = np.eye(4)


@pytest.mark.parametrize(
    "p, q, contained",
    [
        (span_of([E[0] + 8e-9 * E[2], E[1] + 8e-9 * E[3]], 4), span_of([E[0], E[1]], 4), True),
        (_tilted_plane(1.2e-8), span_of(np.eye(3)[:2], 3), False),
    ],
    ids=["sines-8e-9", "tilt-1.2e-8"],
)
def test_leq_table_decides_the_column_norm_band(p, q, contained):
    """Each column's residual is below EQ_TOL and their Frobenius norm is
    above it, so only the largest sine decides: 8e-9 is contained, 1.2e-8
    is not."""
    resid = p.basis - q.basis @ (q.basis.conj().T @ p.basis)
    assert np.linalg.norm(resid, axis=0).max() < EQ_TOL < np.linalg.norm(resid)
    assert leq(p, q) == contained
    assert stacked_leq_table(p.basis[None], q.basis[None]).tolist() == [[contained]]
    pair = _stack_of([p, q], p.dim)
    assert stacked_leq_table(pair, pair).tolist() == [[True, contained], [leq(q, p), True]]
