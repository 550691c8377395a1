"""The samplers against their full-Haar and ``span_of`` routes, byte for byte.

Each pair of calls starts from two generators in one state.  The bases
must agree in shape, strides and bytes, and the generators must end in
one state, so that every later draw of a suite is the same too.  The
bytes are those of the LAPACK build numpy links to; another build may
give other bytes on both sides, as ``test_sample_outputs_are_pinned``
says of its digests.  The stacked draws of a block are checked for what
each instance must be: a subspace of its kind and rank, inside the
subspace it was drawn in.
"""

import numpy as np
import pytest

from pqm.sampling import (
    random_compatible_pair, random_compatible_pairs, random_ray, random_ray_or_bot, random_ray_within,
    random_rays_or_bot, random_subspace, random_subspace_within, random_subspaces, random_subspaces_within,
    random_unitaries,
)
from pqm.subspace import UnitaryOp, compatible, eq, leq, meet

from _helpers import instance
from _routes import (
    random_ray_by_span_of,
    random_ray_within_by_span_of,
    random_subspace_by_full_haar,
    random_subspace_within_by_span_of,
)

DIMS = [*range(1, 9), 16]
SEEDS = range(3)


def _twins(*seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def assert_same_draw(got, want, rng_got, rng_want):
    assert (got.dim, got.basis.shape, got.basis.strides) == (want.dim, want.basis.shape, want.basis.strides)
    assert got.basis.tobytes() == want.basis.tobytes()
    assert rng_got.bit_generator.state == rng_want.bit_generator.state
    assert rng_got.standard_normal() == rng_want.standard_normal()


@pytest.mark.parametrize("dim", DIMS)
def test_random_subspace_is_the_leading_columns_of_a_haar_unitary(dim):
    for seed in SEEDS:
        for rank in [*range(dim + 1), None]:
            a, b = _twins(seed, dim, dim + 1 if rank is None else rank)
            assert_same_draw(random_subspace(a, dim, rank), random_subspace_by_full_haar(b, dim, rank), a, b)


@pytest.mark.parametrize("dim", DIMS)
def test_random_ray_is_the_span_of_its_vector(dim):
    for seed in SEEDS:
        a, b = _twins(seed, dim)
        assert_same_draw(random_ray(a, dim), random_ray_by_span_of(b, dim), a, b)


@pytest.mark.parametrize("dim", DIMS)
def test_draws_within_a_subspace_are_the_spans_of_their_vectors(dim):
    for seed in SEEDS:
        for outer in range(dim + 1):
            p = random_subspace_by_full_haar(np.random.default_rng([seed, dim, outer]), dim, outer)
            for rank in [*range(outer + 1), None]:
                a, b = _twins(seed, dim, outer, dim + 1 if rank is None else rank)
                assert_same_draw(
                    random_subspace_within(a, p, rank), random_subspace_within_by_span_of(b, p, rank), a, b
                )
            a, b = _twins(seed, dim, outer)
            assert_same_draw(random_ray_within(a, p), random_ray_within_by_span_of(b, p), a, b)


@pytest.mark.parametrize("dim", DIMS)
def test_scalar_ray_or_bot_and_compatible_pair_are_one_instance_blocks(dim):
    for seed in SEEDS:
        a, b = _twins(seed, dim)
        ray, block = random_ray_or_bot(a, dim), random_rays_or_bot(b, 1, dim)
        assert ray.basis.tobytes() == block.basis[0, :, : block.rank[0]].tobytes()
        assert a.bit_generator.state == b.bit_generator.state
        a, b = _twins(seed, dim)
        pair, blocks = random_compatible_pair(a, dim), random_compatible_pairs(b, 1, dim)
        for got, want in zip(pair, blocks):
            assert got.basis.tobytes() == want.basis[0, :, : want.rank[0]].tobytes()
        assert a.bit_generator.state == b.bit_generator.state


def _instances(stack):
    return [instance(stack, i) for i in range(len(stack.rank))]


@pytest.mark.parametrize("dim", DIMS)
def test_stacked_draws_are_subspaces_of_their_kind(dim):
    rng = np.random.default_rng([dim, 29])
    n = 40
    subspaces = random_subspaces(rng, n, dim)
    inner_rank = rng.integers(0, subspaces.rank + 1)
    inner = random_subspaces_within(rng, subspaces, inner_rank)
    rays = random_rays_or_bot(rng, n, dim)
    p, q, common = random_compatible_pairs(rng, n, dim)
    assert 0 <= subspaces.rank.min() and subspaces.rank.max() <= dim and set(rays.rank) <= {0, 1}
    for outer, x, r, want in zip(_instances(subspaces), _instances(inner), subspaces.rank, inner_rank):
        assert outer.rank == r and x.rank == want and leq(x, outer)
    assert [x.rank for x in _instances(rays)] == list(rays.rank)
    for a, b, c in zip(_instances(p), _instances(q), _instances(common)):
        assert compatible(a, b) and eq(c, meet(a, b))
    for u in random_unitaries(rng, n, dim):
        UnitaryOp(dim, u)
