"""The samplers against their full-Haar and ``span_of`` routes, byte for byte.

Each pair of calls starts from two generators in one state.  The bases
must agree in shape, strides and bytes, and the generators must end in
one state, so that every later draw of a suite is the same too.  The
bytes are those of the LAPACK build numpy links to; another build may
give other bytes on both sides, as ``test_sample_outputs_are_pinned``
says of its digests.
"""

import numpy as np
import pytest

from pqm.sampling import random_ray, random_ray_within, random_subspace, random_subspace_within

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
