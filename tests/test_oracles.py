"""Closed-form constructions used as independent test oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pqm.oracles import (
    MIN_CHAIN_START,
    CompatibleInputError,
    OracleDomainError,
    ellipse_witness,
    f_chain,
    f_step,
    incompat_decompose,
    two_ray_collapse,
)
from pqm.sampling import random_subspace
from pqm.subspace import compatible, eq, leq, meet, span_of


def closed_form_steps(a: float) -> tuple[int, bool]:
    """(expected steps, exact) from the invariant 1/f(x)^2 = 1/x^2 - 1.

    After k steps the parameter is 1/sqrt(1/a^2 - k), reaching 1 at
    k = ceil(1/a^2) - 1.  Exactness is only claimed away from integer
    1/a^2 boundaries, where one float rounding flips the ceiling.
    """
    inv = 1.0 / (a * a)
    frac = inv - math.floor(inv)
    exact = 1e-6 < frac < 1 - 1e-6
    return math.ceil(inv) - 1, exact


def test_step_map_values():
    assert f_step(0.5) == pytest.approx(1 / math.sqrt(3), abs=1e-15)
    assert f_step(1 / math.sqrt(2)) == pytest.approx(1.0, abs=1e-12)


def test_half_takes_three_steps():
    chain = f_chain(0.5)
    assert len(chain) - 1 == 3
    expected = [0.5, 1 / math.sqrt(3), 1 / math.sqrt(2), 1.0]
    assert np.allclose(chain, expected, atol=1e-12)


def test_domain_guards():
    with pytest.raises(OracleDomainError):
        f_step(1.0)
    with pytest.raises(OracleDomainError):
        f_step(-0.1)
    with pytest.raises(OracleDomainError):
        f_chain(0.0)
    with pytest.raises(OracleDomainError):
        f_chain(1.5)
    assert len(f_chain(1.0)) - 1 == 0


@given(st.floats(min_value=0.01, max_value=0.999))
@settings(max_examples=200, deadline=None)
def test_steps_match_closed_form(a):
    expected, exact = closed_form_steps(a)
    got = len(f_chain(a)) - 1
    if exact:
        assert got == expected
    else:
        assert abs(got - expected) <= 1


def test_steps_antitone_on_grid():
    values = [len(f_chain(a)) - 1 for a in np.linspace(0.02, 1.0, 400)]
    assert all(x >= y for x, y in zip(values, values[1:]))
    assert values[-1] == 0


def test_ellipse_vertex_and_interior():
    w = ellipse_witness(0.6, 0.6, 0.0)
    assert w.orthogonal and w.on_ellipse
    inside = ellipse_witness(0.6, 0.1, 0.1)
    assert not inside.orthogonal and not inside.on_ellipse


@given(st.floats(min_value=0.05, max_value=0.95), st.floats(min_value=0.0, max_value=2 * math.pi))
@settings(max_examples=200, deadline=None)
def test_parametric_ellipse_points_are_orthogonal(a, theta):
    b = a / math.sqrt(1 - a * a)  # semi-minor axis only when a < 1/sqrt(2)
    x = a * math.cos(theta)
    y = b * math.sin(theta)
    w = ellipse_witness(a, x, y)
    assert w.on_ellipse
    assert w.orthogonal
    assert abs(w.inner) < 1e-12


def test_witness_vectors_live_where_claimed():
    w = ellipse_witness(0.7, 0.3, 0.8)
    for u, v in ((w.u_plus, w.v_plus), (w.u_minus, w.v_minus)):
        assert abs(np.vdot(w.w, v)) < 1e-12  # v is the part of u away from w
    assert w.inner == pytest.approx(np.vdot(w.v_plus, w.v_minus).real, abs=1e-12)


def test_incompat_hand_example():
    p = span_of([np.array([1, 0, 0], dtype=complex)], 3)
    q = span_of([np.array([1, 1, 0], dtype=complex) / np.sqrt(2)], 3)
    d = incompat_decompose(p, q)
    assert d.eigenvalue == pytest.approx(0.5, abs=1e-12)
    assert d.c.rank == 2
    assert leq(p, d.c) and leq(q, d.c)


def test_incompat_rejects_compatible_pairs():
    p = span_of([np.array([1, 0, 0], dtype=complex)], 3)
    q = span_of([np.array([0, 1, 0], dtype=complex)], 3)
    with pytest.raises(CompatibleInputError):
        incompat_decompose(p, q)


@given(st.integers(0, 2**32 - 1), st.sampled_from([3, 4]))
@settings(max_examples=60, deadline=None)
def test_incompat_postconditions_random(seed, dim):
    rng = np.random.default_rng(seed)
    p = random_subspace(rng, dim, rank=int(rng.integers(1, dim)))
    q = random_subspace(rng, dim, rank=int(rng.integers(1, dim)))
    if compatible(p, q):
        with pytest.raises(CompatibleInputError):
            incompat_decompose(p, q)
        return
    d = incompat_decompose(p, q)
    assert 0.0 < d.eigenvalue < 1.0
    assert compatible(d.c, p) and compatible(d.c, q)
    assert eq(meet(d.c, p), d.u_span)
    assert eq(meet(d.c, q), d.v_span)
    assert not compatible(d.u_span, d.v_span) or eq(d.u_span, d.v_span)


@given(st.floats(min_value=0.05, max_value=0.9))
@settings(max_examples=25, deadline=None)
def test_collapse_round_count_matches_chain(a):
    t = two_ray_collapse(a)
    assert t.rounds == len(f_chain(a)) - 1
    assert t.final_meet_rank == 0
    assert t.parameters[0] == a
    assert t.parameters[-1] >= 1.0 - 1e-15  # last step may round just below 1


def test_chain_and_collapse_at_the_least_start():
    assert len(f_chain(MIN_CHAIN_START)) - 1 == 9999
    assert two_ray_collapse(MIN_CHAIN_START).rounds == 9999
    below = math.nextafter(MIN_CHAIN_START, 0.0)
    for fn in (f_chain, two_ray_collapse):
        with pytest.raises(OracleDomainError, match="needs 0.01 <= a <= 1"):
            fn(below)


def test_collapse_produces_orthogonal_rays():
    t = two_ray_collapse(0.5)
    assert compatible(t.final_plus, t.final_minus)
    assert meet(t.final_plus, t.final_minus).rank == 0
