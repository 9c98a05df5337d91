"""Exact polynomial/series arithmetic, including the division round-trip."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from su2branch.seriescalc import (
    eval_at_one,
    poly,
    poly_str,
    series_div_geom,
    sparse_items,
)

from conftest import ZERO, degree, monomial, pair_counter, poly_add, poly_mul, poly_truncate

small_polys = st.lists(st.integers(-9, 9), max_size=12).map(poly)


def test_poly_normalization():
    assert poly([0, 1, 0, 0]) == (0, 1)
    assert poly([]) == ZERO
    assert degree(ZERO) == -1
    assert degree((1, 0, 3)) == 2


def test_monomial_sum():
    h = 30
    assert poly_add(monomial(0), monomial(h)) == (1,) + (0,) * 29 + (1,)


def test_denominator_product():
    a, b = 12, 20
    lhs = poly_mul(poly_add(monomial(0), monomial(a, -1)), poly_add(monomial(0), monomial(b, -1)))
    want = {0: 1, a: -1, b: -1, a + b: 1}
    assert dict(sparse_items(lhs)) == want


def test_mul_by_zero():
    assert poly_mul((1, 2, 3), ZERO) == ZERO
    assert poly_mul(ZERO, ZERO) == ZERO


def test_eval_at_one():
    assert eval_at_one((1,) + (0,) * 29 + (1,)) == 2
    assert eval_at_one(ZERO) == 0


def test_series_double_pole():
    # 1 / (1-t)^2 = 1 + 2t + 3t^2 + 4t^3 + ...
    assert series_div_geom((1,), 1, 1, 3) == (1, 2, 3, 4)


def test_series_invariant_numerator():
    # (1 + t^30) / ((1-t^12)(1-t^20)) starts 1, t^12, t^20, t^24
    z = poly_add(monomial(0), monomial(30))
    got = series_div_geom(z, 12, 20, 24)
    want = [0] * 25
    for e in (0, 12, 20, 24):
        want[e] = 1
    assert got == tuple(want)


def test_series_rejects_bad_args():
    with pytest.raises(ValueError):
        series_div_geom((1,), 0, 2, 5)
    with pytest.raises(ValueError):
        series_div_geom((1,), 2, 2, -1)


@pytest.mark.parametrize("a,b", [(1, 1), (1, 7), (2, 2), (3, 5), (4, 10), (6, 8), (12, 20)])
def test_pair_counter_matches_dense_series(a, b):
    # The test-local closed form the Coxeter period table is checked against.
    count = pair_counter(a, b)
    series = series_div_geom((1,), a, b, 300)
    assert [count(n) for n in range(301)] == list(series)
    assert count(-1) == count(-a) == 0


def _roundtrip(z, a, b, order):
    series = series_div_geom(z, a, b, order)
    denom = poly_mul(
        poly_add(monomial(0), monomial(a, -1)), poly_add(monomial(0), monomial(b, -1))
    )
    back = poly_mul(poly(series), denom)
    assert poly_truncate(back, order) == poly_truncate(z, order)


@given(small_polys, st.integers(1, 8), st.integers(1, 8), st.integers(0, 40))
def test_division_roundtrip(z, a, b, order):
    _roundtrip(z, a, b, order)


@given(small_polys, small_polys, small_polys)
def test_ring_axioms(p, q, r):
    assert poly_add(p, q) == poly_add(q, p)
    assert poly_mul(p, q) == poly_mul(q, p)
    assert poly_mul(poly_mul(p, q), r) == poly_mul(p, poly_mul(q, r))
    assert poly_mul(p, poly_add(q, r)) == poly_add(poly_mul(p, q), poly_mul(p, r))


def test_poly_str():
    assert poly_str((0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2)) == "t + 2*t^15"
    assert poly_str(ZERO) == "0"
    assert poly_str((3,)) == "3"
