"""Exact polynomial/series arithmetic, including the division round-trip."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from su2branch.invariants import ORACLES
from su2branch.seriescalc import PeriodTable, poly, poly_str, series_div_geom, sparse_items
from su2branch.verify import ACCEPTED_TYPES

from conftest import (
    ZERO,
    bundle,
    degree,
    monomial,
    pair_counter,
    poly_add,
    poly_mul,
    poly_truncate,
)

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


def test_negative_step_is_the_first_in_level_order():
    # Period 2, two columns: step 0 is (1, 0), step 1 is (0, -1), so the
    # only negative entry is residue 1, column 1.
    table = PeriodTable.of([(1, 0), (2, 3), (2, 0), (2, 2)], 2)
    assert table.negative_step() == (1, 1)
    assert PeriodTable.of([(1, 0), (2, 3), (2, 0), (2, 3)], 2).negative_step() is None
    assert PeriodTable((), (), 0).negative_step() is None


@st.composite
def levels_and_period(draw):
    size, period = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    vector = st.tuples(*[st.integers(-9, 9)] * size)
    return draw(st.lists(vector, min_size=2 * period, max_size=2 * period + 3)), period


@given(levels_and_period())
def test_a_table_reads_back_the_levels_it_was_built_from(case):
    levels, period = case
    table = PeriodTable.of(levels, period)
    assert (table.period, table.order) == (period, 2 * period - 1)
    assert list(table) == levels[: 2 * period]
    assert [table.level(n) for n in range(2 * period)] == levels[: 2 * period]


def test_upto_shares_base_and_step():
    table = PeriodTable.of([(1, 0), (2, 3), (2, 0), (2, 2)], 2)
    longer = table.upto(10)
    assert longer.base is table.base and longer.step is table.step
    assert (longer.period, longer.order, len(longer)) == (2, 10, 11)
    assert longer[:4] == list(table)
    assert longer[-1] == table.level(10) == (6, 0)
    assert longer[9] == table.level(9) == (2, -1)


def test_a_table_slices_and_compares_like_the_list_of_its_levels():
    table = PeriodTable.of([(1, 0), (2, 3), (2, 0), (2, 2)], 2).upto(6)
    levels = [table.level(n) for n in range(7)]
    assert table[::-1] == levels[::-1] and table[5:] == levels[5:]
    assert table == levels and levels == table and table == tuple(levels)
    assert table != levels[:-1] and table != levels[:-1] + [levels[0]]
    assert table != levels + [levels[0]]


def test_a_negative_order_is_refused_at_construction():
    table = PeriodTable.of([(1,), (2,)], 1)
    with pytest.raises(ValueError, match="order must be nonnegative"):
        table.upto(-1)
    with pytest.raises(ValueError, match="order must be nonnegative"):
        PeriodTable(table.base, table.step, -1)
    assert list(table.upto(0)) == [(1,)]


@pytest.mark.parametrize("oracle", ORACLES)
@pytest.mark.parametrize("name", ("A1",) + ACCEPTED_TYPES)
def test_read_level_keeps_weyl_reciprocity(name, oracle):
    # chi_(-n-2) = -chi_n, so each route's levels, read for every integer n,
    # satisfy q(-n-2) = -q(n); n = -1 reads the zero level.  q(n) + q(-n-2)
    # is affine in k on each residue class, so two periods prove it for all n.
    table = bundle(name).periods(oracle)
    for n in range(-1, 2 * table.period + 3):
        assert table.level(-n - 2) == tuple(-x for x in table.level(n)), n
