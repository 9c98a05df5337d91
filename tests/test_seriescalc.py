"""Exact polynomial/series arithmetic, including the division round-trip."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from su2branch.errors import UsageError
from su2branch.invariants import HUGE_LEVEL, ORACLES
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
    table_of,
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


@st.composite
def levels_and_period(draw):
    size, period = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    vector = st.tuples(*[st.integers(-9, 9)] * size)
    return draw(st.lists(vector, min_size=2 * period, max_size=2 * period + 3)), period


@given(levels_and_period())
def test_a_table_reads_back_the_levels_it_was_built_from(case):
    levels, period = case
    table = table_of(levels, period)
    assert (table.period, table.order) == (period, 2 * period - 1)
    assert list(table) == levels[: 2 * period]
    assert [table.level(n) for n in range(2 * period)] == levels[: 2 * period]


def test_upto_shares_base_and_step():
    table = table_of([(1, 0), (2, 3), (2, 0), (2, 2)], 2)
    longer = table.upto(10)
    assert longer.base is table.base and longer.step is table.step
    assert (longer.period, longer.order) == (2, 10)
    assert list(longer)[:4] == list(table)
    assert longer[10] == table.level(10) == (6, 0)
    assert longer[9] == table.level(9) == (2, -1)


def test_a_negative_order_is_refused_at_construction():
    # A caller's order reaches upto, bad input; the routes build their tables
    # and series at orders they computed, so a negative one there is a fault.
    table = table_of([(1,), (2,)], 1)
    with pytest.raises(UsageError, match="order must be nonnegative"):
        table.upto(-1)
    for build in (lambda: PeriodTable(table.base, table.step, -1), lambda: series_div_geom((1,), 2, 2, -1)):
        with pytest.raises(ValueError, match="order must be nonnegative") as info:
            build()
        assert type(info.value) is ValueError
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


def _exact(table, n):
    """Level n entry by entry, the reference every read is compared with."""
    k, r = divmod(n, table.period)
    return tuple(x + k * d for x, d in zip(table.base[r], table.step[r]))


def _packed_rows(table):
    """The table's base and step rows packed afresh, one int of 64-bit fields each."""
    return tuple(
        tuple(sum(x << 64 * i for i, x in enumerate(v)) for v in rows) for rows in (table.base, table.step)
    )


@st.composite
def wide_tables(draw):
    """Tables with entries up to 2^62 and one step entry 2^62 in every
    residue, so kmax is 2 and a few periods cross from the packed reads to
    the exact ones."""
    size, period = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = st.lists(st.tuples(*[st.integers(0, 2**62)] * size), min_size=period, max_size=period)
    base, step = draw(rows), draw(rows)
    return PeriodTable(tuple(base), tuple((2**62,) + row[1:] for row in step), 0)


@given(wide_tables(), st.integers(0, 3))
def test_packed_and_exact_reads_agree_on_both_sides_of_kmax(table, r):
    period, r = table.period, r % table.period
    assert (table.bound, table.kmax) == (2**62, 2)
    assert table.packed == _packed_rows(table)
    assert max(_exact(table, table.kmax * period + r)) < 2**64
    for k in (0, 1, table.kmax, table.kmax + 1, -1, -2):
        assert table.level(k * period + r) == _exact(table, k * period + r), k
    for n in (-1, 10**100, -(10**100)):
        assert table.level(n) == _exact(table, n), n


@given(wide_tables())
def test_iteration_across_kmax_reads_every_level(table):
    period, kmax = table.period, 2
    for top in (kmax * period - 1, kmax * period, (kmax + 1) * period, (kmax + 2) * period + 1):
        levels = [_exact(table, n) for n in range(top + 1)]
        view = table.upto(top)
        assert list(view) == [view.level(n) for n in range(top + 1)] == levels
        assert [view[n] for n in range(top + 1)] == levels


def test_a_table_with_a_negative_or_wide_entry_reads_exactly():
    # A negative entry, or one of 2^64 or more, fits no unsigned 64-bit
    # field; an entry of 2^63 or more leaves no k whose level fits.
    negative = [(((1, -1),), ((2, 3),)), (((1, 2),), ((0, -3),)), (((1,), (2,)), ((-1,), (3,)))]
    wide = [(((2**64, 0),), ((1, 1),)), (((2**64 - 1, 0),), ((1, 1),)), (((1, 2**63),), ((0, 0),))]
    for base, step in negative + wide:
        table = PeriodTable(base, step, 0)
        entries = [x for rows in (base, step) for v in rows for x in v]
        assert (table.packed, table.kmax) == (None, 0)
        assert table.bound == (None if min(entries) < 0 else max(entries))
        view = table.upto(9)
        assert list(view) == [_exact(table, n) for n in range(10)]
        for n in (1, 10**18, -(10**18), 10**100):
            assert table.level(n) == _exact(table, n), n


def test_kmax_is_the_last_k_whose_fields_fit():
    # M = 2^63 - 1: level P, 2M in its first field, is the last that fits.
    top = 2**63 - 1
    table = PeriodTable(((top, 5),), ((top, 7),), 0)
    assert (table.bound, table.kmax) == (top, 1)
    assert [table.level(n) for n in range(4)] == [(top, 5), (2 * top, 12), (3 * top, 19), (4 * top, 26)]
    assert list(table.upto(3)) == [table.level(n) for n in range(4)]


@pytest.mark.parametrize("oracle", ORACLES)
@pytest.mark.parametrize("name", ("A1", "E8", "D71"))
def test_no_read_writes_to_the_table(name, oracle):
    # Level reads on both paths, iterations and views leave the table's
    # attributes as they were, the same objects; a view shares each of them
    # but its order.
    table = bundle(name).periods(oracle)
    before = dict(vars(table))
    period, kmax = table.period, table.kmax
    for n in (0, period - 1, period, 7 * period + 3, kmax * period, (kmax + 1) * period, 10**100, -5):
        assert table.level(n) == table[n] == _exact(table, n)
    view = table.upto((kmax + 1) * period + 1)
    assert view[(kmax + 1) * period + 1] == _exact(table, (kmax + 1) * period + 1)
    assert list(table.upto(4 * period + 1)) == [_exact(table, n) for n in range(4 * period + 2)]
    assert list(table) == [_exact(table, n) for n in range(table.order + 1)]
    assert vars(table) == before and all(vars(table)[key] is value for key, value in before.items())
    assert vars(view).keys() == before.keys() and view.order == (kmax + 1) * period + 1
    assert all(vars(view)[key] is value for key, value in before.items() if key != "order")


@pytest.mark.parametrize("oracle", ORACLES)
@pytest.mark.parametrize("name", ("A1",) + ACCEPTED_TYPES + ("A71", "D71"))
def test_every_route_table_reads_exactly_around_kmax(name, oracle):
    # Each route hands over its packed rows and a bound it has proved: the
    # rows must be its table's rows packed, the bound at least every entry
    # (a bound too low would let a field carry silently), and every n <
    # 2^64 - P reads packed.  Packed and exact reads agree at k = 1, kmax and
    # kmax + 1 in every residue.
    table = bundle(name).periods(oracle)
    period, kmax = table.period, table.kmax
    assert table.packed == _packed_rows(table)
    assert table.bound >= max(x for rows in (table.base, table.step) for v in rows for x in v)
    assert kmax == (2**64 - 1) // table.bound - 1
    assert (kmax + 1) * period >= 2**64 - period > HUGE_LEVEL
    for r in range(period):
        for k in (1, kmax, kmax + 1):
            assert table.level(k * period + r) == _exact(table, k * period + r), (r, k)
    assert table.level(HUGE_LEVEL) == _exact(table, HUGE_LEVEL)


@pytest.mark.parametrize("oracle", ORACLES)
def test_short_views_yield_their_length(oracle):
    # A view of fewer than P levels yields only the base levels it holds.
    table = bundle("E8").periods(oracle)
    for k in range(2 * table.period):
        view = table.upto(k)
        assert len(list(view)) == k + 1, k


@pytest.mark.parametrize("oracle", ORACLES)
@pytest.mark.parametrize("name", ("D5", "E8"))
def test_indexing_a_view_is_its_level_read_at_any_integer(name, oracle):
    # table[n] is level(n): a view's order bounds only its iteration.
    view = bundle(name).periods(oracle).upto(40)
    assert PeriodTable.__getitem__ is PeriodTable.level
    for n in (*range(41), 41, 5 * view.period + 3, 10**18 + 1, -1):
        assert view[n] == view.level(n) == _exact(view, n), n
    assert view[-1] == (0,) * len(view.base[0])
