"""Exact polynomial/series arithmetic, including the division round-trip."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from su2branch import seriescalc
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
    table = table_of([(1,), (2,)], 1)
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


def _exact(table, n):
    """Level n entry by entry, the reference every read is compared with."""
    k, r = divmod(n, table.period)
    return tuple(x + k * d for x, d in zip(table.base[r], table.step[r]))


def _kmax(table, r):
    """Residue r's packed bound, packing the residue now if it is not yet."""
    slot = table._packed[r]
    return (slot if type(slot) is tuple else table._pack(r))[0]


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
    kmax = _kmax(table, r)
    assert kmax == 2
    assert max(_exact(table, kmax * period + r)) < 2**64
    for k in (0, 1, kmax, kmax + 1, -1, -2):
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


def test_a_residue_with_a_negative_or_wide_entry_never_packs():
    # The last table's level P already needs a field of 65 bits.
    cases = [(((1, -1),), ((2, 3),)), (((1, 2),), ((0, -3),)), (((2**64 - 1, 0),), ((1, 1),))]
    for base, step in cases:
        table = PeriodTable(base, step, 0)
        view = table.upto(9)
        assert list(view) == [_exact(table, n) for n in range(10)]
        assert table.level(10**18) == _exact(table, 10**18)
        assert table._packed == [seriescalc._UNPACKED]
    # Residue 1 packs although residue 0 does not; iteration reads both exactly.
    table = PeriodTable(((1,), (2,)), ((-1,), (3,)), 0)
    assert [table.level(n) for n in (2, 3)] == [(0,), (5,)]
    assert [_kmax(table, r) for r in (0, 1)] == [0, (2**64 - 1) // 3 - 1]
    assert list(table.upto(6)) == [_exact(table, n) for n in range(7)]


def test_kmax_is_the_last_k_whose_fields_fit():
    # M = 2^63 - 1: level P, 2M in its first field, is the last that fits.
    top = 2**63 - 1
    table = PeriodTable(((top, 5),), ((top, 7),), 0)
    assert _kmax(table, 0) == 1
    assert [table.level(n) for n in range(4)] == [(top, 5), (2 * top, 12), (3 * top, 19), (4 * top, 26)]
    assert list(table.upto(3)) == [table.level(n) for n in range(4)]


def test_a_residue_packs_on_its_third_read_and_every_view_shares_it(monkeypatch):
    table = table_of([(1, 0), (2, 3), (2, 0), (2, 5)], 2)
    # An iteration that reads a residue under three times past the base
    # levels packs nothing and counts nothing.
    assert list(table.upto(6)) == [_exact(table, n) for n in range(7)]
    view = table.upto(10**6)
    assert view._packed is table._packed == [0, 0]
    assert view[10**6] == _exact(table, 10**6) and table._packed == [1, 0]
    assert table.level(10**6 - 2) == _exact(table, 10**6 - 2) and table._packed == [2, 0]
    assert view[4] == _exact(table, 4)
    assert table._packed[0][0] > 0 and table._packed[1] == 0
    # Four periods read every residue three times past the base: all pack.
    assert list(table.upto(7)) == [_exact(table, n) for n in range(8)]
    packed = list(table._packed)
    assert all(type(slot) is tuple for slot in packed)

    def boom(*args):
        raise AssertionError("a residue packed again")

    monkeypatch.setattr(seriescalc, "_fields", boom)
    view = table.upto(10**6)
    assert view._packed == packed and view[10**6 - 1] == _exact(table, 10**6 - 1)
    assert list(view.upto(9)) == list(table.upto(9))


@pytest.mark.parametrize("oracle", ORACLES)
@pytest.mark.parametrize("name", ("A1",) + ACCEPTED_TYPES)
def test_every_route_table_reads_exactly_around_kmax(name, oracle):
    # Each base and step entry is at most P, so every n < 2^64 - P is packed.
    table = bundle(name).periods(oracle)
    period = table.period
    for r in range(period):
        kmax = _kmax(table, r)
        assert (kmax + 1) * period >= 2**64 - period > HUGE_LEVEL
        for k in (kmax - 1, kmax, kmax + 1):
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
