"""Parameters, Heisenberg subsystem, numerators, multiplicity series."""

import math

import pytest

from su2branch.binarygroups import oracle_multiplicity
from su2branch.invariants import special_z_closed_form
from su2branch.mckay import recursion_oracle
from su2branch.seriescalc import eval_at_one, sparse_items
from su2branch.verify import ACCEPTED_TYPES

from conftest import bundle, graph_for, group_for, inner, pair_counter, table_for

HUGE_LEVELS = (10**6, 10**18 + 1)


@pytest.mark.parametrize(
    "name,a,b,h,g",
    [
        ("E6", 6, 8, 12, 6),
        ("E7", 8, 12, 18, 9),
        ("E8", 12, 20, 30, 15),
        ("A3", 2, 4, 4, 2),
        ("A9", 2, 10, 10, 5),
        ("D4", 4, 4, 6, 3),
        ("D7", 4, 10, 12, 6),
    ],
)
def test_branch_params(name, a, b, h, g):
    p = bundle(name).params
    assert (p.a, p.b, p.h, p.g) == (a, b, h, g)
    assert p.b == p.h + 2 - p.a
    assert p.order_fstar == 2 * p.order_f == a * b // 2


def test_e8_rotation_group_order():
    assert bundle("E8").params.order_f == 60


def test_heisenberg_cardinality():
    assert len(bundle("E8").heisenberg.roots) == 57
    assert len(bundle("A3").heisenberg.roots) == 5


def test_heisenberg_contains_highest_root():
    b = bundle("D6")
    assert b.rs.highest_root in b.heisenberg.roots
    assert inner(b.rs, b.rs.highest_root, b.rs.highest_root) == 2


def test_heisenberg_slice_sizes():
    b = bundle("E7")
    for i in b.rs.nodes:
        want = b.params.a - 1 if i == b.params.special else 2 * b.rs.mark(i)
        assert len(b.heisenberg.slices[i]) == want


def test_a3_zpolys_hand_computed():
    z = bundle("A3").zpolys
    assert z[0] == (1, 0, 0, 0, 1)
    assert z[1] == (0, 1, 0, 1)
    assert z[2] == (0, 0, 2)
    assert z[3] == (0, 1, 0, 1)


def test_a7_special_z_collapses():
    # g = 4, a = 2: the closed form is the single middle term 2 t^4
    b = bundle("A7")
    assert b.zpolys[b.params.special] == (0, 0, 0, 0, 2)
    assert special_z_closed_form(b.params) == (0, 0, 0, 0, 2)


@pytest.mark.parametrize("name", ["A5", "D5", "D10", "E6", "E7", "E8"])
def test_z_values_at_one(name):
    b = bundle(name)
    for i in b.rs.nodes:
        want = b.params.a if i == b.params.special else 2 * b.rs.mark(i)
        assert eval_at_one(b.zpolys[i]) == want
        assert len(b.zpolys[i]) <= b.rs.coxeter_number  # degree < h


def test_z_support_parity():
    b = bundle("E6")
    for i in b.rs.nodes:
        side = b.bp.side(i)
        for e, c in sparse_items(b.zpolys[i]):
            assert e % 2 == side % 2


def test_special_z_symmetry():
    b = bundle("E8")
    z = b.zpolys[b.params.special]
    g = b.params.g
    padded = tuple(z) + (0,) * (2 * g + 1 - len(z))
    assert padded == padded[::-1]


def test_e8_invariant_series_low_orders():
    got = bundle("E8").series(0, 30)
    want = [0] * 31
    for e in (0, 12, 20, 24, 30):
        want[e] = 1
    assert got == tuple(want)


def test_a3_middle_node_series():
    # pi_2 restricted to the cyclic group of order 4 contains the
    # middle-node character twice: the recursion v2 = A v1 - v0 on the
    # extended 4-cycle gives (1, 0, 2, 0), and the dimension sum
    # 1 + 2*1 = 3 = n + 1 confirms it.
    assert bundle("A3").multiplicity(2, 2) == 2


def test_a3_invariant_series():
    # Monomial count oracle: x^p y^q with p + q = n is invariant under
    # diag(i, -i) iff p = q mod 4; counting by hand for n <= 8 gives
    # 1, 0, 1, 0, 3, 0, 3, 0, 5.
    assert bundle("A3").series(0, 8) == (1, 0, 1, 0, 3, 0, 3, 0, 5)


def test_multiplicity_level_zero():
    for name in ("A3", "D5", "E7"):
        b = bundle(name)
        assert b.multiplicity(0, 0) == 1
        for i in b.rs.nodes:
            assert b.multiplicity(0, i) == 0


def test_e8_level_one():
    b = bundle("E8")
    assert b.vector(1) == (0, 0, 0, 0, 0, 0, 0, 1, 0)


@pytest.mark.parametrize("name", ["A3", "D4", "E6"])
def test_dimension_sum_rule(name):
    b = bundle(name)
    marks = (1,) + b.rs.marks
    for n in range(50):
        vec = b.vector(n)
        assert sum(m * v for m, v in zip(marks, vec)) == n + 1


@pytest.mark.parametrize("name", ACCEPTED_TYPES)
def test_closed_form_matches_series_and_recursion(name):
    b = bundle(name)
    order = 2000
    rec = recursion_oracle(graph_for(name), order)
    for i in range(b.rs.rank + 1):
        series = b.series(i, order)
        for n in range(order + 1):
            assert b.multiplicity(n, i) == series[n] == rec[n][i], (n, i)


@pytest.mark.parametrize("name", ACCEPTED_TYPES)
def test_period_table_matches_popoviciu(name):
    # Per node, sum z_e * count(n - e) over the numerator's terms.
    b = bundle(name)
    period = math.lcm(b.params.a, b.params.b)
    count = pair_counter(b.params.a, b.params.b)
    for n in (*range(3 * period + 1), 10**18 + 1, 10**100):
        want = tuple(
            sum(c * count(n - e) for e, c in sparse_items(b.zpolys[i]))
            for i in range(b.rs.rank + 1)
        )
        assert b.vector(n) == want, n


@pytest.mark.parametrize("name", ACCEPTED_TYPES)
def test_period_table_matches_the_dense_series(name):
    b = bundle(name)
    period = math.lcm(b.params.a, b.params.b)
    assert len(b.periods[0]) == len(b.periods[1]) == period
    columns = [b.series(i, 3 * period) for i in range(b.rs.rank + 1)]
    assert [b.vector(n) for n in range(3 * period + 1)] == list(zip(*columns))


@pytest.mark.parametrize("name", ACCEPTED_TYPES)
def test_huge_levels_sum_rule_and_parity(name):
    b = bundle(name)
    marks = (1,) + b.rs.marks
    for n in HUGE_LEVELS:
        vec = b.vector(n)
        assert sum(m * v for m, v in zip(marks, vec)) == n + 1
        for i, v in enumerate(vec):
            if n % 2 != b.node_parity(i) % 2:
                assert v == 0, (n, i)


def test_negative_level_rejected():
    b = bundle("E8")
    with pytest.raises(ValueError):
        b.multiplicity(-1, 0)
    with pytest.raises(ValueError):
        b.vector(-1)


@pytest.mark.parametrize("node", [-1, 9])
def test_multiplicity_rejects_a_node_out_of_range(node):
    with pytest.raises(ValueError, match="out of range"):
        bundle("E8").multiplicity(5, node)


@pytest.mark.parametrize(
    "name,n", [("A13", 5815), ("A13", 7843)] + [(t, 10**6) for t in ACCEPTED_TYPES]
)
def test_character_oracle_matches_closed_form(name, n):
    # Regression: a running float Chebyshev recursion drifted past the
    # rounding tolerance on A13 from n = 5815 on.
    group, table = group_for(name), table_for(name)
    size = graph_for(name).size
    got = tuple(oracle_multiplicity(group, table, n, i) for i in range(size))
    assert got == bundle(name).vector(n)


def test_series_lazy_growth():
    b = bundle("D5")
    first = b.series(1, 10)
    longer = b.series(1, 300)
    assert longer[:11] == first


def test_node_labels_e8():
    b = bundle("E8")
    labels = {i: b.node_label(i) for i in range(9)}
    assert labels[0] == (1, -1)
    assert labels[7] == (2, 0)
    assert labels[3] == (6, 4)
    assert labels[1] == (2, 6)


def test_resolve_node():
    b = bundle("E8")
    assert b.resolve_node("7") == 7
    assert b.resolve_node("2,0") == 7
    assert b.resolve_node("6,4") == 3
    with pytest.raises(ValueError):
        b.resolve_node("9")
    with pytest.raises(ValueError):
        b.resolve_node("2,9")
    with pytest.raises(ValueError):
        b.resolve_node("x")
