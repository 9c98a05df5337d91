"""Parameters, Heisenberg subsystem, numerators, multiplicity series."""

import math
import random
from collections import Counter
from functools import partial
from operator import itemgetter

import pytest

from su2branch import Branching
from su2branch.binarygroups import oracle_multiplicity
from su2branch.cli import MAX_RANK
from su2branch.invariants import ORACLES, special_z_closed_form
from su2branch.mckay import recursion_oracle
from su2branch.seriescalc import PeriodTable, sparse_items
from su2branch.verify import ACCEPTED_TYPES

from conftest import (
    binary_dihedral_levels,
    bundle,
    dense_series,
    graph_for,
    group_for,
    inner,
    pair_counter,
    table_for,
)

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
    assert sum(map(len, bundle("E8").heisenberg.indices.values())) == 57
    assert sum(map(len, bundle("A3").heisenberg.indices.values())) == 5


def test_heisenberg_contains_highest_root():
    b = bundle("D6")
    members = [b.rs.roots[k] for ks in b.heisenberg.indices.values() for k in ks]
    assert b.rs.highest_root in members
    assert inner(b.rs, b.rs.highest_root, b.rs.highest_root) == 2


def test_heisenberg_slice_sizes():
    b = bundle("E7")
    for i in b.rs.nodes:
        want = b.params.a - 1 if i == b.params.special else 2 * b.rs.mark(i)
        assert len(b.heisenberg.indices[i]) == want


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
        assert sum(b.zpolys[i]) == want
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
    assert bundle("A3").vector(2)[2] == 2


def test_a3_invariant_series():
    # Monomial count oracle: x^p y^q with p + q = n is invariant under
    # diag(i, -i) iff p = q mod 4; counting by hand for n <= 8 gives
    # 1, 0, 1, 0, 3, 0, 3, 0, 5.
    assert bundle("A3").series(0, 8) == (1, 0, 1, 0, 3, 0, 3, 0, 5)


def test_multiplicity_level_zero():
    for name in ("A3", "D5", "E7"):
        b = bundle(name)
        assert b.vector(0) == (1,) + (0,) * b.rs.rank


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
    vectors = [b.vector(n) for n in range(order + 1)]
    for i in range(b.rs.rank + 1):
        series = b.series(i, order)
        for n in range(order + 1):
            assert vectors[n][i] == series[n] == rec[n][i], (n, i)


def _weights_in_class(n, k, m):
    """#{0 <= l <= n : n - 2l = k (mod m)} for even m, in closed form: n - k
    must be even, and then l runs over one class modulo m / 2."""
    c = (n - k) % m
    if c % 2:
        return 0
    return (n - c // 2) // (m // 2) + 1 if c // 2 <= n else 0


@pytest.mark.parametrize("r", range(1, MAX_RANK + 1, 2))
def test_type_a_is_the_weight_count_of_its_cyclic_group(r):
    # The group of A_r is cyclic of order m = r + 1, and node k of the
    # extended diagram, the cycle 0, 1, .., r, is its character g -> zeta^k
    # (either way round: V_n is self-dual).  V_n has the weights n - 2l for
    # l = 0..n, so node k's multiplicity is #{l : n - 2l = k (mod m)}.
    b, m = bundle(f"A{r}"), r + 1
    for n in range(2 * m + 2):
        weights = Counter((n - 2 * l) % m for l in range(n + 1))
        assert b.vector(n) == tuple(weights[k] for k in range(m)), n
        assert [_weights_in_class(n, k, m) for k in range(m)] == [weights[k] for k in range(m)]
    n = 10**18 + r
    assert b.vector(n) == tuple(_weights_in_class(n, k, m) for k in range(m))


def _dihedral_check(b):
    """miss(level): the first of levels 0..2P+1, 10^18 + r and 10^18 + r +
    1 (P the period) where ``level(n)`` is not the closed form of
    ``conftest.binary_dihedral_levels``, or None.  Each node is named by
    its label; the nodes that share one (D4's three leaves, the far pair
    beyond) are compared as a multiset."""
    r = b.rs.rank
    labels = [b.node_label(i) for i in range(r + 1)]
    shared = [i for i, label in enumerate(labels) if labels.count(label) > 1]
    alone = itemgetter(*[i for i in range(r + 1) if i not in shared])
    want = []
    for n in (*range(2 * b.periods().period + 2), 10**18 + r, 10**18 + r + 1):
        form = binary_dihedral_levels(b, n)
        want.append((n, alone([form[label][0] for label in labels]), list(form[labels[shared[0]]])))

    def miss(level):
        for n, one, many in want:
            got = level(n)
            if alone(got) != one or sorted(got[i] for i in shared) != many:
                return n
        return None

    return miss


@pytest.mark.parametrize("r", range(4, MAX_RANK + 1))
def test_type_d_is_the_weight_count_of_its_binary_dihedral_group(r):
    # Every route's levels against the closed form, node by node from the
    # labels.  A table with one step entry bumped, or with the columns of two
    # mark-2 nodes swapped, fails it (one seeded pick of each per type).
    # The types other tests build come from the shared cache; the rest are
    # built here and dropped, so the suite does not keep 68 bundles alive.
    name, rng = f"D{r}", random.Random(r)
    b = bundle(name) if name in (*ACCEPTED_TYPES, "D67", "D71") else Branching.build(name)
    miss, table = _dihedral_check(b), b.periods()
    for oracle in ORACLES:
        assert miss(partial(b.vector, oracle=oracle)) is None, oracle
    step = [list(row) for row in table.step]
    step[rng.randrange(table.period)][rng.randrange(r + 1)] += 1
    assert miss(PeriodTable(table.base, tuple(map(tuple, step)), table.order).level) is not None
    if r >= 5:
        nodes = list(range(r + 1))
        i, j = rng.sample([i for i in nodes if b.node_label(i)[0] == 2], 2)
        nodes[i], nodes[j] = j, i
        swap = itemgetter(*nodes)
        swapped = PeriodTable(tuple(map(swap, table.base)), tuple(map(swap, table.step)), table.order)
        assert miss(swapped.level) is not None


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


@pytest.mark.parametrize("name", (*ACCEPTED_TYPES, "A1", "A71", "D71"))
def test_period_table_matches_the_dense_series(name):
    b = bundle(name)
    period = math.lcm(b.params.a, b.params.b)
    table = b.periods()
    assert len(table.base) == len(table.step) == table.period == period
    columns = [dense_series(b, i, 3 * period) for i in range(b.rs.rank + 1)]
    assert [b.vector(n) for n in range(3 * period + 1)] == list(zip(*columns))


@pytest.mark.parametrize("name", ACCEPTED_TYPES)
def test_each_route_table_iterates_its_levels_to_twice_its_period(name):
    # Every route's table is built to order 2P - 1: iteration yields
    # exactly levels 0..2P-1, the ones its proof compared.
    b = bundle(name)
    for oracle in ORACLES:
        table = b.periods(oracle)
        levels = list(table)
        assert len(levels) == 2 * table.period, oracle
        assert levels == [b.vector(n, oracle) for n in range(2 * table.period)], oracle


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
        b.vector(-1)
    with pytest.raises(ValueError, match="^order must be nonnegative$"):
        b.series(0, -1)


@pytest.mark.parametrize("node", [-1, 9, 99])
def test_multiplicity_rejects_a_node_out_of_range(node):
    # A node's multiplicities are read by series, which raises resolve_node's
    # error: -1 must not read node 8's, nor 99 raise a bare KeyError.
    b = bundle("E8")
    with pytest.raises(ValueError) as spec:
        b.resolve_node(str(node))
    with pytest.raises(ValueError) as read:
        b.series(node, 5)
    assert str(read.value) == str(spec.value) == f"node index {node} out of range for E8"


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
    assert b.resolve_node("8") == 8  # the last node
    with pytest.raises(ValueError):
        b.resolve_node("9")
    with pytest.raises(ValueError):
        b.resolve_node("2,9")
    with pytest.raises(ValueError):
        b.resolve_node("x")

