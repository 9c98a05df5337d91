"""Extended graph structure and the tensor recursion oracle."""

import json

import pytest

from su2branch import mckay
from su2branch.binarygroups import character_multiplicities, molien_series, oracle_multiplicity
from su2branch.cli import main
from su2branch.errors import ConsistencyError
from su2branch.mckay import McKayGraph, extended_graph, recursion_oracle
from su2branch.verify import ACCEPTED_TYPES

from conftest import bundle, graph_for, group_for, table_for

#: Minimal certified period of the recursion per type.
PERIODS = {
    "A3": 4, "A5": 6, "A7": 8, "A9": 10, "A11": 12, "A13": 14,
    "D4": 4, "D5": 12, "D6": 8, "D7": 20, "D8": 12, "D9": 28, "D10": 16, "D11": 36, "D12": 20,
    "E6": 12, "E7": 24, "E8": 60,
}  # fmt: skip


def eager_recursion(graph, order):
    """v_0 .. v_order by the plain recursion, every level stored."""
    adj = graph.adjacency
    prev, cur = (0,) * graph.size, tuple(int(i == 0) for i in range(graph.size))
    out = [cur]
    for _ in range(order):
        prev, cur = cur, tuple(
            sum(a * c for a, c in zip(row, cur)) - p for row, p in zip(adj, prev)
        )
        out.append(cur)
    return out


def test_a3_extended_is_a_cycle():
    g = graph_for("A3")
    assert g.size == 4
    degrees = [sum(row) for row in g.adjacency]
    assert degrees == [2, 2, 2, 2]
    assert g.adjacency[0][1] == g.adjacency[0][3] == 1
    assert g.adjacency[0][2] == 0


def test_e8_marks_sum_to_h():
    g = graph_for("E8")
    assert sum(g.marks_ext) == 30
    assert g.marks_ext[0] == 1


@pytest.mark.parametrize("name", ["D4", "D9", "E6", "E7", "E8"])
def test_affine_node_has_one_neighbor_in_d_e(name):
    g = graph_for(name)
    assert sum(g.adjacency[0]) == 1


@pytest.mark.parametrize("name", ["A5", "D6", "E7"])
def test_extended_cartan_kernel(name):
    g = graph_for(name)
    for i in range(g.size):
        row = sum(
            (2 * (i == j) - g.adjacency[i][j]) * g.marks_ext[j] for j in range(g.size)
        )
        assert row == 0


def test_recursion_start():
    g = graph_for("E8")
    vecs = recursion_oracle(g, 1)
    assert vecs[0] == (1, 0, 0, 0, 0, 0, 0, 0, 0)
    assert vecs[1] == tuple(g.adjacency[0])


def test_recursion_a3_level_two():
    # v2 = A v1 - v0 on the 4-cycle: (1, 0, 2, 0)
    vecs = recursion_oracle(graph_for("A3"), 2)
    assert vecs[1] == (0, 1, 0, 1)
    assert vecs[2] == (1, 0, 2, 0)


def test_e8_invariants_match_series():
    vecs = recursion_oracle(graph_for("E8"), 200)
    series = bundle("E8").series(0, 200)
    assert tuple(v[0] for v in vecs) == series


@pytest.mark.parametrize("name", ["A7", "D6", "E6"])
def test_recursion_nonnegative_and_sum(name):
    g = graph_for(name)
    vecs = recursion_oracle(g, 150)
    for n, v in enumerate(vecs):
        assert all(c >= 0 for c in v)
        assert sum(m * c for m, c in zip(g.marks_ext, v)) == n + 1


def test_recursion_parity():
    b = bundle("D5")
    g = graph_for("D5")
    vecs = recursion_oracle(g, 80)
    for n, v in enumerate(vecs):
        for i, c in enumerate(v):
            if c:
                assert n % 2 == b.node_parity(i) % 2


def test_recursion_rejects_negative_order():
    with pytest.raises(ValueError):
        recursion_oracle(graph_for("A3"), -1)


@pytest.mark.parametrize("name", ACCEPTED_TYPES)
def test_view_matches_eager_recursion(name):
    g = graph_for(name)
    levels = recursion_oracle(g, 3 * PERIODS[name] + 5)
    assert levels.period == PERIODS[name]
    assert list(levels) == eager_recursion(g, 3 * PERIODS[name] + 5)


@pytest.mark.parametrize("name", ACCEPTED_TYPES)
def test_three_oracles_agree_at_huge_levels(name):
    g = graph_for(name)
    group, table = group_for(name), table_for(name)
    for n in (10**6, 10**18 + 1):
        rec = recursion_oracle(g, n)[n]
        assert rec == bundle(name).vector(n)
        assert rec == tuple(oracle_multiplicity(group, table, n, i) for i in range(g.size))


def test_view_behaves_like_range():
    g = graph_for("D5")
    levels = recursion_oracle(g, 40)
    eager = eager_recursion(g, 40)
    assert len(levels) == 41
    assert levels[-1] == levels[40] == eager[40]
    assert levels[-41] == eager[0]
    assert levels[3:30:7] == eager[3:30:7]
    assert levels[::-1] == eager[::-1]
    assert levels == eager and eager == levels
    assert levels != eager[:-1]
    assert levels != eager[:-1] + [eager[0]]
    with pytest.raises(IndexError):
        levels[41]
    with pytest.raises(IndexError):
        levels[-42]


def test_doctored_adjacency_fails_a_level_check():
    g = graph_for("E8")
    adj = [list(row) for row in g.adjacency]
    adj[1][3] = adj[3][1] = 1  # close a triangle: not an extended Dynkin diagram
    doctored = McKayGraph(g.dtype, g.size, tuple(map(tuple, adj)), g.marks_ext)
    with pytest.raises(ConsistencyError, match="dimension sum") as info:
        recursion_oracle(doctored, 10)
    assert (info.value.dtype, info.value.stage) == ("E8", "oracles")


def test_a_negative_step_is_refused_at_certification(monkeypatch):
    # A1's graph with its edge negated: the marks (1, -1) keep every
    # dimension sum, node 1 reads -2, -4, -6 at the odd levels and the
    # period is 2.  With the level checks switched off, the one-time step
    # check alone refuses it.
    monkeypatch.setattr(mckay, "_check_level", lambda graph, v, n: v)
    g = McKayGraph(graph_for("A3").dtype, 2, ((0, -2), (-2, 0)), (1, -1))
    with pytest.raises(ConsistencyError) as info:
        recursion_oracle(g, 10)
    assert str(info.value) == "A3: negative multiplicity at step 1 of period 2: (0, -2)"
    assert (info.value.dtype, info.value.stage) == ("A3", "oracles")


@pytest.mark.parametrize("name", ACCEPTED_TYPES)
def test_levels_are_read_without_a_check(monkeypatch, name):
    g = extended_graph(bundle(name).rs)  # certified below, with the checks on
    g.certificate

    def boom(*args):
        raise AssertionError("a level was checked after certification")

    monkeypatch.setattr(mckay, "_check_sum", boom)
    top = 3 * PERIODS[name] + 5
    assert list(recursion_oracle(g, top)) == eager_recursion(g, top)
    assert recursion_oracle(g, 10**100)[-1] == bundle(name).vector(10**100)


def test_calls_on_one_graph_share_one_certificate():
    g = extended_graph(bundle("D7").rs)  # a fresh graph: nothing certified yet
    first, second = recursion_oracle(g, 10), recursion_oracle(g, 10**6)
    assert first._base is second._base and first._step is second._step
    assert first.period == second.period == PERIODS["D7"]


def test_aperiodic_recursion_hits_the_period_cap():
    # Node 0 obeys v_(n+1) = 2 v_n - v_(n-1), so the dimension sum holds at
    # every level, while node 1 grows like 2.6^n: no period exists.
    g = McKayGraph(graph_for("A3").dtype, 2, ((2, 0), (1, 3)), (1, 0))
    with pytest.raises(ConsistencyError, match="no period up to 16") as info:
        recursion_oracle(g, 10**6)
    assert (info.value.dtype, info.value.stage) == ("A3", "oracles")


def test_cli_recursion_matches_coxeter_at_huge_level(capsys):
    argv = ["branch", "--type", "E7", "--n", str(10**18), "--json"]
    assert main(argv + ["--oracle", "recursion"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    cox = json.loads(capsys.readouterr().out)
    assert rec["multiplicities"] == cox["multiplicities"]
    assert rec["multiplicities"] == list(bundle("E7").vector(10**18))


def test_a13_range_oracles_past_the_old_drift():
    # Regression: running float Chebyshev recursions drifted past the
    # rounding tolerance on A13 from n = 5815 on.
    rec = recursion_oracle(graph_for("A13"), 6000)
    assert character_multiplicities(group_for("A13"), table_for("A13"), 6000) == rec
    assert molien_series(group_for("A13"), 6000) == tuple(v[0] for v in rec)
