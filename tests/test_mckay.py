"""Extended graph structure and the tensor recursion oracle."""

import json
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from su2branch import mckay
from su2branch.binarygroups import character_multiplicities, molien_series, oracle_multiplicity
from su2branch.cli import main
from su2branch.errors import ConsistencyError
from su2branch.mckay import McKayGraph, extended_graph, recursion_oracle
from su2branch.rootsys import DiagramType
from su2branch.verify import ACCEPTED_TYPES

from conftest import bundle, graph_for, group_for, table_for, table_of

#: Minimal certified period of the recursion per type; A1's extended
#: diagram is a double bond, an adjacency entry 2.
PERIODS = {
    "A1": 2, "A3": 4, "A5": 6, "A7": 8, "A9": 10, "A11": 12, "A13": 14,
    "D4": 4, "D5": 12, "D6": 8, "D7": 20, "D8": 12, "D9": 28, "D10": 16, "D11": 36, "D12": 20,
    "E6": 12, "E7": 24, "E8": 60, "A71": 72, "D71": 276,
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


def hand_built_graphs():
    """Four graphs that are not McKay graphs, by name: E8 with a triangle
    closed, A1 with its edge negated, an aperiodic graph and one that
    outgrows the fields.  The tests that refuse each say why."""
    e8 = graph_for("E8")
    adj = [list(row) for row in e8.adjacency]
    adj[1][3] = adj[3][1] = 1  # close a triangle: not an extended Dynkin diagram
    a3 = graph_for("A3").dtype
    outgrows = (
        (2, 0, 0, 0, 0), (1, 1, 1, 0, 0), (0, 1, 1, 1, 0), (0, 0, 1, 1, 0), (0, 0, 0, 0, 5),
    )  # fmt: skip
    return {
        "E8 triangle": McKayGraph(e8.dtype, e8.size, tuple(map(tuple, adj)), e8.marks_ext),
        "A1 negated": McKayGraph(a3, 2, ((0, -2), (-2, 0)), (1, -1)),
        "aperiodic": McKayGraph(a3, 2, ((2, 0), (1, 3)), (1, 0)),
        "outgrows": McKayGraph(a3, 5, outgrows, (1, 0, 0, 0, 0)),
    }


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


@pytest.mark.parametrize("name", (*ACCEPTED_TYPES, "A1", "A71", "D71"))
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


def test_doctored_adjacency_fails_a_level_check():
    doctored = hand_built_graphs()["E8 triangle"]
    with pytest.raises(ConsistencyError, match="dimension sum") as info:
        recursion_oracle(doctored, 10)
    assert (info.value.dtype, info.value.stage) == ("E8", "oracles")


def test_a_negative_step_is_refused_at_certification(monkeypatch):
    # A1's graph with its edge negated: the marks (1, -1) keep every
    # dimension sum, node 1 reads -2, -4, -6 at the odd levels and the
    # period is 2.  With the level checks switched off, the one-time step
    # check alone refuses it.
    monkeypatch.setattr(mckay, "_check_level", lambda graph, v, n: v)
    g = hand_built_graphs()["A1 negated"]
    with pytest.raises(ConsistencyError) as info:
        recursion_oracle(g, 10)
    assert str(info.value) == "A3: negative multiplicity at step 1 of period 2: (0, -2)"
    assert (info.value.dtype, info.value.stage) == ("A3", "oracles")


@pytest.mark.parametrize("name", (*ACCEPTED_TYPES, "A1"))
def test_levels_are_read_without_a_check(monkeypatch, name):
    g = extended_graph(bundle(name).rs)  # certified below, with the checks on
    g.certificate

    def boom(*args):
        raise AssertionError("a level was checked after certification")

    monkeypatch.setattr(mckay, "_check_level", boom)
    top = 3 * PERIODS[name] + 5
    assert list(recursion_oracle(g, top)) == eager_recursion(g, top)
    assert recursion_oracle(g, 10**100)[10**100] == bundle(name).vector(10**100)


def test_calls_on_one_graph_share_one_certificate():
    g = extended_graph(bundle("D7").rs)  # a fresh graph: nothing certified yet
    first, second = recursion_oracle(g, 10), recursion_oracle(g, 10**6)
    assert first.base is second.base and first.step is second.step
    assert first.period == second.period == PERIODS["D7"]


def test_aperiodic_recursion_hits_the_period_cap():
    # Node 0 obeys v_(n+1) = 2 v_n - v_(n-1), so the dimension sum holds at
    # every level, while node 1 grows like 2.6^n: no period exists.
    g = hand_built_graphs()["aperiodic"]
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
    rec = list(recursion_oracle(graph_for("A13"), 6000))
    assert character_multiplicities(group_for("A13"), table_for("A13"), 6000) == rec
    assert molien_series(group_for("A13"), 6000) == tuple(v[0] for v in rec)


def test_a_graph_that_outgrows_the_fields_raises_and_never_carries():
    # Node 0 keeps every dimension sum; nodes 1..3 grow like 1.88^n, less
    # than doubling per level, so some level lands between 2^59 and 2^60.
    # Row sums up to 5 give the field bound 2^(63 - 3): the first level
    # with an entry past it is refused, named with its exact entries.
    g = hand_built_graphs()["outgrows"]
    exact = eager_recursion(g, 100)
    n = next(n for n, v in enumerate(exact) if max(v) >= 2**60)
    assert min(map(min, exact[:n])) >= 0 and max(exact[n - 1]) >= 2**59
    with pytest.raises(ConsistencyError) as info:
        recursion_oracle(g, 10)
    assert str(info.value) == f"A3: level {n} passes the field bound 2^60: {exact[n]}"
    assert (info.value.dtype, info.value.stage) == ("A3", "oracles")


def reference_certificate(graph):
    """Reference certificate, with no dimension-sum proof and no level mask:
    every level 1..2P+1 unpacked, bounded and checked by
    ``mckay._check_level``, the table built from the unpacked levels 0..2P-1
    and refused at its first negative step."""
    size, adjacency = graph.size, graph.adjacency
    cap = 4 * size * size
    fields, high = struct.Struct(f"<{size}q"), sum(1 << 64 * i + 63 for i in range(size))
    gathers = {}
    for i, row in enumerate(adjacency):
        for j, c in enumerate(row):
            if c:
                gathers[j - i, c] = gathers.get((j - i, c), 0) | (1 << 64) - 1 << 64 * i
    shifts = [(64 * max(-d, 0), 64 * max(d, 0), c, mask) for (d, c), mask in gathers.items()]
    unbias = sum(sum(row) << 64 * i + 63 for i, row in enumerate(adjacency))
    bits = 63 - (max(sum(map(abs, row)) for row in adjacency) + 2).bit_length()
    ones = high >> 63
    half, outside = ones << bits, ones * ((1 << 64) - (2 << bits))
    levels, biased, prev = [1], 1 + high, 0
    vectors = [mckay._check_level(graph, (1,) + (0,) * (size - 1), 0)]
    for period in range(1, cap + 1):
        while (n := len(levels)) < 2 * period + 2:
            cur = -unbias - prev
            for left, right, c, mask in shifts:
                cur += c * (biased << left >> right & mask)
            prev, biased = levels[-1], cur + high
            v = fields.unpack((biased ^ high).to_bytes(fields.size, "little"))
            if (biased + half) & outside != high:
                raise mckay._failure(graph, f"level {n} passes the field bound 2^{bits}: {v}")
            levels.append(cur)
            vectors.append(mckay._check_level(graph, v, n))
        if [levels[r] + levels[r + 2 * period] - 2 * levels[r + period] for r in (0, 1)] == [0, 0]:
            table = table_of(vectors, period)
            for r, step in enumerate(table.step):
                if min(step) < 0:
                    where = f"step {r} of period {period}: {step}"
                    raise mckay._failure(graph, f"negative multiplicity at {where}")
            return table
    raise mckay._failure(graph, f"tensor recursion has no period up to {cap}")


def outcome(certify, graph):
    """(period, base, step, order) of a certificate, or the error it
    raises, as (message, type, stage)."""
    try:
        table = certify(graph)
    except ConsistencyError as err:
        return str(err), err.dtype, err.stage
    return table.period, table.base, table.step, table.order


def fresh_certificate(graph):
    """``graph.certificate`` computed on a copy, so nothing cached is read."""
    return McKayGraph(graph.dtype, graph.size, graph.adjacency, graph.marks_ext).certificate


@pytest.fixture
def checked_levels(monkeypatch):
    """The levels ``mckay._check_level`` checks, in order, from here on."""
    seen, check = [], mckay._check_level
    monkeypatch.setattr(mckay, "_check_level", lambda g, v, n: seen.append(n) or check(g, v, n))
    return seen


@pytest.mark.parametrize("name", (*ACCEPTED_TYPES, "A1", "A71", "D71"))
def test_certificate_matches_the_reference_on_every_type(name):
    g = graph_for(name)
    expected = outcome(reference_certificate, g)
    assert expected[0] == PERIODS[name]
    assert outcome(fresh_certificate, g) == expected


@pytest.mark.parametrize("name", ["E8 triangle", "A1 negated", "aperiodic", "outgrows"])
def test_certificate_matches_the_reference_on_hand_built_graphs(name):
    g = hand_built_graphs()[name]
    expected = outcome(reference_certificate, g)
    assert type(expected[0]) is str  # every hand-built graph is refused
    assert outcome(fresh_certificate, g) == expected


def test_certificate_matches_the_reference_with_the_level_checks_off(monkeypatch):
    # Only the step check is left to refuse the negated A1 graph.
    monkeypatch.setattr(mckay, "_check_level", lambda graph, v, n: v)
    g = hand_built_graphs()["A1 negated"]
    expected = outcome(reference_certificate, g)
    assert expected[0] == "A3: negative multiplicity at step 1 of period 2: (0, -2)"
    assert outcome(fresh_certificate, g) == expected


#: McKay graphs of size 2..6, the sizes the small-graph strategy draws.
SMALL_TYPES = ("A1", "A3", "A5", "D4", "D5")


@st.composite
def small_graphs(draw):
    """A graph of size 2..6 with entries -2..3 and marks_ext[0] in {1, 2}.
    One third are drawn whole; one third are McKay graphs with at most one
    adjacency entry and one mark redrawn; one third are McKay graphs with
    up to three moves of d from A[i][j] to A[k][j] for rows i, k of equal
    marks, which keep marks_ext A = 2 marks_ext, so the dimension sums are
    proved and only the mask and the steps can refuse them."""
    entry, first_mark = st.integers(-2, 3), st.sampled_from((1, 2))
    kind = draw(st.sampled_from(("whole", "redrawn", "moved")))
    if kind == "whole":
        size = draw(st.integers(2, 6))
        row = st.lists(entry, min_size=size, max_size=size)
        adjacency = draw(st.lists(row, min_size=size, max_size=size))
        marks = [draw(first_mark), *draw(st.lists(entry, min_size=size - 1, max_size=size - 1))]
        return McKayGraph(DiagramType("A", 3), size, tuple(map(tuple, adjacency)), tuple(marks))
    g = graph_for(draw(st.sampled_from(SMALL_TYPES)))
    adjacency, marks = [list(row) for row in g.adjacency], list(g.marks_ext)
    node = st.integers(0, g.size - 1)
    if kind == "redrawn":
        if draw(st.booleans()):
            adjacency[draw(node)][draw(node)] = draw(entry)
        if draw(st.booleans()):
            i = draw(node)
            marks[i] = draw(first_mark if i == 0 else entry)
    else:
        for _ in range(draw(st.integers(1, 3))):
            i, j, d = draw(node), draw(node), draw(st.integers(-2, 2))
            twins = [k for k in range(g.size) if k != i and marks[k] == marks[i]]
            k = draw(st.sampled_from(twins or [i]))
            adjacency[i][j] += d
            adjacency[k][j] -= d
    return McKayGraph(g.dtype, g.size, tuple(map(tuple, adjacency)), tuple(marks))


@given(small_graphs())
def test_certificate_matches_the_reference_on_small_graphs(g):
    assert outcome(fresh_certificate, g) == outcome(reference_certificate, g)


@pytest.mark.parametrize("name", (*ACCEPTED_TYPES, "A1", "A71", "D71"))
def test_a_mckay_graph_checks_only_level_0(checked_levels, name):
    # marks_ext A = 2 marks_ext on every McKay graph, so every dimension sum
    # is proved from level 0's, and no level fails the mask.
    assert fresh_certificate(graph_for(name)).period == PERIODS[name]
    assert checked_levels == [0]


def test_marks_off_the_kernel_fail_at_the_reference_level(checked_levels):
    # The triangle keeps E8's marks, which its adjacency no longer doubles,
    # so every level is checked, and the first wrong dimension sum is named.
    g = hand_built_graphs()["E8 triangle"]
    expected = outcome(reference_certificate, g)
    assert expected[0] == "E8: dimension sum 9 != 7 at level 6"
    checked_levels.clear()
    assert outcome(fresh_certificate, g) == expected
    assert checked_levels == [0, 1, 2, 3, 4, 5, 6]


#: Graphs whose every level keeps its dimension sum, though their isolated
#: node 2 has mark 5 and column 2 of A is 0, not 10: no sum is proved.
#: Each maps to its outcome and the last level the recursion computes.
UNPROVED = {
    # A1 with an isolated node: P = 2, levels 0..2P+1.
    "A1 and a node": (
        (((0, 2, 0), (2, 0, 0), (0, 0, 0)), (1, 1, 5)),
        (2, ((1, 0, 0), (0, 2, 0)), ((2, 0, 0), (0, 2, 0)), 3),
        5,
    ),
    # Node 1 grows like n^3 and never repeats: levels 0..2 cap + 1.
    "cubic": (
        (((2, 0, 0), (1, 2, 0), (0, 0, 0)), (1, 0, 5)),
        ("A3: tensor recursion has no period up to 36", "A3", "oracles"),
        73,
    ),
}


@pytest.mark.parametrize("name", UNPROVED)
def test_unproved_sums_check_each_level_the_recursion_computes(checked_levels, name):
    (adjacency, marks), expected, top = UNPROVED[name]
    g = McKayGraph(graph_for("A3").dtype, 3, adjacency, marks)
    assert outcome(reference_certificate, g) == expected
    checked_levels.clear()
    assert outcome(fresh_certificate, g) == expected
    assert checked_levels == list(range(top + 1))


def test_a_graph_of_period_1_certifies_it():
    # One node with a loop of weight 2: v_n = (n + 1,), so every dimension
    # sum holds, the step is constant from the start, and P = 1.
    g = McKayGraph(graph_for("A3").dtype, 1, ((2,),), (1,))
    expected = outcome(reference_certificate, g)
    assert expected == (1, ((1,),), ((1,),), 1)
    assert outcome(fresh_certificate, g) == expected
