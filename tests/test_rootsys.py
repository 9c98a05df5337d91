"""Root-system construction: counts, pairings, reflections, highest root."""

import pytest

from su2branch import coxeter, rootsys
from su2branch.errors import ConsistencyError
from su2branch.rootsys import DiagramType, build_root_system, dynkin_edges
from su2branch.verify import ACCEPTED_TYPES

from conftest import bundle, inner, plain_closure_roots, reflect, replace, without_highest_root


def rs_for(name):
    return bundle(name).rs


def test_parse():
    assert str(DiagramType.parse("e8")) == "E8"
    assert DiagramType.parse(" D5 ") == DiagramType("D", 5)


@pytest.mark.parametrize("bad", ["A4", "A2", "A0", "D3", "E5", "E9", "F4", "B2", "x", "8E"])
def test_rejected_types(bad):
    with pytest.raises(ValueError):
        build_root_system(bad)


def test_e8_counts():
    rs = rs_for("E8")
    assert rs.rank == 8
    assert rs.num_positive == 120
    assert rs.coxeter_number == 30


def test_a3_counts():
    rs = rs_for("A3")
    assert rs.num_positive == 6
    assert rs.coxeter_number == 4


def test_d5_counts():
    rs = rs_for("D5")
    assert rs.coxeter_number == 8
    assert rs.num_positive == 20


@pytest.mark.parametrize(
    "name,h",
    [("A3", 4), ("A7", 8), ("A13", 14), ("D4", 6), ("D7", 12), ("D12", 22), ("E6", 12), ("E7", 18)],
)
def test_family_coxeter_numbers(name, h):
    rs = rs_for(name)
    assert rs.coxeter_number == h
    assert rs.num_positive == h * rs.rank // 2
    assert len(rs.roots) == h * rs.rank


def test_inner_products():
    rs = rs_for("A3")
    a1, a2 = rs.simple_root(1), rs.simple_root(2)
    assert inner(rs, a1, a1) == 2
    assert inner(rs, a1, a2) == -1
    assert inner(rs, rs.simple_root(1), rs.simple_root(3)) == 0
    assert inner(rs, rs.highest_root, rs.highest_root) == 2


def test_reflections():
    rs = rs_for("A3")
    a1, a2 = rs.simple_root(1), rs.simple_root(2)
    assert reflect(rs, 1, a1) == (-1, 0, 0)
    assert reflect(rs, 1, a2) == (1, 1, 0)
    d4 = rs_for("D4")
    # nodes 3 and 4 are both fork tails: non-adjacent, so fixed
    assert reflect(d4, 3, d4.simple_root(4)) == d4.simple_root(4)
    with pytest.raises(IndexError):
        reflect(rs, 4, a1)


@pytest.mark.parametrize("name", ACCEPTED_TYPES)
def test_reflection_involution_permutes_roots(name):
    rs = rs_for(name)
    for i in rs.nodes:
        images = [reflect(rs, i, r) for r in rs.roots]
        assert sorted(images) == sorted(rs.roots)
        assert all(reflect(rs, i, s) == r for r, s in zip(rs.roots, images))


@pytest.mark.parametrize("name", ACCEPTED_TYPES)
def test_reflection_table_is_reflect(name):
    # A one-node class's involution, read from the pairings as
    # coxeter_element reads each class's, is that node's simple reflection.
    rs = build_root_system(name)
    for i in rs.nodes:
        table = coxeter._class_involution(rs, (i,))
        assert [rs.roots[k] for k in table] == [reflect(rs, i, r) for r in rs.roots], i


@pytest.mark.parametrize("name", ("A1",) + ACCEPTED_TYPES)
def test_seeded_pairings_are_the_definition(name):
    # The build seeds the packed images that pairings reads; conftest.replace
    # runs the constructor again, so the copy computes its own.
    rs = build_root_system(name)
    copy = replace(rs)
    assert "_forms" in vars(rs) and "_forms" not in vars(copy)
    assert pairings(copy) == tuple(
        tuple(inner(rs, r, rs.simple_root(i)) for r in rs.roots) for i in rs.nodes
    )
    assert pairings(rs) == pairings(copy)


def test_a_system_with_other_roots_computes_its_own_pairings():
    rs = build_root_system("A3")
    bad = replace(rs, roots=rs.roots[1:])
    assert pairings(bad) == tuple(row[1:] for row in pairings(rs))


@pytest.mark.parametrize("name", ("A1",) + ACCEPTED_TYPES)
def test_neighbors_are_the_dynkin_edges(name):
    rs = build_root_system(name)
    edges = dynkin_edges(rs.dtype)
    for i in rs.nodes:
        want = sorted({j for e in edges if i in e for j in e} - {i})
        assert rs.neighbors(i) == tuple(want), (name, i)


def test_highest_root_marks():
    assert rs_for("A3").highest_root == (1, 1, 1)
    assert max(rs_for("E8").marks) == 6
    assert rs_for("D4").highest_root == (1, 2, 1, 1)


def test_highest_root_maximal():
    rs = rs_for("E6")
    for i in rs.nodes:
        above = tuple(
            c + int(j == i - 1) for j, c in enumerate(rs.highest_root)
        )
        assert not rs.is_root(above)


def test_pairings_bounded():
    rs = rs_for("D4")
    vals = {inner(rs, x, y) for x in rs.roots for y in rs.roots}
    assert vals <= {-2, -1, 0, 1, 2}


def test_affine_attachment():
    assert rs_for("A7").affine_attachment() == (1, 7)
    assert rs_for("D6").affine_attachment() == (2,)
    assert rs_for("E8").affine_attachment() == (7,)
    assert rs_for("E6").affine_attachment() == (6,)


@pytest.mark.parametrize("name", ACCEPTED_TYPES)
def test_highest_root_image_is_its_pairings(name):
    rs = rs_for(name)
    want = tuple(inner(rs, rs.highest_root, rs.simple_root(i)) for i in rs.nodes)
    assert rs.highest_root_image == want


def test_a_replaced_highest_root_gets_its_own_image():
    # conftest.replace runs the constructor again, so the cached image is not
    # copied; the copy is seeded with another highest root before its first read.
    rs = build_root_system("E8")
    assert rs.highest_root_image == (0, 0, 0, 0, 0, 0, 1, 0)
    bad = replace(rs)
    vars(bad)["highest_root"] = rs.simple_root(1)
    assert bad.highest_root_image == (2, -1, 0, 0, 0, 0, 0, 0)
    assert bad.affine_attachment() == (1,)


def test_roots_negation_layout():
    rs = rs_for("A5")
    p = rs.num_positive
    for idx in range(p):
        assert rs.roots[idx + p] == tuple(-c for c in rs.roots[idx])


@pytest.mark.parametrize("name", (*ACCEPTED_TYPES, "A71", "D71", "A1"))
def test_closure_matches_the_plain_closure(name):
    # A71 and D71 have heights up to 71 and 139: the packed closure at the rank cap.
    rs = build_root_system(name)
    assert rs.roots == plain_closure_roots(name)
    assert rs.highest_root == rs.roots[rs.num_positive - 1]
    assert rs._index == {rs._key(r): k for k, r in enumerate(rs.roots)}


def test_a_closure_past_the_largest_mark_fails_the_build(monkeypatch):
    # E8's branch node has mark 6; under a bound of 5 its first root with a
    # coefficient 6, in closure order, is refused with the type and stage.
    rs = build_root_system("E8")
    first = next(r for r in rs.roots[: rs.num_positive] if max(r) == 6)
    monkeypatch.setattr(rootsys, "MAX_MARK", 5)
    with pytest.raises(ConsistencyError) as info:
        build_root_system("E8")
    err = info.value
    assert (str(err), err.dtype, err.stage) == (
        f"E8: {first} has a coefficient above 5, the largest mark of any ADE type",
        "E8",
        "build_root_system",
    )


def test_reflection_table_off_the_root_set_is_reflect():
    # A3 without its highest root: s_1 sends (0, 1, 1) to the missing
    # (1, 1, 1), the first image off the root set, and the table refuses it.
    bad = without_highest_root(build_root_system("A3"))
    assert reflect(bad, 1, (0, 1, 1)) == (1, 1, 1)
    with pytest.raises(ConsistencyError) as info:
        coxeter._class_involution(bad, (1,))
    err = info.value
    assert (str(err), err.dtype, err.stage) == ("(1, 1, 1) is not a root of A3", "A3", "coxeter_element")


def pairings(rs):
    """``pairings(rs)[i - 1][k]`` = (root k, alpha_i), read from the packed images."""
    rows = zip(*[q.to_bytes(rs.rank, "big") for q in rs._forms[1]])
    return tuple(tuple([b - 8 for b in row]) for row in rows)


def tuple_pairings(rs):
    """(root k, alpha_i) for every root k, row i of C times the root columns:
    the tuple arithmetic the packed images replace, kept as a reference."""
    columns = list(zip(*rs.roots))
    return tuple(
        tuple(map(sum, zip(*[[c * x for x in col] for c, col in zip(row, columns) if c])))
        for row in rs.cartan
    )


@pytest.mark.parametrize("name", ("A1", *ACCEPTED_TYPES, "A71", "D71"))
def test_packed_build_is_the_tuple_arithmetic(name):
    # Pairings and the highest root's image by tuple sums over the Cartan
    # rows, and the packed forms from them: every type and the rank cap.  The
    # roots are the plain closure's (test_closure_matches_the_plain_closure).
    rs = bundle(name).rs
    assert pairings(rs) == tuple_pairings(rs)
    psi = rs.highest_root
    assert rs.highest_root_image == tuple(sum(c * x for c, x in zip(row, psi)) for row in rs.cartan)

    def packed(x):  # sum (c_i + 8) 256^(l - i), the module docstring's layout
        return sum((c + 8) << 8 * (rs.rank - i) for i, c in enumerate(x, 1))

    assert rs._forms == (tuple(map(packed, rs.roots)), tuple(map(packed, zip(*pairings(rs)))))


@pytest.mark.parametrize(
    "bad", [(0,) * 7, (0,) * 9, (-8, 1, 0, 0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 300), (-9,) + (0,) * 7]
)
def test_a_tuple_of_another_length_or_outside_the_bytes_is_not_a_root(bad):
    # (-8, 1, 0, ..) packs to alpha_1's int with one more leading byte 0, so
    # only the length check refuses it.
    rs = bundle("E8").rs
    assert not rs.is_root(bad)
    with pytest.raises(ValueError, match=r"is not a root of E8$") as info:
        rs.index_of(bad)
    assert str(info.value) == f"{bad} is not a root of E8"
    with pytest.raises(ConsistencyError) as info:
        rs.index_of(bad, "orbit_table")
    err = info.value
    assert (str(err), err.dtype, err.stage) == (f"orbit_table: {bad} is not a root of E8", "E8", "orbit_table")


def test_a_pairing_below_minus_two_fails_the_build(monkeypatch):
    # A star of five leaves is not of finite type: (1, 1, 1, 1, 1, 1) pairs
    # -3 with the centre while every coefficient is 1, and the closure
    # refuses it before any byte could borrow.
    star = tuple(
        tuple(2 if i == j else -1 if (i == 0) != (j == 0) else 0 for j in range(6)) for i in range(6)
    )
    monkeypatch.setattr(rootsys, "cartan_matrix", lambda dtype: star)
    with pytest.raises(ConsistencyError) as info:
        build_root_system("D6")
    err = info.value
    assert (str(err), err.dtype, err.stage) == (
        "D6: (1, 1, 1, 1, 1, 1) has a pairing below -2 with a simple root, which no ADE root has",
        "D6",
        "build_root_system",
    )
