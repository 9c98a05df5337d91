"""Root-system construction: counts, pairings, reflections, highest root."""

import dataclasses

import pytest

from su2branch.rootsys import DiagramType, build_root_system
from su2branch.verify import ACCEPTED_TYPES

from conftest import bundle, inner, plain_closure_roots, reflect, reflect_table


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


def test_reflection_involution_permutes_roots():
    rs = rs_for("D5")
    for i in rs.nodes:
        images = [reflect(rs, i, r) for r in rs.roots]
        assert sorted(images) == sorted(rs.roots)
        assert all(reflect(rs, i, s) == r for r, s in zip(rs.roots, images))


@pytest.mark.parametrize("name", ACCEPTED_TYPES)
def test_reflection_table_is_reflect(name):
    rs = rs_for(name)
    for i in rs.nodes:
        assert rs.reflections[i - 1] == tuple(rs.index_of(reflect(rs, i, r)) for r in rs.roots)


@pytest.mark.parametrize("name", ("A1",) + ACCEPTED_TYPES)
def test_seeded_pairings_are_the_definition(name):
    # dataclasses.replace builds a new instance, so the copy computes its own.
    rs = build_root_system(name)
    copy = dataclasses.replace(rs)
    assert "pairings" in vars(rs) and "pairings" not in vars(copy)
    assert copy.pairings == tuple(
        tuple(inner(rs, r, rs.simple_root(i)) for r in rs.roots) for i in rs.nodes
    )
    assert rs.pairings == copy.pairings


def test_a_system_with_other_roots_computes_its_own_pairings():
    rs = build_root_system("A3")
    bad = dataclasses.replace(rs, roots=rs.roots[1:])
    assert bad.pairings == tuple(row[1:] for row in rs.pairings)


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
    # dataclasses.replace builds a new instance, so the cached image is not copied.
    rs = build_root_system("E8")
    assert rs.highest_root_image == (0, 0, 0, 0, 0, 0, 1, 0)
    bad = dataclasses.replace(rs, highest_root=rs.simple_root(1))
    assert bad.highest_root_image == (2, -1, 0, 0, 0, 0, 0, 0)
    assert bad.affine_attachment() == (1,)


def test_roots_negation_layout():
    rs = rs_for("A5")
    p = rs.num_positive
    for idx in range(p):
        assert rs.root_at(rs.negation(idx)) == tuple(-c for c in rs.root_at(idx))


@pytest.mark.parametrize("name", ACCEPTED_TYPES)
def test_closure_matches_the_plain_closure(name):
    rs = build_root_system(name)
    assert rs.roots == plain_closure_roots(name)
    assert rs.highest_root == rs.roots[rs.num_positive - 1]
    assert rs._index == {r: k for k, r in enumerate(rs.roots)}


def test_reflection_table_off_the_root_set_is_reflect():
    # A3 without its highest root: entries whose image is (1, 1, 1) or
    # its negative are None, every other entry is the reflected root's index.
    rs = build_root_system("A3")
    dropped = {rs.highest_root, tuple(-x for x in rs.highest_root)}
    roots = tuple(r for r in rs.roots if r not in dropped)
    bad = dataclasses.replace(
        rs, roots=roots, num_positive=rs.num_positive - 1, _index={r: k for k, r in enumerate(roots)}
    )
    assert bad.reflections == reflect_table(bad)
    assert sum(row.count(None) for row in bad.reflections) == 4
