"""Bipartition, Coxeter element order, orbits, exponents, longest element."""

import dataclasses

import pytest

from su2branch import Branching
from su2branch.coxeter import (
    bipartition,
    coxeter_element,
    perm_compose,
    perm_identity,
    perm_power,
    special_index,
)
from su2branch.invariants import LONGEST_ELEMENT, Session
from su2branch.rootsys import build_root_system
from su2branch.verify import ACCEPTED_TYPES

from conftest import bundle, reflect, reflect_table


def test_a3_bipartition():
    bp = bundle("A3").bp
    assert bp.part1 == (1, 3)
    assert bp.part2 == (2,)


def test_d4_bipartition():
    bp = bundle("D4").bp
    assert bp.part1 == (2,)
    assert bp.part2 == (1, 3, 4)


@pytest.mark.parametrize("name", ["A5", "D6", "E7"])
def test_edges_cross_parts(name):
    b = bundle(name)
    for i in b.rs.nodes:
        for j in b.rs.neighbors(i):
            assert b.bp.side(i) != b.bp.side(j)


def test_tau1_negates_own_simples():
    b = bundle("E6")
    for i in b.bp.part1:
        idx = b.rs.index_of(b.rs.simple_root(i))
        assert b.cox.tau1[idx] == b.rs.negation(idx)


@pytest.mark.parametrize("name", ("A1",) + ACCEPTED_TYPES)
def test_taus_are_the_composed_class_reflections(name):
    b = bundle(name)
    table = reflect_table(b.rs)
    for tau, part in ((b.cox.tau1, b.bp.part1), (b.cox.tau2, b.bp.part2)):
        want = perm_identity(len(b.rs.roots))
        for i in part:
            want = perm_compose(table[i - 1], want)
        assert tau == want


def test_the_build_makes_no_reflection_table():
    b = Branching.build("E8")
    assert "pairings" in vars(b.rs)
    assert "reflections" not in vars(b.rs)


def test_sigma_order_a3():
    b = bundle("A3")
    assert len(b.rs.roots) == 12
    assert b.rs.coxeter_number == 4
    assert perm_power(b.cox.sigma, 4) == perm_identity(12)
    for k in (1, 2, 3):
        assert perm_power(b.cox.sigma, k) != perm_identity(12)


def test_e8_orbit_partition():
    b = bundle("E8")
    assert len(b.table.orbits) == 8
    assert all(len(o) == 30 for o in b.table.orbits)
    covered = set()
    for o in b.table.orbits:
        assert not (set(o) & covered)
        covered.update(o)
    assert len(covered) == 240


@pytest.mark.parametrize("name", ["A3", "A7", "D5", "E6"])
def test_positive_part_size(name):
    b = bundle(name)
    g = b.rs.coxeter_number // 2
    for o in b.table.orbits:
        assert sum(1 for x in o if x < b.rs.num_positive) == g


def test_signed_simple_exponents():
    b = bundle("D5")
    for i in b.bp.part1:
        idx = b.rs.index_of(b.rs.simple_root(i))
        assert b.table.exponent[idx] == 1


@pytest.mark.parametrize("name", ["A3", "A7", "D4", "D5", "E6", "E7", "E8"])
def test_highest_root_exponent_is_g(name):
    b = bundle(name)
    psi_idx = b.rs.index_of(b.rs.highest_root)
    assert b.table.exponent[psi_idx] == b.rs.coxeter_number // 2


def test_a3_exponents_hand_computed():
    # Walking sigma = s2 (s1 s3) by hand on the 12 roots of A3 gives:
    #   orbit of alpha1:  alpha1 -> n=1,   alpha2+alpha3 -> n=3
    #   orbit of -alpha2: psi -> n=2,      alpha2 -> n=4
    #   orbit of alpha3:  alpha3 -> n=1,   alpha1+alpha2 -> n=3
    b = bundle("A3")
    expo = {b.rs.root_at(i): n for i, n in b.table.exponent.items()}
    assert expo == {
        (1, 0, 0): 1,
        (0, 1, 1): 3,
        (1, 1, 1): 2,
        (0, 1, 0): 4,
        (0, 0, 1): 1,
        (1, 1, 0): 3,
    }
    node = {b.rs.root_at(i): t for i, t in b.table.orbit_node.items() if i < 6}
    assert node == {
        (1, 0, 0): 1,
        (0, 1, 1): 1,
        (1, 1, 1): 2,
        (0, 1, 0): 2,
        (0, 0, 1): 3,
        (1, 1, 0): 3,
    }


def test_exponent_parity():
    b = bundle("E7")
    for idx, n in b.table.exponent.items():
        assert n % 2 == b.table.parity[idx] % 2


@pytest.mark.parametrize("name,node", [("E8", 3), ("A7", 4), ("D5", 3), ("D4", 2), ("E6", 3)])
def test_special_index(name, node):
    b = bundle(name)
    assert special_index(b.rs) == node


def test_special_index_marks():
    assert bundle("E8").rs.mark(special_index(bundle("E8").rs)) == 6
    assert bundle("A7").rs.mark(special_index(bundle("A7").rs)) == 1
    assert bundle("D5").rs.mark(special_index(bundle("D5").rs)) == 2


@pytest.mark.parametrize("name", ["A3", "A7", "D5", "D8", "E6", "E7", "E8"])
def test_longest_element_suite(name):
    session = Session(bundle(name))
    assert len(LONGEST_ELEMENT) == 8
    for inv in LONGEST_ELEMENT:
        passed, detail = inv.evaluate(session)
        assert passed, f"{name} {inv.name}: {detail}"


def test_sigma_g_negates_positives_a3():
    b = bundle("A3")
    kappa = perm_power(b.cox.sigma, 2)
    for idx in range(b.rs.num_positive):
        assert kappa[idx] >= b.rs.num_positive


def test_a_reflection_off_the_root_set_is_refused():
    # A3 without its highest root: s_1 sends (0, 1, 1) to the missing (1, 1, 1).
    rs = build_root_system("A3")
    dropped = {rs.highest_root, tuple(-x for x in rs.highest_root)}
    roots = tuple(r for r in rs.roots if r not in dropped)
    bad = dataclasses.replace(
        rs,
        roots=roots,
        num_positive=rs.num_positive - 1,
        _index={r: k for k, r in enumerate(roots)},
    )
    bp = bipartition(bad)
    # The message index_of gives for the first image off the root set.
    image = next(
        image
        for i in (*bp.part1, *bp.part2)
        for image in (reflect(bad, i, r) for r in bad.roots)
        if not bad.is_root(image)
    )
    assert None in bad.reflections[0]
    with pytest.raises(ValueError) as info:
        coxeter_element(bad, bp)
    assert str(info.value) == f"{image} is not a root of A3"
