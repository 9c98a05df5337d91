"""Bipartition, Coxeter element order, orbits, exponents, longest element."""

import inspect

import pytest

from su2branch import Branching, branching, rootsys
from su2branch.branching import BranchParams, branch_params
from su2branch.coxeter import (
    CoxeterAction,
    OrbitTable,
    bipartition,
    coxeter_element,
    orbit_table,
    perm_compose,
    special_index,
)
from su2branch.errors import ConsistencyError
from su2branch.rootsys import RootSystem, build_root_system
from su2branch.verify import ACCEPTED_TYPES

from conftest import (
    AFFINE_D4,
    bundle,
    e8_with_a_root_listed_twice,
    e8_with_doubled_simple_roots,
    longest_element_failures,
    perm_power,
    reflect,
    replace,
    without_highest_root,
)


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
        assert b.cox.tau1[idx] == idx + b.rs.num_positive  # the negative of root idx


@pytest.mark.parametrize("name", ("A1",) + ACCEPTED_TYPES)
def test_taus_are_the_composed_class_reflections(name):
    b = bundle(name)
    table = [tuple(b.rs.index_of(reflect(b.rs, i, r)) for r in b.rs.roots) for i in b.rs.nodes]
    for tau, part in ((b.cox.tau1, b.bp.part1), (b.cox.tau2, b.bp.part2)):
        want = tuple(range(len(b.rs.roots)))
        for i in part:
            want = perm_compose(table[i - 1], want)
        assert tau == want


def test_the_build_makes_no_reflection_table():
    b = Branching.build("E8")
    assert "_forms" in vars(b.rs)
    assert "reflections" not in vars(b.rs)


def test_sigma_order_a3():
    b = bundle("A3")
    assert len(b.rs.roots) == 12
    assert b.rs.coxeter_number == 4
    assert perm_power(b.cox.sigma, 4) == tuple(range(12))
    for k in (1, 2, 3):
        assert perm_power(b.cox.sigma, k) != tuple(range(12))


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
    expo = {b.rs.roots[i]: n for i, n in b.table.exponent.items()}
    assert expo == {
        (1, 0, 0): 1,
        (0, 1, 1): 3,
        (1, 1, 1): 2,
        (0, 1, 0): 4,
        (0, 0, 1): 1,
        (1, 1, 0): 3,
    }
    node = {b.rs.roots[i]: t for i, t in b.table.orbit_node.items() if i < 6}
    assert node == {
        (1, 0, 0): 1,
        (0, 1, 1): 1,
        (1, 1, 1): 2,
        (0, 1, 0): 2,
        (0, 0, 1): 3,
        (1, 1, 0): 3,
    }


@pytest.mark.parametrize("name", ACCEPTED_TYPES)
def test_orbit_position_m_is_sent_to_beta_by_sigma_to_the_m(name):
    b = bundle(name)
    for i, orbit in enumerate(b.table.orbits, 1):
        beta = b.rs.index_of(b.table.signed_simples[i - 1])
        for m, idx in enumerate(orbit):
            assert perm_power(b.cox.sigma, m)[idx] == beta, (name, i, m)


def test_exponent_parity():
    b = bundle("E7")
    for idx, n in b.table.exponent.items():
        assert n % 2 == b.bp.side(b.table.orbit_node[idx]) % 2


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
    # Acceptance criterion 4 states the six facts on every type; here they
    # also tell sigma from tau1, which is not the Coxeter element.
    b = bundle(name)
    assert longest_element_failures(b, b.cox.sigma) == []
    assert "a positive root stays positive" in longest_element_failures(b, b.cox.tau1)


def test_sigma_g_negates_positives_a3():
    b = bundle("A3")
    kappa = perm_power(b.cox.sigma, 2)
    for idx in range(b.rs.num_positive):
        assert kappa[idx] >= b.rs.num_positive


def test_a_reflection_off_the_root_set_is_refused():
    # A3 without its highest root: s_1 sends (0, 1, 1) to the missing (1, 1, 1).
    bad = without_highest_root(build_root_system("A3"))
    bp = bipartition(bad)
    # The message index_of gives for the first image off the root set.
    image = next(
        image
        for i in (*bp.part1, *bp.part2)
        for image in (reflect(bad, i, r) for r in bad.roots)
        if not bad.is_root(image)
    )
    with pytest.raises(ConsistencyError) as info:
        coxeter_element(bad, bp)
    err = info.value
    assert (str(err), err.dtype, err.stage, err.invariant) == (
        f"{image} is not a root of A3",
        "A3",
        "coxeter_element",
        None,
    )


def _e10(dtype):
    """The hyperbolic E10 Cartan matrix: a path of 9 nodes, node 10 joined to node 3."""
    edges = [(i, i + 1) for i in range(8)] + [(2, 9)]
    return tuple(
        tuple(2 if i == j else -((i, j) in edges or (j, i) in edges) for j in range(10))
        for i in range(10)
    )


@pytest.mark.parametrize(
    "name,cartan,problem,stage",
    [
        pytest.param(
            "D5", lambda dtype: AFFINE_D4, "(1, 3, 1, 1, 1) is not a root of D5", "coxeter_element",
            id="affine-D4-on-D5",
        ),
        pytest.param(
            "D10",
            _e10,
            "D10: (1, 4, 7, 6, 5, 4, 3, 2, 1, 3) has a coefficient above 6, the largest mark of any ADE type",
            "build_root_system",
            id="E10-on-D10",
        ),
    ],
)
def test_a_cartan_matrix_of_infinite_type_fails_the_build(monkeypatch, name, cartan, problem, stage):
    # The affine D4 closure ends (it adds a root only at pairing -1) with
    # coefficients up to 2, and a reflection then leaves the root set; the
    # hyperbolic E10 closure reaches a coefficient of 7 before it would end.
    monkeypatch.setattr(rootsys, "cartan_matrix", cartan)
    with pytest.raises(ConsistencyError) as info:
        Branching.build(name)
    err = info.value
    assert (str(err), err.dtype, err.stage) == (problem, name, stage)


def test_a_root_listed_twice_fails_the_build(monkeypatch):
    # Two equal roots have one reflection image, so tau_1 is not injective:
    # the build stops there, naming the root, not later in a lookup.
    bad = e8_with_a_root_listed_twice()
    monkeypatch.setattr(branching, "build_root_system", lambda dtype: bad)
    with pytest.raises(ConsistencyError) as info:
        Branching.build("E8")
    err = info.value
    assert (str(err), err.dtype, err.stage, err.invariant) == (
        "(1, 2, 3, 2, 1, 1, 1, 2) is listed twice among the roots of E8",
        "E8",
        "coxeter_element",
        None,
    )


def tuple_involution(rs, nodes):
    """r -> r - sum (r, alpha_i) alpha_i over ``nodes`` in tuple arithmetic,
    looked up in a tuple-keyed index: the reference for the packed tau."""
    index = {r: k for k, r in enumerate(rs.roots)}
    rows = {i: [(j, c) for j, c in enumerate(rs.cartan[i - 1]) if c] for i in nodes}
    images = []
    for r in rs.roots:
        out = list(r)
        for i, row in rows.items():
            out[i - 1] -= sum(c * r[j] for j, c in row)
        images.append(index[tuple(out)])
    return tuple(images)


@pytest.mark.parametrize("name", ("A1", *ACCEPTED_TYPES, "A71", "D71"))
def test_packed_involutions_are_the_tuple_arithmetic(name):
    b = bundle(name)
    assert b.cox.tau1 == tuple_involution(b.rs, b.bp.part1)
    assert b.cox.tau2 == tuple_involution(b.rs, b.bp.part2)
    assert b.cox.sigma == perm_compose(b.cox.tau2, b.cox.tau1)


def test_a_signed_simple_root_off_the_root_set_fails_orbit_table(monkeypatch):
    rs = e8_with_doubled_simple_roots()
    alpha = rs.simple_root(1)  # 2 alpha_1 here; node 1's beta is the first lookup
    beta = alpha if bipartition(rs).side(1) == 1 else tuple(-c for c in alpha)
    monkeypatch.setattr(branching, "build_root_system", lambda dtype: rs)
    with pytest.raises(ConsistencyError) as info:
        Branching.build("E8")
    err = info.value
    assert (str(err), err.dtype, err.stage, err.invariant) == (
        f"orbit_table: {beta} is not a root of E8", "E8", "orbit_table", None
    )


def test_a_highest_root_off_the_root_set_fails_z_polynomial(monkeypatch):
    rs = build_root_system("E8")
    bad = replace(rs)
    vars(bad)["highest_root"] = tuple(2 * c for c in rs.highest_root)
    monkeypatch.setattr(branching, "build_root_system", lambda dtype: bad)
    with pytest.raises(ConsistencyError) as info:
        Branching.build("E8")
    err = info.value
    assert (str(err), err.dtype, err.stage) == (
        f"z_polynomial: {bad.highest_root} is not a root of E8", "E8", "z_polynomial"
    )


@pytest.mark.parametrize("name", (*ACCEPTED_TYPES, "A1", "A71", "D71"))
def test_lie_side_records_derive_their_facts(name):
    # Each record stores the facts its constructor takes and derives the
    # rest on first read: a fresh root system holds nothing else but the
    # packed forms the build seeds (and the packer its constructor makes).
    signatures = {
        RootSystem: ("dtype", "cartan", "roots"),
        CoxeterAction: ("tau1", "tau2"),
        OrbitTable: ("signed_simples", "orbits", "exponent"),
        BranchParams: ("a", "h", "special"),
    }
    for cls, names in signatures.items():
        assert tuple(inspect.signature(cls).parameters) == names, cls
    rs = build_root_system(name)
    assert tuple(vars(rs)) == ("dtype", "cartan", "roots", "_signed", "_forms")
    p = rs.num_positive
    assert len(rs.roots) == 2 * p == rs.coxeter_number * rs.rank
    heights = list(map(sum, rs.roots[:p]))
    assert rs.highest_root == rs.roots[p - 1] and heights.count(max(heights)) == 1
    assert sum(rs.highest_root) == max(heights)
    assert rs._index == {rs._key(r): k for k, r in enumerate(rs.roots)}
    bp = bipartition(rs)
    cox = coxeter_element(rs, bp)
    assert tuple(vars(cox)) == ("tau1", "tau2")
    assert cox.sigma == perm_compose(cox.tau2, cox.tau1)
    table = orbit_table(rs, cox, bp)
    assert tuple(vars(table)) == ("signed_simples", "orbits", "exponent")
    assert len(table.orbit_node) == len(rs.roots)
    for i, orbit in enumerate(table.orbits, 1):
        assert all(table.orbit_node[x] == i for x in orbit), (name, i)
    params = branch_params(rs)
    a, h = params.a, params.h
    assert params == (a, h, special_index(rs)) and h == rs.coxeter_number
    assert (params.b, params.g) == (h + 2 - a, h // 2)
    assert (params.order_f, params.order_fstar) == (a * (h + 2 - a) // 4, a * (h + 2 - a) // 2)
