"""Quaternion groups, conjugacy classes, character tables, multiplicities."""

import math
import random

import numpy as np
import pytest

from su2branch import binarygroups
from su2branch.binarygroups import (
    GroupElement,
    IDENTITY,
    MINUS_IDENTITY,
    character_multiplicities,
    molien_series,
    _char_from_trace,
    oracle_multiplicity,
)
from su2branch.verify import ACCEPTED_TYPES

from conftest import bundle, graph_for, group_for, table_for


@pytest.mark.parametrize(
    "name,order",
    [("A3", 4), ("A13", 14), ("D4", 8), ("D5", 12), ("E6", 24), ("E7", 48), ("E8", 120)],
)
def test_group_orders(name, order):
    assert group_for(name).order == order


def _matrix(q):
    """The special-unitary matrix the quaternion stands for."""
    return np.array([[q.w + q.x * 1j, q.y + q.z * 1j], [-q.y + q.z * 1j, q.w - q.x * 1j]])


def test_quaternion_matrix_homomorphism():
    rng = random.Random(7)
    for _ in range(20):
        v1 = [rng.gauss(0, 1) for _ in range(4)]
        v2 = [rng.gauss(0, 1) for _ in range(4)]
        n1 = math.sqrt(sum(c * c for c in v1))
        n2 = math.sqrt(sum(c * c for c in v2))
        q1 = GroupElement(*[c / n1 for c in v1])
        q2 = GroupElement(*[c / n2 for c in v2])
        assert np.allclose(_matrix(q1 * q2), _matrix(q1) @ _matrix(q2))
        assert abs(np.linalg.det(_matrix(q1)) - 1.0) < 1e-12
        assert np.allclose(_matrix(q1) @ _matrix(q1).conj().T, np.eye(2))
        assert abs(np.trace(_matrix(q1)).real - q1.trace) < 1e-12


def test_minus_identity_central():
    g = group_for("E7")
    neg = g.minus_identity
    assert g.elements[neg].key() == MINUS_IDENTITY.key()
    assert g.mult[neg][neg] == 0  # (-1)^2 = 1
    assert all(g.mult[neg][x] == g.mult[x][neg] for x in range(g.order))


@pytest.mark.parametrize("name,classes", [("E8", 9), ("E6", 7), ("A5", 6), ("D6", 7)])
def test_class_counts(name, classes):
    g = group_for(name)
    assert len(g.classes) == classes
    assert len(g.classes[g.class_of[0]]) == 1
    assert len(g.classes[g.class_of[g.minus_identity]]) == 1


def test_su2_characters():
    assert _char_from_trace(IDENTITY.trace, 5) == 6.0
    assert _char_from_trace(MINUS_IDENTITY.trace, 5) == -6.0
    assert _char_from_trace(MINUS_IDENTITY.trace, 4) == 5.0
    q = GroupElement(0.5, 0.5, 0.5, 0.5)
    assert abs(_char_from_trace(q.trace, 2) - (q.trace**2 - 1)) < 1e-12
    assert _char_from_trace(q.trace, 0) == 1.0


def test_e8_character_dims():
    t = table_for("E8")
    assert sorted(t.dims) == [1, 2, 2, 3, 3, 4, 4, 5, 6]


@pytest.mark.parametrize("name", ["A3", "A7", "D4", "D7", "E6", "E7", "E8"])
def test_dims_match_marks(name, ):
    t = table_for(name)
    g = graph_for(name)
    assert tuple(t.dims[t.node_map[i]] for i in range(g.size)) == g.marks_ext


def test_trivial_character_at_node_zero():
    t = table_for("D5")
    row = t.character_for_node(0)
    assert max(abs(c - 1.0) for c in row) < 1e-9


def test_defining_representation_row():
    # Tensoring the trivial character with the defining 2-dim rep gives the
    # affine row of the adjacency: the characters at the attachment nodes,
    # weighted by attachment multiplicity, must sum to the trace.
    for name in ("A5", "D6", "E7"):
        t = table_for(name)
        g = graph_for(name)
        group = group_for(name)
        traces = [group.elements[c[0]].trace for c in group.classes]
        for cls in range(len(group.classes)):
            total = sum(
                g.adjacency[0][i] * t.character_for_node(i)[cls] for i in range(g.size)
            )
            assert abs(total - traces[cls]) < 1e-8


def test_character_row_orthonormality():
    t = table_for("E6")
    group = group_for("E6")
    sizes = group.class_sizes
    r = len(sizes)
    for p in range(r):
        for q in range(r):
            val = sum(
                sizes[c] * t.rows[p][c] * t.rows[q][c].conjugate() for c in range(r)
            ) / group.order
            assert abs(val - (1.0 if p == q else 0.0)) < 1e-8


def test_central_parity_signs():
    b = bundle("E7")
    t = table_for("E7")
    group = group_for("E7")
    g = graph_for("E7")
    minus_class = group.class_of[group.minus_identity]
    for node in range(g.size):
        d = g.marks_ext[node]
        sign = -1 if node != 0 and b.bp.side(node) == 1 else 1
        assert abs(t.character_for_node(node)[minus_class] - sign * d) < 1e-8


def test_oracle_multiplicity_basics():
    for name in ("A3", "E6"):
        group = group_for(name)
        t = table_for(name)
        assert oracle_multiplicity(group, t, 0, 0) == 1
        for i in range(1, graph_for(name).size):
            assert oracle_multiplicity(group, t, 0, i) == 0


def test_e8_invariants_match_series_via_characters():
    group = group_for("E8")
    t = table_for("E8")
    series = bundle("E8").series(0, 60)
    for n in range(61):
        assert oracle_multiplicity(group, t, n, 0) == series[n]


@pytest.mark.parametrize("name", ["A5", "D5", "E6"])
def test_character_vectors_match_recursion(name):
    from su2branch.mckay import recursion_oracle

    vecs = character_multiplicities(group_for(name), table_for(name), 40)
    rec = recursion_oracle(graph_for(name), 40)
    assert vecs == rec


@pytest.mark.parametrize("name", ACCEPTED_TYPES)
def test_range_oracle_is_the_point_oracle(name):
    group, t = group_for(name), table_for(name)
    top = 2 * math.lcm(*group.class_orders) + 2
    vecs = character_multiplicities(group, t, top)
    assert len(vecs) == top + 1
    for n, vec in enumerate(vecs):
        for i, m in enumerate(vec):
            assert m == oracle_multiplicity(group, t, n, i)


@pytest.mark.parametrize("name", ["A5", "D6", "E8"])
def test_residue_table_is_the_class_sum(name):
    # Reference: the plain loop over classes, with chi_r unreduced.
    group, t = group_for(name), table_for(name)
    minus = group.class_of[group.minus_identity]
    traces = [group.elements[rep].trace for rep in group.representatives()]
    assert len(t.residues) == math.lcm(*group.class_orders)
    for r, sums in enumerate(t.residues):
        for node, got in enumerate(sums):
            row = t.character_for_node(node)
            want = sum(
                group.class_sizes[c] * _char_from_trace(traces[c], r) * row[c].conjugate()
                for c in range(len(group.classes))
                if c not in (0, minus)
            )
            assert abs(got - want) < 1e-8


@pytest.mark.parametrize("name", ACCEPTED_TYPES)
def test_point_oracle_runs_no_chebyshev_step(monkeypatch, name):
    group, t = group_for(name), table_for(name)

    def boom(trace, n):
        raise AssertionError("Chebyshev step after the table was built")

    monkeypatch.setattr(binarygroups, "_char_from_trace", boom)
    n = 10**18 + 1
    vec = tuple(oracle_multiplicity(group, t, n, i) for i in range(graph_for(name).size))
    assert sum(m * d for m, d in zip(vec, graph_for(name).marks_ext)) == n + 1


def test_a1_has_no_noncentral_points():
    # A1's group is +-identity: every residue sum is empty and must read 0.
    from su2branch.mckay import recursion_oracle

    group, t = group_for("A1"), table_for("A1")
    assert group.order == 2
    assert t.residues == ((0j, 0j), (0j, 0j))
    rec = recursion_oracle(graph_for("A1"), 40)
    assert character_multiplicities(group, t, 40) == rec
    assert list(molien_series(group, 40)) == [vec[0] for vec in rec]


def test_molien_matches_character_path():
    group = group_for("D6")
    t = table_for("D6")
    avg = molien_series(group, 40)
    for n in range(41):
        assert avg[n] == oracle_multiplicity(group, t, n, 0)


def test_group_associativity_sampled():
    g = group_for("E8")
    rng = random.Random(20250810)
    for _ in range(300):
        x, y, z = (rng.randrange(g.order) for _ in range(3))
        assert g.mult[g.mult[x][y]][z] == g.mult[x][g.mult[y][z]]


def test_inverses_total():
    g = group_for("D8")
    for x in range(g.order):
        assert g.mult[x][g.inverse[x]] == 0
        assert g.mult[g.inverse[x]][x] == 0
