"""Quaternion groups, conjugacy classes, character tables, multiplicities."""

import dataclasses
import hashlib
import inspect
import itertools
import math
import random

import pytest

from su2branch import binarygroups
from su2branch.binarygroups import (
    CharacterTable,
    character_multiplicities,
    exponent,
    oracle_multiplicity,
    _residue_sums,
)
from su2branch.errors import ConsistencyError
from su2branch.invariants import HUGE_LEVEL, _character_table
from su2branch.mckay import recursion_oracle
from su2branch.verify import ACCEPTED_TYPES

from conftest import (
    bundle,
    dense_series,
    doctored_columns,
    graph_for,
    group_average,
    group_for,
    replace,
    rows,
    table_for,
    table_of,
)

#: Every type the character route accepts: A1 is not in ACCEPTED_TYPES.
CHARACTER_TYPES = (*ACCEPTED_TYPES, "A1")


@pytest.mark.parametrize(
    "name,order",
    [("A3", 4), ("A13", 14), ("D4", 8), ("D5", 12), ("E6", 24), ("E7", 48), ("E8", 120)],
)
def test_group_orders(name, order):
    assert group_for(name).order == order


@dataclasses.dataclass(frozen=True)
class Quaternion:
    """A quaternion with real (float or integer) coordinates: an
    independent reference for the groups the library closes mod p."""

    w: float
    x: float
    y: float
    z: float

    def __mul__(self, other):
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = other.w, other.x, other.y, other.z
        return Quaternion(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def conjugate(self):
        """The inverse of a unit quaternion."""
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def key(self):
        """Coordinates rounded to 9 decimals, far from every rounding
        midpoint the exact coordinates of these groups have."""
        return tuple(round(c, 9) + 0.0 for c in dataclasses.astuple(self))


_ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
_PHI = (1.0 + math.sqrt(5.0)) / 2.0


def _float_generators(dtype):
    """The module docstring's generators as float quaternions, in the
    library's order."""
    i, omega = Quaternion(0.0, 1.0, 0.0, 0.0), Quaternion(0.5, 0.5, 0.5, 0.5)
    if dtype.family in ("A", "D"):
        n = (dtype.rank + 1) // 2 if dtype.family == "A" else dtype.rank - 2
        r_n = Quaternion(math.cos(math.pi / n), math.sin(math.pi / n), 0.0, 0.0)
        return (r_n,) if dtype.family == "A" else (r_n, Quaternion(0.0, 0.0, 1.0, 0.0))
    if dtype.rank == 6:
        return (i, omega)
    if dtype.rank == 7:
        return (i, omega, Quaternion(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0, 0.0))
    return (i, Quaternion((_PHI - 1.0) / 2.0, _PHI / 2.0, 0.5, 0.0))


def _float_closure(dtype):
    """The float group, closed breadth first as ``build_group`` closes it,
    and the index of each element's key."""
    elements, index = [_ONE], {_ONE.key(): 0}
    for a in elements:
        for gen in _float_generators(dtype):
            q = a * gen
            if q.key() not in index:
                index[q.key()] = len(elements)
                elements.append(q)
    return elements, index


def _matrix(q):
    """The special-unitary matrix the quaternion stands for."""
    return [[complex(q.w, q.x), complex(q.y, q.z)], [complex(-q.y, q.z), complex(q.w, -q.x)]]


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)] for i in range(2)]


def _close(a, b):
    return all(abs(a[i][j] - b[i][j]) < 1e-12 for i in range(2) for j in range(2))


def test_quaternion_matrix_homomorphism():
    rng = random.Random(7)
    for _ in range(20):
        v1 = [rng.gauss(0, 1) for _ in range(4)]
        v2 = [rng.gauss(0, 1) for _ in range(4)]
        n1 = math.sqrt(sum(c * c for c in v1))
        n2 = math.sqrt(sum(c * c for c in v2))
        q1 = Quaternion(*[c / n1 for c in v1])
        q2 = Quaternion(*[c / n2 for c in v2])
        m1 = _matrix(q1)
        assert _close(_matrix(q1 * q2), _matmul(m1, _matrix(q2)))
        assert abs(m1[0][0] * m1[1][1] - m1[0][1] * m1[1][0] - 1.0) < 1e-12
        adjoint = [[m1[j][i].conjugate() for j in range(2)] for i in range(2)]
        assert _close(_matmul(m1, adjoint), [[1, 0], [0, 1]])
        assert abs((m1[0][0] + m1[1][1]).real - 2 * q1.w) < 1e-12


@pytest.mark.parametrize("name", ["E7", "E8"])
def test_quaternion_matrices_mod_p_multiply_as_quaternions(name):
    # Integer quaternions: the matrix mod p of a product is the product of the
    # matrices, and the determinant is the norm.
    p = group_for(name).p
    i = binarygroups._sqrt_mod(-1, p, group_for(name).non_residue)
    rng = random.Random(p)
    for _ in range(50):
        q1, q2 = (Quaternion(*(rng.randrange(-p, p) for _ in range(4))) for _ in range(2))
        m1, m2 = (binarygroups._quaternion(*dataclasses.astuple(q), i, p) for q in (q1, q2))
        assert binarygroups._product(m1, m2, p) == binarygroups._quaternion(
            *dataclasses.astuple(q1 * q2), i, p
        )
        a, b, c, d = m1
        assert (a * d - b * c - sum(x * x for x in dataclasses.astuple(q1))) % p == 0


def test_minus_identity_central():
    g = group_for("E7")
    neg = g.minus_identity
    assert g.elements[neg] == (g.p - 1, 0, 0, g.p - 1)
    mult = rows(g)
    assert mult[neg][neg] == 0  # (-1)^2 = 1
    assert all(mult[neg][x] == mult[x][neg] for x in range(g.order))


@pytest.mark.parametrize("name,classes", [("E8", 9), ("E6", 7), ("A5", 6), ("D6", 7)])
def test_class_counts(name, classes):
    g = group_for(name)
    assert len(g.classes) == classes
    assert len(g.classes[g.class_of[0]]) == 1
    assert len(g.classes[g.class_of[g.minus_identity]]) == 1


def _eigenvalues(group):
    """An eigenvalue zeta of each class's representative mod p: a root of
    x^2 - t x + 1, t the class trace, either root serving."""
    p, half = group.p, pow(2, -1, group.p)
    z = group.non_residue
    return [(t + binarygroups._sqrt_mod(t * t - 4, p, z)) * half % p for t in group.class_traces]


@pytest.mark.parametrize("name,prime", [("A1", 53), ("E8", 86461)])
def test_prime_and_root_orders(name, prime):
    group = group_for(name)
    p, zetas = group.p, _eigenvalues(group)
    exponent = math.lcm(*group.class_orders)
    assert p == prime and p % exponent == 1
    assert 2 * group.order * exponent * binarygroups.MAX_DEGREE < p
    for zeta, m in zip(zetas, group.class_orders):
        # zeta has exact order m, the order of the class's elements
        assert [k for k in range(1, m + 1) if pow(zeta, k, p) == 1] == [m]


@pytest.mark.parametrize("name", CHARACTER_TYPES)
def test_exponent_is_the_lcm_of_the_class_orders(name):
    group = group_for(name)
    assert exponent(group.dtype) == math.lcm(*group.class_orders)


def _noncentral_roots(group):
    """(zeta, order) of every non-central class."""
    minus = group.class_of[group.minus_identity]
    pairs = zip(_eigenvalues(group), group.class_orders)
    return [pair for c, pair in enumerate(pairs) if c not in (0, minus)]


def _su2_character(zeta, n, p):
    """chi_n mod p at eigenvalues zeta^(+-1) != +-1, in closed form:
    (zeta^(n+1) - zeta^-(n+1)) / (zeta - zeta^-1)."""
    return (pow(zeta, n + 1, p) - pow(zeta, -n - 1, p)) * pow(zeta - pow(zeta, -1, p), -1, p) % p


def test_su2_characters():
    # The recurrence _residue_sums runs against the closed form: with weight
    # 1 on one non-central class per column, entry [r][k] is chi_r at that
    # class, lifted, for every residue r; and chi_(n + m) = chi_n.
    for name in CHARACTER_TYPES:
        group = group_for(name)
        p, zetas = group.p, _eigenvalues(group)
        minus = group.class_of[group.minus_identity]
        noncentral = [c for c in range(len(group.classes)) if c not in (0, minus)]
        weights = [tuple(int(c == d) for d in noncentral) for c in range(len(group.classes))]
        residues = _residue_sums(group, weights)
        assert len(residues) == exponent(group.dtype)
        for r, row in enumerate(residues):
            want = [_su2_character(zetas[c], r, p) for c in noncentral]
            assert row == tuple((x + p // 2) % p - p // 2 for x in want), (name, r)
        for zeta, m in _noncentral_roots(group):
            assert _su2_character(zeta, HUGE_LEVEL, p) == _su2_character(zeta, HUGE_LEVEL % m, p)


def test_e8_character_dims():
    t = table_for("E8")
    assert sorted(t.dims) == [1, 2, 2, 3, 3, 4, 4, 5, 6]


@pytest.mark.parametrize("name", ["A1", "A3", "A7", "D4", "D7", "E6", "E7", "E8"])
def test_dims_match_marks(name, ):
    t = table_for(name)
    g = graph_for(name)
    assert t.dims == g.marks_ext


def test_trivial_character_at_node_zero():
    t = table_for("D5")
    assert t.rows[0] == (1,) * len(group_for("D5").classes)


def test_defining_representation_row():
    # Tensoring the trivial character with the defining 2-dim rep gives the
    # affine row of the adjacency: the characters at the attachment nodes,
    # weighted by attachment multiplicity, must sum to the trace
    # zeta + zeta^-1, exactly mod p.
    for name in ("A1", "A5", "D6", "E7"):
        t, g, group = table_for(name), graph_for(name), group_for(name)
        p, zetas = group.p, _eigenvalues(group)
        for cls, zeta in enumerate(zetas):
            total = sum(g.adjacency[0][i] * t.rows[i][cls] for i in range(g.size))
            assert (total - zeta - pow(zeta, -1, p)) % p == 0


def test_character_row_orthonormality():
    for name in ("A1", "A13", "D12", "E6", "E8"):
        t, group = table_for(name), group_for(name)
        p = group.p
        sizes, inverse = group.class_sizes, group.class_inverse
        r = len(sizes)
        for a in range(r):
            for b in range(r):
                val = sum(sizes[c] * t.rows[a][c] * t.rows[b][inverse[c]] for c in range(r))
                assert (val - (group.order if a == b else 0)) % p == 0


def test_central_parity_signs():
    for name in ("A1", "E7"):
        b, t, group, g = bundle(name), table_for(name), group_for(name), graph_for(name)
        p = group.p
        minus_class = group.class_of[group.minus_identity]
        for node in range(g.size):
            d = g.marks_ext[node]
            sign = -1 if node != 0 and b.bp.side(node) == 1 else 1
            assert (t.rows[node][minus_class] - sign * d) % p == 0
            assert t.central[node] == (d, sign * d)


def test_oracle_multiplicity_basics():
    for name in ("A3", "E6"):
        group = group_for(name)
        t = table_for(name)
        assert oracle_multiplicity(group, t, 0, 0) == 1
        for i in range(1, graph_for(name).size):
            assert oracle_multiplicity(group, t, 0, i) == 0


@pytest.mark.parametrize("node", [-1, 9])
def test_oracle_multiplicity_rejects_a_node_out_of_range(node):
    # E8 has nodes 0..8; -1 must not read node 8's entry.
    with pytest.raises(ValueError, match=f"node index {node} out of range for E8"):
        oracle_multiplicity(group_for("E8"), table_for("E8"), 6, node)


@pytest.mark.parametrize(
    "expand",
    [lambda name: character_multiplicities(group_for(name), table_for(name), -1)],
    ids=["character_multiplicities"],
)
def test_negative_order_is_a_value_error(expand):
    with pytest.raises(ValueError, match="^order must be nonnegative$"):
        expand("D4")


def test_e8_invariants_match_series_via_characters():
    group = group_for("E8")
    t = table_for("E8")
    series = dense_series(bundle("E8"), 0, 60)
    for n in range(61):
        assert oracle_multiplicity(group, t, n, 0) == series[n]


@pytest.mark.parametrize("name", CHARACTER_TYPES)
def test_character_vectors_match_recursion(name):
    # Dense past two periods of the residue table, and at a huge level.
    group, t = group_for(name), table_for(name)
    top = 2 * math.lcm(*group.class_orders) + 2
    rec = recursion_oracle(graph_for(name), HUGE_LEVEL)
    assert character_multiplicities(group, t, top) == list(rec.upto(top))
    nodes = range(graph_for(name).size)
    assert tuple(oracle_multiplicity(group, t, HUGE_LEVEL, i) for i in nodes) == rec[HUGE_LEVEL]


@pytest.mark.parametrize("name", CHARACTER_TYPES)
def test_range_oracle_is_the_point_oracle(name):
    group, t = group_for(name), table_for(name)
    top = 2 * math.lcm(*group.class_orders) + 2
    vecs = character_multiplicities(group, t, top)
    assert len(vecs) == top + 1
    for n, vec in enumerate(vecs):
        for i, m in enumerate(vec):
            assert m == oracle_multiplicity(group, t, n, i)


@pytest.mark.parametrize("name", CHARACTER_TYPES)
def test_residue_table_is_the_class_sum(name):
    # Reference: the plain loop over classes, with chi_r unreduced, lifted
    # from (-p/2, p/2).
    group, t = group_for(name), table_for(name)
    p, zetas = group.p, _eigenvalues(group)
    minus = group.class_of[group.minus_identity]
    inverse = group.class_inverse
    assert len(t.residues) == math.lcm(*group.class_orders)
    for r, sums in enumerate(t.residues):
        for node, got in enumerate(sums):
            row = t.rows[node]
            want = sum(
                group.class_sizes[c] * _su2_character(zetas[c], r, p) * row[inverse[c]]
                for c in range(len(group.classes))
                if c not in (0, minus)
            )
            assert got == (want + p // 2) % p - p // 2
            assert abs(got) < p // 2


@pytest.mark.parametrize("name", CHARACTER_TYPES)
def test_point_oracle_runs_no_chebyshev_step(monkeypatch, name):
    group, t = group_for(name), table_for(name)

    def boom(group, weights):
        raise AssertionError("per-class character evaluated after the table was built")

    monkeypatch.setattr(binarygroups, "_residue_sums", boom)
    n = 10**18 + 1
    vec = tuple(oracle_multiplicity(group, t, n, i) for i in range(graph_for(name).size))
    assert sum(m * d for m, d in zip(vec, graph_for(name).marks_ext)) == n + 1


def test_a1_has_no_noncentral_points():
    # A1's group is +-identity: every residue sum is empty and must read 0.
    group, t = group_for("A1"), table_for("A1")
    assert group.order == 2
    assert t.residues == ((0, 0), (0, 0))
    rec = list(recursion_oracle(graph_for("A1"), 40))
    assert character_multiplicities(group, t, 40) == rec
    assert list(group_average(group, 40)) == [vec[0] for vec in rec]


def test_molien_matches_character_path():
    # The group average's base and step rows are the character table's node-0
    # column, entry for entry, so no verify entry compares them: "triple
    # oracle" already compares that column with the Coxeter route's node 0.
    for name in CHARACTER_TYPES:
        group, periods = group_for(name), table_for(name).periods
        e = exponent(group.dtype)
        avg = group_average(group, 2 * e - 1)
        base, step = avg[:e], tuple(y - x for x, y in zip(avg, avg[e:]))
        assert periods.period == e, name
        assert base == tuple(v[0] for v in periods.base), name
        assert step == tuple(d[0] for d in periods.step), name


def test_a_sum_that_does_not_divide_aborts_with_its_stage():
    # Off by one in one residue entry: |F*| no longer divides the total.
    # The table derives its residue sums from its rows, so the doctored ones
    # are seeded into a fresh copy's cache.
    group, t = group_for("E8"), table_for("E8")
    broken = CharacterTable(group, t.rows)
    vars(broken)["residues"] = ((t.residues[0][0] + 1,) + t.residues[0][1:],)
    with pytest.raises(ConsistencyError) as info:
        oracle_multiplicity(group, broken, 0, 0)
    err = info.value
    assert (err.dtype, err.stage, err.invariant) == ("E8", "oracles", None)
    assert str(err) == "E8: multiplicity of node 0 at n=0 is 121/120, not a nonnegative integer"


def test_a_step_that_does_not_divide_is_refused():
    # Node 0 at +identity doctored from 1 to 2, and its residue sums shifted
    # by -(r + 1) so that every level below E keeps its multiplicity: the
    # step E (chi(1) + chi(-1)) / |F*| = 60 * 3 / 120 is not an integer, so
    # level E, the first one past the base, does not divide.  Both are
    # seeded into a fresh copy's cache, as the table derives them.
    group, t = group_for("E8"), table_for("E8")
    broken = CharacterTable(group, t.rows)
    vars(broken).update(
        central=((2, 1),) + t.central[1:],
        residues=tuple((row[0] - (r + 1),) + row[1:] for r, row in enumerate(t.residues)),
    )
    with pytest.raises(ConsistencyError) as info:
        oracle_multiplicity(group, broken, 0, 0)
    err = info.value
    assert (err.dtype, err.stage, err.invariant) == ("E8", "oracles", None)
    assert str(err) == "E8: multiplicity of node 0 at n=60 is 300/120, not a nonnegative integer"


def test_a_negative_step_is_refused():
    # A character -1 at +-identity whose even residue sums are 240 + 2 (r + 1)
    # and odd ones 0: every level 0..2E-1 is a nonnegative integer (2 and 1
    # at even n, 0 at odd n), but the even steps are -1, so level 3E would
    # be negative.
    residues = tuple(((240 + 2 * (r + 1)) if r % 2 == 0 else 0,) for r in range(60))
    with pytest.raises(ConsistencyError) as info:
        binarygroups._period_table(group_for("E8"), ((-1, -1),), residues)
    err = info.value
    assert (err.dtype, err.stage) == ("E8", "oracles")
    assert str(err) == "E8: multiplicity of node 0 has a negative step -1 at residue 0 of period 60"


def test_values_past_the_packed_proof_abort():
    # Residue sums of 2^32 |F*| give node 0 the level 2^32 at every n (steps
    # 0): nonnegative integers, but past the signed 32-bit values the proof
    # packs residue sums in.  Real residue sums lie within p/2.
    residues = tuple((120 * 2**32,) for r in range(60))
    with pytest.raises(ConsistencyError) as info:
        binarygroups._period_table(group_for("E8"), ((0, 0),), residues)
    assert (info.value.dtype, info.value.stage) == ("E8", "oracles")
    assert str(info.value) == "E8: values past the packed fields at period 60"


def test_a_carry_between_packed_fields_is_refused():
    # D6 has |F*| = 16, which divides 2^64: totals (0, 1) at n = 3 pack to
    # 2^64, whose quotient 2^60 sits in the first field although neither
    # total is a multiple of 16.  Only the check that 16 times every
    # quotient field stays below 2^63 tells the two apart.
    residues = tuple((0, 1 if r == 3 else 0) for r in range(8))
    with pytest.raises(ConsistencyError) as info:
        binarygroups._period_table(group_for("D6"), ((0, 0), (0, 0)), residues)
    assert str(info.value) == "D6: multiplicity of node 1 at n=3 is 1/16, not a nonnegative integer"


def test_central_values_that_cancel_across_packed_fields_are_refused():
    # Values 2^64 and -1 at +identity pack to 2^64 - 2^64 = 0: every packed
    # total would be 0 and divide.  But 2^64 / 120 is no multiplicity, so
    # values with E |c| of 2^62 or more skip the packed proof.
    with pytest.raises(ConsistencyError) as info:
        binarygroups._period_table(group_for("E8"), ((2**64, 0), (-1, 0)), ((0, 0),) * 60)
    assert str(info.value) == f"E8: multiplicity of node 0 at n=0 is {2**64}/120, not a nonnegative integer"


def _checked_levels(group, central, residues):
    """Reference for the closed form: the period table of the levels
    0..2E-1, each checked by ``_multiplicity``, refused at its first
    negative step."""
    check = binarygroups._multiplicity
    levels = [
        tuple(check(group, n, c, rest, node) for node, (c, rest) in enumerate(zip(central, row)))
        for n, row in enumerate(residues + residues)
    ]
    table = table_of(levels, len(residues))
    negative = ((r, i) for r, step in enumerate(table.step) for i, d in enumerate(step) if d < 0)
    if miss := next(negative, None):
        r, i = miss
        problem = f"multiplicity of node {i} has a negative step {table.step[r][i]}"
        raise ConsistencyError(f"{group.dtype}: {problem} at residue {r} of period {len(residues)}")
    return table


@pytest.mark.parametrize("name", (*CHARACTER_TYPES, "A71", "D71"))
def test_closed_form_tables_are_the_checked_levels(name):
    group, t = group_for(name), table_for(name)
    want = _checked_levels(group, t.central, t.residues)
    assert (t.periods.base, t.periods.step, t.periods.order) == (want.base, want.step, want.order)
    rest = _residue_sums(group, [(size,) for size in group.class_sizes])
    molien = binarygroups._period_table(group, ((1, 1),), rest)
    want = _checked_levels(group, ((1, 1),), rest)
    assert (molien.base, molien.step, molien.order) == (want.base, want.step, want.order)
    assert group_average(group, 2 * len(rest) - 1) == tuple(v[0] for v in want)


#: E8 node 0's values at +-identity, doctored: each breaks a step row of
#: one parity or a level past the base, or keeps every level.
_DOCTORED_CENTRAL = [(2, 1), (0, 1), (1, 0), (1, 3), (-1, -1), (-3, 1), (3, -5), (1, 1), (0, 0)]


@pytest.mark.parametrize("central", _DOCTORED_CENTRAL)
@pytest.mark.parametrize("bump", [{}, {7: 1}, {5: -120}])
def test_the_closed_form_refuses_as_the_checked_levels_do(central, bump):
    # Node 0 of E8 with doctored values at +-identity, its residue sums
    # shifted so that every level below E keeps its multiplicity: only a
    # step or a level past the base can fail.  A bump adds to one residue
    # sum as well, so that its level fails first: level 7 does not divide,
    # and level 5 (multiplicity 0) becomes -1.  The closed form must pass
    # exactly when the checked levels do, and else raise their error.
    group, t = group_for("E8"), table_for("E8")
    (plus, minus), (p0, m0) = central, t.central[0]
    shift = [(r + 1) * (plus - p0 + (-1) ** r * (minus - m0)) - bump.get(r, 0) for r in range(60)]
    residues = tuple((row[0] - d,) + row[1:] for row, d in zip(t.residues, shift))
    args = (group, (central,) + t.central[1:], residues)
    try:
        want = _checked_levels(*args)
    except ConsistencyError as err:
        with pytest.raises(ConsistencyError) as info:
            binarygroups._period_table(*args)
        assert str(info.value) == str(err)
        assert (info.value.dtype, info.value.stage) == ("E8", "oracles")
    else:
        got = binarygroups._period_table(*args)
        assert (got.base, got.step) == (want.base, want.step)


@pytest.mark.parametrize("name", ["A71", "D71"])
def test_packed_residue_sums_are_the_plain_sums(name):
    # Reference: the plain sum over classes per entry, chi_r(c) from the
    # recurrence, for the table's weights and Molien's.
    group, graph = group_for(name), graph_for(name)
    p, minus, inverse = group.p, group.class_of[group.minus_identity], group.class_inverse
    nodes = binarygroups._irreducibles(group, graph)
    sizes = group.class_sizes
    for weights in (
        [tuple(size * row[inverse[c]] for row in nodes) for c, size in enumerate(sizes)],
        [(size,) for size in sizes],
    ):
        want = []
        for r in range(exponent(group.dtype)):
            chis = {}
            for c, t in enumerate(group.class_traces):
                a, b = 1, t
                for _ in range(r):
                    a, b = b, (t * b - a) % p
                chis[c] = a
            noncentral = [c for c in range(len(group.classes)) if c not in (0, minus)]
            want.append(tuple(
                (sum(chis[c] * weights[c][k] for c in noncentral) + p // 2) % p - p // 2
                for k in range(len(weights[0]))
            ))
        assert _residue_sums(group, weights) == tuple(want)


def test_a_modulus_whose_sums_pass_one_word_aborts():
    # A modulus near 2^61 needs fields of 2 * 61 + bits(5) + 1 = 126 bits
    # for E6's five non-central classes: past one 64-bit word, so the
    # residue sums refuse it rather than let a field carry.  E6's traces are
    # the integers 2, -2, 0 and +-1, the same under either modulus.  The
    # copy's elements hold no (p-1, 0, 0, p-1) for the new p, so -identity
    # is seeded beside the traces.
    group = group_for("E6")
    big = replace(group, p=2**61 - 1)
    vars(big).update(
        class_traces=tuple(binarygroups._lift(t, group.p) % big.p for t in group.class_traces),
        minus_identity=group.minus_identity,
    )
    weights = [(size, -3 * size, 7) for size in group.class_sizes]
    with pytest.raises(ConsistencyError) as info:
        _residue_sums(big, weights)
    assert (info.value.dtype, info.value.stage) == ("E6", "character_table")
    assert str(info.value) == f"E6: sums of 5 products mod {2**61 - 1} need 126-bit fields, past 64"


def test_a_class_whose_powers_never_reach_the_identity_aborts():
    # E6's class 2 has order 6; with its representative squared to itself
    # the walk passes the exponent 12 without reaching the identity.  The
    # copy would derive its classes from the doctored columns, so the
    # group's own are seeded into its cache.
    group = group_for("E6")
    rep = group.classes[2][0]
    bent = replace(group, columns=doctored_columns(group, {(rep, rep): rep}))
    vars(bent)["classes"] = group.classes
    with pytest.raises(ConsistencyError) as info:
        bent.class_orders
    assert (info.value.dtype, info.value.stage) == ("E6", "build_group")
    assert str(info.value) == "E6: class 2: no power up to 12 of its representative is the identity"


#: Steps of E past p0 = 2 |F*| E MAX_DEGREE + 1 that the prime search takes.
PRIME_SEARCH_STEPS = {
    "A1": 2, "A3": 0, "A5": 0, "A7": 0, "A9": 0, "A11": 1, "A13": 2,
    "D4": 1, "D5": 1, "D6": 2, "D7": 0, "D8": 0, "D9": 1, "D10": 7, "D11": 3, "D12": 0,
    "E6": 0, "E7": 2, "E8": 1, "A71": 4, "D71": 3,
}  # fmt: skip


def test_the_prime_search_steps_are_the_documented_ones():
    for name, steps in PRIME_SEARCH_STEPS.items():
        group, e = group_for(name), exponent(group_for(name).dtype)
        start = 2 * group.order * e * binarygroups.MAX_DEGREE + 1
        assert divmod(group.p - start, e) == (steps, 0), name
    assert max(PRIME_SEARCH_STEPS.values()) < binarygroups.PRIME_STEPS


def test_the_prime_search_gives_up_past_its_cap(monkeypatch):
    # D10 starts at p0 = 2 * 32 * 16 * 6 + 1 = 6145 and needs 7 steps of 16.
    params = bundle("D10").params
    monkeypatch.setattr(binarygroups, "PRIME_STEPS", 7)
    assert binarygroups.build_group("D10", params).p == 6257
    monkeypatch.setattr(binarygroups, "PRIME_STEPS", 6)
    with pytest.raises(ConsistencyError) as info:
        binarygroups.build_group("D10", params)
    assert (info.value.dtype, info.value.stage) == ("D10", "build_group")
    assert str(info.value) == "D10: no prime p = 1 (mod 16) within 6 steps of 6145"


@pytest.mark.parametrize("name", CHARACTER_TYPES)
def test_levels_are_read_without_a_check(monkeypatch, name):
    # character_table proved the period table; no level divides again.
    group, t = group_for(name), table_for(name)
    assert "periods" in vars(t)

    def boom(*args):
        raise AssertionError("a level was checked after the table was proved")

    monkeypatch.setattr(binarygroups, "_multiplicity", boom)
    top = 3 * len(t.residues)
    vecs = character_multiplicities(group, t, top)
    assert vecs == list(recursion_oracle(graph_for(name), top))
    n = 10**100
    assert tuple(oracle_multiplicity(group, t, n, i) for i in range(len(t.central))) == (
        recursion_oracle(graph_for(name), n)[n]
    )


def test_a_class_with_no_eigenvalue_of_its_order_aborts():
    # Add 1 to one class representative's top-left entry: its trace goes
    # from 1 to 2, the roots of x^2 - t x + 1 do not have the class's order
    # 6, and chi_n = n + 1 at t = 2 has no period.
    group, graph = group_for("E6"), graph_for("E6")
    rep, p = group.classes[2][0], group.p
    a, b, c, d = group.elements[rep]
    elements = list(group.elements)
    elements[rep] = ((a + 1) % p, b, c, d)
    bent = replace(group, elements=tuple(elements))
    assert group.class_orders[2] == 6 and group.class_traces[2] == 1
    with pytest.raises(ConsistencyError) as info:
        bent.chi_periods  # noqa: B018 - the read runs the check
    err = info.value
    assert (err.dtype, err.stage) == ("E6", "build_group")
    assert str(err) == "E6: class 2: chi_n at trace 2 does not have period 6 dividing 12"
    # The table's walk meets the bent trace before its residue sums do.
    with pytest.raises(ConsistencyError) as info:
        binarygroups.character_table(bent, graph)
    assert (info.value.dtype, info.value.stage) == ("E6", "character_table")


def test_a_class_order_that_does_not_divide_the_exponent_aborts(monkeypatch):
    # With E taken as 4, class 1 (order 4) passes and class 2 (order 6) fails.
    # A fresh group, since the shared one may already hold its chi periods;
    # its class orders are read under the true E, as a build reads them.
    group = binarygroups.build_group("E6", bundle("E6").params)
    assert group.class_orders[1:3] == (4, 6)
    monkeypatch.setattr(binarygroups, "exponent", lambda dtype: 4)
    with pytest.raises(ConsistencyError) as info:
        group.chi_periods  # noqa: B018 - the read runs the check
    err = info.value
    assert (err.dtype, err.stage) == ("E6", "build_group")
    assert str(err) == "E6: class 2: chi_n at trace 1 does not have period 6 dividing 4"


def test_a_class_whose_characters_change_sign_at_its_order_aborts():
    # Negate one representative of order 3: its trace goes from -1 to 1, the
    # trace of an element of order 6, where chi_2 = 0 but chi_3 = -1.
    group = group_for("E6")
    rep, p = group.classes[4][0], group.p
    elements = list(group.elements)
    elements[rep] = tuple(-x % p for x in elements[rep])
    bent = replace(group, elements=tuple(elements))
    assert group.class_orders[4] == 3 and group.class_traces[4] == p - 1
    with pytest.raises(ConsistencyError) as info:
        bent.chi_periods  # noqa: B018 - the read runs the check
    assert (info.value.dtype, info.value.stage) == ("E6", "build_group")
    assert str(info.value) == "E6: class 4: chi_n at trace 1 does not have period 3 dividing 12"


#: sha256 of the character route's output per type, as written by the
#: test below, so that a change to how the tables are computed is proved
#: to change no table.
CHARACTER_ROUTE_SHA256 = {
    "A1": "2e76c6c1001ee3a6249d3d19f52a033c528ff35cec75ca36fa0af60a7becc763",
    "A3": "ae3e600a317771ff4d42edeccec9a73c2ebd3faf5e9c078a84c8fb59aee249e2",
    "A5": "457139c386463b04d45d2c7988cdc5526ddf8f6061f54a063c910046bd05a506",
    "A7": "1b528aced8f23aee962d8721c0f69dcacbab5d587339c380b340990b56dd2199",
    "A9": "845e41a304fa967c5116c665e9e7839abf2bbd7542353e136cf7d58db964dacb",
    "A11": "f05c29d94ff7a76f1bc1a736b2a801eb3a23d1d2f8c9367af1bcd7f1375d3681",
    "A13": "f9f4e200b2167996ed29c79af4bcf76af20ea77847598e98852dfba3270830b2",
    "D4": "2fdf7c4cf265180a669d6ee264399b08766675aaf6111370d6ef593a80e79ecc",
    "D5": "ecd1cf7aa0c517853338f92f9df8065f3c1df2e850b34df807233e6b94da6c88",
    "D6": "a787b6fe8d120716c508ce24f41647efba04b9ac43e11c3a70fe1184d879debb",
    "D7": "4872cc8832758e0ce5182b21a7389bf1fa67e78de06f0b5ea5607fc210c3aad4",
    "D8": "06493130dc84618bf461e3ecbc8786a878d9cde34d8d269603f98d54c5dccf5f",
    "D9": "4b0b21b56be5f2467c1c2aa8cedb1fe34098000d4ecddf292791012739b2975f",
    "D10": "a3a878b0cf1469189dbf2eebebdd1e8739d652e38c45ce7dddf5d2cbfc6fedf2",
    "D11": "623d5d931b87e2e3ca0dea4727d6930bc9edff30e67c0356e01896165d05d51c",
    "D12": "0ad6a99d75649df24daabe06ad0c741ed290d4be221f2868a45449e51d409780",
    "E6": "bf03a726f9aa87e55908aaddabf89cb6077ce86a499b1395fa4112b7a327db83",
    "E7": "ee7b73dcfffaf069d519d700ef0e7e937c3bc27dcd5660240d3401351496b362",
    "E8": "33e3cacc8eb8eaafc13a7655b422f2ac552920b7b791b9e92c7ffd3be1e385b4",
}


@pytest.mark.parametrize("name", CHARACTER_TYPES)
def test_character_route_is_pinned_byte_for_byte(name):
    # The digests were taken when the rows were sorted, with a map from each
    # node to its sorted row; both are rebuilt here from the rows by node.
    group, t = group_for(name), table_for(name)
    rows = tuple(sorted(t.rows))
    node_map = tuple(map({row: k for k, row in enumerate(rows)}.__getitem__, t.rows))
    output = (rows, node_map, t.central, t.residues, t.periods.base, t.periods.step)
    digest = hashlib.sha256(repr((*output, group_average(group, 300))).encode()).hexdigest()
    assert digest == CHARACTER_ROUTE_SHA256[name]


def test_group_associativity_sampled():
    g = group_for("E8")
    mult, rng = rows(g), random.Random(20250810)
    for _ in range(300):
        x, y, z = (rng.randrange(g.order) for _ in range(3))
        assert mult[mult[x][y]][z] == mult[x][mult[y][z]]


def test_inverses_total():
    g = group_for("D8")
    mult = rows(g)
    for x in range(g.order):
        assert mult[x][g.inverse[x]] == 0
        assert mult[g.inverse[x]][x] == 0


@pytest.mark.parametrize("name", (*ACCEPTED_TYPES, "A71", "D71"))
def test_derived_facts_meet_their_definitions(name):
    # The group stores its six constructor arguments and derives the rest
    # on first read: a fresh build holds nothing else but the inverses its
    # build reads.  A71's columns are bytes, D71's tuples.
    b = bundle(name)
    g = binarygroups.build_group(name, b.params)
    stored = ("dtype", "p", "elements", "columns", "generator_indices", "non_residue")
    assert tuple(inspect.signature(type(g)).parameters) == stored
    assert tuple(vars(g)) == (*stored, "inverse")
    assert sorted(x for c in g.classes for x in c) == list(range(g.order))
    for x in range(g.order):
        assert g.columns[g.inverse[x]][x] == g.columns[x][g.inverse[x]] == 0
        assert x in g.classes[g.class_of[x]]
        members = set(g.classes[g.class_of[x]])
        assert all(g.columns[g.inverse[y]][g.columns[x][y]] in members for y in range(g.order))
    assert g.elements[g.minus_identity] == (g.p - 1, 0, 0, g.p - 1)


@pytest.mark.parametrize("name", (*ACCEPTED_TYPES, "A71", "D71"))
def test_character_table_derives_all_but_its_rows(name):
    # A fresh table stores its group and rows, and the degrees read off the
    # rows, which are the extended marks node by node; the central values
    # and residue sums are derived from the rows on first read.  Node i's
    # row is row i, so the node map is the identity.
    b = bundle(name)
    group, rows = b.group, b.character_table.rows
    t = CharacterTable(group, rows)
    assert tuple(inspect.signature(CharacterTable).parameters) == ("group", "rows")
    assert tuple(vars(t)) == ("group", "rows", "dims")
    assert t.dims == b.graph.marks_ext and list(t.node_map) == list(range(len(rows)))
    minus, p = group.class_of[group.minus_identity], group.p
    for i, row in enumerate(rows):
        assert t.central[i] == (row[0], binarygroups._lift(row[minus], p))
    inverse = group.class_inverse
    weights = [tuple(n * row[inverse[c]] for row in rows) for c, n in enumerate(group.class_sizes)]
    assert t.residues == _residue_sums(group, weights)
    assert t.periods.base == b.character_table.periods.base


@pytest.mark.parametrize("name", (*CHARACTER_TYPES, "D66", "D67"))
def test_table_is_the_float_product(name):
    # The float quaternion group, closed from the same generators in the same
    # breadth-first order: every all-pairs product, inverse and -identity,
    # looked up by key, is the table's entry.  D66 (256 elements) is the
    # largest table with byte columns, D67 (260) the smallest with tuples.
    g = group_for(name)
    elements, index = _float_closure(g.dtype)
    assert len(elements) == g.order
    assert {type(col) for col in g.columns} == {bytes if g.order <= 256 else tuple}
    for i, (a, row) in enumerate(zip(elements, rows(g))):
        assert row == tuple(index[(a * b).key()] for b in elements)
        assert g.inverse[i] == index[a.conjugate().key()]
    assert g.minus_identity == index[Quaternion(-1.0, 0.0, 0.0, 0.0).key()]


def test_closure_forms_one_product_per_element_and_generator(monkeypatch):
    product, calls = binarygroups._product, []

    def counted(a, b, p):
        calls.append(None)
        return product(a, b, p)

    monkeypatch.setattr(binarygroups, "_product", counted)
    group = binarygroups.build_group("E8", bundle("E8").params)
    assert group.order == 120
    gens = binarygroups.generators(group.dtype, group.p, group.non_residue)
    assert 0 < len(calls) <= group.order * len(gens)


@pytest.mark.parametrize("name", (*CHARACTER_TYPES, "A71", "D71"))
def test_generator_indices_index_the_generators(name):
    group = group_for(name)
    gens = binarygroups.generators(group.dtype, group.p, group.non_residue)
    assert tuple(group.elements[k] for k in group.generator_indices) == gens


def test_a_diagram_walk_past_its_size_aborts():
    # The last row dropped, so the rows name one node more than they hold: the
    # walk reaches that node, which has no row, and aborts before reading it.
    group, graph = group_for("E6"), graph_for("E6")
    short = replace(graph, adjacency=graph.adjacency[:-1])
    with pytest.raises(ConsistencyError) as info:
        binarygroups._irreducibles(group, short)
    err = info.value
    assert (str(err), err.dtype, err.stage) == (
        "E6: the diagram walk passes 6 nodes", "E6", "character_table"
    )


@pytest.mark.parametrize("p", [53, 7681, 65537, 86461])
def test_sqrt_mod_finds_a_root_of_every_square(p):
    # 7681 - 1 = 15 * 2^9 and 65537 - 1 = 2^16 take several Tonelli-Shanks rounds.
    rng = random.Random(p)
    for a in (0, 1, p - 1, *(rng.randrange(p) for _ in range(200))):
        root = binarygroups._sqrt_mod(a, p, binarygroups._non_residue(p))
        if pow(a, (p - 1) // 2, p) == p - 1:
            assert root is None
        else:
            assert root * root % p == a


@pytest.mark.parametrize("p", [1201, 3121, 7681])
def test_sqrt_mod_with_a_residue_for_z_gives_a_root_or_none(p):
    # Tonelli-Shanks needs z to be a non-residue.  With a residue the rounds
    # stop at their bound: a true root or None, never an exception.
    rng = random.Random(p)
    results = []
    for _ in range(240):
        a, z = (rng.randrange(1, p) ** 2 % p for _ in range(2))
        root = binarygroups._sqrt_mod(a, p, z)
        assert root is None or root * root % p == a
        results.append(root)
    assert None in results


def test_a_missing_generator_root_fails_the_group_build(monkeypatch):
    monkeypatch.setattr(binarygroups, "_sqrt_mod", lambda *args: None)
    with pytest.raises(ConsistencyError) as info:
        binarygroups.build_group("E8", bundle("E8").params)
    assert (info.value.dtype, info.value.stage) == ("E8", "build_group")
    assert str(info.value).startswith("E8: -1 has no square root mod ")


def _scaled(group, *terms):
    """sum_k m_k row_k mod p for the (m_k, row_k) in ``terms``."""
    return [sum(m * row[c] for m, row in terms) % group.p for c in range(len(group.classes))]


def test_split_separates_every_pair_of_e8_irreducibles():
    group, rows = group_for("E8"), table_for("E8").rows
    for a, chi_a in enumerate(rows):
        for chi_b in rows[a:]:
            parts = binarygroups._split(group, _scaled(group, (1, chi_a), (1, chi_b)))
            assert sorted(parts) == sorted({chi_a, chi_b})


def test_split_of_e8_triples_needs_a_class_with_two_eigenvalues():
    # A class sum C acts on chi as w(C) = |C| chi(C) / chi(1).  A triple splits
    # when some class has exactly two eigenvalues on it; a class with three is
    # passed over, and a triple with no class of two is refused.
    group, rows = group_for("E8"), sorted(table_for("E8").rows)
    p, sizes = group.p, group.class_sizes
    passed_over = 0
    for triple in itertools.combinations(rows, 3):
        counts = [
            len({n * chi[c] * pow(chi[0], -1, p) % p for chi in triple})
            for c, n in enumerate(sizes)
        ]
        psi = _scaled(group, *((1, chi) for chi in triple))
        if 2 in counts:
            assert sorted(binarygroups._split(group, psi)) == sorted(triple)
            passed_over += next(k for k in counts if k > 1) == 3
        else:
            with pytest.raises(ConsistencyError, match="no class sum has two eigenvalues"):
                binarygroups._split(group, psi)
    assert passed_over
    # No class splits this sum either; its norm 4 and degree 12 are those of
    # 2 chi with chi(1) = 6, and it is refused all the same.
    assert [rows[k][0] for k in (0, 3, 4, 7)] == [1, 3, 3, 5]
    with pytest.raises(ConsistencyError, match="no class sum has two eigenvalues"):
        binarygroups._split(group, _scaled(group, *((1, rows[k]) for k in (0, 3, 4, 7))))


def test_split_needs_two_classes_for_the_three_d4_linear_characters():
    group, rows = group_for("D4"), table_for("D4").rows
    linear = [row for row in rows if row[0] == 1 and row != (1,) * len(row)]
    assert len(linear) == 3
    psi = _scaled(group, *((1, row) for row in linear))
    assert sorted(binarygroups._split(group, psi)) == linear


@pytest.mark.parametrize("row", range(14))
def test_split_returns_chi_from_twice_chi(row):
    # 2 chi has norm 4: no class sum moves its line, and m = 2.
    group, chi = group_for("A13"), table_for("A13").rows[row]
    assert binarygroups._split(group, _scaled(group, (2, chi))) == [chi]


@pytest.mark.parametrize(
    "terms",
    [((1, 1), (-1, 2)), ((-1, 4),), ((2, 5), (-1, 8)), ((3, 3), (1, 6), (-1, 7))],
    ids=["a-b", "-a", "2a-b", "3a+b-c"],
)
def test_split_refuses_a_virtual_character_with_a_negative_part(terms):
    group, rows = group_for("E8"), table_for("E8").rows
    psi = _scaled(group, *((m, rows[k]) for m, k in terms))
    with pytest.raises(ConsistencyError) as info:
        binarygroups._split(group, psi)
    assert (info.value.dtype, info.value.stage) == ("E8", "character_table")
    assert "not a nonnegative sum of irreducibles" in str(info.value)


def test_split_refuses_a_class_function_that_is_no_virtual_character():
    # The identity class's indicator is sum chi(1) chi / |F*|.
    group = group_for("E8")
    with pytest.raises(ConsistencyError) as info:
        binarygroups._split(group, [1] + [0] * (len(group.classes) - 1))
    assert (info.value.dtype, info.value.stage) == ("E8", "character_table")


def test_a_peel_short_of_rows_aborts(monkeypatch):
    # A _split that drops a part leaves some node without its row.
    group, graph = group_for("E7"), graph_for("E7")
    split = binarygroups._split
    monkeypatch.setattr(binarygroups, "_split", lambda g, psi: split(g, psi)[:1])
    with pytest.raises(ConsistencyError) as info:
        binarygroups.character_table(group, graph)
    assert (info.value.dtype, info.value.stage) == ("E7", "character_table")


@pytest.mark.parametrize("name", ["A71", "D71"])
def test_rows_at_the_rank_cap_pass_the_registry_check(name):
    passed, detail = _character_table(bundle(name))
    assert passed, detail


@pytest.mark.parametrize("name", CHARACTER_TYPES)
def test_match_nodes_rebuilds_the_node_map(name):
    # McKay's identity at every node, row x being node x's character:
    # chi_1 chi_x = sum_y adj[x][y] chi_y mod p, chi_1 the trace of each
    # class's representative.
    group, graph, table = group_for(name), graph_for(name), table_for(name)
    p = group.p
    chi_1 = [(a + d) % p for a, _, _, d in (group.elements[k] for k in group.representatives)]
    chi = table.rows
    for x, line in enumerate(graph.adjacency):
        for c, t in enumerate(chi_1):
            assert (t * chi[x][c] - sum(k * chi[y][c] for y, k in enumerate(line))) % p == 0


def _doctored(name, *edges):
    """The type's extended diagram with each edge (i, j, k) set to k both
    ways."""
    graph = graph_for(name)
    adjacency = [list(row) for row in graph.adjacency]
    for i, j, k in edges:
        adjacency[i][j] = adjacency[j][i] = k
    return replace(graph, adjacency=tuple(map(tuple, adjacency)))


def test_match_nodes_refuses_a_flipped_tensor_entry():
    graph = graph_for("E8")
    far = graph.adjacency[0].index(0, 1)  # a node not next to node 0
    with pytest.raises(ConsistencyError) as info:
        binarygroups.character_table(group_for("E8"), _doctored("E8", (0, far, 1)))
    assert info.value.stage == "character_table"
    assert str(info.value) == "E8: tensor adjacency does not match the extended diagram"


def test_match_nodes_refuses_a_disconnected_diagram():
    cut = _doctored("E8", *((0, j, 0) for j in range(graph_for("E8").size)))  # cut node 0 off
    with pytest.raises(ConsistencyError) as info:
        binarygroups.character_table(group_for("E8"), cut)
    assert info.value.stage == "character_table"
    assert str(info.value) == "E8: extended diagram is not connected"
