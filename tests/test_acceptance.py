"""Acceptance criteria, one test per criterion.

Every criterion is exact integer equality; the character-theoretic path
computes in F_p and lifts each sum exactly (the library aborts if a
lifted sum is not a nonnegative integer multiplicity).
Each test prints one PASS line on success; pytest -v shows one line per
criterion either way.
"""

import random

from su2branch.binarygroups import character_multiplicities, molien_series
from su2branch.coxeter import perm_power
from su2branch.invariants import (
    GOLDEN_E8_Z,
    LONGEST_ELEMENT,
    Session,
    expected_params,
    special_z_closed_form,
)
from su2branch.mckay import recursion_oracle
from su2branch.seriescalc import poly, series_div_geom, sparse_items
from su2branch.verify import ACCEPTED_TYPES, run_all
from su2branch.cli import main

from conftest import (
    bundle,
    graph_for,
    group_for,
    monomial,
    poly_add,
    poly_mul,
    poly_truncate,
    table_for,
)

SERIES_ORDER = 200
CHAR_ORDER = SERIES_ORDER

# Golden E8 numerators, keyed by (mark, distance to the affine attachment
# point); single coefficient 2 at t^15 for the mark-6 node, all else 0/1.
GOLDEN = {
    (2, 0): {1: 1, 11: 1, 19: 1, 29: 1},
    (3, 1): {2: 1, 10: 1, 12: 1, 18: 1, 20: 1, 28: 1},
    (4, 2): {3: 1, 9: 1, 11: 1, 13: 1, 17: 1, 19: 1, 21: 1, 27: 1},
    (5, 3): {4: 1, 8: 1, 10: 1, 12: 1, 14: 1, 16: 1, 18: 1, 20: 1, 22: 1, 26: 1},
    (6, 4): {5: 1, 7: 1, 9: 1, 11: 1, 13: 1, 15: 2, 17: 1, 19: 1, 21: 1, 23: 1, 25: 1},
    (4, 5): {6: 1, 8: 1, 12: 1, 14: 1, 16: 1, 18: 1, 22: 1, 24: 1},
    (2, 6): {7: 1, 13: 1, 17: 1, 23: 1},
    (3, 5): {6: 1, 10: 1, 14: 1, 16: 1, 20: 1, 24: 1},
}


def test_criterion_1_golden_e8_z_polynomials():
    b = bundle("E8")
    assert GOLDEN == GOLDEN_E8_Z
    for i in b.rs.nodes:
        got = dict(sparse_items(b.zpolys[i]))
        assert got == GOLDEN[b.node_label(i)], f"node {i}"
    print("ACCEPTANCE 1 PASS: all eight E8 numerators match the golden data exactly")


def test_criterion_2_parameter_table():
    for name in ACCEPTED_TYPES:
        b = bundle(name)
        p = b.params
        assert (p.a, p.b, p.h, p.g) == expected_params(b.dtype), name
        assert p.b == p.h + 2 - p.a, name
        group = group_for(name)
        assert p.a * p.b == 2 * group.order, name
    print(f"ACCEPTANCE 2 PASS: (a, b, h, g) and a*b = 2|F*| for {len(ACCEPTED_TYPES)} types")


def test_criterion_3_orbit_structure():
    for name in ACCEPTED_TYPES:
        b = bundle(name)
        h = b.rs.coxeter_number
        g = h // 2
        covered = set()
        for i in b.rs.nodes:
            orbit = b.table.orbits[i - 1]
            assert len(orbit) == len(set(orbit)) == h, name
            assert not (set(orbit) & covered), name
            covered.update(orbit)
            positives = [x for x in orbit if x < b.rs.num_positive]
            assert len(positives) == g, name
            k = b.bp.side(i)
            halves = {
                (b.table.exponent[x] - 1) // 2 if k == 1 else b.table.exponent[x] // 2
                for x in positives
            }
            assert halves == (set(range(g)) if k == 1 else set(range(1, g + 1))), name
        assert len(covered) == len(b.rs.roots), name
        for idx, n in b.table.exponent.items():
            assert n % 2 == b.table.parity[idx] % 2, name
    print("ACCEPTANCE 3 PASS: orbit partition, positive split, bijections, parity")


def test_criterion_4_longest_element_suite():
    for name in ACCEPTED_TYPES:
        b = bundle(name)
        session = Session(b)
        for inv in LONGEST_ELEMENT:
            passed, detail = inv.evaluate(session)
            assert passed, f"{name} {inv.name}: {detail}"
        g = b.rs.coxeter_number // 2
        kappa = perm_power(b.cox.sigma, g)
        assert all(kappa[x] >= b.rs.num_positive for x in range(b.rs.num_positive)), name
    print("ACCEPTANCE 4 PASS: sigma^g acts as the longest element in all types")


def test_criterion_5_heisenberg_cardinalities():
    for name in ACCEPTED_TYPES:
        b = bundle(name)
        h = b.rs.coxeter_number
        assert len(b.heisenberg.roots) == 2 * h - 3, name
        for i in b.rs.nodes:
            z = b.zpolys[i]
            if i == b.params.special:
                assert len(b.heisenberg.slices[i]) == b.params.a - 1, name
                assert sum(z) == b.params.a, name
            else:
                assert len(b.heisenberg.slices[i]) == 2 * b.rs.mark(i), name
                assert sum(z) == 2 * b.rs.mark(i), name
        # re-derive the special numerator from the orbit data and compare it
        # against the closed form, independently of the build-time check
        star = b.params.special
        coeffs = [0] * h
        coeffs[b.params.g] = 2
        for r in b.heisenberg.slices[star]:
            if r != b.rs.highest_root:
                coeffs[b.table.exponent[b.rs.index_of(r)]] += 1
        assert poly(coeffs) == special_z_closed_form(b.params) == b.zpolys[star], name
        padded = tuple(b.zpolys[star]) + (0,) * (2 * b.params.g + 1 - len(b.zpolys[star]))
        assert padded == padded[::-1], name
    print("ACCEPTANCE 5 PASS: |Phi| = 2h-3, slice sizes, z(1) values, closed form")


def test_criterion_6_triple_oracle_equality():
    for name in ACCEPTED_TYPES:
        b = bundle(name)
        graph = graph_for(name)
        rec = recursion_oracle(graph, SERIES_ORDER)
        series = [b.series(i, SERIES_ORDER) for i in range(graph.size)]
        for n in range(SERIES_ORDER + 1):
            for i in range(graph.size):
                assert series[i][n] == rec[n][i], f"{name} n={n} node={i}"
        chars = character_multiplicities(group_for(name), table_for(name), CHAR_ORDER)
        for n in range(CHAR_ORDER + 1):
            assert chars[n] == rec[n], f"{name} n={n}"
    print(
        f"ACCEPTANCE 6 PASS: series == recursion to n={SERIES_ORDER}, "
        f"== characters to n={CHAR_ORDER}, all types, all nodes"
    )


def test_criterion_7_sum_rule_and_parity():
    for name in ACCEPTED_TYPES:
        b = bundle(name)
        marks = (1,) + b.rs.marks
        size = b.rs.rank + 1
        series = [b.series(i, SERIES_ORDER) for i in range(size)]
        for n in range(SERIES_ORDER + 1):
            assert sum(marks[i] * series[i][n] for i in range(size)) == n + 1, name
        for i in range(size):
            k = b.node_parity(i)
            for n, c in enumerate(series[i]):
                if n % 2 != k % 2:
                    assert c == 0, f"{name} node {i} n={n}"
    print(f"ACCEPTANCE 7 PASS: dimension sum rule and parity vanishing to n={SERIES_ORDER}")


def test_criterion_8_invariant_molien_series():
    for name in ACCEPTED_TYPES:
        b = bundle(name)
        avg = molien_series(group_for(name), CHAR_ORDER)
        assert avg == b.series(0, CHAR_ORDER), name
    print(f"ACCEPTANCE 8 PASS: group-averaged Molien values match m(t)_0 to n={CHAR_ORDER}")


def test_criterion_9_property_suite(capsys):
    # 1. division round-trip on 100 random polynomials
    rng = random.Random(20250810)
    for _ in range(100):
        z = poly([rng.randint(-9, 9) for _ in range(rng.randint(0, 40))])
        a = rng.randint(1, 12)
        b = rng.randint(1, 12)
        order = rng.randint(0, 80)
        series = series_div_geom(z, a, b, order)
        denom = poly_mul(
            poly_add(monomial(0), monomial(a, -1)),
            poly_add(monomial(0), monomial(b, -1)),
        )
        back = poly_mul(poly(series), denom)
        assert poly_truncate(back, order) == poly_truncate(z, order)

    # 2. the recursion oracle never yields a negative entry (it aborts if it
    # would; run it at full depth everywhere)
    for name in ACCEPTED_TYPES:
        for vec in recursion_oracle(graph_for(name), SERIES_ORDER):
            assert all(c >= 0 for c in vec)

    # 3. verify --all is byte-identical across two runs and fully green
    code1 = main(["verify"])
    out1 = capsys.readouterr().out
    code2 = main(["verify"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    assert "FAIL" not in out1
    assert all(c.passed for c in run_all())
    print(
        "ACCEPTANCE 9 PASS: 100 round-trips, nonnegative recursion, deterministic verify"
    )
