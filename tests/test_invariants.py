"""The invariant registry: enforced at construction, reported by verify."""

import itertools
import json
import operator
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from su2branch import binarygroups, branching, invariants, mckay
from su2branch.branching import Branching, HeisenbergSubsystem
from su2branch.coxeter import Bipartition, perm_compose
from su2branch.cli import MAX_RANK, main
from su2branch.errors import ConsistencyError
from su2branch.invariants import HUGE_LEVEL, INVARIANTS, ORACLES, Invariant, registry
from su2branch.rootsys import DiagramType, build_root_system
from su2branch.seriescalc import PeriodTable, poly
from su2branch.verify import ACCEPTED_TYPES, run_type_checks

from conftest import bundle, doctored_columns, inner, replace, rows

FIXTURES = Path(__file__).with_name("fixtures")

ENFORCED = (
    "root counts",
    "bipartition",
    "special node side",
    "coxeter order",
    "orbit partition",
    "orbit exponents",
    "heisenberg subsystem",
    "numerator polynomials",
    "branch parameters",
    "extended graph",
)


def _bump(z):
    """The numerator with one more t^1 term."""
    return (z[0], z[1] + 1) + z[2:]


def test_registry_names_are_unique_and_enforced_as_documented():
    names = [inv.name for inv in INVARIANTS]
    assert len(names) == len(set(names))
    assert tuple(inv.name for inv in INVARIANTS if inv.enforced) == ENFORCED


def _forbid_group_build(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("the group was built")

    monkeypatch.setattr(binarygroups, "build_group", boom)


def test_construction_never_builds_the_group(monkeypatch):
    _forbid_group_build(monkeypatch)
    assert Branching.build("E8").params.order_fstar == 120


def test_coxeter_and_recursion_never_build_the_group(monkeypatch):
    _forbid_group_build(monkeypatch)
    b = Branching.build("E7")
    for n in (0, 17, HUGE_LEVEL):
        assert b.vector(n, "coxeter") == b.vector(n, "recursion")


def test_the_default_oracle_is_coxeter(monkeypatch):
    # ORACLES[0] is the CLI's default too; neither default builds the group.
    _forbid_group_build(monkeypatch)
    b = Branching.build("E7")
    assert ORACLES[0] == "coxeter"
    assert b.periods() is b.periods("coxeter")
    for n in (0, 17, HUGE_LEVEL):
        assert b.vector(n) == b.vector(n, "coxeter")


@pytest.mark.parametrize("oracle", ["characters", "recursion", "coxeter"])
def test_negative_level_is_rejected_before_any_build(monkeypatch, oracle):
    _forbid_group_build(monkeypatch)
    b = Branching.build("E8")
    with pytest.raises(ValueError, match="n must be nonnegative"):
        b.vector(-1, oracle)


def test_unknown_oracle_is_a_value_error(monkeypatch):
    _forbid_group_build(monkeypatch)
    b = Branching.build("A3")
    for read in (lambda: b.periods("bogus"), lambda: b.vector(5, "bogus")):
        with pytest.raises(ValueError, match="unknown oracle 'bogus'"):
            read()


def test_corrupted_numerator_fails_construction():
    b = bundle("E8")
    zpolys = dict(b.zpolys)
    zpolys[7] = _bump(zpolys[7])
    with pytest.raises(ConsistencyError) as info:
        Branching(
            rs=b.rs,
            bp=b.bp,
            cox=b.cox,
            table=b.table,
            params=b.params,
            heisenberg=b.heisenberg,
            zpolys=zpolys,
        )
    err = info.value
    assert err.invariant == "numerator polynomials"
    assert err.dtype == "E8"
    assert err.stage == "z_polynomial"
    assert str(err) == "E8 numerator polynomials: numerator 7 sums to 5"


@pytest.mark.parametrize("name", ["A7", "D5", "E6", "E8"])
def test_a_wrong_parity_term_in_any_numerator_fails_construction(name):
    # One term moved up by one exponent keeps the sum, so the exponent
    # parity fails first.  With a and b even, it is what makes every
    # multiplicity vanish at levels of the other parity.
    b = bundle(name)
    for node in b.rs.nodes:
        z = [*b.zpolys[node], 0]
        e = next(e for e, c in enumerate(z) if c)
        z[e], z[e + 1] = z[e] - 1, z[e + 1] + 1
        with pytest.raises(ConsistencyError) as info:
            replace(b, zpolys={**b.zpolys, node: poly(z)})
        err = info.value
        assert (err.dtype, err.stage, err.invariant) == (name, "z_polynomial", "numerator polynomials")
        assert str(err) == f"{name} numerator polynomials: numerator {node} breaks exponent parity"


@pytest.mark.parametrize("name,node,old,new", [("E8", 7, 11, 13), ("E6", 1, 4, 6)])
def test_a_numerator_that_breaks_weyl_reciprocity_fails_construction(name, node, old, new):
    # Moving one term by two keeps the sum, the parity, the bounds and the
    # degree, so only the palindrome t^h z(1/t) = z(t) catches it.
    b = bundle(name)
    z = list(b.zpolys[node])
    z[old], z[new] = 0, 1
    with pytest.raises(ConsistencyError) as info:
        replace(b, zpolys={**b.zpolys, node: tuple(z)})
    err = info.value
    assert (err.dtype, err.stage, err.invariant) == (name, "z_polynomial", "numerator polynomials")
    assert str(err) == f"{name} numerator polynomials: numerator {node} is not palindromic of degree h"


def test_broken_stage_is_reported_under_its_invariant(monkeypatch, capsys):
    build_z = branching.z_polynomial

    def corrupted(rs, table, hs, params, node):
        z = build_z(rs, table, hs, params, node)
        return _bump(z) if node == 7 else z

    monkeypatch.setattr(branching, "z_polynomial", corrupted)
    checks = run_type_checks("E8")
    assert [(c.name, c.passed) for c in checks] == [("E8 numerator polynomials", False)]
    assert "numerator 7 sums to 5" in checks[0].detail
    assert main(["verify", "--type", "E8"]) == 1
    assert capsys.readouterr().out.startswith("FAIL  E8 numerator polynomials")


def test_short_group_closure_is_reported_by_group_sanity(monkeypatch):
    # One generator, i, closes to the cyclic group of order 4, not the 120 of E8.
    gens = binarygroups.generators
    monkeypatch.setattr(binarygroups, "generators", lambda dtype, p, z: gens(dtype, p, z)[:1])
    checks = {c.name: c for c in run_type_checks("E8")}
    sanity = checks["E8 group sanity"]
    assert not sanity.passed
    assert sanity.detail == "a*b = 240 but group order is 4"
    # The abelian group of order 4 has 4 classes; the table's raise names its stage.
    problem = "E8: 4 classes but 9 extended nodes"
    assert checks["E8 character table"].detail == f"exception: {problem}"
    with pytest.raises(ConsistencyError) as info:
        Branching.build("E8").character_table  # a fresh bundle, under the patch
    err = info.value
    assert (str(err), err.dtype, err.stage, err.invariant) == (problem, "E8", "character_table", None)


@pytest.mark.parametrize("name", ["A13", "D12", "E8"])
def test_every_swap_in_one_row_of_the_group_table_fails_group_sanity(name):
    # Two entries of the middle row of mult swapped: no such table passes
    # the proof of associativity.  Only the two columns the swap touches are
    # rebuilt, and the copy derives its inverses from the swapped columns.
    b = bundle(name)
    group, (sanity,) = b.group, (inv for inv in INVARIANTS if inv.name == "group sanity")
    x = group.order // 2
    line = rows(group)[x]
    for i, j in itertools.combinations(range(group.order), 2):
        swapped = replace(group, columns=doctored_columns(group, {(x, i): line[j], (x, j): line[i]}))
        passed, detail = sanity.evaluate(SimpleNamespace(group=swapped, params=b.params))
        assert not passed and not detail.startswith("exception"), (i, j, detail)


def _entry(name):
    return next(inv for inv in INVARIANTS if inv.name == name)


def _associativity_by_elements(group):
    """The first failure of group sanity's table checks, walked element by
    element over the table's rows: a reference for the screened entry."""
    mult = rows(group)
    if any(line[0] != x for x, line in enumerate(mult)):
        return "element 0 is not a right identity"
    for g in group.generator_indices:
        for x, line in enumerate(mult):
            if any(mult[xy][g] != line[mult[y][g]] for y, xy in enumerate(line)):
                return f"(x y) g != x (y g) at x = {x}, g = {g}"
    return None


#: Column swaps per type: every one on byte columns, and a fixed sample of
#: D67's 33,670 on tuple columns.
COLUMN_SWAPS = {
    "A13": None, "D12": None, "E6": None,
    "D67": random.Random(67).sample(list(itertools.combinations(range(260), 2)), 200),
}  # fmt: skip


@pytest.mark.parametrize("name", COLUMN_SWAPS)
def test_every_swap_in_one_column_of_the_group_table_fails_group_sanity_as_walked(name):
    # Two entries of one column of the table swapped: the column screen fails,
    # and the entry names the same (x, g) as a walk over every element.
    b = bundle(name)
    group, sanity, j = b.group, _entry("group sanity"), b.group.order // 2
    col = group.columns[j]
    swaps = COLUMN_SWAPS[name] or itertools.combinations(range(group.order), 2)
    for x, y in swaps:
        swapped = replace(group, columns=doctored_columns(group, {(x, j): col[y], (y, j): col[x]}))
        want = _associativity_by_elements(swapped)
        assert want is not None, (x, y)
        passed, detail = sanity.evaluate(SimpleNamespace(group=swapped, params=b.params))
        assert (passed, detail) == (False, want), (x, y)


def test_an_element_without_a_right_inverse_fails_group_sanity_at_its_element():
    # The two-element monoid {e, z}, z z = z, on A1's group and parameters:
    # e is a right identity, z generates, and the table is associative, so
    # every earlier screen passes; z's column holds no identity at all.
    b = bundle("A1")
    monoid = replace(
        b.group, columns=(b"\x00\x01", b"\x01\x01"), classes=((0,), (1,)), generator_indices=(1,)
    )
    with pytest.raises(ValueError):
        monoid.inverse
    passed, detail = _entry("group sanity").evaluate(SimpleNamespace(group=monoid, params=b.params))
    assert (passed, detail) == (False, "inverse fails at 1")


@pytest.mark.parametrize("name", ["D12", "E8"])
def test_every_wrong_inverse_fails_group_sanity_at_its_element(name):
    # The group derives its inverse from the columns, so a wrong one can
    # only be seeded into the copy's cache; the later entries read that
    # inverse, so group sanity must refuse it and name its element.
    b = bundle(name)
    group, sanity = b.group, _entry("group sanity")
    for x in range(group.order):
        inverse = list(group.inverse)
        inverse[x] = (inverse[x] + 1) % group.order
        wrong = replace(group)
        vars(wrong)["inverse"] = tuple(inverse)
        passed, detail = sanity.evaluate(SimpleNamespace(group=wrong, params=b.params))
        assert (passed, detail) == (False, f"inverse fails at {x}")


def test_an_entry_outside_the_group_fails_group_sanity():
    # One entry of the middle column set outside the n elements.  In E8 (byte
    # columns) 120 and 255 stay in a byte column, and 256, 1000 and -1 make
    # it a tuple among bytes; in D67 every column is a tuple.  The range
    # screen names the entry before any gather reads it.
    for name in ("E8", "D67"):
        b = bundle(name)
        group, sanity, j = b.group, _entry("group sanity"), b.group.order // 2
        assert j not in group.generator_indices
        strays = [v for v in (group.order, 255, 256, 1000, -1) if v not in range(group.order)]
        details = {}
        for stray in strays:
            doctored = replace(group, columns=doctored_columns(group, {(7, j): stray}))
            details[stray] = sanity.evaluate(SimpleNamespace(group=doctored, params=b.params))
        want = {v: (False, f"x y = {v} is no element at x = 7, y = {j}") for v in strays}
        assert details == want, name


def _orthogonality_by_pairs(group, rows):
    """The first class pair where column orthogonality fails, one inner
    product at a time: a reference for the packed entry."""
    columns, p, inverse = list(zip(*rows)), group.p, group.class_inverse
    for c1, (col, size) in enumerate(zip(columns, group.class_sizes)):
        for c2 in range(len(group.classes)):
            val = sum(map(operator.mul, col, columns[inverse[c2]])) * size
            if (val - (group.order if c1 == c2 else 0)) % p:
                return f"column orthogonality fails at ({c1}, {c2})"
    return None


@pytest.mark.parametrize("name", ["D5", "E7", "E8"])
def test_every_bumped_entry_in_one_character_row_fails_the_character_table_as_walked(name):
    b = bundle(name)
    group, table, entry = b.group, b.character_table, _entry("character table")
    k = len(table.rows) // 2
    for c in range(len(group.classes)):
        rows = [list(row) for row in table.rows]
        rows[k][c] = (rows[k][c] + 1) % group.p
        bent = replace(table, rows=tuple(map(tuple, rows)))
        want = _orthogonality_by_pairs(group, bent.rows)
        assert want is not None, c
        fake = SimpleNamespace(group=group, character_table=bent, graph=b.graph)
        assert entry.evaluate(fake) == (False, want), c


@pytest.mark.parametrize("part", [0, 1], ids=["base", "step"])
@pytest.mark.parametrize("oracle,label", [("coxeter", "series"), ("recursion", "recursion"),
                                          ("characters", "characters")])
def test_every_bumped_row_of_a_route_fails_the_triple_oracle_at_its_level(oracle, label, part):
    # One entry of one row of one route's E8 table (period 60) bumped: the
    # rows differ, and the walk names the first level, as it always did.
    b = bundle("E8")
    tables = {name: b.periods(name) for name in ORACLES}
    entry, node = _entry("triple oracle"), 4
    for r in range(60):
        bumped = {**tables, oracle: _bump_entry(tables[oracle], r, node, part)}
        fake = SimpleNamespace(periods=bumped.__getitem__, graph=b.graph)
        n = r + 60 * part
        v = tables["recursion"].level(n)[node]
        if oracle == "recursion":
            want = f"series {v} != recursion {v + 1}"
        else:
            want = f"{label} {v + 1} != recursion {v}"
        assert entry.evaluate(fake) == (False, f"{want} at n={n}, node {node}"), r


@pytest.mark.parametrize("part", [0, 1], ids=["base", "step"])
@pytest.mark.parametrize("name", ["D4", "D7", "E8"])
def test_every_bumped_node_0_entry_of_the_characters_fails_the_triple_oracle_at_its_level(
    name, part
):
    # The character route's node-0 column is the group average:
    # a wrong invariant dimension at any residue fails the three-way compare.
    b = bundle(name)
    tables = {oracle: b.periods(oracle) for oracle in ORACLES}
    e, entry = tables["characters"].period, _entry("triple oracle")
    for r in range(e):
        bumped = {**tables, "characters": _bump_entry(tables["characters"], r, 0, part)}
        fake = SimpleNamespace(periods=bumped.__getitem__, graph=b.graph)
        n = r + e * part
        v = tables["recursion"].level(n)[0]
        want = f"characters {v + 1} != recursion {v} at n={n}, node 0"
        assert entry.evaluate(fake) == (False, want), r


@pytest.mark.parametrize("part", [0, 1], ids=["base", "step"])
@pytest.mark.parametrize("name", ["A7", "D5", "E6", "E8"])
def test_every_off_parity_entry_fails_parity_vanishing_at_its_level(name, part):
    # Parity vanishing is no verify entry of its own (acceptance criterion 7
    # states it): a multiplicity 1 at a level of the wrong parity in the
    # Coxeter route fails the triple oracle at that level, where the
    # recursion reads 0.
    b = bundle(name)
    tables = {oracle: b.periods(oracle) for oracle in ORACLES}
    table, entry = tables["coxeter"], _entry("triple oracle")
    for r in range(table.period):
        for node in range(b.graph.size):
            if b.node_parity(node) % 2 == r % 2:
                continue
            bumped = {**tables, "coxeter": _bump_entry(table, r, node, part)}
            fake = SimpleNamespace(periods=bumped.__getitem__, graph=b.graph)
            n = r + table.period * part
            assert bumped["coxeter"].level(n)[node] == 1, (r, node)
            want = f"series 1 != recursion 0 at n={n}, node {node}"
            assert entry.evaluate(fake) == (False, want), (r, node)


@pytest.mark.parametrize("name", ["A5", "D6", "E7"])
def test_every_exponent_moved_in_one_orbit_fails_orbit_exponents(name):
    # One positive root of the last orbit gets exponent n + 2: a repeat, or
    # past h, which the orbit walk names.
    b = bundle(name)
    rs, table, entry = b.rs, b.table, _entry("orbit exponents")
    i, h = rs.rank, rs.coxeter_number
    for x in table.orbits[i - 1]:
        if x >= rs.num_positive:
            continue
        n = table.exponent[x] + 2
        moved = replace(table, exponent={**table.exponent, x: n})
        k = b.bp.side(i)
        want = f"exponent {n} bad for side {k}" if n > h else f"orbit {i} exponent map is not a bijection"
        assert entry.evaluate(SimpleNamespace(rs=rs, bp=b.bp, table=moved)) == (False, want), x


@pytest.mark.parametrize("name", ["A5", "D6", "E8"])
def test_every_root_replaced_in_the_last_orbit_fails_orbit_partition(name):
    # A root of the last orbit replaced by one of the first orbit overlaps,
    # by one of its own orbit shrinks it; a dropped root shortens it.
    b = bundle(name)
    rs, table, entry = b.rs, b.table, _entry("orbit partition")
    i, h = rs.rank, rs.coxeter_number
    last = table.orbits[i - 1]
    for m in range(h):
        cases = [
            (last[:m] + (table.orbits[0][0],) + last[m + 1 :], f"orbit {i} overlaps a previous orbit"),
            (last[:m] + (last[m - 1],) + last[m + 1 :], f"orbit {i} has size {h}"),
            (last[:m] + last[m + 1 :], f"orbit {i} has size {h - 1}"),
        ]
        for orbit, want in cases:
            bent = replace(table, orbits=(*table.orbits[: i - 1], orbit))
            assert entry.evaluate(SimpleNamespace(rs=rs, table=bent)) == (False, want), (m, want)


def test_each_doctored_heisenberg_subsystem_fails_at_its_fact():
    # E8's slices with one member dropped, made negative, listed twice or moved:
    # each breaks one fact of the entry, which names it.
    b = bundle("E8")
    slices, entry = b.heisenberg.indices, _entry("heisenberg subsystem")
    first, second = slices[1], slices[2]
    cases = {
        "56 roots, expected 57": {1: first[1:]},
        "subsystem contains a negative root": {1: (first[0] + b.rs.num_positive, *first[1:])},
        "slices do not partition the subsystem": {1: (second[0], *first[1:])},
        f"slice 1 has {len(first) - 1} roots, expected {len(first)}": {
            1: first[1:], 2: (*second, first[0])
        },
    }
    for want, changed in cases.items():
        doctored = HeisenbergSubsystem({**slices, **changed})
        bent = SimpleNamespace(heisenberg=doctored, rs=b.rs, params=b.params)
        assert entry.evaluate(bent) == (False, want)


def test_a_generator_walk_past_the_group_order_fails_group_sanity():
    # The last element dropped: the order reads 119, with a*b to match, but
    # the full table's generators still reach 120 elements.
    b = bundle("E8")
    (sanity,) = (inv for inv in INVARIANTS if inv.name == "group sanity")
    short = replace(b.group, elements=b.group.elements[:-1])
    params = SimpleNamespace(a=2, b=short.order)
    passed, detail = sanity.evaluate(SimpleNamespace(group=short, params=params))
    assert (passed, detail) == (False, "the generator walk passes 119 elements")


TABLE_READERS = ["character table", "triple oracle", "huge-level triple oracle"]


@pytest.mark.parametrize(
    "stage,failing",
    [
        ("build_group", ["group sanity", *TABLE_READERS]),
        ("character_table", TABLE_READERS),
    ],
)
def test_failed_group_build_runs_once(monkeypatch, stage, failing):
    def boom(*args):
        raise ConsistencyError("boom")

    monkeypatch.setattr(binarygroups, stage, boom)
    b = Branching.build("E8")
    results = [(inv.name, inv.evaluate(b)) for inv in registry("E8")]
    with pytest.raises(ConsistencyError, match="boom"):
        b.character_table  # nothing kept: the build runs again and fails again
    assert [(name, detail) for name, (passed, detail) in results if not passed] == [
        (name, "exception: boom") for name in failing
    ]


def _one_generator(monkeypatch):
    """Groups that record only their first generator: "group sanity" alone
    reads the generators, and D4's first, i, reaches 4 of the 8 elements."""
    build = binarygroups.build_group

    def short(*args):
        group = build(*args)
        return replace(group, generator_indices=group.generator_indices[:1])

    monkeypatch.setattr(binarygroups, "build_group", short)


def test_failed_audit_entry_is_one_fail_line(monkeypatch):
    _one_generator(monkeypatch)
    checks = run_type_checks("D4")
    assert [c.name for c in checks if not c.passed] == ["D4 group sanity"]
    assert len(checks) == len(registry("D4"))


def test_failed_records_carry_stage_and_invariant(monkeypatch, capsys):
    _one_generator(monkeypatch)
    assert main(["verify", "--type", "D4", "--json"]) == 1
    records = json.loads(capsys.readouterr().out)["checks"]
    failed = [r for r in records if not r["passed"]]
    assert failed == [
        {
            "name": "D4 group sanity",
            "passed": False,
            "detail": "4 elements are not words in the generators",
            "stage": "build_group",
            "invariant": "group sanity",
        }
    ]
    assert all(set(r) == {"name", "passed", "detail"} for r in records if r["passed"])


def test_failed_construction_record_carries_the_errors_fields(monkeypatch, capsys):
    build_z = branching.z_polynomial
    monkeypatch.setattr(
        branching,
        "z_polynomial",
        lambda rs, table, hs, params, node: _bump(build_z(rs, table, hs, params, node)),
    )
    assert main(["verify", "--type", "A3", "--json"]) == 1
    (record,) = json.loads(capsys.readouterr().out)["checks"]
    assert (record["name"], record["stage"], record["invariant"]) == (
        "A3 numerator polynomials",
        "z_polynomial",
        "numerator polynomials",
    )


def test_each_entry_is_evaluated_once_per_run(monkeypatch):
    calls, evaluate = [], Invariant.evaluate

    def counted(self, b):
        calls.append(self.name)
        return evaluate(self, b)

    monkeypatch.setattr(Invariant, "evaluate", counted)
    assert all(c.passed for c in run_type_checks("E8"))
    assert sorted(calls) == sorted(inv.name for inv in registry("E8"))


def _bump_entry(table, r, node=0, part=1):
    """The period table with one more at step[r][node] (``part`` 0: base)."""
    rows = (table.base, table.step)[part]
    row = rows[r][:node] + (rows[r][node] + 1,) + rows[r][node + 1 :]
    bumped = rows[:r] + (row,) + rows[r + 1 :]
    base, step = (bumped, table.step) if part == 0 else (table.base, bumped)
    return PeriodTable(base, step, table.order)


def test_characters_are_checked_at_the_full_depth(monkeypatch):
    # Node 0's step 1 of the character table (the group average's) bumped:
    # D4 has 2L = 8, and step 1 first shows at n = 1 + 4, below 8.
    real = binarygroups._period_table
    monkeypatch.setattr(binarygroups, "_period_table", lambda *args: _bump_entry(real(*args), 1))
    failed = {c.name: c.detail for c in run_type_checks("D4") if not c.passed}
    assert list(failed) == ["D4 triple oracle", "D4 huge-level triple oracle"]
    assert failed["D4 triple oracle"] == "characters 1 != recursion 0 at n=5, node 0"


@pytest.mark.parametrize("part,level", [(0, 59), (1, 119)])
@pytest.mark.parametrize("oracle", invariants.ORACLES)
def test_the_last_residue_is_checked_in_base_and_step(monkeypatch, oracle, part, level):
    # Every E8 table has period L = 60: base[L - 1] is level L - 1, and
    # step[L - 1] first shows at level 2L - 1, the last one read.
    periods = Branching.periods

    def corrupted(self, name):
        table = periods(self, name)
        return _bump_entry(table, table.period - 1, node=8, part=part) if name == oracle else table

    monkeypatch.setattr(Branching, "periods", corrupted)
    triple = {c.name: c for c in run_type_checks("E8")}["E8 triple oracle"]
    assert not triple.passed
    assert triple.detail.endswith(f"at n={level}, node 8")


def _misread(shift):
    """A level reader that reads base[r] + (k + shift) step[r], or base[r]
    alone when ``shift`` is None."""

    def level(table, n):
        k, r = divmod(n, table.period)
        k = 0 if shift is None else k + shift
        return tuple(x + k * d for x, d in zip(table.base[r], table.step[r]))

    return level


@pytest.mark.parametrize("shift", [1, -1, None], ids=["k+1", "k-1", "no-step"])
def test_a_misread_level_fails_the_huge_level_entry(monkeypatch, shift):
    # All three routes read through PeriodTable.level, so a faulty reader
    # agrees with itself at HUGE_LEVEL wherever the routes' periods agree
    # (every type but E6); the characters read from the residue sums must
    # catch it there.
    entry = next(inv for inv in INVARIANTS if inv.name == "huge-level triple oracle")
    bundles = [bundle(name) for name in ACCEPTED_TYPES]
    for b in bundles:
        assert entry.evaluate(b) == (True, f"coxeter == recursion == characters at n={HUGE_LEVEL}")
    monkeypatch.setattr(PeriodTable, "level", _misread(shift))
    failed = {}
    for b in bundles:
        passed, detail = entry.evaluate(b)
        assert not passed and detail.endswith(f" at n={HUGE_LEVEL}"), b.dtype
        failed[str(b.dtype)] = detail.split()[0]
    assert failed == {name: "coxeter" if name == "E6" else "characters" for name in ACCEPTED_TYPES}


def _range_reads(monkeypatch, name):
    """The (entry, period, order) of every table iterated by a run on one
    type, and the run's checks; no entry may call a route's range API."""
    reads, iterate, evaluate, entry = [], PeriodTable.__iter__, Invariant.evaluate, [None]

    def counted(table):
        reads.append((entry[0], table.period, table.order))
        return iterate(table)

    def named(self, b):
        entry[0] = self.name
        return evaluate(self, b)

    def boom(*args):
        raise AssertionError("a range API was called")

    monkeypatch.setattr(PeriodTable, "__iter__", counted)
    monkeypatch.setattr(Invariant, "evaluate", named)
    monkeypatch.setattr(binarygroups, "character_multiplicities", boom)
    monkeypatch.setattr(mckay, "recursion_oracle", boom)
    checks = {c.name: c for c in run_type_checks(name)}
    assert all(c.passed for c in checks.values())
    return reads, checks


def test_range_entries_expand_each_route_once(monkeypatch):
    """Each range entry that reads levels expands each table it compares
    once, to 2L - 1, from the route's proved table.  On E6 the route
    tables' periods differ, 24 (coxeter) and 12 (recursion, characters),
    so "triple oracle" reads levels, as "dimension sum rule" always does:
    E6's "triple oracle" makes verify's only reads through the reader's
    packed paths."""
    reads, checks = _range_reads(monkeypatch, "E6")
    assert reads == [
        *(("triple oracle", period, 47) for period in (24, 12, 12)),
        ("dimension sum rule", 24, 47),
    ]
    assert checks["E6 triple oracle"].detail.endswith("for all n (levels 0..47)")


@pytest.mark.parametrize("name", [t for t in ACCEPTED_TYPES if t != "E6"])
def test_only_the_dimension_sum_rule_reads_a_route_where_the_periods_agree(monkeypatch, name):
    # Every route's table has one period P: the other range entries compare
    # rows, and no route's level is read but by the sum rule.
    reads, checks = _range_reads(monkeypatch, name)
    (period,) = {bundle(name).periods(oracle).period for oracle in ORACLES}
    last = 2 * period - 1
    assert reads == [("dimension sum rule", period, last)]
    assert checks[f"{name} triple oracle"].detail.endswith(f"(levels 0..{last})")


@pytest.mark.parametrize("name", ACCEPTED_TYPES)
def test_reported_names_are_the_registry(name):
    checks = run_type_checks(name)
    assert [c.name for c in checks] == [f"{name} {inv.name}" for inv in registry(name)]
    assert all(c.passed for c in checks)


def test_every_type_the_cli_accepts_passes_verify():
    # A1..A71 odd, D4..D71 and E6..E8: every family and rank up to the rank
    # limit that parses.  A bound can first bite outside ACCEPTED_TYPES: the
    # prime search needs 17 steps on A49 and 15 on D18, 7 at most on those.
    types = []
    for family, rank in itertools.product("ADE", range(1, MAX_RANK + 1)):
        try:
            types.append(DiagramType.parse(f"{family}{rank}"))
        except ValueError:
            continue
    assert len(types) == 36 + 68 + 3
    checks = [check for t in types for check in run_type_checks(t)]
    assert [c.name for c in checks if not c.passed] == []
    print(f"ALL TYPES PASS: {len(types)} types, {len(checks)}/{len(checks)} checks passed")


@pytest.mark.parametrize(
    "argv,fixture",
    [
        (["verify", "--type", "E8"], "verify_E8.txt"),
        (["verify", "--type", "D4", "--json"], "verify_D4.json"),
        (["verify"], "verify_all.txt"),
    ],
)
def test_verify_report_is_pinned(capsys, argv, fixture):
    # The E8 and D4 reports predate the invariant registry; the full report
    # predates the exact-index group closure and the packed audits.
    assert main(argv) == 0
    assert capsys.readouterr().out == (FIXTURES / fixture).read_text()


@pytest.mark.parametrize("name", ACCEPTED_TYPES)
def test_pairing_bound_is_proved_without_the_loop(name):
    # The built Cartan matrix is symmetric and positive definite (every
    # leading minor > 0) and every root has (r, r) = 2, so x C y is an inner
    # product and Cauchy-Schwarz gives |(r, s)| <= 2 for every pair of roots.
    rs = build_root_system(name)
    assert rs.cartan == tuple(zip(*rs.cartan))
    assert all(d > 0 for d in _sylvester_minors(rs.cartan))
    assert all(inner(rs, r, r) == 2 for r in rs.roots)


def _sylvester_minors(m):
    """Each leading principal minor as a Fraction determinant, up to the first zero."""
    out = []
    for k in range(1, len(m) + 1):
        a = [[Fraction(x) for x in row[:k]] for row in m[:k]]
        det = Fraction(1)
        for col in range(k):
            pivot = next((r for r in range(col, k) if a[r][col]), None)
            if pivot is None:
                det = Fraction(0)
                break
            if pivot != col:
                a[col], a[pivot], det = a[pivot], a[col], -det
            det *= a[col][col]
            for r in range(col + 1, k):
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
        out.append(det)
        if not det:
            break
    return out


THREE_CYCLE = ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))
INDEFINITE = ((2, -1, 0), (-1, 2, -3), (0, -3, 2))
STAR = (  # the center and five leaves
    (2, -1, -1, -1, -1, -1),
    (-1, 2, 0, 0, 0, 0),
    (-1, 0, 2, 0, 0, 0),
    (-1, 0, 0, 2, 0, 0),
    (-1, 0, 0, 0, 2, 0),
    (-1, 0, 0, 0, 0, 2),
)


def _closed_form_minors(dtype):
    """Nodes 1 .. k < rank form the path A_k, of determinant k + 1; the whole
    diagram has determinant r + 1 (A_r), 4 (D_r) or 9 - r (E_r)."""
    r = dtype.rank
    return [k + 1 for k in range(1, r)] + [{"A": r + 1, "D": 4, "E": 9 - r}[dtype.family]]


MINORS = {
    **{rs.cartan: _closed_form_minors(rs.dtype) for rs in map(build_root_system, ACCEPTED_TYPES)},
    THREE_CYCLE: [2, 3, 0],  # positive semidefinite and singular
    INDEFINITE: [2, 3, -12],
    STAR: [2, 3, 4, 4, 0],  # the affine D4 block is singular, before the indefinite whole
}


@pytest.mark.parametrize("matrix", list(MINORS))
def test_leading_minors_are_sylvesters(matrix):
    # Pins the reference the pairing-bound proof above rests on.
    assert _sylvester_minors(matrix) == MINORS[matrix]


def _enforced_failure(b, **changes):
    # replace runs the bundle's constructor again, so every enforced entry runs.
    with pytest.raises(ConsistencyError) as info:
        replace(b, **changes)
    return info.value.invariant, str(info.value)


@pytest.mark.parametrize("name", ["A3", "D5", "E8"])
def test_sigma_squared_fails_coxeter_order_at_half_h(name):
    b = bundle(name)
    h, sigma = b.rs.coxeter_number, b.cox.sigma
    cox = replace(b.cox, sigma=perm_compose(sigma, sigma))
    assert _enforced_failure(b, cox=cox) == (
        "coxeter order",
        f"{name} coxeter order: sigma has order {h // 2} < h",
    )


def test_a_sigma_that_is_not_a_permutation_fails_coxeter_order():
    b = bundle("E7")
    sigma = list(b.cox.sigma)
    sigma[1] = sigma[0]
    cox = replace(b.cox, sigma=tuple(sigma))
    assert _enforced_failure(b, cox=cox) == (
        "coxeter order",
        "E7 coxeter order: sigma has order exactly 18",
    )


def test_a_tau_that_is_not_an_involution_fails_coxeter_order():
    b = bundle("D4")
    cox = replace(b.cox, tau1=b.cox.sigma)
    assert _enforced_failure(b, cox=cox) == (
        "coxeter order",
        "D4 coxeter order: a color-class involution fails to square to one",
    )


def test_adjacent_nodes_on_one_side_fail_the_bipartition():
    b = bundle("A5")
    bp = Bipartition(part1=(1, 2, 5), part2=(3, 4))
    assert _enforced_failure(b, bp=bp) == (
        "bipartition",
        "A5 bipartition: nodes 1, 2 share a side but are adjacent",
    )


def test_one_extended_graph_per_bundle(monkeypatch):
    built = []
    real = branching.extended_graph

    def counted(rs):
        built.append(real(rs))
        return built[-1]

    def boom(rs):
        raise AssertionError("a second extended graph was built")

    monkeypatch.setattr(branching, "extended_graph", counted)
    monkeypatch.setattr(mckay, "extended_graph", boom)
    b = Branching.build("E6")
    assert built == [b.graph]  # the enforced "extended graph" entry read it
    assert all(inv.evaluate(b)[0] for inv in registry("E6"))
    assert built == [b.graph]  # the audit entries read the same graph
    assert main(["mckay", "--type", "E6"]) == 0
    assert len(built) == 2  # the CLI built its own bundle, and one graph for it
