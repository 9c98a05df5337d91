"""The invariant registry: enforced at construction, reported by verify."""

import itertools
import json
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from su2branch import binarygroups, branching, invariants, mckay
from su2branch.branching import Branching
from su2branch.coxeter import Bipartition, perm_compose
from su2branch.cli import main
from su2branch.errors import ConsistencyError
from su2branch.invariants import HUGE_LEVEL, INVARIANTS, ORACLES, Invariant, registry
from su2branch.rootsys import build_root_system
from su2branch.seriescalc import PeriodTable
from su2branch.verify import ACCEPTED_TYPES, run_type_checks

from conftest import audit, bundle, replace

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
    monkeypatch.setattr(binarygroups, "generators", lambda dtype, p: gens(dtype, p)[:1])
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
    # Two entries of the middle row of mult swapped, the inverses read from
    # the swapped table: no such table passes the proof of associativity.
    b = bundle(name)
    group, (sanity,) = b.group, (inv for inv in INVARIANTS if inv.name == "group sanity")
    x = group.order // 2
    for i, j in itertools.combinations(range(group.order), 2):
        line = list(group.mult[x])
        line[i], line[j] = line[j], line[i]
        mult = (*group.mult[:x], tuple(line), *group.mult[x + 1 :])
        swapped = replace(group, mult=mult, inverse=tuple(row.index(0) for row in mult))
        passed, detail = sanity.evaluate(SimpleNamespace(group=swapped, params=b.params))
        assert not passed and not detail.startswith("exception"), (i, j, detail)


TABLE_READERS = ["character table", "triple oracle", "huge-level triple oracle"]


@pytest.mark.parametrize(
    "stage,failing",
    [
        ("build_group", ["group sanity", *TABLE_READERS, "molien average"]),
        ("character_table", TABLE_READERS),
    ],
)
def test_failed_group_build_runs_once(monkeypatch, stage, failing):
    calls = []

    def boom(*args):
        calls.append(args)
        raise ConsistencyError("boom")

    monkeypatch.setattr(binarygroups, stage, boom)
    b = Branching.build("E8")
    results = [(inv.name, inv.evaluate(b)) for inv in registry("E8")]
    with pytest.raises(ConsistencyError, match="boom"):
        b.character_table  # the kept failure, raised again
    assert len(calls) == 1
    assert [(name, detail) for name, (passed, detail) in results if not passed] == [
        (name, "exception: boom") for name in failing
    ]


def test_failed_audit_entry_is_one_fail_line(monkeypatch):
    monkeypatch.setattr(binarygroups, "molien_series", lambda group, order: (0,) * (order + 1))
    checks = run_type_checks("D4")
    assert [c.name for c in checks if not c.passed] == ["D4 molien average"]
    assert len(checks) == len(registry("D4"))


def test_failed_records_carry_stage_and_invariant(monkeypatch, capsys):
    monkeypatch.setattr(binarygroups, "molien_series", lambda group, order: (0,) * (order + 1))
    assert main(["verify", "--type", "D4", "--json"]) == 1
    records = json.loads(capsys.readouterr().out)["checks"]
    failed = [r for r in records if not r["passed"]]
    assert failed == [
        {
            "name": "D4 molien average",
            "passed": False,
            "detail": "group average 0 != invariant series 1 at n=0",
            "stage": "oracles",
            "invariant": "molien average",
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


def _corrupt_group_tables(monkeypatch, molien, r):
    """Bump step r of Molien's table (``molien``) or of the character table's."""
    real = binarygroups._period_table

    def corrupted(group, central, residues, names):
        table = real(group, central, residues, names)
        return _bump_entry(table, r) if (names == (None,)) == molien else table

    monkeypatch.setattr(binarygroups, "_period_table", corrupted)


def test_characters_are_checked_at_the_full_depth(monkeypatch):
    # D4 has 2L = 8: step 1 first shows at n = 1 + 4, below 8.
    _corrupt_group_tables(monkeypatch, molien=False, r=1)
    failed = {c.name: c.detail for c in run_type_checks("D4") if not c.passed}
    assert list(failed) == ["D4 triple oracle", "D4 huge-level triple oracle"]
    assert failed["D4 triple oracle"] == "characters 1 != recursion 0 at n=5, node 0"


def test_molien_average_is_checked_at_the_full_depth(monkeypatch):
    _corrupt_group_tables(monkeypatch, molien=True, r=2)
    checks = run_type_checks("D4")
    assert [(c.name, c.detail) for c in checks if not c.passed] == [
        ("D4 molien average", "group average 2 != invariant series 1 at n=6")
    ]


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


def test_range_entries_expand_each_route_once(monkeypatch):
    """Each range entry expands each table it compares once, to 2L - 1,
    from the route's proved table, never through a route's range API."""
    reads, iterate = [], PeriodTable.__iter__

    def counted(table):
        reads.append((table.period, table.order))
        return iterate(table)

    def boom(*args):
        raise AssertionError("a range API was called")

    monkeypatch.setattr(PeriodTable, "__iter__", counted)
    monkeypatch.setattr(binarygroups, "character_multiplicities", boom)
    monkeypatch.setattr(mckay, "recursion_oracle", boom)
    checks = {c.name: c for c in run_type_checks("E6")}
    assert all(c.passed for c in checks.values())
    # triple oracle (coxeter, recursion, characters), molien (coxeter, the
    # group average's own table of period E), sum rule, parity
    assert reads == [(24, 47), (12, 47), (12, 47), (24, 47), (12, 47), (24, 47), (24, 47)]
    assert checks["E6 triple oracle"].detail.endswith("for all n (levels 0..47)")


@pytest.mark.parametrize("name", ACCEPTED_TYPES)
def test_reported_names_are_the_registry(name):
    checks = run_type_checks(name)
    assert [c.name for c in checks] == [f"{name} {inv.name}" for inv in registry(name)]
    assert all(c.passed for c in checks)


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


def _pairing_detail_by_loop(rs):
    """The first "cartan pairing" miss of the plain per-pair loop, or None."""
    cartan, rank = rs.cartan, rs.rank
    images = [
        tuple(sum(cartan[i][j] * r[j] for j in range(rank)) for i in range(rank))
        for r in rs.roots
    ]
    for p, rp in enumerate(rs.roots):
        for q in range(p, len(rs.roots)):
            val = sum(rp[i] * images[q][i] for i in range(rank))
            if not -2 <= val <= 2:
                return f"pairing {val} between roots {p} and {q}"
            if q == p and val != 2:
                return f"root {rp} has squared length {val}"
    return None


def _scaled(rs, root, scale):
    roots = list(rs.roots)
    roots[root] = tuple(scale * x for x in roots[root])
    return replace(rs, roots=tuple(roots))


@pytest.mark.parametrize(
    "name,root,scale",
    # E8 root 119 is the highest root: its |r|_1 = 29 scaled by 2 or 3
    # exceeds the packed row's bound, the others stay within it.
    [("E8", 0, 2), ("E8", 200, 2), ("E8", 119, 2), ("E8", 119, 3), ("A3", 11, -3)],
)
def test_corrupted_pairing_detail_is_the_loops(name, root, scale):
    bad = _scaled(build_root_system(name), root, scale)
    detail = _pairing_detail_by_loop(bad)
    assert detail is not None
    assert audit("cartan pairing", bad) == (False, detail)


def test_every_scaled_d5_root_gives_the_loops_detail():
    rs = build_root_system("D5")
    for root in range(len(rs.roots)):
        for scale in (2, -3, 0):
            bad = _scaled(rs, root, scale)
            assert audit("cartan pairing", bad) == (False, _pairing_detail_by_loop(bad))


@pytest.mark.parametrize("name", ACCEPTED_TYPES)
def test_pairing_bound_is_proved_without_the_loop(monkeypatch, name):
    def boom(*args):
        raise AssertionError("the per-pair loop ran")

    rs = build_root_system(name)
    monkeypatch.setattr(invariants, "_pairing_miss", boom)
    detail = f"all {len(rs.roots)}^2 pairings within [-2, 2], lengths 2"
    assert audit("cartan pairing", rs) == (True, detail)


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
STAR = (  # the center and five leaves
    (2, -1, -1, -1, -1, -1),
    (-1, 2, 0, 0, 0, 0),
    (-1, 0, 2, 0, 0, 0),
    (-1, 0, 0, 2, 0, 0),
    (-1, 0, 0, 0, 2, 0),
    (-1, 0, 0, 0, 0, 2),
)


@pytest.mark.parametrize(
    "matrix",
    [
        *(build_root_system(name).cartan for name in ACCEPTED_TYPES),
        THREE_CYCLE,  # positive semidefinite and singular: minors 2, 3, 0
        ((2, -1, 0), (-1, 2, -3), (0, -3, 2)),  # indefinite: minors 2, 3, -12
        # the affine D4 block is singular, so the minors stop at its 0,
        # before the indefinite whole
        STAR,
    ],
)
def test_leading_minors_are_sylvesters(matrix):
    assert list(invariants._leading_minors(matrix)) == _sylvester_minors(matrix)


@pytest.mark.parametrize(
    "name,cartan,roots",
    [
        ("A3", THREE_CYCLE, None),  # semidefinite: (1, 1, 1) has length 0
        # indefinite: both roots have length 2, yet they pair to 3
        ("D6", STAR, ((1, 0, 0, 0, 0, 0), (4, 1, 1, 1, 1, 1))),
    ],
)
def test_a_cartan_matrix_that_is_not_positive_definite_falls_through_to_the_loop(
    monkeypatch, name, cartan, roots
):
    rs = build_root_system(name)
    bad = replace(rs, cartan=cartan, roots=roots or rs.roots)
    detail = _pairing_detail_by_loop(bad)
    assert detail is not None
    calls, loop = [], invariants._pairing_miss
    monkeypatch.setattr(invariants, "_pairing_miss", lambda *a: calls.append(a) or loop(*a))
    assert audit("cartan pairing", bad) == (False, detail)
    assert len(calls) == 1


def _with_reflection(name, change):
    """A fresh root system with its index, root list or pairings changed."""
    return change(build_root_system(name))


def _repeat(rs):
    # Root 0, alpha_4, takes alpha_2's own pairing 2 with alpha_2.
    row = list(rs.pairings[1])
    row[0] = row[rs.index_of(rs.simple_root(2))]
    vars(rs)["pairings"] = (rs.pairings[0], tuple(row), *rs.pairings[2:])
    return rs


def _drop(rs):
    # +-alpha_3 leave the list and the index: s_1 sends no root onto them,
    # s_2 first maps a root onto alpha_3.
    gone = {rs.simple_root(3), tuple(-x for x in rs.simple_root(3))}
    roots = tuple(r for r in rs.roots if r not in gone)
    index = {r: k for k, r in enumerate(roots)}
    return replace(rs, roots=roots, num_positive=rs.num_positive - 1, _index=index)


def _twice(rs):
    # Root 2 listed again as root 1, the index built from that list: it
    # numbers each root once, 23 entries for 24 listed roots.
    roots = list(rs.roots)
    roots[1] = roots[2]
    return replace(rs, roots=tuple(roots), _index={r: k for k, r in enumerate(roots)})


def _extra(rs):
    # 2 alpha_1 is indexed but not listed.
    rs._index[(2, 0, 0, 0)] = len(rs.roots)
    return rs


@pytest.mark.parametrize(
    "change,detail",
    [
        (
            _repeat,
            "reflection 2 does not permute the roots: (0, 0, 0, 1) maps to (0, -2, 0, 1), "
            "not a root",
        ),
        (
            _drop,
            "reflection 2 does not permute the roots: (0, 1, 1, 0) maps to (0, 0, 1, 0), "
            "not a root",
        ),
        (_twice, "the index does not number the root list in order"),
        (_extra, "the index does not number the root list in order"),
    ],
)
def test_bad_reflection_entry_is_reported(change, detail):
    assert audit("reflections", _with_reflection("D4", change)) == (False, detail)
    assert audit("reflections", build_root_system("D4")) == (
        True,
        "4 reflections permute all 24 roots",
    )


def test_a_root_listed_twice_is_reported():
    # E8's root 200 replaced by its negative, root 80, with the index as
    # built: every root the list holds is a root, but one is listed twice
    # and root 200 is missing, so the reflections do not permute the list.
    rs = build_root_system("E8")
    roots = list(rs.roots)
    roots[200] = tuple(-x for x in roots[200])
    bad = replace(rs, roots=tuple(roots))
    assert bad.roots[200] == rs.roots[80]
    assert audit("reflections", bad) == (False, "the index does not number the root list in order")


@pytest.mark.parametrize("name,scales", [("E8", (2, -1, 3)), ("D5", (2, -3, 0))])
def test_reflection_table_of_a_scaled_system_is_reflect(name, scales):
    # The scaled root is in the list but not at its own index entry (a
    # negated root is indexed at its negative, any other not at all), so
    # the index does not number the list; E8 only every 23rd root.
    rs = build_root_system(name)
    step = 23 if name == "E8" else 1
    for root in range(0, len(rs.roots), step):
        for scale in scales:
            bad = _scaled(rs, root, scale)
            assert audit("reflections", bad) == (False, "the index does not number the root list in order")


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
