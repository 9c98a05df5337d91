"""The invariant registry: enforced at construction, reported by verify."""

import dataclasses
import json
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from su2branch import binarygroups, branching, invariants, mckay, seriescalc
from su2branch.branching import Branching
from su2branch.coxeter import Bipartition, perm_compose
from su2branch.cli import main
from su2branch.errors import ConsistencyError
from su2branch.invariants import HUGE_LEVEL, INVARIANTS, Invariant, Session, registry
from su2branch.rootsys import build_root_system
from su2branch.verify import ACCEPTED_TYPES, run_type_checks

from conftest import bundle, reflect_table

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
    session = Session(Branching.build("E7"))
    for n in (0, 17, HUGE_LEVEL):
        assert session.vector(n, "coxeter") == session.vector(n, "recursion")


@pytest.mark.parametrize("oracle", ["characters", "recursion", "coxeter"])
def test_negative_level_is_rejected_before_any_build(monkeypatch, oracle):
    _forbid_group_build(monkeypatch)
    with pytest.raises(ValueError, match="n must be nonnegative"):
        Session(Branching.build("E8")).vector(-1, oracle)


def test_unknown_oracle_is_a_value_error():
    with pytest.raises(ValueError, match="unknown oracle 'bogus'"):
        Session(bundle("A3")).vector(5, "bogus")


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
        Session(bundle("E8")).table
    err = info.value
    assert (str(err), err.dtype, err.stage, err.invariant) == (problem, "E8", "character_table", None)


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
    checks = run_type_checks("E8")
    assert len(calls) == 1
    assert [(c.name, c.detail) for c in checks if not c.passed] == [
        (f"E8 {name}", "exception: boom") for name in failing
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

    def counted(self, session):
        calls.append(self.name)
        return evaluate(self, session)

    monkeypatch.setattr(Invariant, "evaluate", counted)
    assert all(c.passed for c in run_type_checks("E8"))
    assert sorted(calls) == sorted(inv.name for inv in registry("E8"))


def _bump_entry(table, r, node=0, part=1):
    """The period table with one more at step[r][node] (``part`` 0: base)."""
    rows = table[part]
    row = rows[r][:node] + (rows[r][node] + 1,) + rows[r][node + 1 :]
    bumped = rows[:r] + (row,) + rows[r + 1 :]
    return (bumped, table[1]) if part == 0 else (table[0], bumped)


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
    periods = Session.periods

    def corrupted(self, name):
        table = periods(self, name)
        return _bump_entry(table, len(table[0]) - 1, node=8, part=part) if name == oracle else table

    monkeypatch.setattr(Session, "periods", corrupted)
    triple = {c.name: c for c in run_type_checks("E8")}["E8 triple oracle"]
    assert not triple.passed
    assert triple.detail.endswith(f"at n={level}, node 8")


def test_range_entries_expand_each_route_once(monkeypatch):
    """Each range entry expands each table it compares once, to 2L - 1,
    from the route's proved table, never through a route's range API."""
    reads, iter_levels = [], seriescalc.iter_levels

    def counted(table, order):
        reads.append((len(table[0]), order))
        return iter_levels(table, order)

    def boom(*args):
        raise AssertionError("a range API was called")

    monkeypatch.setattr(seriescalc, "iter_levels", counted)
    monkeypatch.setattr(binarygroups, "character_multiplicities", boom)
    monkeypatch.setattr(mckay, "recursion_oracle", boom)
    checks = {c.name: c for c in run_type_checks("E6")}
    assert all(c.passed for c in checks.values())
    # triple oracle (coxeter, recursion, characters), molien, sum rule, parity
    assert reads == [(24, 47), (12, 47), (12, 47), (24, 47), (24, 47), (24, 47)]
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


def _audit(name, rs):
    """One registry entry evaluated on a root system alone."""
    (inv,) = (inv for inv in INVARIANTS if inv.name == name)
    return inv.evaluate(SimpleNamespace(bundle=SimpleNamespace(rs=rs)))


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
    return dataclasses.replace(rs, roots=tuple(roots))


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
    assert _audit("cartan pairing", bad) == (False, detail)


def test_every_scaled_d5_root_gives_the_loops_detail():
    rs = build_root_system("D5")
    for root in range(len(rs.roots)):
        for scale in (2, -3, 0):
            bad = _scaled(rs, root, scale)
            assert _audit("cartan pairing", bad) == (False, _pairing_detail_by_loop(bad))


@pytest.mark.parametrize("name", ACCEPTED_TYPES)
def test_pairing_bound_is_proved_without_the_loop(monkeypatch, name):
    def boom(*args):
        raise AssertionError("the per-pair loop ran")

    rs = build_root_system(name)
    monkeypatch.setattr(invariants, "_pairing_miss", boom)
    detail = f"all {len(rs.roots)}^2 pairings within [-2, 2], lengths 2"
    assert _audit("cartan pairing", rs) == (True, detail)


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
    bad = dataclasses.replace(rs, cartan=cartan, roots=roots or rs.roots)
    detail = _pairing_detail_by_loop(bad)
    assert detail is not None
    calls, loop = [], invariants._pairing_miss
    monkeypatch.setattr(invariants, "_pairing_miss", lambda *a: calls.append(a) or loop(*a))
    assert _audit("cartan pairing", bad) == (False, detail)
    assert len(calls) == 1


def _with_reflection(name, node, change):
    """A fresh root system whose reflection table has node's entry changed."""
    rs = build_root_system(name)
    table = list(rs.reflections)
    perm = list(table[node - 1])
    change(perm)
    table[node - 1] = tuple(perm)
    vars(rs)["reflections"] = tuple(table)
    return rs


def _repeat(perm):
    perm[0] = perm[1]


def _drop(perm):
    perm[0] = None


def _three_cycle(perm):
    a, b, c = [k for k, x in enumerate(perm) if x == k][:3]
    perm[a], perm[b], perm[c] = b, c, a


@pytest.mark.parametrize(
    "change,detail",
    [
        (_repeat, "reflection 2 does not permute the roots"),
        (_drop, "reflection 2 does not permute the roots"),
        (_three_cycle, "reflection 2 is not an involution"),
    ],
)
def test_bad_reflection_entry_is_reported(change, detail):
    assert _audit("reflections", _with_reflection("D4", 2, change)) == (False, detail)
    assert _audit("reflections", build_root_system("D4")) == (
        True,
        "4 reflections permute all 24 roots",
    )


@pytest.mark.parametrize("name,scales", [("E8", (2, -1, 3)), ("D5", (2, -3, 0))])
def test_reflection_table_of_a_scaled_system_is_reflect(name, scales):
    # The scaled root's index entry is gone, so its own entries and the
    # entries that reflect onto it become None; E8 only every 23rd root.
    rs = build_root_system(name)
    step = 23 if name == "E8" else 1
    for root in range(0, len(rs.roots), step):
        for scale in scales:
            bad = _scaled(rs, root, scale)
            assert bad.reflections == reflect_table(bad)


def _rebuilt(b, **changes):
    """The bundle's constructor run again with some fields replaced, so
    every enforced entry runs on them."""
    fields = dict(
        rs=b.rs,
        bp=b.bp,
        cox=b.cox,
        table=b.table,
        params=b.params,
        heisenberg=b.heisenberg,
        zpolys=b.zpolys,
    )
    return Branching(**{**fields, **changes})


def _enforced_failure(b, **changes):
    with pytest.raises(ConsistencyError) as info:
        _rebuilt(b, **changes)
    return info.value.invariant, str(info.value)


@pytest.mark.parametrize("name", ["A3", "D5", "E8"])
def test_sigma_squared_fails_coxeter_order_at_half_h(name):
    b = bundle(name)
    h, sigma = b.rs.coxeter_number, b.cox.sigma
    cox = dataclasses.replace(b.cox, sigma=perm_compose(sigma, sigma))
    assert _enforced_failure(b, cox=cox) == (
        "coxeter order",
        f"{name} coxeter order: sigma has order {h // 2} < h",
    )


def test_a_sigma_that_is_not_a_permutation_fails_coxeter_order():
    b = bundle("E7")
    sigma = list(b.cox.sigma)
    sigma[1] = sigma[0]
    cox = dataclasses.replace(b.cox, sigma=tuple(sigma))
    assert _enforced_failure(b, cox=cox) == (
        "coxeter order",
        "E7 coxeter order: sigma has order exactly 18",
    )


def test_a_tau_that_is_not_an_involution_fails_coxeter_order():
    b = bundle("D4")
    cox = dataclasses.replace(b.cox, tau1=b.cox.sigma)
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
    session = Session(b)
    assert session.graph is b.graph
    assert all(inv.evaluate(session)[0] for inv in registry("E6"))
    assert main(["mckay", "--type", "E6"]) == 0
    assert len(built) == 2  # the CLI built its own bundle, and one graph for it
