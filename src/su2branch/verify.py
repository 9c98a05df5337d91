"""Cross-validation suite.

Runs every structural identity the construction guarantees, exactly:
root counts, the bipartition, orbit sizes and exponent bijections, the
longest-element behavior of sigma^g, the Heisenberg cardinalities, the
numerator coefficient bounds and the special-node closed form, the E8
golden numerators, the parameter table, and the three-way multiplicity
agreement (orbit series vs. tensor recursion vs. character theory, dense
and at n = 10^18 + 1, plus the plain Molien average for the affine node).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import binarygroups, mckay
from .branching import Branching
from .coxeter import longest_element_checks, perm_identity, perm_power
from .rootsys import DiagramType
from .seriescalc import eval_at_one, poly, poly_str, sparse_items

#: Diagram types the verification and acceptance sweeps run over.
ACCEPTED_TYPES: tuple[str, ...] = (
    "A3",
    "A5",
    "A7",
    "A9",
    "A11",
    "A13",
    "D4",
    "D5",
    "D6",
    "D7",
    "D8",
    "D9",
    "D10",
    "D11",
    "D12",
    "E6",
    "E7",
    "E8",
)

#: E8 numerator polynomials keyed by (mark, distance to the affine
#: attachment point), as exponent -> coefficient maps.
GOLDEN_E8_Z: dict[tuple[int, int], dict[int, int]] = {
    (2, 0): {1: 1, 11: 1, 19: 1, 29: 1},
    (3, 1): {2: 1, 10: 1, 12: 1, 18: 1, 20: 1, 28: 1},
    (4, 2): {3: 1, 9: 1, 11: 1, 13: 1, 17: 1, 19: 1, 21: 1, 27: 1},
    (5, 3): {4: 1, 8: 1, 10: 1, 12: 1, 14: 1, 16: 1, 18: 1, 20: 1, 22: 1, 26: 1},
    (6, 4): {5: 1, 7: 1, 9: 1, 11: 1, 13: 1, 15: 2, 17: 1, 19: 1, 21: 1, 23: 1, 25: 1},
    (4, 5): {6: 1, 8: 1, 12: 1, 14: 1, 16: 1, 18: 1, 22: 1, 24: 1},
    (2, 6): {7: 1, 13: 1, 17: 1, 23: 1},
    (3, 5): {6: 1, 10: 1, 14: 1, 16: 1, 20: 1, 24: 1},
}


#: The level at which the three oracles are compared beyond the dense sweep.
HUGE_LEVEL = 10**18 + 1


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


def rotation_group_name(dtype: DiagramType) -> str:
    """Name of the rotation group attached to the diagram family."""
    if dtype.family == "A":
        return f"Z_{(dtype.rank + 1) // 2}"
    if dtype.family == "D":
        return f"Dih_{dtype.rank - 2}"
    return {6: "Alt_4", 7: "Sym_4", 8: "Alt_5"}[dtype.rank]


def expected_params(dtype: DiagramType) -> tuple[int, int, int, int]:
    """Closed-form (a, b, h, g) per family."""
    r = dtype.rank
    if dtype.family == "A":
        n = (r + 1) // 2
        return (2, 2 * n, 2 * n, n)
    if dtype.family == "D":
        n = r - 2
        return (4, 2 * n, 2 * n + 2, n + 1)
    return {6: (6, 8, 12, 6), 7: (8, 12, 18, 9), 8: (12, 20, 30, 15)}[r]


def golden_e8_polynomials(bundle: Branching) -> dict[int, dict[int, int]]:
    """The golden numerators re-keyed by canonical node index."""
    out = {}
    for i in bundle.rs.nodes:
        out[i] = GOLDEN_E8_Z[bundle.node_label(i)]
    return out


def run_type_checks(
    dtype: DiagramType | str, series_order: int = 200, char_order: int = 60
) -> list[Check]:
    """All checks for one diagram type; never raises, reports instead."""
    if isinstance(dtype, str):
        dtype = DiagramType.parse(dtype)
    checks: list[Check] = []

    def record(name: str, fn: Callable[[], tuple[bool, str]]) -> None:
        try:
            passed, detail = fn()
        except Exception as exc:  # noqa: BLE001 - partial report on any failure
            passed, detail = False, f"exception: {exc}"
        checks.append(Check(f"{dtype} {name}", passed, detail))

    try:
        bundle = Branching.build(dtype)
    except Exception as exc:  # noqa: BLE001
        checks.append(Check(f"{dtype} construction", False, f"exception: {exc}"))
        return checks

    rs = bundle.rs
    rank = rs.rank
    h = rs.coxeter_number
    g = h // 2
    num_pos = rs.num_positive

    def check_counts() -> tuple[bool, str]:
        ok = (
            num_pos == g * rank
            and len(rs.roots) == h * rank
            and rank * (h + 1) == len(rs.roots) + rank
            and h % 2 == 0
            and h == expected_params(dtype)[2]
        )
        return ok, f"{num_pos} positive roots, h = {h}"

    record("root counts", check_counts)

    def check_cartan() -> tuple[bool, str]:
        c = rs.cartan
        for i in range(rank):
            if c[i][i] != 2:
                return False, f"diagonal entry {c[i][i]} at node {i + 1}"
            for j in range(rank):
                if c[i][j] != c[j][i] or (i != j and c[i][j] not in (0, -1)):
                    return False, f"bad entry at ({i + 1}, {j + 1})"
        images = [
            tuple(sum(c[i][j] * r[j] for j in range(rank)) for i in range(rank))
            for r in rs.roots
        ]
        for p, rp in enumerate(rs.roots):
            for q in range(p, len(rs.roots)):
                val = sum(rp[i] * images[q][i] for i in range(rank))
                if not -2 <= val <= 2:
                    return False, f"pairing {val} between roots {p} and {q}"
                if q == p and val != 2:
                    return False, f"root {rp} has squared length {val}"
        return True, f"all {len(rs.roots)}^2 pairings within [-2, 2], lengths 2"

    record("cartan pairing", check_cartan)

    def check_reachability() -> tuple[bool, str]:
        for r in rs.positive_roots:
            if sum(r) == 1:
                continue
            if not any(
                r[i - 1] > 0
                and rs.is_root(tuple(c - int(j == i - 1) for j, c in enumerate(r)))
                for i in rs.nodes
            ):
                return False, f"{r} has no simple-root predecessor"
        return True, "every positive root steps down to a simple root"

    record("closure reachability", check_reachability)

    def check_reflections() -> tuple[bool, str]:
        for i in rs.nodes:
            images = [rs.reflect(i, r) for r in rs.roots]
            if sorted(images) != sorted(rs.roots):
                return False, f"reflection {i} does not permute the roots"
            if any(rs.reflect(i, s) != r for r, s in zip(rs.roots, images)):
                return False, f"reflection {i} is not an involution"
        return True, f"{rank} reflections permute all {len(rs.roots)} roots"

    record("reflections", check_reflections)

    def check_bipartition() -> tuple[bool, str]:
        bp = bundle.bp
        psi = rs.highest_root
        for part in (bp.part1, bp.part2):
            for i in part:
                for j in part:
                    if i < j and rs.inner(rs.simple_root(i), rs.simple_root(j)) != 0:
                        return False, f"nodes {i}, {j} share a side but are adjacent"
        if any(rs.pair_with_simple(psi, i) != 0 for i in bp.part2):
            return False, "side 2 is not orthogonal to the highest root"
        if set(bp.part1) | set(bp.part2) != set(rs.nodes) or set(bp.part1) & set(bp.part2):
            return False, "parts do not partition the nodes"
        for i, j in ((i, j) for i in rs.nodes for j in rs.neighbors(i)):
            if bp.side(i) == bp.side(j):
                return False, f"edge ({i}, {j}) inside one side"
        return True, f"sides {list(bp.part1)} | {list(bp.part2)}"

    record("bipartition", check_bipartition)

    def check_special_side() -> tuple[bool, str]:
        side = bundle.bp.side(bundle.params.special)
        ok = (side == 2) == (g % 2 == 0)
        return ok, f"special node {bundle.params.special} on side {side}, g = {g}"

    record("special node side", check_special_side)

    def check_sigma_order() -> tuple[bool, str]:
        n = len(rs.roots)
        ident = perm_identity(n)
        if perm_power(bundle.cox.tau1, 2) != ident or perm_power(bundle.cox.tau2, 2) != ident:
            return False, "a color-class involution fails to square to one"
        for k in range(1, h):
            if perm_power(bundle.cox.sigma, k) == ident:
                return False, f"sigma has order {k} < h"
        ok = perm_power(bundle.cox.sigma, h) == ident
        return ok, f"sigma has order exactly {h}"

    record("coxeter order", check_sigma_order)

    def check_orbits() -> tuple[bool, str]:
        seen: set[int] = set()
        for i in rs.nodes:
            orbit = bundle.table.orbits[i - 1]
            if len(orbit) != h or len(set(orbit)) != h:
                return False, f"orbit {i} has size {len(orbit)}"
            if set(orbit) & seen:
                return False, f"orbit {i} overlaps a previous orbit"
            seen.update(orbit)
            positives = [x for x in orbit if x < num_pos]
            if len(positives) != g:
                return False, f"orbit {i} has {len(positives)} positive roots"
        ok = len(seen) == len(rs.roots)
        return ok, f"{rank} disjoint orbits of size {h} cover {len(rs.roots)} roots"

    record("orbit partition", check_orbits)

    def check_exponents() -> tuple[bool, str]:
        for i in rs.nodes:
            k = bundle.bp.side(i)
            orbit = bundle.table.orbits[i - 1]
            halves = set()
            for x in orbit:
                if x >= num_pos:
                    continue
                n = bundle.table.exponent[x]
                if n % 2 != k % 2 or not 1 <= n <= h:
                    return False, f"exponent {n} bad for side {k}"
                halves.add((n - 1) // 2 if k == 1 else n // 2)
            want = set(range(g)) if k == 1 else set(range(1, g + 1))
            if halves != want:
                return False, f"orbit {i} exponent map is not a bijection"
            if k == 1:
                beta_idx = rs.index_of(bundle.table.signed_simples[i - 1])
                if bundle.table.exponent[beta_idx] != 1:
                    return False, f"beta_{i} does not have exponent 1"
        psi_n = bundle.table.exponent[rs.index_of(rs.highest_root)]
        ok = psi_n == g
        return ok, f"bijections hold; highest root has exponent {psi_n} = g"

    record("orbit exponents", check_exponents)

    try:
        for name, passed, detail in longest_element_checks(
            rs, bundle.cox, bundle.bp, bundle.table
        ):
            checks.append(Check(f"{dtype} {name}", passed, detail))
    except Exception as exc:  # noqa: BLE001
        checks.append(Check(f"{dtype} longest element", False, f"exception: {exc}"))

    def check_heisenberg() -> tuple[bool, str]:
        hs = bundle.heisenberg
        if len(hs.roots) != 2 * h - 3:
            return False, f"{len(hs.roots)} roots, expected {2 * h - 3}"
        if any(any(c < 0 for c in r) for r in hs.roots):
            return False, "subsystem contains a negative root"
        if sorted(sum(hs.slices.values(), ())) != sorted(hs.roots):
            return False, "slices do not partition the subsystem"
        for i in rs.nodes:
            want = 2 * rs.mark(i) if i != bundle.params.special else bundle.params.a - 1
            if len(hs.slices[i]) != want:
                return False, f"slice {i} has {len(hs.slices[i])} roots, expected {want}"
        return True, f"{2 * h - 3} roots, slice sizes as required"

    record("heisenberg subsystem", check_heisenberg)

    def check_zpolys() -> tuple[bool, str]:
        for i in rs.nodes:
            z = bundle.zpolys[i]
            if len(z) > h:
                return False, f"numerator {i} has degree >= h"
            want = bundle.params.a if i == bundle.params.special else 2 * rs.mark(i)
            if eval_at_one(z) != want:
                return False, f"numerator {i} sums to {eval_at_one(z)}"
            side = bundle.bp.side(i)
            if any(c and e % 2 != side % 2 for e, c in enumerate(z)):
                return False, f"numerator {i} breaks exponent parity"
            bound = 2 if i == bundle.params.special else 1
            if any(c < 0 or c > bound for c in z):
                return False, f"numerator {i} violates coefficient bounds"
        z_star = bundle.zpolys[bundle.params.special]
        mirrored = poly(reversed(tuple(z_star) + (0,) * (2 * g + 1 - len(z_star))))
        if mirrored != z_star:
            return False, "special numerator is not symmetric about t^g"
        z0 = bundle.zpolys[0]
        if sparse_items(z0) != [(0, 1), (h, 1)]:
            return False, "affine numerator is not 1 + t^h"
        return (
            True,
            f"{rank + 1} numerators within bounds; special node has {poly_str(z_star)}",
        )

    record("numerator polynomials", check_zpolys)

    if str(dtype) == "E8":

        def check_golden() -> tuple[bool, str]:
            for i, want in golden_e8_polynomials(bundle).items():
                if dict(sparse_items(bundle.zpolys[i])) != want:
                    return False, f"node {i} differs from the golden numerator"
            return True, "8/8 golden numerators match exactly"

        record("golden E8 numerators", check_golden)

    try:
        group = binarygroups.build_group(dtype, bundle.params)
    except Exception as exc:  # noqa: BLE001
        checks.append(Check(f"{dtype} group closure", False, f"exception: {exc}"))
        return checks

    def check_params() -> tuple[bool, str]:
        p = bundle.params
        want = expected_params(dtype)
        if (p.a, p.b, p.h, p.g) != want:
            return False, f"computed {(p.a, p.b, p.h, p.g)}, closed form {want}"
        if p.b != p.h + 2 - p.a:
            return False, "b != h + 2 - a"
        if p.a * p.b != 2 * group.order:
            return False, f"a*b = {p.a * p.b} but group order is {group.order}"
        return True, f"(a, b, h, g) = {want}; |F*| = {group.order}"

    record("branch parameters", check_params)

    def check_group_sanity() -> tuple[bool, str]:
        n = group.order
        state = 12345
        for _ in range(200):
            state = (state * 1103515245 + 12345) % (2**31)
            x = state % n
            state = (state * 1103515245 + 12345) % (2**31)
            y = state % n
            state = (state * 1103515245 + 12345) % (2**31)
            z = state % n
            if group.mult[group.mult[x][y]][z] != group.mult[x][group.mult[y][z]]:
                return False, f"associativity fails at ({x}, {y}, {z})"
        for x in range(n):
            if group.mult[x][group.inverse[x]] != 0 or group.mult[group.inverse[x]][x] != 0:
                return False, f"inverse fails at {x}"
        return True, f"order {n}; associativity sampled, inverses total"

    record("group sanity", check_group_sanity)

    graph = mckay.extended_graph(rs)

    def check_graph() -> tuple[bool, str]:
        adj = graph.adjacency
        for i in range(graph.size):
            for j in range(graph.size):
                if adj[i][j] != adj[j][i]:
                    return False, f"adjacency not symmetric at ({i}, {j})"
        hot = rs.affine_attachment()
        row0 = tuple(j for j in range(1, graph.size) if adj[0][j])
        if row0 != hot:
            return False, f"affine row {row0} != attachment {hot}"
        for i in range(graph.size):
            cartan_row = sum(
                (2 * (i == j) - adj[i][j]) * graph.marks_ext[j] for j in range(graph.size)
            )
            if cartan_row != 0:
                return False, f"extended Cartan kernel fails at node {i}"
        return True, f"size {graph.size}; marks {list(graph.marks_ext)}"

    record("extended graph", check_graph)

    try:
        table = binarygroups.character_table(group, graph)
    except Exception as exc:  # noqa: BLE001
        checks.append(Check(f"{dtype} character table", False, f"exception: {exc}"))
        return checks

    def check_character_table() -> tuple[bool, str]:
        r = len(group.classes)
        sizes = group.class_sizes
        for c in range(r):
            for c2 in range(r):
                val = sum(
                    table.rows[p][c] * table.rows[p][c2].conjugate() for p in range(r)
                )
                want = group.order / sizes[c] if c == c2 else 0.0
                if abs(val - want) > 1e-5:
                    return False, f"column orthogonality fails at ({c}, {c2})"
        minus_class = group.class_of[group.minus_identity]
        for node in range(graph.size):
            row = table.character_for_node(node)
            d = graph.marks_ext[node]
            sign = -1 if node != 0 and bundle.bp.side(node) == 1 else 1
            if abs(row[minus_class] - sign * d) > 1e-6:
                return False, f"central value at node {node} is {row[minus_class]}"
        ok = tuple(table.dims[table.node_map[i]] for i in range(graph.size)) == tuple(
            graph.marks_ext
        )
        return ok, f"{r} irreducibles; dims match marks; central signs match sides"

    record("character table", check_character_table)

    def check_triple_oracle() -> tuple[bool, str]:
        rec = list(mckay.recursion_oracle(graph, series_order))
        series = [bundle.series(i, series_order) for i in range(graph.size)]
        for n in range(series_order + 1):
            for i in range(graph.size):
                if series[i][n] != rec[n][i]:
                    return (
                        False,
                        f"series {series[i][n]} != recursion {rec[n][i]} at n={n}, node {i}",
                    )
        chars = binarygroups.character_multiplicities(group, table, char_order)
        for n in range(char_order + 1):
            for i in range(graph.size):
                if chars[n][i] != rec[n][i]:
                    return (
                        False,
                        f"characters {chars[n][i]} != recursion {rec[n][i]} at n={n}, node {i}",
                    )
        return (
            True,
            f"series == recursion to n={series_order}; == characters to n={char_order}",
        )

    record("triple oracle", check_triple_oracle)

    def check_huge_level() -> tuple[bool, str]:
        n = HUGE_LEVEL
        cox = bundle.vector(n)
        rec = mckay.recursion_oracle(graph, n)[n]
        chars = tuple(
            binarygroups.oracle_multiplicity(group, table, n, i) for i in range(graph.size)
        )
        if not cox == rec == chars:
            return False, f"coxeter {cox}, recursion {rec}, characters {chars} at n={n}"
        return True, f"coxeter == recursion == characters at n={n}"

    record("huge-level triple oracle", check_huge_level)

    def check_molien() -> tuple[bool, str]:
        avg = binarygroups.molien_series(group, char_order)
        series0 = bundle.series(0, char_order)
        ok = avg == series0
        return ok, f"group average matches invariant series to n={char_order}"

    record("molien average", check_molien)

    def check_sum_rule() -> tuple[bool, str]:
        marks = graph.marks_ext
        for n in range(series_order + 1):
            vec = bundle.vector(n)
            if sum(marks[i] * vec[i] for i in range(graph.size)) != n + 1:
                return False, f"dimension sum fails at n={n}"
        return True, f"sum of mark * multiplicity is n + 1 up to n={series_order}"

    record("dimension sum rule", check_sum_rule)

    def check_parity_vanishing() -> tuple[bool, str]:
        for i in range(graph.size):
            k = bundle.node_parity(i)
            series = bundle.series(i, series_order)
            for n, c in enumerate(series):
                if c and n % 2 != k % 2:
                    return False, f"node {i} has multiplicity {c} at parity-breaking n={n}"
        return True, f"multiplicities vanish off-parity up to n={series_order}"

    record("parity vanishing", check_parity_vanishing)

    return checks


def run_all(
    types: tuple[str, ...] = ACCEPTED_TYPES,
    series_order: int = 200,
    char_order: int = 60,
) -> list[Check]:
    out: list[Check] = []
    for t in types:
        out.extend(run_type_checks(t, series_order=series_order, char_order=char_order))
    return out


def format_report(checks: list[Check]) -> str:
    width = max(len(c.name) for c in checks) if checks else 0
    lines = [
        f"{'PASS' if c.passed else 'FAIL'}  {c.name:<{width}}  {c.detail}" for c in checks
    ]
    passed = sum(c.passed for c in checks)
    lines.append(f"{passed}/{len(checks)} checks passed")
    return "\n".join(lines)
