"""The invariant registry: every structural identity, stated once.

:data:`INVARIANTS` is one ordered tuple of entries.  Each entry has the
name verify reports it under, the build stage whose output it checks,
and a predicate over the type's :class:`~.branching.Branching` that
returns ``(passed, detail)``.  The registry is walked in two places:

* **Construction enforces.**  Constructing a :class:`~.branching.Branching`
  runs the ``enforced`` entries (root counts, bipartition, special node
  side, coxeter order, orbit partition and exponents, Heisenberg
  subsystem, numerator polynomials, branch parameters, extended graph)
  through :func:`enforce`, which raises :class:`~.errors.ConsistencyError`
  with ``dtype``, ``stage`` and ``invariant`` set at the first one that
  fails, and otherwise returns every entry's ``(passed, detail)``, which
  the bundle keeps as ``Branching.enforced``.  The stage functions in
  ``rootsys``, ``coxeter``, ``branching`` and ``mckay.extended_graph``
  only build.
* **Verify reports.**  :func:`~.verify.run_type_checks` reports every
  entry for the type in the same order, one PASS/FAIL line each: the
  enforced entries with construction's results, which it does not
  evaluate again, and the audit-only entries (golden E8, group sanity,
  character table and the cross-oracle checks), which run only there.

An entry checks what a build stage or an output relies on.  Kostant's
lemma that sigma^g acts as the longest Weyl element (arXiv
math/0411142) is read by neither, so tier-1 acceptance criterion 4
states it, not the registry.  Parity vanishing needs no entry either:
with a and b even it follows from the exponent parity that "numerator
polynomials" enforces.

The root system itself has no audit-only entry.  ``build_root_system``
adds alpha_i to a root r only when (r, alpha_i) = -1, so every root is
reached from a simple root by construction; ``cartan_matrix`` is
symmetric with diagonal 2 by construction; ``coxeter_element`` refuses a
reflection image that is not a root; and "root counts" pins |Phi+| and h
to their closed forms.

The range entries hold for every n: each compares the routes' proved
period tables (:meth:`Branching.periods`) over levels 0..2L-1 (:func:`_read`),
which rests on the tables' build-time proofs and on their one reader,
:class:`~.seriescalc.PeriodTable`.  A table of period P holds at levels
0..2P-1 what its base and step rows hold, so "triple oracle" screens
the rows of tables of one period and walks levels only to name a
failure.  It reads levels where the periods differ (E6): the only reads
through the reader's packed paths.  "dimension sum rule" always reads
levels.  Only the group entries and the character route import
:mod:`~.binarygroups`.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from operator import getitem, mul, ne
from typing import TYPE_CHECKING, NamedTuple

from .coxeter import perm_compose
from .errors import ConsistencyError
from .rootsys import DiagramType
from .seriescalc import PeriodTable, Poly, poly, poly_str, sparse_items

if TYPE_CHECKING:
    from .branching import Branching, BranchParams

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

#: The three independent routes to a multiplicity vector, by name.
ORACLES = ("coxeter", "recursion", "characters")


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


def special_z_closed_form(params: BranchParams) -> Poly:
    """The special-node numerator in closed form.

    t^(g-a+2) + t^(g-a+4) + ... + t^(g-2) + 2 t^g + t^(g+2) + ... + t^(g+a-2);
    for a = 2 this collapses to the single middle term 2 t^g.
    """
    g, a = params.g, params.a
    coeffs = [0] * (g + a - 1)
    for e in range(g - a + 2, g + a - 1, 2):
        coeffs[e] = 1
    coeffs[g] = 2
    return poly(coeffs)


Result = tuple[bool, str]


class Invariant(NamedTuple):
    """One registry entry; ``only`` restricts it to one diagram type."""

    name: str
    stage: str
    predicate: Callable[[Branching], Result]
    enforced: bool = False
    only: str | None = None

    def evaluate(self, bundle: Branching) -> Result:
        try:
            return self.predicate(bundle)
        except Exception as exc:  # noqa: BLE001 - a predicate that crashes has failed
            return False, f"exception: {exc}"


def _root_counts(c: Branching) -> Result:
    """h = |roots| / rank is even and of its closed form, so half the roots,
    h rank / 2, are positive; psi, the last positive root, is the only one
    of greatest height, no simple root raises it and its marks are positive."""
    rs = c.rs
    rank, h, num_pos, psi = rs.rank, rs.coxeter_number, rs.num_positive, rs.highest_root
    ok = (
        len(rs.roots) == h * rank
        and h % 2 == 0
        and h == expected_params(rs.dtype)[2]
        # the highest root is unique, maximal and has positive marks
        and (num_pos == 1 or sum(rs.roots[num_pos - 2]) < sum(psi))
        and not any(rs.is_root(tuple(m + (j == i) for j, m in enumerate(psi))) for i in range(rank))
        and min(psi) >= 1
    )
    return ok, f"{num_pos} positive roots, h = {h}"


def _bipartition(c: Branching) -> Result:
    """No stage mutant needs it; it alone checks a hand-built ``Bipartition``."""
    rs, bp = c.rs, c.bp
    for part in (bp.part1, bp.part2):
        for i in part:
            for j in part:
                if i < j and rs.cartan[i - 1][j - 1] != 0:  # (alpha_i, alpha_j)
                    return False, f"nodes {i}, {j} share a side but are adjacent"
    if any(rs.highest_root_image[i - 1] for i in bp.part2):
        return False, "side 2 is not orthogonal to the highest root"
    if set(bp.part1) | set(bp.part2) != set(rs.nodes) or set(bp.part1) & set(bp.part2):
        return False, "parts do not partition the nodes"
    # An edge inside one side is a nonzero Cartan entry inside one part.
    return True, f"sides {list(bp.part1)} | {list(bp.part2)}"


def _special_side(c: Branching) -> Result:
    g, special = c.rs.coxeter_number // 2, c.params.special
    side = c.bp.side(special)
    return (side == 2) == (g % 2 == 0), f"special node {special} on side {side}, g = {g}"


def _coxeter_order(c: Branching) -> Result:
    """tau1 and tau2 square to one, so sigma = tau2 tau1 is a permutation,
    and sigma's order, the lcm of its cycle lengths, is h.  No stage mutant
    needs it; it alone checks hand-built ``cox.tau1`` and ``cox.tau2``, as
    "orbit partition" reads the orbit table, not sigma."""
    cox, h = c.cox, c.rs.coxeter_number
    ident = tuple(range(len(cox.tau1)))
    if perm_compose(cox.tau1, cox.tau1) != ident or perm_compose(cox.tau2, cox.tau2) != ident:
        return False, "a color-class involution fails to square to one"
    order, unseen = 1, set(ident)
    while unseen:
        x = start = unseen.pop()
        length = 1
        while (x := cox.sigma[x]) != start:
            unseen.remove(x)
            length += 1
        order = math.lcm(order, length)
    if order < h:
        return False, f"sigma has order {order} < h"
    return order == h, f"sigma has order exactly {h}"


def _orbit_partition(c: Branching) -> Result:
    rs, table = c.rs, c.table
    h, num_pos = rs.coxeter_number, rs.num_positive
    betas = {rs.index_of(beta) for beta in table.signed_simples}
    seen: set[int] = set()
    for i in rs.nodes:  # whole orbits, one set over them all
        orbit = table.orbits[i - 1]
        members = set(orbit)
        if len(orbit) != h or len(members) != h:
            return False, f"orbit {i} has size {len(orbit)}"
        if not seen.isdisjoint(members):
            return False, f"orbit {i} overlaps a previous orbit"
        if (meets := len(members & betas)) != 1:
            return False, f"orbit {i} meets the signed simple roots {meets} times"
        seen |= members
        if (positives := len([x for x in orbit if x < num_pos])) != h // 2:
            return False, f"orbit {i} has {positives} positive roots"
    ok = len(seen) == len(rs.roots)
    return ok, f"{rs.rank} disjoint orbits of size {h} cover {len(rs.roots)} roots"


def _orbit_exponents(c: Branching) -> Result:
    rs, bp, table = c.rs, c.bp, c.table
    h, num_pos = rs.coxeter_number, rs.num_positive
    g = h // 2
    for i in rs.nodes:
        k = bp.side(i)
        exponents = [table.exponent[x] for x in table.orbits[i - 1] if x < num_pos]
        if sorted(exponents) != list(range(k, h + 1, 2)):  # walk them, to name the fault
            halves = set()
            for n in exponents:
                if n % 2 != k % 2 or not 1 <= n <= h:
                    return False, f"exponent {n} bad for side {k}"
                halves.add((n - 1) // 2 if k == 1 else n // 2)
            if halves != (set(range(g)) if k == 1 else set(range(1, g + 1))):
                return False, f"orbit {i} exponent map is not a bijection"
        if k == 1 and table.exponent[rs.index_of(table.signed_simples[i - 1])] != 1:
            return False, f"beta_{i} does not have exponent 1"
    psi_n = table.exponent[rs.index_of(rs.highest_root)]
    return psi_n == g, f"bijections hold; highest root has exponent {psi_n} = g"


def _heisenberg(c: Branching) -> Result:
    hs, h = c.heisenberg, c.rs.coxeter_number
    members = [k for ks in hs.values() for k in ks]
    if len(members) != 2 * h - 3:
        return False, f"{len(members)} roots, expected {2 * h - 3}"
    if not set(members) <= set(range(c.rs.num_positive)):
        return False, "subsystem contains a negative root"
    if len(set(members)) != len(members):
        return False, "slices do not partition the subsystem"
    for i in c.rs.nodes:
        want = 2 * c.rs.mark(i) if i != c.params.special else c.params.a - 1
        if len(hs[i]) != want:
            return False, f"slice {i} has {len(hs[i])} roots, expected {want}"
    return True, f"{2 * h - 3} roots, slice sizes as required"


def _numerators(c: Branching) -> Result:
    """Degree < h, value at 1, exponent parity and 0/1 coefficients (2 at
    most on the special node) per node; the special numerator equals its
    closed form (so it is symmetric about t^g) and node 0 has 1 + t^h.
    Last, each z_i is palindromic of degree h, t^h z_i(1/t) = z_i(t)."""
    h, special = c.rs.coxeter_number, c.params.special
    for i in c.rs.nodes:
        z = c.zpolys[i]
        if len(z) > h:
            return False, f"numerator {i} has degree >= h"
        want = c.params.a if i == special else 2 * c.rs.mark(i)
        if sum(z) != want:
            return False, f"numerator {i} sums to {sum(z)}"
        if any(z[c.bp.side(i) - 1 :: 2]):  # even exponents on side 1, odd on side 2
            return False, f"numerator {i} breaks exponent parity"
        bound = 2 if i == special else 1
        if z and (min(z) < 0 or max(z) > bound):
            return False, f"numerator {i} violates coefficient bounds"
    z_star = c.zpolys[special]
    if z_star != special_z_closed_form(c.params):
        return False, "special numerator disagrees with its closed form"
    if sparse_items(c.zpolys[0]) != [(0, 1), (h, 1)]:
        return False, "affine numerator is not 1 + t^h"
    for i, z in c.zpolys.items():
        padded = z + (0,) * (h + 1 - len(z))
        if padded != padded[::-1]:
            return False, f"numerator {i} is not palindromic of degree h"
    return True, f"{c.rs.rank + 1} numerators within bounds; special node has {poly_str(z_star)}"


def _golden_e8(c: Branching) -> Result:
    for i in c.rs.nodes:
        if dict(sparse_items(c.zpolys[i])) != GOLDEN_E8_Z[c.node_label(i)]:
            return False, f"node {i} differs from the golden numerator"
    return True, "8/8 golden numerators match exactly"


def _branch_parameters(c: Branching) -> Result:
    """The closed form (a, b, h, g): a <= b, both even, 4 | ab and b = h +
    2 - a; "group sanity" confirms |F*| = a * b / 2 on the built group."""
    p = c.params
    got, want = (p.a, p.b, p.h, p.g), expected_params(c.dtype)
    if got != want:
        return False, f"computed {got}, closed form {want}"
    return True, f"(a, b, h, g) = {want}; |F*| = {p.order_fstar}"


def _group_sanity(c: Branching) -> Result:
    """|F*| = a * b / 2, and the table is a group.  Element 0 is a right
    identity, (x y) g = x (y g) for every x, y and generator g, and every
    element is a word 0 g_1 .. g_k in the generator columns, so by
    induction on k, with z = z' g, (x y) z = ((x y) z') g = (x (y z')) g
    = x ((y z') g) = x (y z).  The generators are the closure's own
    (``generator_indices``); the walk that proves they generate fails once
    it holds more than n elements.  Right inverses are checked: a
    semigroup with a right identity and right inverses is a group, so the
    left half follows.

    Every check reads the table as the group stores it, by columns
    (``FiniteGroup.columns``, ``columns[y][x]`` the index of x y).  First every
    entry must index a column, x y in range(len(columns)): byte columns are
    joined and those indices deleted by one ``bytes.translate``, and
    otherwise each column is a subset of the indices; an entry outside
    names its row and column.  Then for each generator g and element y,
    column g gathered by column y (``binarygroups._gather``, one
    ``bytes.translate`` up to 256 elements) must be column y g: entry x
    of each is (x y) g and x (y g).  Only a generator whose screen fails
    names a failure, the least x where those two columns differ at any y
    whose screen failed.  Right inverses are checked on the inverse the
    group holds (``FiniteGroup.inverse``, which the later entries read):
    column x^-1 must hold the identity at row x.  The least x that fails is
    named, by that same inverse, also where column x holds no identity at
    all."""
    from . import binarygroups
    group, p = c.group, c.params
    n, columns = group.order, group.columns
    if p.a * p.b != 2 * n:
        return False, f"a*b = {p.a * p.b} but group order is {n}"
    indices = range(len(columns))
    if len(indices) <= 256 and set(map(type, columns)) == {bytes}:
        stray = b"".join(columns).translate(None, bytes(indices))
    else:
        stray = not all(map(set(indices).issuperset, columns))
    if stray:
        y, col = next((y, col) for y, col in enumerate(columns) if not set(indices).issuperset(col))
        x = next(x for x, xy in enumerate(col) if xy not in indices)
        return False, f"x y = {col[x]} is no element at x = {x}, y = {y}"
    gens = group.generator_indices
    if tuple(columns[0]) != tuple(indices):
        return False, "element 0 is not a right identity"
    for g in gens:  # screen: column g gathered by column y is column y g
        col, gather = columns[g], binarygroups._gather(columns[g])  # col: y -> y g
        bad = [(u, v) for u, v in zip(map(gather, columns), map(columns.__getitem__, col)) if u != v]
        if bad:  # name the least x where (x y) g != x (y g) at a y the screen failed
            x = min(list(map(ne, u, v)).index(True) for u, v in bad)
            return False, f"(x y) g != x (y g) at x = {x}, g = {g}"
    seen, layer = {0}, {0}
    while layer:  # breadth first, a layer of new elements at a time
        layer = {columns[g][y] for g in gens for y in layer} - seen
        seen |= layer
        if len(seen) > n:
            return False, f"the generator walk passes {n} elements"
    if len(seen) != n:
        return False, f"{n - len(seen)} elements are not words in the generators"
    try:
        inverse = group.inverse
    except ValueError:  # a column without the identity: None at its element
        inverse = [col.index(0) if 0 in col else None for col in columns]
    if None in inverse or any(map(getitem, map(columns.__getitem__, inverse), range(n))):
        x = next(x for x, y in enumerate(inverse) if y is None or columns[y][x])
        return False, f"inverse fails at {x}"
    return True, f"order {n}; associativity proved from the generators, inverses total"


def _extended_graph(c: Branching) -> Result:
    """Symmetric; the affine row is the attachment (so no node pairs
    negatively with the highest root); the extended marks span the
    kernel of 2 - A."""
    graph, rs = c.graph, c.rs
    adj, marks = graph.adjacency, graph.marks_ext
    if adj != tuple(zip(*adj)):
        for i in range(graph.size):
            for j in range(graph.size):
                if adj[i][j] != adj[j][i]:
                    return False, f"adjacency not symmetric at ({i}, {j})"
    hot = rs.affine_attachment()
    row0 = tuple(j for j in range(1, graph.size) if adj[0][j])
    if row0 != hot:
        return False, f"affine row {row0} != attachment {hot}"
    for i, (row, mark) in enumerate(zip(adj, marks)):
        if sum(map(mul, row, marks)) != 2 * mark:
            return False, f"extended Cartan kernel fails at node {i}"
    return True, f"size {graph.size}; marks {list(marks)}"


def _character_table(c: Branching) -> Result:
    # Column orthogonality, one packed multiply-add per row and class (binarygroups._fields).
    from . import binarygroups
    group, table, graph = c.group, c.character_table, c.graph
    r, p, sizes = len(group.classes), group.p, group.class_sizes
    fields = binarygroups._fields(group, len(table.rows), r)
    rows = [[x % p for x in row] for row in table.rows]
    _, conjugate = group.norm_form
    conjugates = [int.from_bytes(fields.pack(*conjugate(row)), "little") for row in rows]
    for c1, (col, size) in enumerate(zip(zip(*rows), sizes)):
        total = sum(map(mul, col, conjugates)).to_bytes(fields.size, "little")
        got = [s * size % p for s in fields.unpack(total)]
        got[c1] -= group.order % p
        if any(got):
            c2 = next(c2 for c2, x in enumerate(got) if x)
            return False, f"column orthogonality fails at ({c1}, {c2})"
    for node, (_, at_minus) in enumerate(table.central):
        sign = -1 if c.node_parity(node) == 1 else 1
        if at_minus != sign * graph.marks_ext[node]:
            return False, f"central value at node {node} is {at_minus}"
    detail = f"{r} irreducibles; dims match marks; central signs match sides"
    return table.dims == graph.marks_ext, detail


def _read(tables: list[PeriodTable]) -> tuple[int, list[PeriodTable]]:
    """2L - 1 and each table's levels 0..2L-1 (:meth:`PeriodTable.upto`,
    read only when iterated), L the lcm of their periods.

    Every table's levels form a degree-1 quasi-polynomial in n.  Two such
    agree at every n >= 0 once they agree at levels 0..2L-1: on each
    residue class mod L both are affine in k, and two points fix an
    affine function."""
    last = 2 * math.lcm(*(table.period for table in tables)) - 1
    return last, [table.upto(last) for table in tables]


def _triple_oracle(c: Branching) -> Result:
    tables = [c.periods(oracle) for oracle in ORACLES]
    last, views = _read(tables)
    # Tables of one period agree at every level once their rows agree; tables of
    # different periods (E6) are read level by level, the reads that pack.
    if len({(table.base, table.step) for table in tables}) > 1:
        for n, (s, r, ch) in enumerate(zip(*views)):
            for i in range(c.graph.size):
                if s[i] != r[i]:
                    return False, f"series {s[i]} != recursion {r[i]} at n={n}, node {i}"
                if ch[i] != r[i]:
                    return False, f"characters {ch[i]} != recursion {r[i]} at n={n}, node {i}"
    return True, f"series == recursion == characters for all n (levels 0..{last})"


def _huge_level(c: Branching) -> Result:
    # The three routes share one level reader, so a reader fault agrees with
    # itself; the characters' level read from the residue sums, without the
    # period table, catches it.
    from . import binarygroups
    n = HUGE_LEVEL
    cox, rec, chars = (c.vector(n, oracle) for oracle in ORACLES)
    if not cox == rec == chars:
        return False, f"coxeter {cox}, recursion {rec}, characters {chars} at n={n}"
    table = c.character_table
    rests = zip(table.central, table.residues[n % len(table.residues)])
    sums = tuple(binarygroups._multiplicity(c.group, n, *pair, i) for i, pair in enumerate(rests))
    if chars != sums:
        return False, f"characters {chars} != residue sums {sums} at n={n}"
    return True, f"coxeter == recursion == characters at n={n}"


def _sum_rule(c: Branching) -> Result:
    """No mutant needs it alone; the one range check not between routes, so it
    holds against a fault the three share (their one level reader)."""
    marks = c.graph.marks_ext
    last, (levels,) = _read([c.periods("coxeter")])  # n + 1 has period 1
    for n, v in enumerate(levels):
        if sum(map(mul, marks, v)) != n + 1:
            return False, f"dimension sum fails at n={n}"
    return True, f"sum of mark * multiplicity is n + 1 for all n (levels 0..{last})"


#: Every structural identity, in report order.
INVARIANTS: tuple[Invariant, ...] = (
    Invariant("root counts", "build_root_system", _root_counts, enforced=True),
    Invariant("bipartition", "bipartition", _bipartition, enforced=True),
    Invariant("special node side", "special_index", _special_side, enforced=True),
    Invariant("coxeter order", "coxeter_element", _coxeter_order, enforced=True),
    Invariant("orbit partition", "orbit_table", _orbit_partition, enforced=True),
    Invariant("orbit exponents", "orbit_table", _orbit_exponents, enforced=True),
    Invariant("heisenberg subsystem", "heisenberg_subsystem", _heisenberg, enforced=True),
    Invariant("numerator polynomials", "z_polynomial", _numerators, enforced=True),
    Invariant("golden E8 numerators", "z_polynomial", _golden_e8, only="E8"),
    Invariant("branch parameters", "branch_params", _branch_parameters, enforced=True),
    Invariant("group sanity", "build_group", _group_sanity),
    Invariant("extended graph", "extended_graph", _extended_graph, enforced=True),
    Invariant("character table", "character_table", _character_table),
    Invariant("triple oracle", "oracles", _triple_oracle),
    Invariant("huge-level triple oracle", "oracles", _huge_level),
    Invariant("dimension sum rule", "oracles", _sum_rule),
)


def registry(dtype: DiagramType | str) -> tuple[Invariant, ...]:
    """The entries that apply to one diagram type, in report order."""
    return tuple(inv for inv in INVARIANTS if inv.only in (None, str(dtype)))


def enforce(bundle: Branching) -> dict[str, Result]:
    """Evaluate the enforced entries in order; raise at the first failure,
    else return every entry's ``(passed, detail)`` by name."""
    results = {}
    for inv in INVARIANTS:
        if inv.enforced:
            passed, detail = results[inv.name] = inv.evaluate(bundle)
            if not passed:
                raise ConsistencyError(
                    f"{bundle.dtype} {inv.name}: {detail}",
                    dtype=str(bundle.dtype),
                    stage=inv.stage,
                    invariant=inv.name,
                )
    return results
