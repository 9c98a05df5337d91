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
  evaluate again, and the audit-only entries (Cartan pairing, closure
  reachability, reflections, the sigma^g lines, golden E8, group sanity,
  character table and the cross-oracle checks), which run only there.

The range entries hold for every n: each compares the routes' proved
period tables (:meth:`Branching.periods`) over levels 0..2L-1 (:func:`_read`),
which rests on the tables' build-time proofs and on their one reader,
:class:`~.seriescalc.PeriodTable`.
Only the group entries and the character route import :mod:`~.binarygroups`.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from operator import itemgetter, mul
from typing import TYPE_CHECKING, NamedTuple

from .coxeter import perm_compose, perm_identity, perm_power
from .errors import ConsistencyError
from .rootsys import DiagramType, Root
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
    rs = c.rs
    rank, h, num_pos, psi = rs.rank, rs.coxeter_number, rs.num_positive, rs.highest_root
    ok = (
        num_pos == h // 2 * rank
        and len(rs.roots) == h * rank
        and h % 2 == 0
        and h == expected_params(rs.dtype)[2]
        # the highest root is unique, maximal and has positive marks
        and (num_pos == 1 or sum(rs.roots[num_pos - 2]) < sum(psi))
        and not any(rs.is_root(tuple(m + (j == i) for j, m in enumerate(psi))) for i in range(rank))
        and min(psi) >= 1
    )
    return ok, f"{num_pos} positive roots, h = {h}"


def _leading_minors(m: Sequence[Sequence[int]]) -> Iterator[int]:
    """The leading principal minors of the square integer matrix m, by exact
    fraction-free (Bareiss) elimination, up to the first zero (no pivoting)."""
    a, prev = [list(row) for row in m], 1
    for k, row in enumerate(a):
        yield (pivot := row[k])
        if not pivot:
            return
        for r in a[k + 1 :]:
            r[k + 1 :] = [(pivot * x - r[k] * y) // prev for x, y in zip(r[k + 1 :], row[k + 1 :])]
        prev = pivot


def _cartan_pairing(c: Branching) -> Result:
    """Every pairing (r_p, r_q), q >= p, lies in [-2, 2] and (r_p, r_p) = 2.

    Proved in O(R rank), not walked over all R^2 pairs: when the Cartan
    matrix C is positive definite (every leading principal minor > 0) and
    every root has (r, r) = 2 sum_i r_i^2 + 2 sum_{i<j} C_ij r_i r_j = 2,
    x C y is an inner product and Cauchy-Schwarz gives |(r_p, r_q)| <=
    sqrt((r_p, r_p)(r_q, r_q)) = 2.  Otherwise (a corrupted system) the
    plain per-pair loop finds the first miss."""
    rs = c.rs
    cartan, rank, roots = rs.cartan, rs.rank, rs.roots
    for i in range(rank):
        if cartan[i][i] != 2:
            return False, f"diagonal entry {cartan[i][i]} at node {i + 1}"
        for j in range(rank):
            if cartan[i][j] != cartan[j][i] or (i != j and cartan[i][j] not in (0, -1)):
                return False, f"bad entry at ({i + 1}, {j + 1})"
    edges = [(i, j) for i in range(rank) for j in range(i) if cartan[i][j]]  # C_ij = -1
    proved = all(d > 0 for d in _leading_minors(cartan)) and all(
        len(r) == rank and sum(map(mul, r, r)) - sum(r[i] * r[j] for i, j in edges) == 1
        for r in roots
    )
    miss = None if proved else _pairing_miss(cartan, roots)
    return not miss, miss or f"all {len(roots)}^2 pairings within [-2, 2], lengths 2"


def _pairing_miss(cartan: Sequence[Sequence[int]], roots: Sequence[Root]) -> str | None:
    """The first pairing outside [-2, 2] or length other than 2, or None."""
    images = [tuple(sum(map(mul, row, r)) for row in cartan) for r in roots]
    for p, rp in enumerate(roots):
        for q in range(p, len(roots)):
            val = sum(map(mul, rp, images[q]))
            if not -2 <= val <= 2:
                return f"pairing {val} between roots {p} and {q}"
            if q == p and val != 2:
                return f"root {rp} has squared length {val}"
    return None


def _reachability(c: Branching) -> Result:
    rs = c.rs
    for r in rs.positive_roots:
        if sum(r) == 1:
            continue
        if not any(
            r[i - 1] > 0 and rs.is_root(tuple(x - int(j == i - 1) for j, x in enumerate(r)))
            for i in rs.nodes
        ):
            return False, f"{r} has no simple-root predecessor"
    return True, "every positive root steps down to a simple root"


def _reflections(c: Branching) -> Result:
    """The index numbers the root list in order, so no root is listed
    twice; then each simple reflection s_i(r) = r - (r, alpha_i) alpha_i,
    read from ``rs.pairings``, sends every root to a root.  s_i is linear
    and its own inverse, as (alpha_i, alpha_i) = C_ii = 2 ("cartan
    pairing"), so it permutes the finite root set."""
    rs = c.rs
    if len(rs._index) != len(rs.roots) or rs._index != {r: k for k, r in enumerate(rs.roots)}:
        return False, "the index does not number the root list in order"
    for i, pairings in enumerate(rs.pairings):
        for r, p in zip(rs.roots, pairings):
            if p and not rs.is_root(image := r[:i] + (r[i] - p,) + r[i + 1 :]):
                return False, (
                    f"reflection {i + 1} does not permute the roots: {r} maps to {image}, "
                    "not a root"
                )
    return True, f"{rs.rank} reflections permute all {len(rs.roots)} roots"


def _bipartition(c: Branching) -> Result:
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
    for i, j in ((i, j) for i in rs.nodes for j in rs.neighbors(i)):
        if bp.side(i) == bp.side(j):
            return False, f"edge ({i}, {j}) inside one side"
    return True, f"sides {list(bp.part1)} | {list(bp.part2)}"


def _special_side(c: Branching) -> Result:
    g, special = c.rs.coxeter_number // 2, c.params.special
    side = c.bp.side(special)
    return (side == 2) == (g % 2 == 0), f"special node {special} on side {side}, g = {g}"


def _coxeter_order(c: Branching) -> Result:
    """tau1 and tau2 square to one, and sigma's order, the lcm of its cycle
    lengths, is h.  A sigma that is not a permutation has no order and
    fails with the "exactly" detail."""
    cox, h = c.cox, c.rs.coxeter_number
    ident = perm_identity(len(cox.sigma))
    if perm_compose(cox.tau1, cox.tau1) != ident or perm_compose(cox.tau2, cox.tau2) != ident:
        return False, "a color-class involution fails to square to one"
    order = 0  # none: sigma is not a permutation
    if sorted(cox.sigma) == list(ident):
        order, unseen = 1, set(ident)
        while unseen:
            x = start = unseen.pop()
            length = 1
            while (x := cox.sigma[x]) != start:
                unseen.remove(x)
                length += 1
            order = math.lcm(order, length)
    if 0 < order < h:
        return False, f"sigma has order {order} < h"
    return order == h, f"sigma has order exactly {h}"


def _orbit_partition(c: Branching) -> Result:
    rs, table = c.rs, c.table
    h, num_pos = rs.coxeter_number, rs.num_positive
    betas = {rs.index_of(beta) for beta in table.signed_simples}
    seen: set[int] = set()
    for i in rs.nodes:
        orbit = table.orbits[i - 1]
        if len(orbit) != h or len(set(orbit)) != h:
            return False, f"orbit {i} has size {len(orbit)}"
        if set(orbit) & seen:
            return False, f"orbit {i} overlaps a previous orbit"
        if len(set(orbit) & betas) != 1:
            return False, f"orbit {i} meets the signed simple roots {len(set(orbit) & betas)} times"
        seen.update(orbit)
        positives = [x for x in orbit if x < num_pos]
        if len(positives) != h // 2:
            return False, f"orbit {i} has {len(positives)} positive roots"
    ok = len(seen) == len(rs.roots)
    return ok, f"{rs.rank} disjoint orbits of size {h} cover {len(rs.roots)} roots"


def _orbit_exponents(c: Branching) -> Result:
    rs, bp, table = c.rs, c.bp, c.table
    h = rs.coxeter_number
    g = h // 2
    for i in rs.nodes:
        k = bp.side(i)
        halves = set()
        for x in table.orbits[i - 1]:
            if x >= rs.num_positive:
                continue
            n = table.exponent[x]
            if n % 2 != k % 2 or not 1 <= n <= h:
                return False, f"exponent {n} bad for side {k}"
            halves.add((n - 1) // 2 if k == 1 else n // 2)
        if halves != (set(range(g)) if k == 1 else set(range(1, g + 1))):
            return False, f"orbit {i} exponent map is not a bijection"
        if k == 1 and table.exponent[rs.index_of(table.signed_simples[i - 1])] != 1:
            return False, f"beta_{i} does not have exponent 1"
    psi_n = table.exponent[rs.index_of(rs.highest_root)]
    return psi_n == g, f"bijections hold; highest root has exponent {psi_n} = g"


def _negates_positives(c: Branching) -> Result:
    rs = c.rs
    num_pos = rs.num_positive
    bad = [rs.root_at(x) for x in range(num_pos) if c.kappa[x] < num_pos]
    offenders = f"; offenders {bad[:3]}" if bad else ""
    return not bad, f"{num_pos - len(bad)}/{num_pos} positive roots negated{offenders}"


def _negates_class(k: int) -> Callable[[Branching], Result]:
    def predicate(c: Branching) -> Result:
        rs = c.rs
        part = c.bp.part1 if k == 1 else c.bp.part2
        simples = [rs.index_of(rs.simple_root(i)) for i in part]
        ok = {c.kappa[x] for x in simples} == {rs.negation(x) for x in simples}
        return ok, f"{len(part)} simple roots checked"

    return predicate


def _negates_special(c: Branching) -> Result:
    rs, special = c.rs, c.params.special
    alpha = rs.index_of(rs.simple_root(special))
    ok = c.kappa[alpha] == rs.negation(alpha)
    return ok, f"node {special}" + ("" if ok else f"; image {rs.root_at(c.kappa[alpha])}")


def _reaches_special(c: Branching) -> Result:
    rs, table, special = c.rs, c.table, c.params.special
    g = rs.coxeter_number // 2
    steps = (g - 1) // 2 if g % 2 == 1 else g // 2
    reached = perm_power(c.cox.sigma, steps)[rs.index_of(rs.highest_root)]
    ok = reached == rs.index_of(table.signed_simples[special - 1])
    return ok, f"g = {g}, steps = {steps}" + ("" if ok else f"; landed on {rs.root_at(reached)}")


def _shares_orbit(c: Branching) -> Result:
    rs = c.rs
    node = c.table.orbit_node[rs.index_of(rs.highest_root)]
    return node == c.params.special, f"orbit of highest root: node {node}"


def _kappa_involution(c: Branching) -> Result:
    g = c.rs.coxeter_number // 2
    return perm_compose(c.kappa, c.kappa) == perm_identity(len(c.kappa)), f"2g = {2 * g}"


def _kappa_commutes(c: Branching) -> Result:
    kappa, cox = c.kappa, c.cox
    ok = all(perm_compose(kappa, tau) == perm_compose(tau, kappa) for tau in (cox.tau1, cox.tau2))
    return ok, "both factors"


#: sigma^g as the longest Weyl element; audit-only.
LONGEST_ELEMENT: tuple[Invariant, ...] = tuple(
    Invariant(name, "coxeter_element", predicate)
    for name, predicate in (
        ("sigma^g sends every positive root to a negative root", _negates_positives),
        ("sigma^g negates color class 1 setwise", _negates_class(1)),
        ("sigma^g negates color class 2 setwise", _negates_class(2)),
        ("sigma^g negates the special simple root", _negates_special),
        (
            "highest root reaches the signed special root in (g-1)/2 or g/2 steps",
            _reaches_special,
        ),
        ("highest root and special root share an orbit", _shares_orbit),
        ("sigma^2g is the identity", _kappa_involution),
        ("sigma^g commutes with tau1 and tau2", _kappa_commutes),
    )
)


def _heisenberg(c: Branching) -> Result:
    hs, h = c.heisenberg, c.rs.coxeter_number
    if len(hs.roots) != 2 * h - 3:
        return False, f"{len(hs.roots)} roots, expected {2 * h - 3}"
    if any(any(x < 0 for x in r) for r in hs.roots):
        return False, "subsystem contains a negative root"
    if sorted(c.rs.roots[k] for ks in hs.indices.values() for k in ks) != sorted(hs.roots):
        return False, "slices do not partition the subsystem"
    for i in c.rs.nodes:
        want = 2 * c.rs.mark(i) if i != c.params.special else c.params.a - 1
        if len(hs.indices[i]) != want:
            return False, f"slice {i} has {len(hs.indices[i])} roots, expected {want}"
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
        side = c.bp.side(i)
        if any(x and e % 2 != side % 2 for e, x in enumerate(z)):
            return False, f"numerator {i} breaks exponent parity"
        bound = 2 if i == special else 1
        if any(x < 0 or x > bound for x in z):
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
    """The closed form (a, b, h, g), which has a <= b, both even and
    4 | ab; "group sanity" confirms |F*| = a * b / 2 on the built group."""
    p = c.params
    got, want = (p.a, p.b, p.h, p.g), expected_params(c.dtype)
    if got != want:
        return False, f"computed {got}, closed form {want}"
    if p.b != p.h + 2 - p.a:
        return False, "b != h + 2 - a"
    return True, f"(a, b, h, g) = {want}; |F*| = {p.order_fstar}"


def _group_sanity(c: Branching) -> Result:
    """|F*| = a * b / 2, and the table is a group.  Element 0 is a right
    identity, (x y) g = x (y g) for every x, y and generator g, and every
    element is a word 0 g_1 .. g_k in the generator columns, so by
    induction on k, with z = z' g, (x y) z = ((x y) z') g = (x (y z')) g
    = x ((y z') g) = x (y z).  Inverses are checked on both sides."""
    from .binarygroups import generators

    group, p = c.group, c.params
    n, mult = group.order, group.mult
    if p.a * p.b != 2 * n:
        return False, f"a*b = {p.a * p.b} but group order is {n}"
    gens = [group.elements.index(g) for g in generators(group.dtype, group.p)]
    if any(line[0] != x for x, line in enumerate(mult)):
        return False, "element 0 is not a right identity"
    for g in gens:
        col = [line[g] for line in mult]  # y -> y g
        x_yg = itemgetter(*col)  # x's line -> x (y g) for every y
        for x, line in enumerate(mult):
            if itemgetter(*line)(col) != x_yg(line):
                return False, f"(x y) g != x (y g) at x = {x}, g = {g}"
    walk = [0]
    for y in walk:  # grows while it is walked
        walk += [z for z in {mult[y][g] for g in gens} if z not in walk]
    if len(walk) != n:
        return False, f"{n - len(walk)} elements are not words in the generators"
    for x in range(n):
        if mult[x][group.inverse[x]] != 0 or mult[group.inverse[x]][x] != 0:
            return False, f"inverse fails at {x}"
    return True, f"order {n}; associativity proved from the generators, inverses total"


def _extended_graph(c: Branching) -> Result:
    """Symmetric; the affine row is the attachment (so no node pairs
    negatively with the highest root); the extended marks span the
    kernel of 2 - A."""
    graph, rs = c.graph, c.rs
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
        if sum((2 * (i == j) - adj[i][j]) * graph.marks_ext[j] for j in range(graph.size)):
            return False, f"extended Cartan kernel fails at node {i}"
    return True, f"size {graph.size}; marks {list(graph.marks_ext)}"


def _character_table(c: Branching) -> Result:
    group, table, graph = c.group, c.character_table, c.graph
    r = len(group.classes)
    p = group.p
    sizes, inverse = group.class_sizes, group.class_inverse
    for c1 in range(r):
        for c2 in range(r):
            val = sum(row[c1] * row[inverse[c2]] for row in table.rows) * sizes[c1]
            if (val - (group.order if c1 == c2 else 0)) % p:
                return False, f"column orthogonality fails at ({c1}, {c2})"
    for node, (_, at_minus) in enumerate(table.central):
        sign = -1 if c.node_parity(node) == 1 else 1
        if at_minus != sign * graph.marks_ext[node]:
            return False, f"central value at node {node} is {at_minus}"
    dims = tuple(table.dims[table.node_map[i]] for i in range(graph.size))
    return dims == graph.marks_ext, f"{r} irreducibles; dims match marks; central signs match sides"


def _read(tables: list[PeriodTable], *periods: int) -> tuple[int, Iterator]:
    """2L - 1 and the tables' levels 0..2L-1 side by side, L the lcm of
    their periods and ``periods`` (those of the other side compared).

    Every table's levels form a degree-1 quasi-polynomial in n.  Two such
    agree at every n >= 0 once they agree at levels 0..2L-1: on each
    residue class mod L both are affine in k, and two points fix an
    affine function."""
    last = 2 * math.lcm(*periods, *(table.period for table in tables)) - 1
    return last, zip(*(table.upto(last) for table in tables))


def _triple_oracle(c: Branching) -> Result:
    last, levels = _read([c.periods(oracle) for oracle in ORACLES])
    for n, (s, r, ch) in enumerate(levels):
        if s == r == ch:
            continue
        for i in range(c.graph.size):
            if s[i] != r[i]:
                return False, f"series {s[i]} != recursion {r[i]} at n={n}, node {i}"
            if ch[i] != r[i]:
                return False, f"characters {ch[i]} != recursion {r[i]} at n={n}, node {i}"
    return True, f"series == recursion == characters for all n (levels 0..{last})"


def _huge_level(c: Branching) -> Result:
    # The three routes share one level reader, so a reader fault agrees with
    # itself; the characters' level read from the residue sums, without the
    # period table, and the dimension sum catch it.
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
    if (total := sum(map(mul, c.graph.marks_ext, cox))) != n + 1:
        return False, f"dimension sum {total} != {n + 1} at n={n}"
    return True, f"coxeter == recursion == characters at n={n}"


def _molien(c: Branching) -> Result:
    from . import binarygroups
    # Molien's own table has the group's period E; it never reads the character table.
    last, levels = _read([c.periods("coxeter")], binarygroups.exponent(c.dtype))
    for n, (m, (v,)) in enumerate(zip(binarygroups.molien_series(c.group, last), levels)):
        if m != v[0]:
            return False, f"group average {m} != invariant series {v[0]} at n={n}"
    return True, f"group average matches invariant series for all n (levels 0..{last})"


def _sum_rule(c: Branching) -> Result:
    marks = c.graph.marks_ext
    last, levels = _read([c.periods("coxeter")])  # n + 1 has period 1
    for n, (v,) in enumerate(levels):
        if sum(map(mul, marks, v)) != n + 1:
            return False, f"dimension sum fails at n={n}"
    return True, f"sum of mark * multiplicity is n + 1 for all n (levels 0..{last})"


def _parity_vanishing(c: Branching) -> Result:
    last, levels = _read([c.periods("coxeter")], 2)  # the parity has period 2
    for n, (v,) in enumerate(levels):
        for i, m in enumerate(v):
            if m and n % 2 != c.node_parity(i) % 2:
                return False, f"node {i} has multiplicity {m} at parity-breaking n={n}"
    return True, f"multiplicities vanish off-parity for all n (levels 0..{last})"


#: Every structural identity, in report order.
INVARIANTS: tuple[Invariant, ...] = (
    Invariant("root counts", "build_root_system", _root_counts, enforced=True),
    Invariant("cartan pairing", "build_root_system", _cartan_pairing),
    Invariant("closure reachability", "build_root_system", _reachability),
    Invariant("reflections", "build_root_system", _reflections),
    Invariant("bipartition", "bipartition", _bipartition, enforced=True),
    Invariant("special node side", "special_index", _special_side, enforced=True),
    Invariant("coxeter order", "coxeter_element", _coxeter_order, enforced=True),
    Invariant("orbit partition", "orbit_table", _orbit_partition, enforced=True),
    Invariant("orbit exponents", "orbit_table", _orbit_exponents, enforced=True),
    *LONGEST_ELEMENT,
    Invariant("heisenberg subsystem", "heisenberg_subsystem", _heisenberg, enforced=True),
    Invariant("numerator polynomials", "z_polynomial", _numerators, enforced=True),
    Invariant("golden E8 numerators", "z_polynomial", _golden_e8, only="E8"),
    Invariant("branch parameters", "branch_params", _branch_parameters, enforced=True),
    Invariant("group sanity", "build_group", _group_sanity),
    Invariant("extended graph", "extended_graph", _extended_graph, enforced=True),
    Invariant("character table", "character_table", _character_table),
    Invariant("triple oracle", "oracles", _triple_oracle),
    Invariant("huge-level triple oracle", "oracles", _huge_level),
    Invariant("molien average", "oracles", _molien),
    Invariant("dimension sum rule", "oracles", _sum_rule),
    Invariant("parity vanishing", "oracles", _parity_vanishing),
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
