"""Branching generating functions from the Coxeter-orbit construction.

For each node i of the extended diagram, the multiplicity of the i-th
irreducible of the binary polyhedral group in the restriction of the
(n+1)-dimensional SU(2) representation is the coefficient of t^n in

    m(t)_i = z(t)_i / ((1 - t^a)(1 - t^b))

where a = 2 * (mark of the special node), b = h + 2 - a, and z(t)_i is
read off the roots that pair strictly positively with the highest root
(the Heisenberg subsystem): each such root phi contributes t^(n(phi))
to the node of its Coxeter orbit.  The affine node has z_0 = 1 + t^h,
the classical invariant-series numerator.

Every level is read from one period table, built and proved when the
bundle is constructed.  With L = lcm(a, b), both (1 - t^L)/(1 - t^a) and
(1 - t^L)/(1 - t^b) are polynomials, so

    m(t)_i (1 - t^L)^2 = z(t)_i [(1 - t^L)/(1 - t^a)] [(1 - t^L)/(1 - t^b)]

has degree deg z_i + 2L - (h + 2) <= 2L - 2, since the enforced
"numerator polynomials" entry keeps deg z_i <= h.  Its coefficients
from t^(2L) on vanish: s[n + 2L] - 2 s[n + L] + s[n] = 0 for every
n >= 0, where s is the node's series.  So the dense series to 2L - 1
gives base[r] = s[r] and step[r] = s[r + L] - s[r] for r < L, and level
kL + r is base[r] + k step[r] (:class:`~.seriescalc.PeriodTable`),
exact for any n.  The bundle expands all nodes at once, an unsigned
64-bit field per node, so each running-sum step is one int addition, and
hands the table those packed rows with the bound max_i z_i(1) (at most
12): s[n] = sum_e z_e c(n - e) over the enforced nonnegative z_e, where
c(m), the number of (i, j) >= 0 with a i + b j = m, is at most 1 for m <
L and grows by 0 or 1 from m to m + L.  :meth:`Branching.series` reads
one node's column of the table, levels 0..order.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import count, islice, repeat
from operator import itemgetter, mul, sub
from typing import TYPE_CHECKING, NamedTuple

from .coxeter import (
    Bipartition,
    CoxeterAction,
    OrbitTable,
    bipartition,
    coxeter_element,
    orbit_table,
    special_index,
)
from .errors import UsageError
from .invariants import ORACLES, enforce
from .mckay import McKayGraph, extended_graph
from .rootsys import DiagramType, ReadOnly, RootSystem, build_root_system
from .seriescalc import PeriodTable, Poly, fields, poly, series_div_geom, sparse_items

if TYPE_CHECKING:
    from . import binarygroups


class BranchParams(NamedTuple):
    """Denominator exponents and the group orders they encode.

    a = 2 * mark(special node) and h are stored; b = h + 2 - a, g = h / 2,
    and a * b, twice the order |F*| of the binary group (four times the
    rotation group order |F|), are derived.  a = b happens for A1 and D4;
    otherwise a < b.
    """

    a: int
    h: int
    special: int

    b = property(lambda self: self.h + 2 - self.a)
    g = property(lambda self: self.h // 2)
    order_f = property(lambda self: self.a * self.b // 4)
    order_fstar = property(lambda self: self.a * self.b // 2)


def branch_params(rs: RootSystem) -> BranchParams:
    i_star = special_index(rs)
    return BranchParams(a=2 * rs.mark(i_star), h=rs.coxeter_number, special=i_star)


def heisenberg_subsystem(rs: RootSystem, table: OrbitTable) -> dict[int, tuple[int, ...]]:
    """The positive roots pairing strictly positively with the highest root,
    2h - 3 of them, as root indices in slices by the node of their Coxeter
    orbit.  Members by root index: (r, psi) = sum r_i (psi, alpha_i) over
    psi's few nonzero pairings."""
    positives = rs.roots[: rs.num_positive]
    psi = [(itemgetter(i - 1), p) for i, p in zip(rs.nodes, rs.highest_root_image) if p]
    pairs = map(sum, zip(*[map(mul, repeat(p), map(column, positives)) for column, p in psi]))
    indices: dict[int, list[int]] = {i: [] for i in rs.nodes}
    for k in (k for k, pair in enumerate(pairs) if pair > 0):
        indices[table.orbit_node[k]].append(k)
    return {i: tuple(ks) for i, ks in indices.items()}


def z_polynomial(
    rs: RootSystem, table: OrbitTable, hs: dict[int, tuple[int, ...]],
    params: BranchParams, node: int,
) -> Poly:
    """Numerator polynomial for one extended-diagram node.

    Node 0 gets 1 + t^h.  A non-special node i collects t^(n(phi)) over
    its Heisenberg slice.  The special node gets 2 t^g plus the
    non-highest-root terms of its slice; its closed form and every
    coefficient bound are registry entries (:mod:`.invariants`).
    """
    h = rs.coxeter_number
    if node == 0:
        return poly([1] + [0] * (h - 1) + [1])
    rs._check_node(node)
    coeffs = [0] * (h + 1)
    psi = rs.index_of(rs.highest_root, "z_polynomial") if node == params.special else None
    for k in hs[node]:
        if k != psi:
            coeffs[table.exponent[k]] += 1
    if node == params.special:
        coeffs[params.g] += 2
    return poly(coeffs)


class Branching(ReadOnly):
    """Everything derived from one diagram type, bundled.

    Build once with :meth:`build`; nothing changes after construction.
    Constructing one runs the registry's enforced entries
    (:func:`~.invariants.enforce`) and raises ``ConsistencyError`` at
    the first that fails; their results are kept in ``enforced``, by
    entry name, for verify to report.  Then it builds the Coxeter period
    table every level is read from (module docstring).  The McKay graph,
    the group and its character table are cached properties, and a failed
    build runs again at each read; only the last two load ``binarygroups``.
    """

    def __init__(
        self, rs: RootSystem, bp: Bipartition, cox: CoxeterAction, table: OrbitTable,
        params: BranchParams, heisenberg: dict[int, tuple[int, ...]], zpolys: dict[int, Poly],
    ) -> None:
        vars(self).update(
            rs=rs, bp=bp, cox=cox, table=table, params=params, heisenberg=heisenberg, zpolys=zpolys
        )
        vars(self)["enforced"] = enforce(self)
        size, period = rs.rank + 1, math.lcm(params.a, params.b)
        z = [0] * 2 * period  # z[n]: every node's coefficient of t^n, packed
        for i in range(size):
            for e, c in sparse_items(zpolys[i][: 2 * period]):
                z[e] += c << 64 * i
        s = series_div_geom(z, params.a, params.b, 2 * period - 1)
        packed = (s[:period], tuple(map(sub, s[period:], s)))  # steps are nonnegative too
        row = fields(size)
        base, step = (tuple([row.unpack(x.to_bytes(row.size, "little")) for x in xs]) for xs in packed)
        bound = max(map(sum, zpolys.values()))  # each entry <= z_i(1) (module docstring)
        vars(self)["_coxeter"] = PeriodTable(base, step, len(s) - 1, packed, bound)

    @classmethod
    def build(cls, dtype: DiagramType | str) -> "Branching":
        rs = build_root_system(dtype)
        bp = bipartition(rs)
        cox = coxeter_element(rs, bp)
        table = orbit_table(rs, cox, bp)
        params = branch_params(rs)
        hs = heisenberg_subsystem(rs, table)
        zpolys = {i: z_polynomial(rs, table, hs, params, i) for i in range(rs.rank + 1)}
        return cls(
            rs=rs, bp=bp, cox=cox, table=table, params=params, heisenberg=hs, zpolys=zpolys
        )

    @property
    def dtype(self) -> DiagramType:
        return self.rs.dtype

    def node_parity(self, node: int) -> int:
        """Side of the bipartition; the affine node counts as side 2."""
        return 2 if node == 0 else self.bp.side(node)

    def node_label(self, node: int) -> tuple[int, int]:
        """(mark, distance to the affine attachment point); (1, -1) for node 0."""
        if node == 0:
            return (1, -1)
        return (self.rs.mark(node), self._attachment_distances[node])

    @cached_property
    def graph(self) -> McKayGraph:
        """The extended diagram, built once per bundle: the enforced
        "extended graph" entry checks this object, and the recursion
        route and the character table read it."""
        return extended_graph(self.rs)

    @cached_property
    def group(self) -> binarygroups.FiniteGroup:
        from . import binarygroups
        return binarygroups.build_group(self.dtype, self.params)

    @cached_property
    def character_table(self) -> binarygroups.CharacterTable:
        from . import binarygroups
        return binarygroups.character_table(self.group, self.graph)

    @cached_property
    def _attachment_distances(self) -> dict[int, int]:
        return self.rs.distances_from(self.rs.affine_attachment())

    def resolve_node(self, spec: str) -> int:
        """Node from a canonical index or a 'mark,distance' pair."""
        text = spec.strip()
        if "," in text:
            try:
                mark_s, dist_s = text.split(",")
                want = (int(mark_s), int(dist_s))
            except ValueError:
                raise UsageError(f"bad node spec {spec!r}: expected 'mark,distance'") from None
            for i in range(self.rs.rank + 1):
                if self.node_label(i) == want:
                    return i
            raise UsageError(f"no node labeled (mark, distance) = {want} in {self.dtype}")
        try:
            node = int(text)
        except ValueError:
            raise UsageError(f"bad node spec {spec!r}") from None
        if not 0 <= node <= self.rs.rank:
            raise UsageError(f"node index {node} out of range for {self.dtype}")
        return node

    def series(self, node: int, order: int) -> tuple[int, ...]:
        """Multiplicities of the node at levels 0..order: its column of the
        proved Coxeter table, base[r][node] + k step[r][node] at n = kL + r,
        one arithmetic progression per residue r."""
        if not 0 <= node <= self.rs.rank:
            raise UsageError(f"node index {node} out of range for {self.dtype}")
        if order < 0:
            raise UsageError("order must be nonnegative")
        table, levels = self._coxeter, [0] * (order + 1)
        period = table.period
        for r, (base, step) in enumerate(zip(table.base[: order + 1], table.step)):
            levels[r::period] = islice(count(base[node], step[node]), (order - r) // period + 1)
        return tuple(levels)

    def periods(self, oracle: str = "coxeter") -> PeriodTable:
        """The proved period table of the oracle named from :data:`~.invariants.ORACLES`;
        only the characters build the group.  Its ``upto(order)`` gives the
        route's levels 0..order, ``level(n)`` any one level."""
        if oracle == "coxeter":
            return self._coxeter
        if oracle == "recursion":
            return self.graph.certificate
        if oracle == "characters":
            return self.character_table.periods
        raise UsageError(f"unknown oracle {oracle!r}: expected one of {', '.join(ORACLES)}")

    def vector(self, n: int, oracle: str = "coxeter") -> tuple[int, ...]:
        """Multiplicities at level n across all extended nodes (0..rank) by the
        named oracle, exact for any n >= 0: one read of its period table of
        period P, one multiply-add of packed 64-bit fields for P <= n < 2^64 -
        P from the first read, exact int arithmetic entry by entry beyond
        (:meth:`~.seriescalc.PeriodTable.level`)."""
        if n < 0:
            raise UsageError("n must be nonnegative")
        return (self._coxeter if oracle == "coxeter" else self.periods(oracle)).level(n)
