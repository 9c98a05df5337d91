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
kL + r is base[r] + k step[r] (:func:`~.seriescalc.read_level`), exact
for any n.  The dense series (:meth:`Branching.series`) also serves
whole ranges of levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from operator import mul

from .coxeter import (
    Bipartition,
    CoxeterAction,
    OrbitTable,
    bipartition,
    coxeter_element,
    orbit_table,
    special_index,
)
from .invariants import enforce
from .mckay import McKayGraph, extended_graph
from .rootsys import DiagramType, Root, RootSystem, build_root_system
from .seriescalc import PeriodTable, Poly, period_table, poly, read_level, series_div_geom


@dataclass(frozen=True)
class BranchParams:
    """Denominator exponents and the group orders they encode.

    a = 2 * mark(special node), b = h + 2 - a, and a * b is twice the
    order of the binary group (four times the rotation group order).
    a = b happens for A1 and D4; otherwise a < b.
    """

    a: int
    b: int
    h: int
    g: int
    special: int
    order_f: int
    order_fstar: int


def branch_params(rs: RootSystem) -> BranchParams:
    i_star = special_index(rs)
    h = rs.coxeter_number
    a = 2 * rs.mark(i_star)
    b = h + 2 - a
    ab = a * b
    return BranchParams(
        a=a, b=b, h=h, g=h // 2, special=i_star, order_f=ab // 4, order_fstar=ab // 2
    )


@dataclass(frozen=True, eq=False)
class HeisenbergSubsystem:
    """Positive roots pairing strictly positively with the highest root.

    There are exactly 2h - 3 of them; ``slices`` splits them by the node
    of their Coxeter orbit, and ``indices`` holds the slices' root indices.
    """

    roots: tuple[Root, ...]
    slices: dict[int, tuple[Root, ...]] = field(repr=False)
    indices: dict[int, tuple[int, ...]] = field(repr=False)


def heisenberg_subsystem(rs: RootSystem, table: OrbitTable) -> HeisenbergSubsystem:
    """Members by root index: (r, psi) from the root columns at psi's pairings."""
    positives = rs.positive_roots
    psi = zip(rs.highest_root_image, zip(*positives))
    pairs = map(sum, zip(*[map(mul, repeat(p), column) for p, column in psi if p]))
    members = [k for k, pair in enumerate(pairs) if pair > 0]
    indices: dict[int, list[int]] = {i: [] for i in rs.nodes}
    for k in members:
        indices[table.orbit_node[k]].append(k)
    return HeisenbergSubsystem(
        tuple(positives[k] for k in members),
        {i: tuple(positives[k] for k in ks) for i, ks in indices.items()},
        {i: tuple(ks) for i, ks in indices.items()},
    )


def z_polynomial(
    rs: RootSystem,
    table: OrbitTable,
    hs: HeisenbergSubsystem,
    params: BranchParams,
    node: int,
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
    psi = rs.index_of(rs.highest_root) if node == params.special else None
    for k in hs.indices[node]:
        if k != psi:
            coeffs[table.exponent[k]] += 1
    if node == params.special:
        coeffs[params.g] += 2
    return poly(coeffs)


@dataclass(frozen=True, eq=False)
class Branching:
    """Everything derived from one diagram type, bundled.

    Build once with :meth:`build`; nothing changes after construction.
    Constructing one runs the registry's enforced entries
    (:func:`~.invariants.enforce`) and raises ``ConsistencyError`` at
    the first that fails; their results are kept in ``enforced``, by
    entry name, for verify to report.  Then it builds ``periods``, the
    period table every level is read from (module docstring).
    """

    rs: RootSystem
    bp: Bipartition
    cox: CoxeterAction
    table: OrbitTable
    params: BranchParams
    heisenberg: HeisenbergSubsystem
    zpolys: dict[int, Poly]
    enforced: dict[str, tuple[bool, str]] = field(init=False, repr=False)
    periods: PeriodTable = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "enforced", enforce(self))
        period = math.lcm(self.params.a, self.params.b)
        columns = (self.series(i, 2 * period - 1) for i in range(self.rs.rank + 1))
        object.__setattr__(self, "periods", period_table(list(zip(*columns)), period))

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
        "extended graph" entry checks this object, and every
        :class:`~.invariants.Session` over the bundle reads it."""
        return extended_graph(self.rs)

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
                raise ValueError(f"bad node spec {spec!r}: expected 'mark,distance'") from None
            for i in range(self.rs.rank + 1):
                if self.node_label(i) == want:
                    return i
            raise ValueError(f"no node labeled (mark, distance) = {want} in {self.dtype}")
        try:
            node = int(text)
        except ValueError:
            raise ValueError(f"bad node spec {spec!r}") from None
        if not 0 <= node <= self.rs.rank:
            raise ValueError(f"node index {node} out of range for {self.dtype}")
        return node

    def series(self, node: int, order: int) -> tuple[int, ...]:
        """Multiplicities of the node at levels 0..order (dense expansion);
        nonnegative, as the enforced numerators are."""
        return series_div_geom(self.zpolys[node], self.params.a, self.params.b, order)

    def multiplicity(self, n: int, node: int) -> int:
        """Coefficient of t^n in m(t) for the given extended node."""
        if not 0 <= node <= self.rs.rank:
            raise ValueError(f"node index {node} out of range for {self.dtype}")
        return self.vector(n)[node]

    def vector(self, n: int) -> tuple[int, ...]:
        """Multiplicities at level n across all extended nodes (0..rank), exact
        for any n >= 0: one read of the period table, O(rank)."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        return read_level(self.periods, n)
