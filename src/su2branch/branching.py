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

A single multiplicity is read from a closed form.  The coefficient of
t^N in 1 / ((1 - t^a)(1 - t^b)) is count(N), the number of pairs
(i, j) >= 0 with a*i + b*j = N (:func:`~.seriescalc.pair_counter`), so
the coefficient of t^n in m(t)_i is

    sum of z_e * count(n - e) over the nonzero terms z_e t^e of z(t)_i,

a few terms per node whatever n is.  The dense series
(:func:`branching_series`) serves whole ranges of levels.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

from .coxeter import (
    Bipartition,
    CoxeterAction,
    OrbitTable,
    bipartition,
    coxeter_element,
    orbit_table,
    special_index,
)
from .errors import ConsistencyError
from .rootsys import DiagramType, Root, RootSystem, build_root_system
from .seriescalc import (
    Poly,
    coefficient,
    degree,
    eval_at_one,
    pair_counter,
    poly,
    series_div_geom,
    sparse_items,
)


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
    if a > b or a % 2 or b % 2:
        raise ConsistencyError(f"{rs.dtype}: bad denominator exponents a={a}, b={b}")
    ab = a * b
    if ab % 4:
        raise ConsistencyError(f"{rs.dtype}: a*b = {ab} is not divisible by 4")
    return BranchParams(
        a=a, b=b, h=h, g=h // 2, special=i_star, order_f=ab // 4, order_fstar=ab // 2
    )


@dataclass(frozen=True, eq=False)
class HeisenbergSubsystem:
    """Positive roots pairing strictly positively with the highest root.

    There are exactly 2h - 3 of them; ``slices`` splits them by the node
    of their Coxeter orbit.
    """

    roots: tuple[Root, ...]
    slices: dict[int, tuple[Root, ...]] = field(repr=False)


def heisenberg_subsystem(rs: RootSystem, table: OrbitTable) -> HeisenbergSubsystem:
    psi = rs.highest_root
    members = [r for r in rs.positive_roots if rs.inner(psi, r) > 0]
    h = rs.coxeter_number
    if len(members) != 2 * h - 3:
        raise ConsistencyError(
            f"{rs.dtype}: Heisenberg subsystem has {len(members)} roots, expected {2 * h - 3}"
        )
    slices: dict[int, list[Root]] = {i: [] for i in rs.nodes}
    for r in members:
        slices[table.orbit_node[rs.index_of(r)]].append(r)
    return HeisenbergSubsystem(
        roots=tuple(members), slices={i: tuple(v) for i, v in slices.items()}
    )


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


def z_polynomial(
    rs: RootSystem,
    table: OrbitTable,
    hs: HeisenbergSubsystem,
    params: BranchParams,
    node: int,
) -> Poly:
    """Numerator polynomial for one extended-diagram node.

    Node 0 gets 1 + t^h.  A non-special node i collects t^(n(phi)) over
    its Heisenberg slice; all coefficients are 0/1 and sum to twice the
    node's mark.  The special node gets 2 t^g plus the non-highest-root
    terms of its slice, and must agree with the closed form, which is
    checked here along with every coefficient bound.
    """
    h = rs.coxeter_number
    if node == 0:
        return poly([1] + [0] * (h - 1) + [1])
    rs._check_node(node)

    exps = [table.exponent[rs.index_of(r)] for r in hs.slices[node]]
    if node != params.special:
        coeffs = [0] * h
        for e in exps:
            coeffs[e] += 1
        z = poly(coeffs)
        if any(c not in (0, 1) for c in z):
            raise ConsistencyError(f"{rs.dtype}: node {node} numerator has a coefficient > 1")
        if eval_at_one(z) != 2 * rs.mark(node):
            raise ConsistencyError(
                f"{rs.dtype}: node {node} numerator sums to {eval_at_one(z)}, "
                f"expected {2 * rs.mark(node)}"
            )
    else:
        psi_exp = table.exponent[rs.index_of(rs.highest_root)]
        if psi_exp != params.g:
            raise ConsistencyError(
                f"{rs.dtype}: highest root has exponent {psi_exp}, expected g = {params.g}"
            )
        coeffs = [0] * h
        coeffs[params.g] = 2
        for r in hs.slices[node]:
            if r == rs.highest_root:
                continue
            coeffs[table.exponent[rs.index_of(r)]] += 1
        z = poly(coeffs)
        if coefficient(z, params.g) != 2 or any(
            c not in (0, 1) for e, c in enumerate(z) if e != params.g
        ):
            raise ConsistencyError(f"{rs.dtype}: special-node coefficient bounds violated")
        if eval_at_one(z) != params.a:
            raise ConsistencyError(
                f"{rs.dtype}: special numerator sums to {eval_at_one(z)}, expected a = {params.a}"
            )
        if z != special_z_closed_form(params):
            raise ConsistencyError(
                f"{rs.dtype}: special numerator disagrees with its closed form"
            )
    if degree(z) >= h:
        raise ConsistencyError(f"{rs.dtype}: node {node} numerator has degree >= h")
    side = table.parity[rs.index_of(hs.slices[node][0])]
    if any(c and e % 2 != side % 2 for e, c in enumerate(z)):
        raise ConsistencyError(f"{rs.dtype}: node {node} numerator breaks exponent parity")
    return z


def branching_series(params: BranchParams, z: Poly, order: int) -> tuple[int, ...]:
    """Multiplicity series z / ((1-t^a)(1-t^b)) up to ``order``."""
    out = series_div_geom(z, params.a, params.b, order)
    if any(c < 0 for c in out):
        raise ConsistencyError("branching series produced a negative coefficient")
    return out


@dataclass(frozen=True, eq=False)
class Branching:
    """Everything derived from one diagram type, bundled.

    Build once with :meth:`build`; nothing changes after construction.
    """

    rs: RootSystem
    bp: Bipartition
    cox: CoxeterAction
    table: OrbitTable
    params: BranchParams
    heisenberg: HeisenbergSubsystem
    zpolys: dict[int, Poly]

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
        dist = self.rs.distances_from(self.rs.affine_attachment())
        return (self.rs.mark(node), dist[node])

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
        """Multiplicities of the node at levels 0..order (dense expansion)."""
        return branching_series(self.params, self.zpolys[node], order)

    @cached_property
    def _count(self) -> Callable[[int], int]:
        return pair_counter(self.params.a, self.params.b)

    @cached_property
    def _terms(self) -> dict[int, list[tuple[int, int]]]:
        return {i: sparse_items(z) for i, z in self.zpolys.items()}

    def multiplicity(self, n: int, node: int) -> int:
        """Coefficient of t^n in m(t) for the given extended node.

        Closed form, exact for any n >= 0: the sum of z_e * count(n - e)
        over the nonzero numerator terms.
        """
        if n < 0:
            raise ValueError("n must be nonnegative")
        count = self._count
        return sum(c * count(n - e) for e, c in self._terms[node])

    def vector(self, n: int) -> tuple[int, ...]:
        """Multiplicities at level n across all extended nodes (0..rank)."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        count = self._count
        return tuple(
            sum(c * count(n - e) for e, c in self._terms[i]) for i in range(self.rs.rank + 1)
        )
