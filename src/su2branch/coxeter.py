"""The bipartite Coxeter element and its orbit structure on the roots.

The diagram is two-colored so that each color class consists of
pairwise orthogonal simple roots; the products tau_1 and tau_2 of the
reflections in each class are involutions, and sigma = tau_2 tau_1 is a
Coxeter element of order h, each tau read from the root closure's
pairings (:func:`coxeter_element`).  Negating the simple roots of the
second class yields one representative per sigma-orbit, and every
positive root picks up a well-defined exponent n in [1, h] recording how
far along its orbit it sits.  Permutations of the root set are stored as
index arrays over the fixed root enumeration of :class:`RootSystem`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import sub

from .rootsys import Root, RootSystem

Perm = tuple[int, ...]


def perm_identity(n: int) -> Perm:
    return tuple(range(n))


def perm_compose(p: Perm, q: Perm) -> Perm:
    """(p o q)[x] = p[q[x]]: apply q first, then p."""
    return tuple(map(p.__getitem__, q))


def perm_inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def perm_power(p: Perm, k: int) -> Perm:
    """p^k for k >= 0, by repeated squaring."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    out = perm_identity(len(p))
    base = p
    while k:
        if k & 1:
            out = perm_compose(base, out)
        base = perm_compose(base, base)
        k >>= 1
    return out


@dataclass(frozen=True)
class Bipartition:
    """The unique two-coloring with the highest-root side labeled 1.

    Nodes in ``part2`` are orthogonal to the highest root; nodes within
    one part are pairwise orthogonal.
    """

    part1: tuple[int, ...]
    part2: tuple[int, ...]

    def side(self, i: int) -> int:
        if i in self.part1:
            return 1
        if i in self.part2:
            return 2
        raise IndexError(f"node index {i} not in bipartition")


def bipartition(rs: RootSystem) -> Bipartition:
    """Two-color the diagram; the class meeting the highest root is part 1."""
    color = {i: d % 2 for i, d in rs.distances_from((1,)).items()}
    c1 = color[rs.affine_attachment()[0]]
    part1 = tuple(sorted(i for i in rs.nodes if color[i] == c1))
    part2 = tuple(sorted(i for i in rs.nodes if color[i] != c1))
    return Bipartition(part1, part2)


def special_index(rs: RootSystem) -> int:
    """The branch node (types D, E) or the path midpoint (type A)."""
    if rs.dtype.family == "A":
        return (rs.rank + 1) // 2
    (i_star,) = (i for i in rs.nodes if len(rs.neighbors(i)) == 3)
    return i_star


@dataclass(frozen=True, eq=False)
class CoxeterAction:
    """sigma = tau_2 tau_1 acting on the full root list, plus its factors;
    its order is ``rs.coxeter_number`` (registry entry "coxeter order")."""

    tau1: Perm
    tau2: Perm
    sigma: Perm
    sigma_inv: Perm


def _class_involution(rs: RootSystem, nodes: tuple[int, ...]) -> Perm:
    columns = list(zip(*rs.roots))
    for i in nodes:  # root column i minus node i's pairings
        columns[i - 1] = tuple(map(sub, columns[i - 1], rs.pairings[i - 1]))
    images = tuple(zip(*columns))
    out = tuple(map(rs._index.get, images))
    if None in out:  # an image off the root set, named as index_of would
        raise ValueError(f"{images[out.index(None)]} is not a root of {rs.dtype}")
    return out


def coxeter_element(rs: RootSystem, bp: Bipartition) -> CoxeterAction:
    """Build tau_1, tau_2 and sigma = tau_2 tau_1, which has order h.

    A class is orthogonal (enforced entry "bipartition"), so its tau is
    r -> r - sum (r, alpha_i) alpha_i over the class: one pass over
    ``rs.pairings``, with no reflection table (those are the audit's)."""
    tau1 = _class_involution(rs, bp.part1)
    tau2 = _class_involution(rs, bp.part2)
    sigma = perm_compose(tau2, tau1)
    return CoxeterAction(tau1=tau1, tau2=tau2, sigma=sigma, sigma_inv=perm_inverse(sigma))


@dataclass(frozen=True, eq=False)
class OrbitTable:
    """Orbit membership, parity class and exponent for every root.

    ``signed_simples[i-1]`` is beta_i: alpha_i on side 1, -alpha_i on
    side 2.  ``orbits[i-1][m]`` is the root index sent to beta_i by the
    m-th power of sigma.  For each positive root index: ``orbit_node``
    gives the node i of its orbit, ``parity`` the side of that node and
    ``exponent`` the exponent n (odd on side 1, even on side 2).
    """

    signed_simples: tuple[Root, ...]
    orbits: tuple[tuple[int, ...], ...]
    orbit_node: dict[int, int] = field(repr=False)
    parity: dict[int, int] = field(repr=False)
    exponent: dict[int, int] = field(repr=False)


def orbit_table(rs: RootSystem, cox: CoxeterAction, bp: Bipartition) -> OrbitTable:
    """Decompose the roots into sigma-orbits and attach exponents.

    Each orbit is walked backwards from beta_i (repeatedly applying
    sigma inverse), so position m in the walk satisfies sigma^m(root) =
    beta_i.  The exponent is n = 2m + 1 on side 1 and n = 2m on side 2;
    over the positive part of each orbit, (n-1)/2 runs bijectively over
    {0..g-1} on side 1 and n/2 over {1..g} on side 2 (registry entries
    "orbit partition" and "orbit exponents").  A walk stops after h + 1
    roots, so a wrong orbit shows as a wrong size there.
    """
    h, num_pos = rs.coxeter_number, rs.num_positive
    betas: list[Root] = []
    for i in rs.nodes:
        alpha = rs.simple_root(i)
        betas.append(alpha if bp.side(i) == 1 else tuple(-c for c in alpha))

    orbits: list[tuple[int, ...]] = []
    orbit_node: dict[int, int] = {}
    parity: dict[int, int] = {}
    exponent: dict[int, int] = {}
    for i in rs.nodes:
        k = bp.side(i)
        start = rs.index_of(betas[i - 1])
        walk = [start]
        while len(walk) <= h and (cur := cox.sigma_inv[walk[-1]]) != start:
            walk.append(cur)
        for m, idx in enumerate(walk):
            orbit_node[idx] = i
            if idx < num_pos:
                parity[idx] = k
                exponent[idx] = 2 * m + 1 if k == 1 else 2 * m
        orbits.append(tuple(walk))
    return OrbitTable(
        signed_simples=tuple(betas),
        orbits=tuple(orbits),
        orbit_node=orbit_node,
        parity=parity,
        exponent=exponent,
    )
