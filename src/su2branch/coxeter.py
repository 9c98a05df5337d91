"""The bipartite Coxeter element and its orbit structure on the roots.

The diagram is two-colored so that each color class consists of
pairwise orthogonal simple roots; the products tau_1 and tau_2 of the
reflections in each class are involutions, and sigma = tau_2 tau_1 is a
Coxeter element of order h, each tau read from the root closure's packed
roots and images (:func:`coxeter_element`).  Negating the simple roots of
the second class yields one representative per sigma-orbit; each orbit is
walked forward on sigma, and every positive root picks up an exponent n
in [1, h] recording how far along its orbit it sits.  Permutations are
index arrays over the fixed root enumeration of :class:`RootSystem`.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

from .errors import ConsistencyError
from .rootsys import ReadOnly, Root, RootSystem

Perm = tuple[int, ...]


def perm_compose(p: Perm, q: Perm) -> Perm:
    """(p o q)[x] = p[q[x]]: apply q first, then p; one gather (a pair at least)."""
    return itemgetter(*q)(p) if len(q) > 1 else tuple(map(p.__getitem__, q))


class Bipartition(NamedTuple):
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


class CoxeterAction(ReadOnly):
    """The involutions tau_1 and tau_2 on the full root list, and sigma =
    tau_2 tau_1, derived on first read, with no inverse; its order is
    ``rs.coxeter_number`` (registry entry "coxeter order")."""

    def __init__(self, tau1: Perm, tau2: Perm) -> None:
        vars(self).update(tau1=tau1, tau2=tau2)

    sigma = cached_property(lambda self: perm_compose(self.tau2, self.tau1))


def _class_involution(rs: RootSystem, nodes: tuple[int, ...]) -> Perm:
    rank = rs.rank
    mask = sum(0xFF << 8 * (rank - i) for i in nodes)  # the class's bytes
    fix = mask // 0xFF * 8
    images = [x - (q & mask) + fix for x, q in zip(*rs._forms)]
    out = tuple(map(rs._index.get, images))
    if None in out:  # an image off the root set, named as index_of would
        image = images[out.index(None)].to_bytes(rank, "big")
        problem = f"{tuple([b - 8 for b in image])} is not a root of {rs.dtype}"
    elif len(set(out)) < len(out):  # a reflection is injective, so two roots are equal
        twice = next(k for k, x in enumerate(out) if out.index(x) < k)
        problem = f"{rs.roots[twice]} is listed twice among the roots of {rs.dtype}"
    else:
        return out
    raise ConsistencyError(problem, dtype=str(rs.dtype), stage="coxeter_element")


def coxeter_element(rs: RootSystem, bp: Bipartition) -> CoxeterAction:
    """Build tau_1 and tau_2, whose product sigma = tau_2 tau_1 has order h.

    A class is orthogonal (enforced entry "bipartition"), so its tau is
    r -> r - sum (r, alpha_i) alpha_i over the class: on the packed forms
    (``rootsys`` docstring), each root minus its image's bytes at the class
    plus their bias, then one lookup, with no table of the single
    reflections and no tuple; the first lookup numbers the packed roots
    (``RootSystem._index``).  An image that is not a root, or two roots
    with one image (a root listed twice), raises
    :class:`~.errors.ConsistencyError`."""
    return CoxeterAction(_class_involution(rs, bp.part1), _class_involution(rs, bp.part2))


class OrbitTable(ReadOnly):
    """Orbit membership and exponent for every root.

    ``signed_simples[i-1]`` is beta_i: alpha_i on side 1, -alpha_i on
    side 2.  ``orbits[i-1][m]`` is the root index sent to beta_i by the
    m-th power of sigma.  ``exponent`` gives each positive root index its
    exponent n, odd when ``bp.side(i)`` is 1 and even when it is 2, for i
    the node of its orbit; ``orbit_node``, the inverse map of ``orbits``,
    gives that node for every root index, derived on first read.
    """

    def __init__(
        self, signed_simples: tuple[Root, ...], orbits: tuple[tuple[int, ...], ...],
        exponent: dict[int, int],
    ) -> None:
        vars(self).update(signed_simples=signed_simples, orbits=orbits, exponent=exponent)

    orbit_node = cached_property(
        lambda self: {x: i for i, orbit in enumerate(self.orbits, 1) for x in orbit}
    )


def orbit_table(rs: RootSystem, cox: CoxeterAction, bp: Bipartition) -> OrbitTable:
    """Decompose the roots into sigma-orbits and attach exponents.

    Each orbit is walked forward on sigma from beta_i and all but its
    first entry are then reversed, so on an orbit of size s position m
    holds sigma^(s-m)(beta_i), the root that sigma^m sends to beta_i.
    The exponent is n = 2m + 1 on side 1 and n = 2m on side 2; over the
    positive part of each orbit, (n-1)/2 runs bijectively over {0..g-1}
    on side 1 and n/2 over {1..g} on side 2 (registry entries "orbit
    partition" and "orbit exponents").  A walk stops after h + 1 roots,
    so a wrong orbit shows as a wrong size there.  A beta_i that is not a
    root raises :class:`~.errors.ConsistencyError` with this stage.
    """
    h, num_pos = rs.coxeter_number, rs.num_positive
    betas: list[Root] = []
    for i in rs.nodes:
        alpha = rs.simple_root(i)
        betas.append(alpha if bp.side(i) == 1 else tuple(-c for c in alpha))

    orbits: list[tuple[int, ...]] = []
    exponent: dict[int, int] = {}
    for i in rs.nodes:
        odd = bp.side(i) == 1
        start = rs.index_of(betas[i - 1], "orbit_table")
        walk = [start]
        while len(walk) <= h and (cur := cox.sigma[walk[-1]]) != start:
            walk.append(cur)
        walk[1:] = walk[:0:-1]
        for m, idx in enumerate(walk):
            if idx < num_pos:
                exponent[idx] = 2 * m + odd
        orbits.append(tuple(walk))
    return OrbitTable(signed_simples=tuple(betas), orbits=tuple(orbits), exponent=exponent)
