"""Simply laced (ADE) root systems over the simple-root basis.

Roots are integer coefficient tuples over the simple roots and the
bilinear form is the Cartan pairing, normalized so that every root has
squared length 2.  All arithmetic is exact.

Node numbering (convention tag ``"v1"``; every module and all CLI
output use it):

* ``A(l)`` -- nodes ``1 .. l`` along the path.
* ``D(l)`` -- nodes ``1 .. l-2`` along a path; the two fork tails are
  ``l-1`` and ``l``, both attached to the branch node ``l-2``.
* ``E(l)`` -- nodes ``1 .. l-1`` along a path; node ``l`` is the short
  branch tail, attached to node 3 (the branch node).

Type A is only built for odd rank; even-rank A diagrams belong to the
odd-order cyclic subgroups, which sit outside the binary polyhedral
families handled by this package, so they are rejected up front.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from operator import add, mul, neg

#: Version tag for the node-numbering convention, carried by JSON output.
NODE_CONVENTION = "v1"

Root = tuple[int, ...]

_E_BRANCH = 3


@dataclass(frozen=True)
class DiagramType:
    """A simply laced diagram: family ``A``, ``D`` or ``E`` plus rank."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in ("A", "D", "E"):
            raise ValueError(f"unknown family {self.family!r}; expected A, D or E")
        r = self.rank
        if self.family == "A" and (r < 1 or r % 2 == 0):
            raise ValueError(f"A{r} is not supported: type A requires odd rank >= 1")
        if self.family == "D" and r < 4:
            raise ValueError(f"D{r} is not supported: type D requires rank >= 4")
        if self.family == "E" and r not in (6, 7, 8):
            raise ValueError(f"E{r} is not supported: type E requires rank 6, 7 or 8")

    @classmethod
    def parse(cls, text: str) -> "DiagramType":
        m = re.fullmatch(r"\s*([ADEade])\s*(\d+)\s*", text)
        if not m:
            raise ValueError(
                f"cannot parse diagram type {text!r} (expected e.g. 'A7', 'D5', 'E8')"
            )
        return cls(m.group(1).upper(), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def dynkin_edges(dtype: DiagramType) -> tuple[tuple[int, int], ...]:
    """Edges of the diagram as (i, j) pairs with i < j, 1-based nodes."""
    r = dtype.rank
    if dtype.family == "A":
        return tuple((i, i + 1) for i in range(1, r))
    if dtype.family == "D":
        path = tuple((i, i + 1) for i in range(1, r - 2))
        return path + ((r - 2, r - 1), (r - 2, r))
    path = tuple((i, i + 1) for i in range(1, r - 1))
    return path + ((_E_BRANCH, r),)


def cartan_matrix(dtype: DiagramType) -> tuple[tuple[int, ...], ...]:
    r = dtype.rank
    c = [[0] * r for _ in range(r)]
    for i in range(r):
        c[i][i] = 2
    for i, j in dynkin_edges(dtype):
        c[i - 1][j - 1] = -1
        c[j - 1][i - 1] = -1
    return tuple(tuple(row) for row in c)


@dataclass(frozen=True, eq=False)
class RootSystem:
    """A built ADE root system.

    ``roots`` lists all roots, positive roots first (ordered by height,
    then lexicographically) and then their negatives in matching order,
    so root ``i`` and root ``i + num_positive`` are negatives of each
    other.  Instances are immutable and safe to share.
    """

    dtype: DiagramType
    cartan: tuple[tuple[int, ...], ...]
    roots: tuple[Root, ...]
    num_positive: int
    highest_root: Root
    marks: tuple[int, ...]
    coxeter_number: int
    _index: dict[Root, int] = field(repr=False)
    _adjacency: tuple[tuple[int, ...], ...] = field(repr=False)

    @property
    def rank(self) -> int:
        return self.dtype.rank

    @property
    def nodes(self) -> range:
        """Node indices 1 .. rank."""
        return range(1, self.rank + 1)

    @property
    def positive_roots(self) -> tuple[Root, ...]:
        return self.roots[: self.num_positive]

    def simple_root(self, i: int) -> Root:
        self._check_node(i)
        return tuple(int(j == i - 1) for j in range(self.rank))

    def mark(self, i: int) -> int:
        """Coefficient of the simple root ``i`` in the highest root."""
        self._check_node(i)
        return self.marks[i - 1]

    @cached_property
    def highest_root_image(self) -> tuple[int, ...]:
        """The Cartan image of the highest root: (psi, alpha_i) for i = 1 .. rank."""
        return tuple(sum(map(mul, row, self.highest_root)) for row in self.cartan)

    @cached_property
    def pairings(self) -> tuple[tuple[int, ...], ...]:
        """``pairings[i - 1][k]`` = (root k, alpha_i): row i of C times the root
        columns.  :func:`build_root_system` seeds it from its closure's Cartan
        images; a ``dataclasses.replace`` copy computes its own."""
        columns = tuple(zip(*self.roots))
        return tuple(
            tuple(map(sum, zip(*[map(mul, repeat(c), col) for c, col in zip(row, columns) if c])))
            or (0,) * len(self.roots)
            for row in self.cartan
        )

    @cached_property
    def reflections(self) -> tuple[tuple[int | None, ...], ...]:
        """Each simple reflection as an index map of the root list, for the
        "reflections" audit only: ``reflections[i - 1][k]`` indexes root k -
        (root k, alpha_i) alpha_i (:attr:`pairings`), or is None where that
        image is not a root, as only in a corrupted system."""
        roots, find = self.roots, self._index.get
        fixed = tuple(map(find, roots))
        return tuple(
            tuple(
                find(r[:i] + (r[i] - p,) + r[i + 1 :]) if p else f
                for r, p, f in zip(roots, pairings, fixed)
            )
            for i, pairings in enumerate(self.pairings)
        )

    def is_root(self, x: Root) -> bool:
        return x in self._index

    def index_of(self, x: Root) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise ValueError(f"{x} is not a root of {self.dtype}") from None

    def root_at(self, idx: int) -> Root:
        return self.roots[idx]

    def negation(self, idx: int) -> int:
        """Index of the negative of the root at ``idx``."""
        p = self.num_positive
        return idx + p if idx < p else idx - p

    def neighbors(self, i: int) -> tuple[int, ...]:
        self._check_node(i)
        return self._adjacency[i - 1]

    def affine_attachment(self) -> tuple[int, ...]:
        """Nodes pairing strictly positively with the highest root.

        These are exactly the nodes the affine vertex attaches to in the
        extended diagram: both path ends for type A, node 2 for type D,
        one arm end for type E.
        """
        return tuple(i for i, c in zip(self.nodes, self.highest_root_image) if c > 0)

    def distances_from(self, sources: tuple[int, ...]) -> dict[int, int]:
        """Graph distance from the nearest of ``sources``, per node."""
        dist = {i: 0 for i in sources}
        frontier = list(sources)
        while frontier:
            nxt = []
            for i in frontier:
                for j in self.neighbors(i):
                    if j not in dist:
                        dist[j] = dist[i] + 1
                        nxt.append(j)
            frontier = nxt
        return dist

    def _check_node(self, i: int) -> None:
        if not 1 <= i <= self.rank:
            raise IndexError(f"node index {i} out of range for {self.dtype}")


def build_root_system(dtype: DiagramType | str) -> RootSystem:
    """Construct the root system for an accepted ADE diagram type.

    Positive roots are generated by breadth-first closure from the
    simple roots: a simple root alpha may be added to a known root r
    exactly when (r, alpha) = -1, read from r's Cartan image (r + alpha_i
    has image(r) + row i), which is kept as ``pairings``.  No Weyl-group
    enumeration is used.  The Coxeter number is h = 2 |positive roots| /
    rank; the registry entry "root counts" checks it and the highest root.
    """
    if isinstance(dtype, str):
        dtype = DiagramType.parse(dtype)
    rank = dtype.rank
    cartan = cartan_matrix(dtype)

    simples = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    pos: dict[Root, tuple[int, ...]] = dict(zip(simples, cartan))  # root -> Cartan image
    frontier = list(pos.items())
    while frontier:
        nxt = []
        for r, image in frontier:
            for i, p in enumerate(image):
                if p == -1:
                    t = r[:i] + (r[i] + 1,) + r[i + 1 :]
                    if t not in pos:
                        pos[t] = tuple(map(add, image, cartan[i]))
                        nxt.append((t, pos[t]))
        frontier = nxt

    positives = sorted(pos, key=lambda r: (sum(r), r))
    num_positive = len(positives)
    psi = positives[-1]
    roots = tuple(positives) + tuple(tuple(map(neg, r)) for r in positives)
    index = {r: k for k, r in enumerate(roots)}

    adjacency: list[list[int]] = [[] for _ in range(rank)]
    for i, j in dynkin_edges(dtype):
        adjacency[i - 1].append(j)
        adjacency[j - 1].append(i)

    rs = RootSystem(
        dtype=dtype,
        cartan=cartan,
        roots=roots,
        num_positive=num_positive,
        highest_root=psi,
        marks=psi,
        coxeter_number=2 * num_positive // rank,
        _index=index,
        _adjacency=tuple(tuple(sorted(a)) for a in adjacency),
    )
    vars(rs)["pairings"] = tuple(c + tuple(map(neg, c)) for c in zip(*map(pos.get, positives)))
    return rs
