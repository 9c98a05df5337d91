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

The root closure (:func:`build_root_system`) holds each positive root as
one int with a byte per coefficient, coefficient 0 most significant, so
adding alpha_i is one addition and, within one height, int order is the
order ``roots`` lists them in.  No coefficient may pass :data:`MAX_MARK`,
which keeps every byte exact.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import repeat
from operator import add, mul, neg

from .errors import ConsistencyError

#: Version tag for the node-numbering convention, carried by JSON output.
NODE_CONVENTION = "v1"

Root = tuple[int, ...]

_E_BRANCH = 3

#: The largest mark of an ADE type (E8's branch node), so the largest
#: coefficient of any root: a closure that passes it is not of finite type.
MAX_MARK = 6


class ReadOnly:
    """Base of the immutable records: ``__init__`` fills ``__dict__``, and no
    attribute is assigned or deleted after; ``cached_property`` still
    writes to ``__dict__``."""

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class DiagramType(ReadOnly):
    """A simply laced diagram: family ``A``, ``D`` or ``E`` plus rank.
    Equal types are equal and hash alike."""

    def __init__(self, family: str, rank: int) -> None:
        if family not in ("A", "D", "E"):
            raise ValueError(f"unknown family {family!r}; expected A, D or E")
        r = rank
        if family == "A" and (r < 1 or r % 2 == 0):
            raise ValueError(f"A{r} is not supported: type A requires odd rank >= 1")
        if family == "D" and r < 4:
            raise ValueError(f"D{r} is not supported: type D requires rank >= 4")
        if family == "E" and r not in (6, 7, 8):
            raise ValueError(f"E{r} is not supported: type E requires rank 6, 7 or 8")
        vars(self).update(family=family, rank=rank)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.family, self.rank) == (other.family, other.rank)

    def __hash__(self) -> int:
        return hash((self.family, self.rank))

    def __repr__(self) -> str:
        return f"DiagramType(family={self.family!r}, rank={self.rank!r})"

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


class RootSystem(ReadOnly):
    """A built ADE root system.

    ``roots`` lists all roots, positive roots first (ordered by height,
    then lexicographically) and then their negatives in matching order,
    so root ``i`` and root ``i + num_positive`` are negatives of each
    other.  ``marks`` is ``highest_root`` and ``neighbors`` reads ``cartan``,
    so each fact is stored once.  Instances are immutable and safe to share;
    each keeps its own cached values, such as the per-node lists that
    ``neighbors`` and ``simple_root`` read.
    """

    def __init__(
        self, dtype: DiagramType, cartan: tuple[tuple[int, ...], ...], roots: tuple[Root, ...],
        num_positive: int, highest_root: Root, coxeter_number: int, _index: dict[Root, int],
    ) -> None:
        vars(self).update(
            dtype=dtype, cartan=cartan, roots=roots, num_positive=num_positive,
            highest_root=highest_root, coxeter_number=coxeter_number, _index=_index,
        )

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
        """alpha_i as a coefficient tuple, made once per system."""
        self._check_node(i)
        return self._simple_roots[i - 1]

    @cached_property
    def _simple_roots(self) -> list[Root]:
        rank = self.rank
        return [tuple(int(j == i) for j in range(rank)) for i in range(rank)]

    @property
    def marks(self) -> tuple[int, ...]:
        """The marks: the highest root's coefficients over the simple roots."""
        return self.highest_root

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
        images; a copy made by running the constructor again (``conftest.replace``)
        computes its own.  ``coxeter_element`` reads every simple reflection
        r - (r, alpha_i) alpha_i from it, and refuses an image that is not a
        root; none is tabled."""
        columns = tuple(zip(*self.roots))
        return tuple(
            tuple(map(sum, zip(*[map(mul, repeat(c), col) for c, col in zip(row, columns) if c])))
            or (0,) * len(self.roots)
            for row in self.cartan
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
        """Nodes joined to node i, ascending: the -1 entries of Cartan row i,
        read once per system."""
        self._check_node(i)
        return self._neighbor_rows[i - 1]

    @cached_property
    def _neighbor_rows(self) -> list[tuple[int, ...]]:
        return [tuple(j for j, c in enumerate(row, 1) if c == -1) for row in self.cartan]

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

    Positive roots are generated height by height from the simple roots:
    a simple root alpha may be added to a known root r exactly when
    (r, alpha) = -1, read from r's Cartan image (r + alpha_i has
    image(r) + row i), which is kept as ``pairings``.  No Weyl-group
    enumeration is used.  Each root is packed (module docstring), so each
    height is sorted as ints and each tuple is made once, from the bytes;
    a new root with a coefficient above :data:`MAX_MARK` raises
    :class:`~.errors.ConsistencyError`.  The Coxeter number is h = 2
    |positive roots| / rank; the registry entry "root counts" checks it
    and the highest root.
    """
    if isinstance(dtype, str):
        dtype = DiagramType.parse(dtype)
    rank = dtype.rank
    cartan = cartan_matrix(dtype)

    units = [1 << 8 * (rank - 1 - i) for i in range(rank)]  # alpha_i, packed
    level = dict(zip(units, cartan))  # packed root -> Cartan image, one height
    positives: list[Root] = []
    images: list[tuple[int, ...]] = []
    while level:
        packed = sorted(level)
        height = [tuple(x.to_bytes(rank, "big")) for x in packed]
        if max(map(max, height)) > MAX_MARK:
            root = next(r for r in height if max(r) > MAX_MARK)
            problem = f"{root} has a coefficient above {MAX_MARK}, the largest mark of any ADE type"
            raise ConsistencyError(
                f"{dtype}: {problem}", dtype=str(dtype), stage="build_root_system"
            )
        positives += height
        images += map(level.get, packed)
        nxt: dict[int, tuple[int, ...]] = {}
        for x in packed:
            image, i = level[x], -1
            for _ in range(image.count(-1)):
                i = image.index(-1, i + 1)
                if (t := x + units[i]) not in nxt:
                    nxt[t] = tuple(map(add, image, cartan[i]))
        level = nxt

    num_positive = len(positives)
    psi = positives[-1]
    roots = tuple(positives) + tuple(tuple(map(neg, r)) for r in positives)
    index = {r: k for k, r in enumerate(roots)}

    rs = RootSystem(
        dtype=dtype,
        cartan=cartan,
        roots=roots,
        num_positive=num_positive,
        highest_root=psi,
        coxeter_number=2 * num_positive // rank,
        _index=index,
    )
    vars(rs)["pairings"] = tuple(c + tuple(map(neg, c)) for c in zip(*images))
    return rs
