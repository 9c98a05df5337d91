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

Packed form.  The build keeps each root and its Cartan image (the
pairings (r, alpha_i)) as one int, a byte per entry biased by 8, entry 1
most significant: (c_1, .., c_l) is sum (c_i + 8) 256^(l - i).  Root
coefficients lie in -6..6 (:data:`MAX_MARK`) and pairings in -2..2, so
each byte is in 2..14, and each sum the build forms (root + alpha_i,
image + Cartan row, root - masked image + bias in ``coxeter``) keeps
every byte in 0..255: no byte borrows or carries, so int arithmetic is
entrywise, and within one height int order is ``roots`` order.  The
closure refuses a coefficient above 6 or a pairing below -2.
"""

from __future__ import annotations

import re
import struct
from functools import cached_property, reduce
from operator import and_, mul, or_

from .errors import ConsistencyError, UsageError

#: Version tag for the node-numbering convention, carried by JSON output.
NODE_CONVENTION = "v1"

Root = tuple[int, ...]

_E_BRANCH = 3

#: The largest mark of an ADE type (E8's branch node), so the largest
#: coefficient of any root: a closure that passes it is not of finite type.
MAX_MARK = 6


#: Signed byte b packed (b + 8, or above 127 for b < -8: no root's byte), and negated.
_BIASED, _NEGATED = bytes((b + 8) % 256 for b in range(256)), bytes(-b % 256 for b in range(256))


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
            raise UsageError(f"unknown family {family!r}; expected A, D or E")
        r = rank
        if family == "A" and (r < 1 or r % 2 == 0):
            raise UsageError(f"A{r} is not supported: type A requires odd rank >= 1")
        if family == "D" and r < 4:
            raise UsageError(f"D{r} is not supported: type D requires rank >= 4")
        if family == "E" and r not in (6, 7, 8):
            raise UsageError(f"E{r} is not supported: type E requires rank 6, 7 or 8")
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
        try:
            family, rank = m[1].upper(), int(m[2])
        except (TypeError, ValueError):  # no match, or more digits than int() converts
            raise UsageError(
                f"cannot parse diagram type {text!r} (expected e.g. 'A7', 'D5', 'E8')"
            ) from None
        return cls(family, rank)

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
    edges, nodes = set(dynkin_edges(dtype)), range(1, dtype.rank + 1)
    return tuple(
        tuple(2 if i == j else -((i, j) in edges or (j, i) in edges) for j in nodes) for i in nodes
    )


class RootSystem(ReadOnly):
    """A built ADE root system.

    ``roots`` lists all roots, positive roots first (ordered by height,
    then lexicographically) and then their negatives in matching order,
    so root ``i`` and root ``i + num_positive`` are negatives of each
    other.  It stores ``dtype``, ``cartan`` and ``roots``, and derives the
    rest on first read: ``num_positive`` is half the roots, ``highest_root``
    (``marks``) the last positive one, ``coxeter_number`` h = |roots| / rank,
    ``_index`` numbers the packed roots in order and ``neighbors`` reads
    ``cartan``.  Instances are immutable and safe to share.
    """

    def __init__(
        self, dtype: DiagramType, cartan: tuple[tuple[int, ...], ...], roots: tuple[Root, ...]
    ) -> None:
        vars(self).update(
            dtype=dtype, cartan=cartan, roots=roots,
            _signed=struct.Struct(f">{dtype.rank}b").pack,  # a root as signed bytes
        )

    @property
    def rank(self) -> int:
        return self.dtype.rank

    @property
    def nodes(self) -> range:
        """Node indices 1 .. rank."""
        return range(1, self.rank + 1)

    num_positive = cached_property(lambda self: len(self.roots) // 2)
    highest_root = cached_property(lambda self: self.roots[self.num_positive - 1])
    coxeter_number = cached_property(lambda self: len(self.roots) // self.rank)

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
    def _forms(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The roots and their Cartan images, packed: seeded by the build; a
        copy made by running the constructor again (``conftest.replace``)
        packs its own."""
        images = [[sum(map(mul, row, r)) for row in self.cartan] for r in self.roots]
        return tuple(map(self._key, self.roots)), tuple(map(self._key, images))

    _index = cached_property(lambda self: {x: k for k, x in enumerate(self._forms[0])})

    def is_root(self, x: Root) -> bool:
        return self._key(x) in self._index

    def index_of(self, x: Root, stage: str | None = None) -> int:
        """The index of the root x.  Any other tuple raises ``UsageError``, a
        caller's mistake, or with ``stage``, the build stage that derived x,
        :class:`~.errors.ConsistencyError` naming it."""
        k = self._index.get(self._key(x))
        if k is None:
            problem = f"{x} is not a root of {self.dtype}"
            if stage is None:
                raise UsageError(problem)
            raise ConsistencyError(f"{stage}: {problem}", dtype=str(self.dtype), stage=stage)
        return k

    def _key(self, x: Root) -> int | None:
        """x packed, or None for a tuple of another length or an entry outside -128..127."""
        try:
            return int.from_bytes(self._signed(*x).translate(_BIASED), "big")
        except struct.error:
            return None

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

    Positive roots are generated height by height from the simple roots,
    with no Weyl-group enumeration: alpha_i is added to a root r exactly
    when (r, alpha_i) = -1, a byte 7 of r's packed image, and r + alpha_i
    has image(r) + Cartan row i (module docstring).  One mask per root
    refuses a coefficient above :data:`MAX_MARK`, one per image a pairing
    below -2 (:class:`~.errors.ConsistencyError`).  Each tuple is made
    once.  The build seeds the packed forms; "root counts" checks the h
    and psi the system derives.
    """
    if isinstance(dtype, str):
        dtype = DiagramType.parse(dtype)
    rank = dtype.rank
    cartan = cartan_matrix(dtype)

    ones = int.from_bytes(bytes([1] * rank), "big")
    bias, high = 8 * ones, 128 * ones
    over, under = (119 - MAX_MARK) * ones, 122 * ones  # top bit: c > MAX_MARK, pairing >= -2
    units = [1 << 8 * (rank - 1 - i) for i in range(rank)]  # alpha_i, without the bias
    rows = [sum(map(mul, row, units)) for row in cartan]  # Cartan row i, signed bytes
    level = {bias + unit: bias + row for unit, row in zip(units, rows)}  # root -> image
    packed, images = [], []  # the positive roots and their images, height by height
    while level:
        height = sorted(level)
        shadows = list(map(level.get, height))
        if reduce(or_, map(over.__add__, height)) & high or (
            reduce(and_, map(under.__add__, shadows)) & high != high
        ):  # a root past MAX_MARK or a pairing below -2: name the first
            problem = f"has a coefficient above {MAX_MARK}, the largest mark of any ADE type"
            bad = next((x for x in height if (x + over) & high), None)
            if bad is None:
                problem = "has a pairing below -2 with a simple root, which no ADE root has"
                bad = next(x for x, q in zip(height, shadows) if (q + under) & high != high)
            problem = f"{dtype}: {tuple((bad - bias).to_bytes(rank, 'big'))} {problem}"
            raise ConsistencyError(problem, dtype=str(dtype), stage="build_root_system")
        packed += height
        images += shadows
        nxt: dict[int, int] = {}
        for x, q in zip(height, shadows):
            image = q.to_bytes(rank, "big")
            i = image.find(7)
            while i >= 0:
                if (t := x + units[i]) not in nxt:
                    nxt[t] = q + rows[i]
                i = image.find(7, i + 1)
        level = nxt

    coefficients = [(x - bias).to_bytes(rank, "big") for x in packed]
    positives, signed = list(map(tuple, coefficients)), struct.Struct(f">{rank}b").unpack
    negatives = [signed(c.translate(_NEGATED)) for c in coefficients]
    packed += [2 * bias - x for x in packed]
    images += [2 * bias - q for q in images]
    rs = RootSystem(dtype, cartan, tuple(positives + negatives))
    vars(rs)["_forms"] = (tuple(packed), tuple(images))
    return rs
