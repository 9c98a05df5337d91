"""Extended diagram adjacency and the tensor-product recursion oracle.

The McKay correspondence identifies the irreducibles of a binary
polyhedral group with the nodes of the extended diagram: tensoring by
the defining two-dimensional representation acts as the adjacency
matrix A.  Since the SU(2) irreducibles obey pi_n (x) pi_1 = pi_(n+1)
(+) pi_(n-1), the restriction multiplicities satisfy the integer
recursion v_(n+1) = A v_n - v_(n-1) from v_0 = e_0.  This gives a
branching oracle that never touches the Coxeter element.

The eigenvalues of A are 2 cos(2 pi k / m) for the element orders m,
so v_n is a degree-1 quasi-polynomial in n.  Each graph certifies a
period P of the recursion once, in exact integers (P <= 60 for every
accepted type), as a period table (:data:`~.seriescalc.PeriodTable`)
whose base levels and steps it checks once, and :func:`recursion_oracle`
returns a read-only sequence view over it whose level n costs O(size)
for any n and checks nothing.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

from .errors import ConsistencyError
from .rootsys import DiagramType, RootSystem
from .seriescalc import PeriodTable, Vector, iter_levels, period_table, read_level


@dataclass(frozen=True, eq=False)
class McKayGraph:
    """Extended diagram: node 0 is the affine node, nodes 1..rank as in
    the root system.  ``adjacency`` doubles as the tensor-decomposition
    matrix; ``marks_ext`` is its eigenvector with eigenvalue 2."""

    dtype: DiagramType
    size: int
    adjacency: tuple[tuple[int, ...], ...]
    marks_ext: tuple[int, ...]

    @cached_property
    def certificate(self) -> PeriodTable:
        """The certified period of the tensor recursion, as ``(base, step)``:
        base[r] = v_r and step[r] = v_(r+P) - v_r for 0 <= r < P.

        The recursion runs only until it certifies a period: the first P
        with w_0 = w_1 = 0, where w_n = v_(n+2P) - 2 v_(n+P) + v_n.  Proof
        that v_(n+P) - v_n then has period P:

        1. w is a sum of shifts of v, so it obeys the same recursion as v.
        2. A second-order recursion that starts from w_0 = w_1 = 0 stays 0.
        3. w_n = 0 says (v_(n+2P) - v_(n+P)) = (v_(n+P) - v_n) for every n.

        Hence v_(r+kP) = v_r + k (v_(r+P) - v_r) exactly.  It costs
        O(P * edges), once per graph.

        For the McKay graph of F*, chi_n is periodic in n with period the
        element order at every class but +-identity, where it is (+-1)^n
        (n + 1), so P = exponent of F* passes.  It divides |F*|, which is at
        most 4 * size^2 (|F*| = size, 4 (size - 3), 24, 48, 120 for types
        A, D, E6, E7, E8).  A graph that certifies no period up to that
        bound is not a McKay graph and aborts, as does any computed level
        with a negative entry or a wrong dimension sum.

        Each step is then checked once: nonnegative, with dimension sum
        sum_i marks_ext[i] step[r][i] = P.  With the checked base levels
        this proves every level: v_(r+kP) = v_r + k step[r] is nonnegative
        and has dimension sum (r + 1) + kP = n + 1, so no read checks again.
        """
        size = self.size
        cap = 4 * size * size
        nbrs = [tuple((j, c) for j, c in enumerate(row) if c) for row in self.adjacency]
        levels = [_check_level(self, tuple(int(i == 0) for i in range(size)), 0)]
        prev = (0,) * size
        for period in range(1, cap + 1):
            while len(levels) < 2 * period + 2:
                cur = levels[-1]
                nxt = tuple([sum([c * cur[j] for j, c in row]) - p for row, p in zip(nbrs, prev)])
                prev = cur
                levels.append(_check_level(self, nxt, len(levels)))
            if all(
                levels[n + 2 * period][i] - 2 * levels[n + period][i] + levels[n][i] == 0
                for n in (0, 1)
                for i in range(size)
            ):
                table = period_table(levels, period)
                for r, step in enumerate(table[1]):
                    _check_sum(self, step, period, f"step {r} of period {period}")
                return table
        raise _failure(self, f"tensor recursion has no period up to {cap}")


def extended_graph(rs: RootSystem) -> McKayGraph:
    """Attach the affine node to every node meeting the highest root.

    The attachment multiplicity is the pairing with the highest root
    (this is 2 for A1, where the extended diagram has a double bond).
    The registry entry "extended graph" checks the result.
    """
    rank = rs.rank
    size = rank + 1
    adj = [[0] * size for _ in range(size)]
    for i in rs.nodes:
        for j in rs.neighbors(i):
            adj[i][j] = 1
    for i, c in zip(rs.nodes, rs.highest_root_image):
        adj[0][i] = adj[i][0] = c
    return McKayGraph(
        dtype=rs.dtype,
        size=size,
        adjacency=tuple(tuple(row) for row in adj),
        marks_ext=(1,) + rs.marks,
    )


class RecursionLevels(Sequence):
    """Read-only view of the levels v_0 .. v_order of the tensor recursion.

    Behaves like ``range``: ``len`` is order + 1, negative indices and
    slices work, an index past ``order`` raises ``IndexError``, and it
    compares equal, element by element, to any sequence of the same
    vectors.  Level n is read off ``graph.certificate`` in O(size) for any
    n; the certificate has already proved it.
    """

    def __init__(self, graph: McKayGraph, order: int) -> None:
        self.graph = graph
        self.order = order
        self._table = graph.certificate
        self._base, self._step = self._table
        self.period = len(self._base)

    def __len__(self) -> int:
        return self.order + 1

    def __getitem__(self, index):
        if type(index) is int and 0 <= index <= self.order:
            return read_level(self._table, index)
        if isinstance(index, slice):
            return [self[n] for n in range(self.order + 1)[index]]
        return read_level(self._table, range(self.order + 1)[index])

    def __iter__(self):
        return iter_levels(self._table, self.order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return self.order + 1 == len(other) and all(a == b for a, b in zip(self, other))


def _check_level(graph: McKayGraph, v: Vector, n: int) -> Vector:
    """A negative entry or a dimension sum (sum of marks_ext[i] * v[i])
    other than n + 1 means the graph is not the McKay graph of anything."""
    return _check_sum(graph, v, n + 1, f"level {n}")


def _check_sum(graph: McKayGraph, v: Vector, want: int, where: str) -> Vector:
    if min(v) < 0:
        raise _failure(graph, f"negative multiplicity at {where}: {v}")
    total = sum([m * c for m, c in zip(graph.marks_ext, v)])
    if total != want:
        raise _failure(graph, f"dimension sum {total} != {want} at {where}")
    return v


def _failure(graph: McKayGraph, problem: str) -> ConsistencyError:
    return ConsistencyError(f"{graph.dtype}: {problem}", dtype=str(graph.dtype), stage="oracles")


def recursion_oracle(graph: McKayGraph, order: int) -> RecursionLevels:
    """Multiplicity vectors v_0 .. v_order from the tensor recursion, as a
    window over ``graph.certificate``: the first call on a graph certifies
    its period, later calls cost O(1)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return RecursionLevels(graph, order)
