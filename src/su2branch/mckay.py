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
period P of the recursion once, in exact integers (P <= |F*| <= 4
size^2: at most 60 on the 18 verify types, 72 for A71 and 276 for D71
at the rank cap), as a :class:`~.seriescalc.PeriodTable` whose levels
and steps it checks once; :func:`recursion_oracle` returns it to the
order asked, and its level n costs O(size) for any n and checks nothing.
"""

from __future__ import annotations

from functools import cached_property

from .errors import ConsistencyError
from .rootsys import DiagramType, ReadOnly, RootSystem
from .seriescalc import PeriodTable, Vector


class McKayGraph(ReadOnly):
    """Extended diagram: node 0 is the affine node, nodes 1..rank as in
    the root system.  ``adjacency`` doubles as the tensor-decomposition
    matrix; ``marks_ext`` is its eigenvector with eigenvalue 2."""

    def __init__(
        self, dtype: DiagramType, size: int, adjacency: tuple[tuple[int, ...], ...],
        marks_ext: tuple[int, ...],
    ) -> None:
        vars(self).update(dtype=dtype, size=size, adjacency=adjacency, marks_ext=marks_ext)

    @cached_property
    def certificate(self) -> PeriodTable:
        """The certified period of the tensor recursion, as a period table:
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

        Each step is then checked once to have no negative entry.  Its
        dimension sum sum_i marks_ext[i] step[r][i] is P, the difference of
        the checked levels r + P and r, (r + P + 1) - (r + 1).  With the
        checked base levels this proves every level: v_(r+kP) = v_r +
        k step[r] is nonnegative and has dimension sum (r + 1) + kP = n + 1,
        so no read checks again.
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
                table = PeriodTable.of(levels, period)
                if miss := table.negative_step():
                    where = f"step {miss[0]} of period {period}: {table.step[miss[0]]}"
                    raise _failure(self, f"negative multiplicity at {where}")
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


def _check_level(graph: McKayGraph, v: Vector, n: int) -> Vector:
    """A negative entry or a dimension sum (sum of marks_ext[i] * v[i])
    other than n + 1 means the graph is not the McKay graph of anything."""
    if min(v) < 0:
        raise _failure(graph, f"negative multiplicity at level {n}: {v}")
    total = sum([m * c for m, c in zip(graph.marks_ext, v)])
    if total != n + 1:
        raise _failure(graph, f"dimension sum {total} != {n + 1} at level {n}")
    return v


def _failure(graph: McKayGraph, problem: str) -> ConsistencyError:
    return ConsistencyError(f"{graph.dtype}: {problem}", dtype=str(graph.dtype), stage="oracles")


def recursion_oracle(graph: McKayGraph, order: int) -> PeriodTable:
    """Multiplicity vectors v_0 .. v_order from the tensor recursion: the
    first call on a graph certifies its period, later calls cost O(1)."""
    return graph.certificate.upto(order)
