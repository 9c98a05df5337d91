"""Extended diagram adjacency and the tensor-product recursion oracle.

The McKay correspondence identifies the irreducibles of a binary
polyhedral group with the nodes of the extended diagram: tensoring by
the defining two-dimensional representation acts as the adjacency
matrix A.  Since the SU(2) irreducibles obey pi_n (x) pi_1 = pi_(n+1)
(+) pi_(n-1), the restriction multiplicities satisfy the integer
recursion v_(n+1) = A v_n - v_(n-1) from v_0 = e_0.  This gives a
branching oracle that never touches the Coxeter element.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConsistencyError
from .rootsys import DiagramType, RootSystem

MultiplicityVector = tuple[int, ...]


@dataclass(frozen=True, eq=False)
class McKayGraph:
    """Extended diagram: node 0 is the affine node, nodes 1..rank as in
    the root system.  ``adjacency`` doubles as the tensor-decomposition
    matrix; ``marks_ext`` is its eigenvector with eigenvalue 2."""

    dtype: DiagramType
    size: int
    adjacency: tuple[tuple[int, ...], ...]
    marks_ext: tuple[int, ...]


def extended_graph(rs: RootSystem) -> McKayGraph:
    """Attach the affine node to every node meeting the highest root.

    The attachment multiplicity is the pairing with the highest root
    (this is 2 for A1, where the extended diagram has a double bond).
    """
    rank = rs.rank
    size = rank + 1
    adj = [[0] * size for _ in range(size)]
    for i in rs.nodes:
        for j in rs.neighbors(i):
            adj[i][j] = 1
    psi = rs.highest_root
    for i in rs.nodes:
        c = rs.pair_with_simple(psi, i)
        if c < 0:
            raise ConsistencyError(f"{rs.dtype}: highest root pairs negatively with node {i}")
        adj[0][i] = c
        adj[i][0] = c

    marks_ext = (1,) + rs.marks
    for i in range(size):
        if sum(adj[i][j] * marks_ext[j] for j in range(size)) != 2 * marks_ext[i]:
            raise ConsistencyError(
                f"{rs.dtype}: extended marks are not an eigenvector at node {i}"
            )
    return McKayGraph(
        dtype=rs.dtype,
        size=size,
        adjacency=tuple(tuple(row) for row in adj),
        marks_ext=marks_ext,
    )


def recursion_oracle(graph: McKayGraph, order: int) -> list[MultiplicityVector]:
    """Multiplicity vectors v_0 .. v_order from the tensor recursion.

    v_0 is the unit vector at the affine node, v_1 = A v_0, and
    v_(n+1) = A v_n - v_(n-1).  A negative entry or a broken dimension
    sum (sum of marks_ext[i] * v_n[i] must be n + 1) aborts: both would
    mean the graph is not the McKay graph of anything.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    size = graph.size
    marks = graph.marks_ext
    nbrs = [tuple((j, c) for j, c in enumerate(row) if c) for row in graph.adjacency]

    def check(v: MultiplicityVector, n: int) -> MultiplicityVector:
        if min(v) < 0:
            raise ConsistencyError(f"{graph.dtype}: negative multiplicity at level {n}: {v}")
        total = sum(m * c for m, c in zip(marks, v))
        if total != n + 1:
            raise ConsistencyError(
                f"{graph.dtype}: dimension sum {total} != {n + 1} at level {n}"
            )
        return v

    out = [check(tuple(int(i == 0) for i in range(size)), 0)]
    if order == 0:
        return out
    prev = out[0]
    cur = check(graph.adjacency[0], 1)
    out.append(cur)
    for n in range(1, order):
        nxt = tuple(
            sum(c * cur[j] for j, c in row) - p for row, p in zip(nbrs, prev)
        )
        prev, cur = cur, check(nxt, n + 1)
        out.append(cur)
    return out
