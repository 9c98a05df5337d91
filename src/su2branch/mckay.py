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
at the rank cap), as a :class:`~.seriescalc.PeriodTable`: every dimension
sum follows from marks_ext A = 2 marks_ext, a level costs one packed A v
and one mask.  :func:`recursion_oracle` returns it to the order asked; its
level n costs O(size) for any n and checks nothing.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, compress, repeat
from operator import mul, sub

from .errors import ConsistencyError
from .rootsys import DiagramType, ReadOnly, RootSystem
from .seriescalc import PeriodTable, Vector, fields


class McKayGraph(ReadOnly):
    """Extended diagram: node 0 is the affine node, nodes 1..rank as in
    the root system, ``size`` = len(adjacency) in all.  ``adjacency`` is
    also the tensor-decomposition matrix; ``marks_ext`` its eigenvalue-2 eigenvector."""

    def __init__(
        self, dtype: DiagramType, adjacency: tuple[tuple[int, ...], ...], marks_ext: tuple[int, ...]
    ) -> None:
        vars(self).update(dtype=dtype, size=len(adjacency), adjacency=adjacency, marks_ext=marks_ext)

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

        Dimension sums, proved once.  With d_n = sum_i marks_ext[i] v_n[i],
        level 0's check gives d_0 = marks_ext[0] = 1, and d_(-1) = 0.  If
        sum_i marks_ext[i] A[i][j] = 2 marks_ext[j] for every column j, then
        d_(n+1) = 2 d_n - d_(n-1), so d_n = n + 1 at every level; on a graph
        that fails this column test, each level's sum is checked instead.
        Each step is checked once to have no negative entry; its dimension
        sum is (r + P + 1) - (r + 1) = P.  So every level v_r + k step[r] is
        nonnegative with dimension sum n + 1, and no read checks again.

        Packed levels.  Level n is one int, sum v_i 2^(64 i), a signed
        64-bit field per node.  With 2^63 added to each field, A v is one
        masked shift per edge offset and coefficient; the period test is int
        equality.  Field bound: with R the largest absolute row sum of A, a
        level in -2^E..2^E-1, E = 63 - bitlength(R + 2), has a next level
        below (R + 1) 2^E, inside its fields.  One mask per level passes
        exactly when every entry lies in 0..2^E-1, so outgrown fields raise,
        never carry.  A level is unpacked and checked, which names the fault,
        only when it fails the mask or the graph fails the column test.
        Otherwise only the P base levels and the P steps are unpacked; a step
        is a packed difference, its sign the top bit of each biased field.
        The table takes them as its packed rows, with the bound P: an entry
        is at most its row's dimension sum, r + 1 or P, if no mark is below 1.
        """
        size, adjacency, marks = self.size, self.adjacency, self.marks_ext
        cap, nodes = 4 * size * size, range(size)
        signed, ones = fields(size, "q"), ((1 << 64 * size) - 1) // ((1 << 64) - 1)
        high = ones << 63  # ones: 1 in every field
        gathers: dict[tuple[int, int], int] = {}  # (offset, coefficient) -> its rows' fields
        column, bound = [0] * size, 0  # marks_ext A; R, the largest absolute row sum
        for i, row, m in zip(nodes, adjacency, chain(marks, repeat(0))):
            total = 0
            for j in compress(nodes, row):
                c = row[j]
                gathers[j - i, c] = gathers.get((j - i, c), 0) | (1 << 64) - 1 << 64 * i
                column[j] += m * c
                total += abs(c)
            bound = max(bound, total)
        terms = [(64 * d, c, mask) for (d, c), mask in gathers.items()]
        down = [(s, mask) for s, c, mask in terms if c == 1 and s >= 0]  # one shift, no multiply
        up = [(-s, mask) for s, c, mask in terms if c == 1 and s < 0]
        scaled = [(max(-s, 0), max(s, 0), c, mask) for s, c, mask in terms if c != 1]
        unbias = sum(c * (mask & ones) for (_, c), mask in gathers.items()) << 63  # A's 2^63 row sums
        bits = 63 - (bound + 2).bit_length()
        half, outside = ones << bits, ones * ((1 << 64) - (2 << bits))  # 2^bits, bits above it
        screen = ones * ((1 << 64) - (1 << bits))  # bits bits..63: high exactly on 0..2^bits-1
        _check_level(self, (1,) + (0,) * (size - 1), 0)
        proved = column == [2 * m for m in marks]  # the column test

        read, width = signed.unpack, signed.size

        def unpack(biased: int) -> Vector:
            return read((biased ^ high).to_bytes(width, "little"))

        levels, biased, prev, start = [1], 1 + high, 0, -unbias
        for period in range(1, cap + 1):
            while (n := len(levels)) < 2 * period + 2:
                cur = start - prev
                for s, mask in down:
                    cur += biased >> s & mask
                for s, mask in up:
                    cur += biased << s & mask
                for left, right, c, mask in scaled:
                    cur += c * (biased << left >> right & mask)
                prev, biased = levels[-1], cur + high
                if not proved or biased & screen != high:
                    v = unpack(biased)
                    if (biased + half) & outside != high:  # an entry outside -2^bits..2^bits-1
                        raise _failure(self, f"level {n} passes the field bound 2^{bits}: {v}")
                    _check_level(self, v, n)
                levels.append(cur)
            if levels[0] + levels[2 * period] == 2 * levels[period] and (
                levels[1] + levels[2 * period + 1] == 2 * levels[period + 1]
            ):
                packed = (tuple(levels[:period]), tuple(map(sub, levels[period : 2 * period], levels)))
                for r, d in enumerate(packed[1]):
                    if (d + high) & high != high:  # a top bit clear: a negative entry
                        where = f"step {r} of period {period}: {unpack(d + high)}"
                        raise _failure(self, f"negative multiplicity at {where}")
                # every field is nonnegative now, so the rows unpack without the bias
                base, step = (tuple([read(x.to_bytes(width, "little")) for x in xs]) for xs in packed)
                bound = period if min(marks) > 0 else None  # else the table scans its rows
                return PeriodTable(base, step, 2 * period - 1, packed, bound)
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
        adjacency=tuple(tuple(row) for row in adj),
        marks_ext=(1,) + rs.marks,
    )


def _check_level(graph: McKayGraph, v: Vector, n: int) -> Vector:
    """A negative entry or a dimension sum (sum of marks_ext[i] * v[i])
    other than n + 1 means the graph is not the McKay graph of anything."""
    if min(v) < 0:
        raise _failure(graph, f"negative multiplicity at level {n}: {v}")
    total = sum(map(mul, graph.marks_ext, v))
    if total != n + 1:
        raise _failure(graph, f"dimension sum {total} != {n + 1} at level {n}")
    return v


def _failure(graph: McKayGraph, problem: str) -> ConsistencyError:
    return ConsistencyError(f"{graph.dtype}: {problem}", dtype=str(graph.dtype), stage="oracles")


def recursion_oracle(graph: McKayGraph, order: int) -> PeriodTable:
    """Multiplicity vectors v_0 .. v_order from the tensor recursion: the
    first call on a graph certifies its period, later calls cost O(1)."""
    return graph.certificate.upto(order)
