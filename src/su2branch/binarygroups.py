"""Binary polyhedral subgroups of SU(2) as explicit unit quaternions.

A quaternion (w, x, y, z) stands for the special-unitary matrix

    [[ w + x*i,  y + z*i],
     [-y + z*i,  w - x*i]]

so the trace is 2w and the inverse is the conjugate.  Groups are closed
by breadth-first multiplication from fixed generators, deduplicating on
coordinates rounded to 9 decimals; all the exact coordinate values that
occur are far from rounding midpoints, so double precision has ample
headroom.  Character tables come from simultaneous diagonalization of
the class-sum structure constants (integer matrices), with a seeded
random linear combination, and are matched to extended-diagram nodes by
the tensor-with-defining-representation adjacency.

The character oracles and the Molien average share one inner product
<chi_n, chi>.  At +-identity chi_n is the integer (+-1)^n (n + 1); at an
element of order m it repeats with period m, so the rest of the sum
depends on n only modulo the group exponent E.  :func:`character_table`
forms that rest once for each residue r = 0..E-1 and each node (the
residue table), so a level is a lookup plus exact integer arithmetic
for any n.

Generator conventions (exact coordinates, fixed for reproducibility):

* cyclic of order 2n       : r_n = (cos(pi/n), sin(pi/n), 0, 0)
* binary dihedral, order 4n: r_n and j = (0, 0, 1, 0)
* binary tetrahedral, 24   : i = (0, 1, 0, 0) and (1, 1, 1, 1)/2
* binary octahedral, 48    : the tetrahedral pair and (1, 1, 0, 0)/sqrt(2)
* binary icosahedral, 120  : i and (phi - 1, phi, 1, 0)/2 with
  phi = (1 + sqrt(5))/2
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConsistencyError
from .mckay import McKayGraph
from .rootsys import DiagramType

if TYPE_CHECKING:
    from .branching import BranchParams

#: Decimal places used to deduplicate quaternion coordinates.
DEDUP_DECIMALS = 9
#: Tolerance for rounding character sums to integers.
CHAR_EPS = 1e-6

_PHI = (1.0 + math.sqrt(5.0)) / 2.0
_EIG_SEED = 20240801


@dataclass(frozen=True)
class GroupElement:
    """A unit quaternion, i.e. an element of SU(2)."""

    w: float
    x: float
    y: float
    z: float

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = other.w, other.x, other.y, other.z
        return GroupElement(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def inverse(self) -> "GroupElement":
        return GroupElement(self.w, -self.x, -self.y, -self.z)

    @property
    def trace(self) -> float:
        return 2.0 * self.w

    def norm_sq(self) -> float:
        return self.w**2 + self.x**2 + self.y**2 + self.z**2

    def key(self) -> tuple[float, float, float, float]:
        return (
            round(self.w, DEDUP_DECIMALS) + 0.0,
            round(self.x, DEDUP_DECIMALS) + 0.0,
            round(self.y, DEDUP_DECIMALS) + 0.0,
            round(self.z, DEDUP_DECIMALS) + 0.0,
        )


IDENTITY = GroupElement(1.0, 0.0, 0.0, 0.0)
MINUS_IDENTITY = GroupElement(-1.0, 0.0, 0.0, 0.0)
I_UNIT = GroupElement(0.0, 1.0, 0.0, 0.0)
J_UNIT = GroupElement(0.0, 0.0, 1.0, 0.0)
OMEGA = GroupElement(0.5, 0.5, 0.5, 0.5)
C_OCT = GroupElement(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0, 0.0)
S_ICO = GroupElement((_PHI - 1.0) / 2.0, _PHI / 2.0, 0.5, 0.0)


def _rotation(n: int) -> GroupElement:
    return GroupElement(math.cos(math.pi / n), math.sin(math.pi / n), 0.0, 0.0)


def generators(dtype: DiagramType) -> tuple[GroupElement, ...]:
    """Fixed generator list per family (see module docstring)."""
    if dtype.family == "A":
        return (_rotation((dtype.rank + 1) // 2),)
    if dtype.family == "D":
        return (_rotation(dtype.rank - 2), J_UNIT)
    if dtype.rank == 6:
        return (I_UNIT, OMEGA)
    if dtype.rank == 7:
        return (I_UNIT, OMEGA, C_OCT)
    return (I_UNIT, S_ICO)


@dataclass(eq=False)
class FiniteGroup:
    """A closed binary polyhedral group with index-based tables.

    ``elements[0]`` is the identity.  ``classes`` are conjugacy classes
    as sorted index tuples, ordered by their smallest member, so the
    identity class is first.
    """

    dtype: DiagramType
    elements: tuple[GroupElement, ...]
    mult: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]
    minus_identity: int

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def class_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)

    def representatives(self) -> tuple[int, ...]:
        return tuple(c[0] for c in self.classes)

    @cached_property
    def class_orders(self) -> tuple[int, ...]:
        """Element order of each class, read off the multiplication table."""
        out = []
        for rep in self.representatives():
            k, x = 1, rep
            while x != 0:
                x = self.mult[x][rep]
                k += 1
            out.append(k)
        return tuple(out)


def build_group(dtype: DiagramType | str, params: BranchParams) -> FiniteGroup:
    """Close the generators and compute tables and conjugacy classes.

    The expected order comes from the denominator exponents (a*b/2);
    overshooting it during closure aborts, as does any product that
    escapes the closed set or a non-central -identity.  A closure that
    stops short is returned as is: the registry's "group sanity" entry
    compares the order with a*b/2.
    """
    if isinstance(dtype, str):
        dtype = DiagramType.parse(dtype)
    expected = params.order_fstar

    gens = generators(dtype)
    elements: list[GroupElement] = [IDENTITY]
    index: dict[tuple[float, float, float, float], int] = {IDENTITY.key(): 0}
    frontier = [IDENTITY]
    while frontier:
        nxt = []
        for a in frontier:
            for gen in gens:
                p = a * gen
                if abs(p.norm_sq() - 1.0) > 1e-9:
                    raise ConsistencyError(f"{dtype}: closure drifted off the unit sphere")
                k = p.key()
                if k not in index:
                    if len(elements) >= expected:
                        raise ConsistencyError(
                            f"{dtype}: closure exceeds the expected order {expected}"
                        )
                    index[k] = len(elements)
                    elements.append(p)
                    nxt.append(p)
        frontier = nxt
    n = len(elements)

    def lookup(p: GroupElement) -> int:
        try:
            return index[p.key()]
        except KeyError:
            raise ConsistencyError(f"{dtype}: product escaped the closed set") from None

    mult = tuple(
        tuple(lookup(elements[i] * elements[j]) for j in range(n)) for i in range(n)
    )
    inverse = tuple(lookup(e.inverse()) for e in elements)
    minus_identity = lookup(MINUS_IDENTITY)
    for g in range(n):
        if mult[minus_identity][g] != mult[g][minus_identity]:
            raise ConsistencyError(f"{dtype}: -identity is not central")

    classes, class_of = conjugacy_classes(dtype, mult, inverse, minus_identity)
    return FiniteGroup(
        dtype=dtype,
        elements=tuple(elements),
        mult=mult,
        inverse=inverse,
        classes=classes,
        class_of=class_of,
        minus_identity=minus_identity,
    )


def conjugacy_classes(
    dtype: DiagramType,
    mult: tuple[tuple[int, ...], ...],
    inverse: tuple[int, ...],
    minus_identity: int,
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Partition element indices into conjugation orbits.

    The classes of +-identity must be singletons; anything else aborts.
    The class count is checked against the extended diagram by
    :func:`character_table`.
    """
    n = len(inverse)
    class_of_list = [-1] * n
    classes: list[tuple[int, ...]] = []
    for e in range(n):
        if class_of_list[e] >= 0:
            continue
        orbit = {mult[mult[g][e]][inverse[g]] for g in range(n)}
        members = tuple(sorted(orbit))
        cid = len(classes)
        for m in members:
            class_of_list[m] = cid
        classes.append(members)

    for special in (0, minus_identity):
        if len(classes[class_of_list[special]]) != 1:
            raise ConsistencyError(f"{dtype}: central element has a non-singleton class")
    return tuple(classes), tuple(class_of_list)


def _char_from_trace(trace: float, n: int) -> float:
    """Trace of the (n+1)-dimensional SU(2) representation at an element
    with this trace: chi_0 = 1, chi_1 = trace, chi_(k+1) = trace * chi_k
    - chi_(k-1); a polynomial in the trace, so exact at +-identity."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    prev, cur = 1.0, trace
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, trace * cur - prev
    return cur


def _round_int(value: complex, what: str) -> int:
    """The integer within :data:`CHAR_EPS` of ``value``, or abort."""
    out = round(value.real)
    if abs(value.real - out) >= CHAR_EPS or abs(value.imag) >= CHAR_EPS:
        raise ConsistencyError(f"{what} = {value!r} is not within {CHAR_EPS} of an integer")
    return out


def _residue_sums(
    group: FiniteGroup,
    points: list[tuple[float, int]],
    weights: list[list[complex]],
    columns: int,
) -> tuple[tuple[complex, ...], ...]:
    """The non-central part of a character inner product with chi_n, for every n.

    ``points`` are the (trace, order m) of the non-central elements or
    class representatives summed over, ``weights[p]`` the weight of point
    p in each of the ``columns`` columns.  An element of order m has
    eigenvalues zeta^(+-1) with zeta^m = 1, so chi_(n+m) = chi_n there
    and the sum depends on n only modulo the group exponent E (the lcm of
    the element orders).
    Entry ``[r][k]`` is sum_p weights[p][k] chi_(r mod m_p)(p) for
    r = 0..E-1; each chi takes fewer than m Chebyshev steps, so the float
    error does not grow with n.  With no points (A1, whose group is
    +-identity) every entry is 0.
    """
    exponent = math.lcm(*group.class_orders)
    periods = [[_char_from_trace(trace, k) for k in range(m)] for trace, m in points]
    chis = [[p[r % len(p)] for p in periods] for r in range(exponent)]
    sums = np.array(chis, dtype=float).reshape(exponent, len(points)) @ np.array(
        weights, dtype=complex
    ).reshape(len(points), columns)
    return tuple(map(tuple, sums.tolist()))


def _round_multiplicity(
    group: FiniteGroup, n: int, central: tuple[int, int], rest: complex, node: int | None
) -> int:
    """<chi_n, chi> from chi's integer values at +identity and -identity
    and the non-central sum ``rest`` (:func:`_residue_sums`).

    At +-identity chi_n is the integer (+-1)^n (n + 1), so that part is
    exact and only its remainder mod |F*| meets the floats; the total
    rounds within tolerance to a nonnegative integer or aborts.  ``node``
    names chi in the error; None is the trivial character of the Molien
    average.
    """
    plus, minus = central
    order = group.order
    whole, part = divmod((n + 1) * (plus - minus if n % 2 else plus + minus), order)
    val = (part + rest) / order
    m = round(val.real)
    # Not _round_int: the range oracle calls this per level and node, and
    # formatting the message eagerly doubled its time.
    if abs(val.real - m) >= CHAR_EPS or abs(val.imag) >= CHAR_EPS or whole + m < 0:
        what = "invariant dimension" if node is None else f"multiplicity of node {node}"
        raise ConsistencyError(
            f"{group.dtype} {what} at n={n}: {whole} + {val!r} is not a nonnegative "
            f"integer within {CHAR_EPS}"
        )
    return whole + m


def molien_series(group: FiniteGroup, order: int) -> tuple[int, ...]:
    """Invariant dimensions by direct group averaging of SU(2) traces.

    Independent of the character table: the average of chi_n over every
    element is <chi_n, 1>, with the trivial character's (1, 1) at
    +-identity and weight 1 on each other element (:func:`_residue_sums`);
    any order is safe.
    """
    rest = _residue_sums(
        group,
        [
            (e.trace, group.class_orders[group.class_of[i]])
            for i, e in enumerate(group.elements)
            if i not in (0, group.minus_identity)
        ],
        [[1.0]] * (group.order - 2),
        1,
    )
    return tuple(
        _round_multiplicity(group, n, (1, 1), rest[n % len(rest)][0], None)
        for n in range(order + 1)
    )


@dataclass(eq=False)
class CharacterTable:
    """Irreducible characters by conjugacy class, tied to diagram nodes.

    ``rows[r][c]`` is the value of irreducible r on class c; ``node_map``
    sends each extended-diagram node to its row.  The character oracles
    read only ``central[node]``, the node's character at +identity and
    -identity as integers (dim, +-dim), and ``residues[r][node]``, the
    non-central sum of <chi_n, chi_node> for every n = r modulo the group
    exponent (:func:`_residue_sums`).
    """

    group: FiniteGroup
    rows: tuple[tuple[complex, ...], ...]
    dims: tuple[int, ...]
    node_map: tuple[int, ...]
    central: tuple[tuple[int, int], ...] = field(repr=False)
    residues: tuple[tuple[complex, ...], ...] = field(repr=False)

    def character_for_node(self, node: int) -> tuple[complex, ...]:
        return self.rows[self.node_map[node]]


def _class_structure_matrices(group: FiniteGroup) -> list[list[list[int]]]:
    classes = group.classes
    reps = group.representatives()
    r = len(classes)
    out = []
    for ci in range(r):
        m = [[0] * r for _ in range(r)]
        for k, zk in enumerate(reps):
            for x in classes[ci]:
                y = group.mult[group.inverse[x]][zk]
                m[group.class_of[y]][k] += 1
        out.append(m)
    return out


def character_table(group: FiniteGroup, graph: McKayGraph) -> CharacterTable:
    """Compute all irreducible characters and match them to nodes.

    Rows are recovered as common eigenvectors of the class-sum matrices
    (one random seeded combination, verified against every matrix and
    retried on degeneracy), normalized so the identity value is the
    positive integer dimension.  The node matching is forced by the
    trivial character at node 0, equal dimensions and marks, and the
    tensor adjacency; choices left open by diagram automorphisms are
    resolved deterministically and do not affect any multiplicity.
    The table also carries what the character oracles read: each node's
    integer values at +-identity and the residue table.
    """
    r = len(group.classes)
    if r != graph.size:
        raise ConsistencyError(
            f"{group.dtype}: {r} classes but {graph.size} extended nodes"
        )
    sizes = group.class_sizes
    reps = group.representatives()
    mats = [np.array(m, dtype=float) for m in _class_structure_matrices(group)]

    rng = np.random.default_rng(_EIG_SEED)
    rows_raw: list[np.ndarray] | None = None
    for _ in range(32):
        combo = sum(c * m for c, m in zip(rng.standard_normal(r), mats))
        _, vecs = np.linalg.eig(combo)
        candidates = []
        good = True
        for c in range(r):
            v = vecs[:, c]
            if abs(v[0]) < 1e-10:
                good = False
                break
            v = v / v[0]
            for m in mats:
                image = m @ v
                if np.max(np.abs(image - image[0] * v)) > 1e-6 * (1.0 + np.max(np.abs(v))):
                    good = False
                    break
            if not good:
                break
            candidates.append(v)
        if good:
            rows_raw = candidates
            break
    if rows_raw is None:
        raise ConsistencyError(f"{group.dtype}: class-sum diagonalization failed")

    rows: list[tuple[complex, ...]] = []
    dims: list[int] = []
    for v in rows_raw:
        weight = sum(abs(v[j]) ** 2 / sizes[j] for j in range(r))
        d = _round_int(math.sqrt(group.order / weight), f"{group.dtype} character degree")
        if d < 1:
            raise ConsistencyError(f"{group.dtype}: nonpositive character degree")
        rows.append(tuple(complex(d * v[j] / sizes[j]) for j in range(r)))
        dims.append(d)

    order = sorted(
        range(r),
        key=lambda idx: (
            dims[idx],
            tuple((round(c.real, 6), round(c.imag, 6)) for c in rows[idx]),
        ),
    )
    rows = [rows[idx] for idx in order]
    dims = [dims[idx] for idx in order]

    gram_err = 0.0
    for p in range(r):
        for q in range(r):
            val = (
                sum(sizes[c] * rows[p][c] * rows[q][c].conjugate() for c in range(r))
                / group.order
            )
            gram_err = max(gram_err, abs(val - (1.0 if p == q else 0.0)))
    if gram_err > CHAR_EPS:
        raise ConsistencyError(
            f"{group.dtype}: character rows not orthonormal (error {gram_err:.2e})"
        )

    traces = tuple(group.elements[rep].trace for rep in reps)
    tensor = [[0] * r for _ in range(r)]
    for p in range(r):
        for q in range(r):
            val = (
                sum(
                    sizes[c] * rows[p][c] * traces[c] * rows[q][c].conjugate()
                    for c in range(r)
                )
                / group.order
            )
            tensor[p][q] = _round_int(val, f"{group.dtype} tensor multiplicity")

    trivial = [
        idx
        for idx in range(r)
        if dims[idx] == 1 and max(abs(c - 1.0) for c in rows[idx]) < CHAR_EPS
    ]
    if len(trivial) != 1:
        raise ConsistencyError(f"{group.dtype}: trivial character not unique")

    node_map = _match_nodes(graph, tensor, dims, trivial[0])
    node_rows = [rows[row] for row in node_map]
    minus = group.class_of[group.minus_identity]
    noncentral = [c for c in range(r) if c not in (0, minus)]
    what = f"{group.dtype} central value"
    return CharacterTable(
        group=group,
        rows=tuple(rows),
        dims=tuple(dims),
        node_map=node_map,
        central=tuple(
            (_round_int(row[0], what), _round_int(row[minus], what)) for row in node_rows
        ),
        residues=_residue_sums(
            group,
            [(traces[c], group.class_orders[c]) for c in noncentral],
            [[sizes[c] * row[c].conjugate() for row in node_rows] for c in noncentral],
            len(node_rows),
        ),
    )


def _match_nodes(
    graph: McKayGraph, tensor: list[list[int]], dims: list[int], trivial_row: int
) -> tuple[int, ...]:
    size = graph.size
    adj = graph.adjacency

    bfs = [0]
    seen = {0}
    for node in bfs:
        for j in range(size):
            if adj[node][j] and j not in seen:
                seen.add(j)
                bfs.append(j)
    if len(bfs) != size:
        raise ConsistencyError(f"{graph.dtype}: extended diagram is not connected")

    assign: dict[int, int] = {0: trivial_row}
    used = {trivial_row}

    def backtrack(pos: int) -> bool:
        if pos == size:
            return True
        node = bfs[pos]
        for row in range(size):
            if row in used or dims[row] != graph.marks_ext[node]:
                continue
            if all(tensor[row][assign[m]] == adj[node][m] for m in assign):
                assign[node] = row
                used.add(row)
                if backtrack(pos + 1):
                    return True
                del assign[node]
                used.discard(row)
        return False

    if dims[trivial_row] != graph.marks_ext[0] or not backtrack(1):
        raise ConsistencyError(
            f"{graph.dtype}: tensor adjacency does not match the extended diagram"
        )
    return tuple(assign[node] for node in range(size))


def oracle_multiplicity(group: FiniteGroup, table: CharacterTable, n: int, node: int) -> int:
    """Multiplicity of the node's irreducible in the level-n restriction,
    by the character inner product; rounds within tolerance or aborts.

    Safe for any n in O(1): the +-identity part is exact and the rest is
    the table's residue entry for n modulo the group exponent
    (:func:`_round_multiplicity`).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    rest = table.residues[n % len(table.residues)][node]
    return _round_multiplicity(group, n, table.central[node], rest, node)


def character_multiplicities(
    group: FiniteGroup, table: CharacterTable, order: int
) -> list[tuple[int, ...]]:
    """Multiplicity vectors over extended nodes for n = 0..order, by
    :func:`oracle_multiplicity` at every level and node."""
    nodes = range(len(table.node_map))
    return [tuple(oracle_multiplicity(group, table, n, i) for i in nodes) for n in range(order + 1)]
