"""Binary polyhedral subgroups of SU(2), closed exactly in SL(2, F_p).

A quaternion (w, x, y, z) stands for the special-unitary matrix

    [[ w + x*i,  y + z*i],
     [-y + z*i,  w - x*i]]

so the trace is 2w and the inverse is the conjugate.  Each group is
closed as these matrices mod one prime p = 1 (mod E), E the group
exponent (:func:`exponent`).  Such a p splits completely in Q(zeta_E),
which holds every entry of the generators' matrices below (their
denominators 2, sqrt(2) and sqrt(5) are prime to p), so reducing them
mod p is a ring map; on a finite matrix group it is injective, since
the kernel of reduction at an unramified prime above p > 2 has no
torsion (Minkowski-Serre).  Any choice of the roots below gives such a
map, Q(zeta_E) being abelian.  An element is the residue 4-tuple
(a, b, c, d) of the matrix [[a, b], [c, d]].  The breadth-first closure
forms only the n * |gens| products; the multiplication table is filled
in exact indices from the generator word of each element, one column at
a time, each gathered from its parent's column (:func:`build_group`).  Up
to 256 elements a column is ``bytes`` and each gather one
``bytes.translate``; beyond, a tuple and an ``itemgetter``
(:func:`_gather`).  The table is stored once, as these columns
(:attr:`FiniteGroup.columns`), and never as rows: every build stage and
the "group sanity" entry read the columns.  Each group fact is held
once: the group is read-only and derives its inverses, classes, class map
and -identity from its columns and elements on first read.

Characters are exact in the same F_p: chi_n at a class depends only on
the trace t of its representative (:attr:`FiniteGroup.class_traces`),
through chi_0 = 1, chi_1 = t and chi_(k+1) = t chi_k - chi_(k-1), every
character identity holds mod p, and each integer the oracles need lifts
from its residue.  The irreducibles are walked off the extended diagram,
breadth first from the trivial character at node 0, by McKay's identity
chi_1 chi_x = sum_y adj[x][y] chi_y (chi_1 the defining character): the
part of chi_1 chi_x not yet named is split by one class sum at a time
into the rows of x's new neighbours, and the walk checks the identity
once at every node (:func:`_irreducibles`); the table's row i is node
i's character (:class:`CharacterTable`).

The character oracles read one inner product <chi_n, chi>.  At
+-identity chi_n is the integer (+-1)^n (n + 1); at an element of order
m it has period m in n, m dividing E (checked where it is used,
:func:`_residue_sums`), so the rest of the sum depends on n only modulo
E.  :func:`character_table` forms that rest once for
each residue r = 0..E-1 and each node (the residue table, in integers),
one multiply-add of packed weights per class and residue
(:func:`_residue_sums`).  One period table of period E
(:func:`_period_table`) is written down in closed form: base[r] =
((r + 1) c + rest[r]) / |F*| and step[r] = E c / |F*|, c = chi(1) +-
chi(-1) by the parity of r.  Each base entry and each entry of the two
distinct step rows is checked once to be a nonnegative integer, so a
level is base[r] + k step[r] for any n, checked no more.

Generator conventions, as quaternions (fixed for reproducibility) and
their matrices mod p, with i a square root of -1, 1/2 the inverse of 2
and sqrt(2), sqrt(5) square roots mod p:

* cyclic of order 2n       : r_n = (cos(pi/n), sin(pi/n), 0, 0), the
  matrix diag(zeta, zeta^-1) for a zeta of exact order 2n
* binary dihedral, order 4n: r_n and j = (0, 0, 1, 0), [[0, 1], [-1, 0]]
* binary tetrahedral, 24   : i = (0, 1, 0, 0), diag(i, -i), and
  (1, 1, 1, 1)/2
* binary octahedral, 48    : the tetrahedral pair and (1, 1, 0, 0)/sqrt(2)
* binary icosahedral, 120  : i and (phi - 1, phi, 1, 0)/2 with
  phi = (1 + sqrt(5))/2

A and D need no i: 4 need not divide E for A.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Callable
from functools import cached_property
from operator import getitem, itemgetter, methodcaller, mul
from typing import TYPE_CHECKING

from .errors import ConsistencyError, UsageError
from .mckay import McKayGraph
from .rootsys import DiagramType, ReadOnly
from .seriescalc import PeriodTable, fields

if TYPE_CHECKING:
    from .branching import BranchParams

#: Largest irreducible degree of a binary polyhedral group (E8 has 6).
MAX_DEGREE = 6

#: Candidates past the first that :func:`build_group`'s prime search tries.
PRIME_STEPS = 1000

#: A 2x2 matrix over F_p as its entries (a, b, c, d), row by row.
Matrix = tuple[int, int, int, int]


def exponent(dtype: DiagramType) -> int:
    """The exponent E (the lcm of the element orders) of the type's group:
    cyclic of order r + 1 for A_r, binary dihedral of order 4(r - 2) for
    D_r, and 12, 24, 60 for E6, E7, E8."""
    if dtype.family == "A":
        return dtype.rank + 1
    if dtype.family == "D":
        return math.lcm(2 * (dtype.rank - 2), 4)
    return {6: 12, 7: 24, 8: 60}[dtype.rank]


def _has_order(zeta: int, m: int, p: int) -> bool:
    """Whether zeta has exact multiplicative order m mod p."""
    return pow(zeta, m, p) == 1 and all(
        pow(zeta, m // d, p) != 1 for d in range(2, m + 1) if m % d == 0
    )


def _quaternion(w: int, x: int, y: int, z: int, i: int, p: int) -> Matrix:
    """The matrix of the quaternion (w, x, y, z) mod p, i a square root of -1."""
    return ((w + x * i) % p, (y + z * i) % p, (z * i - y) % p, (w - x * i) % p)


def _product(a: Matrix, b: Matrix, p: int) -> Matrix:
    (a0, a1, a2, a3), (b0, b1, b2, b3) = a, b
    c0, c1, c2, c3 = a0 * b0 + a1 * b2, a0 * b1 + a1 * b3, a2 * b0 + a3 * b2, a2 * b1 + a3 * b3
    return (c0 % p, c1 % p, c2 % p, c3 % p)


def generators(dtype: DiagramType, p: int, z: int) -> tuple[Matrix, ...]:
    """Fixed generator list per family, mod p (module docstring); z is for :func:`_sqrt_mod`."""
    if dtype.family in ("A", "D"):
        n = (dtype.rank + 1) // 2 if dtype.family == "A" else dtype.rank - 2
        roots = (pow(a, (p - 1) // (2 * n), p) for a in range(2, p))
        zeta = next(z for z in roots if _has_order(z, 2 * n, p))
        r_n = (zeta, 0, 0, pow(zeta, -1, p))
        return (r_n,) if dtype.family == "A" else (r_n, (0, 1, p - 1, 0))
    i, half = _sqrt_mod(-1, p, z), pow(2, -1, p)
    extra = {6: 1, 7: 2, 8: 5}[dtype.rank]  # sqrt(2) for E7, sqrt(5) for E8; E6 needs only i
    root = _sqrt_mod(extra, p, z)
    if i is None or root is None:
        missing = -1 if i is None else extra
        raise _failure(dtype, "build_group", f"{missing} has no square root mod {p}")
    units = (_quaternion(0, 1, 0, 0, i, p), _quaternion(half, half, half, half, i, p))
    if dtype.rank == 6:
        return units
    if dtype.rank == 7:
        c = pow(root, -1, p)
        return (*units, _quaternion(c, c, 0, 0, i, p))
    phi = (1 + root) * half
    return (units[0], _quaternion((phi - 1) * half, phi * half, half, 0, i, p))


class FiniteGroup(ReadOnly):
    """A closed binary polyhedral group with index-based tables; read-only.

    ``elements`` are matrices mod ``p`` (:data:`Matrix`), ``elements[0]``
    the identity, and ``generator_indices[k]`` is the index of
    ``generators(dtype, p, non_residue)[k]``, recorded by the closure, and
    ``non_residue`` is the least quadratic non-residue mod p.  The table is
    stored once, by columns: ``columns[j][i]`` is the index of element i
    times element j, ``bytes`` up to 256 elements (every type the CLI
    accepts but D67..D71) and tuples beyond; there are no rows.  Every
    other fact, :attr:`inverse`, :attr:`classes`, :attr:`class_of` and
    :attr:`minus_identity` included, is derived from these once, a cached
    property of the group.
    """

    def __init__(
        self, dtype: DiagramType, p: int, elements: tuple[Matrix, ...],
        columns: tuple[bytes | tuple[int, ...], ...], generator_indices: tuple[int, ...],
        non_residue: int,
    ) -> None:
        vars(self).update(dtype=dtype, p=p, elements=elements, columns=columns)
        vars(self).update(generator_indices=generator_indices, non_residue=non_residue)

    @cached_property
    def inverse(self) -> tuple[int, ...]:
        """x^-1 at x: the row where column x holds the identity (else ``ValueError``)."""
        return tuple([col.index(0) for col in self.columns])

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """Conjugacy classes as sorted index tuples, ordered by their least
        member, so the identity class is first.  g e g^-1 is entry g of column
        e read in column g^-1 (:attr:`inverse`), so an orbit is one ``map``
        over column e; :func:`character_table` checks the class count."""
        columns, classes, seen = self.columns, [], set()
        times_inverse = list(map(columns.__getitem__, self.inverse))  # column g^-1 at g
        for e in range(len(columns)):
            if e not in seen:
                orbit = set(map(getitem, times_inverse, columns[e]))
                seen |= orbit
                classes.append(tuple(sorted(orbit)))
        return tuple(classes)

    @cached_property
    def class_of(self) -> tuple[int, ...]:
        """The class of each element: the inverse map of :attr:`classes`."""
        where = {x: c for c, members in enumerate(self.classes) for x in members}
        return tuple([where[x] for x in range(self.order)])

    @cached_property
    def minus_identity(self) -> int:
        """The index of -identity, (p-1, 0, 0, p-1)."""
        return self.elements.index((self.p - 1, 0, 0, self.p - 1))

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def class_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)

    @cached_property
    def representatives(self) -> tuple[int, ...]:
        """Each class's smallest member, made once."""
        return tuple(c[0] for c in self.classes)

    @cached_property
    def class_orders(self) -> tuple[int, ...]:
        """Element order of each class, read off the multiplication table.
        It divides the exponent E, so a walk that passes E aborts."""
        e, out = exponent(self.dtype), []
        for c, rep in enumerate(self.representatives):
            k, x, times_rep = 1, rep, self.columns[rep]
            while x != 0:
                if k == e:
                    problem = f"class {c}: no power up to {e} of its representative is the identity"
                    raise _failure(self.dtype, "build_group", problem)
                x = times_rep[x]
                k += 1
            out.append(k)
        return tuple(out)

    @cached_property
    def class_inverse(self) -> tuple[int, ...]:
        """The class of the inverses of each class, where chi is conjugated."""
        return tuple(self.class_of[self.inverse[rep]] for rep in self.representatives)

    @cached_property
    def norm_form(self) -> tuple[list[int], itemgetter]:
        """|C| / |F*| mod p per class C, and the gather f -> f(C^-1) per C."""
        scale = pow(self.order, -1, self.p)
        return [n * scale % self.p for n in self.class_sizes], itemgetter(*self.class_inverse)

    @cached_property
    def class_traces(self) -> tuple[int, ...]:
        """The trace a + d mod p of each class's representative: chi_1, the
        defining character, which fixes every chi_n (module docstring)."""
        p, elements = self.p, self.elements
        return tuple((elements[rep][0] + elements[rep][3]) % p for rep in self.representatives)

    @cached_property
    def chi_periods(self) -> dict[int, list[int]]:
        """chi_0, chi_1, .. mod p over at least 0..E/2 at each non-central
        class, keyed by class in class order; the character table's
        :func:`_residue_sums` reads it.

        At class c, of order m and trace t (:attr:`class_traces`), chi_0 ..
        chi_m come from the recurrence chi_(k+1) = t chi_k - chi_(k-1) mod
        p, from chi_0 = 1 and chi_1 = t.  They must come back to
        (chi_(m-1), chi_m) = (0, 1), the values at -1 and 0, and m must
        divide E, or abort.  Then chi_n has period m, hence period E, and
        the entry is chi_0 .. chi_(m-1) repeated."""
        p, e, minus = self.p, exponent(self.dtype), self.class_of[self.minus_identity]
        out = {}
        for c, (t, m) in enumerate(zip(self.class_traces, self.class_orders)):
            if c in (0, minus):
                continue
            chi = [1, t]
            while len(chi) <= m:
                chi.append((t * chi[-1] - chi[-2]) % p)
            if e % m or chi[m - 1:] != [0, 1]:
                problem = f"class {c}: chi_n at trace {t} does not have period {m} dividing {e}"
                raise _failure(self.dtype, "build_group", problem)
            out[c] = chi[:m] * (e // 2 // m + 1)
        return out


def build_group(dtype: DiagramType | str, params: BranchParams) -> FiniteGroup:
    """Close the generators mod p and fill the multiplication table.

    p is the first prime among p0, p0 + E, p0 + 2E, ..., p0 = 2 |F*| E
    MAX_DEGREE + 1 and |F*| = a*b/2 from the denominator exponents, all
    = 1 (mod E).  Such primes exist (Dirichlet), and the search tries at
    most :data:`PRIME_STEPS` steps past p0, or aborts: the 18 verify types
    need at most 7 (D10; D11 3, the others 2 or fewer), A1 2, A71 4
    and D71 3, about the ln p that the prime number theorem predicts.

    The breadth-first closure records, for every element i and generator
    k, the index ``right[k][i]`` of ``elements[i] * gens[k]``, and for
    every new element j its parent (i, k) with ``elements[j] =
    elements[i] * gens[k]``.  The table is then filled from these words in
    exact indices, one column at a time: ``columns[j][i] =
    right[k][columns[i_j][i]]`` for j's parent (i_j, k), so column j is
    column i_j gathered from ``right[k]``, and only the n * |gens|
    closure products are ever formed.  Up to 256 elements the columns are
    ``bytes`` and each gather is one ``bytes.translate`` through
    ``right[k]``; beyond, tuples gathered by ``itemgetter`` (:func:`_gather`).
    The group stores these columns and no rows (:attr:`FiniteGroup.columns`)
    and derives the rest on first read, its classes included.  Its inverses
    are read here, one ``index`` per column (on bytes a ``memchr``): a
    column without the identity is a row without it, a finite monoid's left
    inverses being its right ones, and aborts.  Overshooting |F*| during
    closure aborts.  A closure that stops short is returned as is: the
    registry's "group sanity" entry compares the order with a*b/2.
    """
    if isinstance(dtype, str):
        dtype = DiagramType.parse(dtype)
    expected, e = params.order_fstar, exponent(dtype)
    start = 2 * expected * e * MAX_DEGREE + 1
    candidates = range(start, start + PRIME_STEPS * e + 1, e)  # odd: start is odd and E even
    p = next((p for p in candidates if all(p % q for q in range(3, math.isqrt(p) + 1, 2))), None)
    if p is None:
        problem = f"no prime p = 1 (mod {e}) within {PRIME_STEPS} steps of {start}"
        raise _failure(dtype, "build_group", problem)

    z = _non_residue(p)
    gens = generators(dtype, p, z)
    elements: list[Matrix] = [(1, 0, 0, 1)]
    index: dict[Matrix, int] = {elements[0]: 0}
    right: list[list[int]] = [[] for _ in gens]
    parents: list[tuple[int, int]] = [(0, 0)]
    for i, a in enumerate(elements):  # grows while it is walked: breadth first
        for k, gen in enumerate(gens):
            key = _product(a, gen, p)
            if key not in index:
                if len(elements) >= expected:
                    raise _failure(
                        dtype, "build_group", f"closure exceeds the expected order {expected}"
                    )
                index[key] = len(elements)
                elements.append(key)
                parents.append((i, k))
            right[k].append(index[key])
    n = len(elements)

    column = bytes if n <= 256 else tuple  # bytes while a byte holds every index
    gathers = [_gather(column(row)) for row in right]
    columns = [column(range(n))]  # columns[j][i]: element i times element j
    for parent, k in parents[1:]:
        columns.append(gathers[k](columns[parent]))
    gens_at = tuple(row[0] for row in right)  # identity * gens[k]
    group = FiniteGroup(dtype, p, tuple(elements), tuple(columns), gens_at, z)
    try:
        group.inverse  # noqa: B018 - read once, here, where a fault names the build
    except ValueError:  # a column, hence a row, without the identity
        raise _failure(dtype, "build_group", "a row of the table has no identity") from None
    if (p - 1, 0, 0, p - 1) not in index:
        raise _failure(dtype, "build_group", "-identity is not in the closure")
    return group


def _gather(table: bytes | tuple[int, ...]) -> Callable:
    """col -> the column (table[i] for i in col), of ``table``'s type.  On
    bytes it is one ``bytes.translate`` through ``table`` padded to 256
    entries from its own length by byte 255, which is then no index, so a
    stray index in col reads no entry of ``table``; on tuples, an
    ``itemgetter``."""
    if isinstance(table, bytes):
        return methodcaller("translate", table.ljust(256, b"\xff"))
    return lambda col: itemgetter(*col)(table)


def _failure(dtype: DiagramType, stage: str, problem: str) -> ConsistencyError:
    return ConsistencyError(f"{dtype}: {problem}", dtype=str(dtype), stage=stage)


def _lift(x: int, p: int) -> int:
    """The integer in (-p/2, p/2) congruent to x mod p."""
    return (x + p // 2) % p - p // 2


def _residue_sums(
    group: FiniteGroup, weights: list[tuple[int, ...]]
) -> tuple[tuple[int, ...], ...]:
    """The non-central part of |F*| <chi_n, chi>, for every n, in integers.

    ``weights[c]`` is class c's weight in each column.  Entry ``[r][k]``
    is sum_c weights[c][k] chi_r(c) over the non-central classes c, for
    r = 0..E-1, read from :attr:`FiniteGroup.chi_periods`, which proves
    that chi_n has period E at each of them.  So the E rows cover every
    n; and as chi_(-2-r) = -chi_r for any t, rows E/2..E-1 are rows
    E/2-2..0 negated and a row of chi_(E-1) = 0.  As |chi_r| <= E and a
    weight is at most |C| MAX_DEGREE, the sum is below p/2 in absolute
    value and lifts exactly.  With no non-central class (A1) every entry is 0.

    Each class's weights, reduced mod p, are one int of fields, one per
    column (:func:`_fields`), so row r is one multiply-add per class, one
    unpack, and one reduction mod p and one lift per entry.
    """
    chi = group.chi_periods
    noncentral, periods = list(chi), list(chi.values())
    p, e, size = group.p, exponent(group.dtype), len(weights[0])
    row = _fields(group, len(noncentral), size)
    packed = [int.from_bytes(row.pack(*[w % p for w in weights[c]]), "little") for c in noncentral]
    half, lift = [], p // 2
    for r in range(e // 2):
        total = sum(map(mul, map(itemgetter(r), periods), packed)).to_bytes(row.size, "little")
        half.append(tuple([(x + lift) % p - lift for x in row.unpack(total)]))
    # chi_(E-2-r) = -chi_r and chi_(E-1) = 0 at a non-central class
    negated = [tuple([-x for x in half[e - 2 - r]]) for r in range(e // 2, e - 1)]
    return tuple(half + negated + [(0,) * size])


def _fields(group: FiniteGroup, terms: int, size: int) -> struct.Struct:
    """The row of ``size`` fields, one residue mod p each, whose sums of up
    to ``terms`` products stay apart: a field is one unsigned 64-bit word
    (:func:`~.seriescalc.fields`), and a sum needs 2 bits(p) + bits(terms)
    + 1 bits, at most 48 over the types the CLI accepts (D65).  A modulus
    whose sums need more aborts, at stage ``character_table``."""
    if (bits := 2 * group.p.bit_length() + terms.bit_length() + 1) > 64:
        problem = f"sums of {terms} products mod {group.p} need {bits}-bit fields, past 64"
        raise _failure(group.dtype, "character_table", problem)
    return fields(size)


def _multiplicity(
    group: FiniteGroup, n: int, central: tuple[int, int], rest: int, node: int
) -> int:
    """<chi_n, chi> from chi's integer values at +identity and -identity
    and the non-central sum ``rest`` (:func:`_residue_sums`).

    At +-identity chi_n is the integer (+-1)^n (n + 1), so the total is
    exact; it must be |F*| times a nonnegative integer, or abort.  ``node``
    names chi in the error.
    """
    plus, minus = central
    total = (n + 1) * (plus - minus if n % 2 else plus + minus) + rest
    m, part = divmod(total, group.order)
    if part or m < 0:
        problem = f"multiplicity of node {node} at n={n} is {total}/{group.order}"
        raise _failure(group.dtype, "oracles", f"{problem}, not a nonnegative integer")
    return m


def _period_table(
    group: FiniteGroup,
    central: tuple[tuple[int, int], ...],
    residues: tuple[tuple[int, ...], ...],
) -> PeriodTable:
    """The multiplicities of the characters with the given values at
    +-identity (``central``) and non-central sums (``residues``, period
    E), as a period table of period E, proved once.

    E is even (the exponent of a group holding -identity), so n = r + kE
    has the parity of r and the total at n is (n + 1) c + rest[r], c =
    chi(1) +- chi(-1) by that parity (:func:`_multiplicity`): base[r] =
    ((r + 1) c + rest[r]) / |F*| and step[r] = E c / |F*|, one step row
    per parity.  Every base entry and both step rows must be nonnegative
    integers; then so is every level base[r] + k step[r], and base[r] and
    step[r] are level r and level r + E minus level r.  Otherwise those
    levels are checked in turn by :func:`_multiplicity`, whose first
    failure, or else the first negative step, names the fault, column i
    as node i.

    The rows are proved packed, one 64-bit field per node, X = 2^64
    (:func:`~.seriescalc.fields`), and handed to the table as they are.
    The values c and each row of residue sums pack as signed 32-bit values
    (a value past them aborts), as sums x_i X^i, C and R.  So the totals of
    the step rows, E C, and of base row r, T = (r + 1) C + R, are sums t_i
    X^i with every t_i within +-2^63, E being far below 2^32.  If |F*|
    divides T with a quotient Q >= 0 whose fields q_i all have |F*| q_i <
    2^63 (checked once, at the largest), then t_i and |F*| q_i are both T's
    digits in base X within +-2^63, which are unique: t_i = |F*| q_i, and
    Q is the row packed.  A real table passes: its residue sums lie within
    +-p/2 (:func:`_residue_sums`) and its multiplicities are small.
    """
    e, order, size = len(residues), group.order, len(central)
    signs = ([a + b for a, b in central], [a - b for a, b in central])  # c at even r, at odd r
    low = ((1 << 64 * size) - 1) // ((1 << 64) - 1) << 31  # bit 31 of every field
    row, small = fields(size), fields(size, "i4x")  # i4x: a signed 32-bit value
    try:
        even, odd, *rests = [
            (int.from_bytes(small.pack(*v), "little") ^ low) - low for v in (*signs, *residues)
        ]
        totals = [e * even, e * odd] + [(r + 1) * (even, odd)[r % 2] + x for r, x in enumerate(rests)]
    except struct.error:  # a value past 32 bits
        totals = []
    packed: list[int] = []  # the step rows at even and odd r, then base rows 0..E-1
    for t in totals:
        q, m = divmod(t, order)
        if m or q < 0:
            break
        packed.append(q)
    if len(packed) == e + 2:
        rows = tuple([row.unpack(q.to_bytes(row.size, "little")) for q in packed])
        step, base = rows[:2], rows[2:]
        if (bound := max(map(max, rows))) * order < 1 << 63:
            packed_rows = (tuple(packed[2:]), tuple(packed[:2]) * (e // 2))
            return PeriodTable(base, step * (e // 2), 2 * e - 1, packed_rows, bound)
    for n, sums in enumerate(residues + residues):
        for node, (c, rest) in enumerate(zip(central, sums)):
            _multiplicity(group, n, c, rest, node)
    # every level passed: a step is negative, or a value passes the packed fields
    steps = [[e * c // order for c in cs] for cs in signs]
    negative = ((r, i) for r in range(e) for i, d in enumerate(steps[r % 2]) if d < 0)
    if (miss := next(negative, None)) is None:
        raise _failure(group.dtype, "oracles", f"values past the packed fields at period {e}")
    r, i = miss
    problem = f"multiplicity of node {i} has a negative step {steps[r % 2][i]} at residue {r}"
    raise _failure(group.dtype, "oracles", f"{problem} of period {e}")


class CharacterTable(ReadOnly):
    """Irreducible characters by conjugacy class, indexed by diagram node; read-only.

    ``rows[i][c]`` is the value of node i's irreducible on class c, mod
    ``group.p`` (the defining character's row is ``group.class_traces``),
    and ``dims``, the degrees chi(1), are the rows' first column.  The
    rest is derived from the rows on first read: the character oracles
    read :attr:`periods`, the proved period table of :attr:`central` and
    :attr:`residues` (:func:`_period_table`).
    """

    def __init__(self, group: FiniteGroup, rows: tuple[tuple[int, ...], ...]) -> None:
        vars(self).update(group=group, rows=rows, dims=tuple(row[0] for row in rows))

    @cached_property
    def central(self) -> tuple[tuple[int, int], ...]:
        """Each node's character at +identity and -identity, as integers (dim, +-dim)."""
        p, minus = self.group.p, self.group.class_of[self.group.minus_identity]
        return tuple((row[0], _lift(row[minus], p)) for row in self.rows)

    @cached_property
    def residues(self) -> tuple[tuple[int, ...], ...]:
        """``residues[r][i]``: the non-central sum of |F*| <chi_n, chi_i>, n = r
        mod E, over the class weights |C| chi_i(C^-1) (:func:`_residue_sums`)."""
        sizes, inverse = self.group.class_sizes, self.group.class_inverse
        weights = [tuple(n * row[inverse[c]] for row in self.rows) for c, n in enumerate(sizes)]
        return _residue_sums(self.group, weights)

    @cached_property
    def periods(self) -> PeriodTable:
        return _period_table(self.group, self.central, self.residues)

    # Node i's row is row i; ``bench/workloads.py`` still reads this map.
    node_map = property(lambda self: range(len(self.rows)))


def _non_residue(p: int) -> int:
    """The least quadratic non-residue modulo the odd prime p."""
    return next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)


def _sqrt_mod(a: int, p: int, z: int) -> int | None:
    """A square root of a modulo the odd prime p, or None if a is not a
    square, by Tonelli-Shanks (p - 1 = q 2^s with q odd, z a quadratic
    non-residue mod p): at most s rounds, each searching i below the last.
    A z that is a residue after all gives a true root or None, never a
    fault.  It gives the generators' i, sqrt(2) and sqrt(5) and
    :func:`_split`'s eigenvalues, each with the group's
    :attr:`FiniteGroup.non_residue`."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    # root^2 = a t throughout, and t^(2^(m-1)) = 1 while z is a non-residue,
    # so m falls every round and t = 1 within s rounds; past that, None.
    m, c, t, root = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    for _ in range(s):
        if t == 1:
            return root
        t2 = t * t % p
        for i in range(1, m):  # the least i < m with t^(2^i) = 1
            if t2 == 1:
                break
            t2 = t2 * t2 % p
        else:
            return None
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, root = i, b * b % p, t * b * b % p, root * b % p
    return None


def _class_sum(group: FiniteGroup, c: int, f: list[int]) -> list[int]:
    """T f mod p, T the sum of class c: (T f)(g) = sum_(x in C) f(xg) at
    each class's representative g.  On an irreducible chi, T is the scalar
    |C| chi(C) / chi(1) (Schur)."""
    class_of, members, p = group.class_of, group.classes[c], group.p
    times = map(group.columns.__getitem__, group.representatives)  # x -> x g, per g
    return [sum([f[class_of[col[x]]] for x in members]) % p for col in times]


def _split(group: FiniteGroup, psi: list[int]) -> list[tuple[int, ...]]:
    """The irreducibles chi of psi = sum m_chi chi mod p, the m_chi integers;
    every m_chi must be positive, or abort.

    A psi of norm <psi, psi> = 1 is +-chi, so no class sum moves its line.
    Otherwise the first class sum T that moves psi's line and satisfies
    T^2 psi = s T psi - q psi has two eigenvalues on psi, lambda and mu,
    the roots of x^2 - s x + q: psi is (T psi - mu psi) / (lambda - mu)
    plus the rest, and each part is split again.  Where the relation fails
    (more than two eigenvalues) the next class is tried, and if none is
    left, abort.  If no class moves psi's line, psi = m chi with m^2 =
    <psi, psi> and chi(1) in 1..MAX_DEGREE.
    """
    p, (weights, conjugate) = group.p, group.norm_form
    norm = _lift(sum(map(mul, weights, map(mul, psi, conjugate(psi)))) % p, p)
    i, problem = next((i for i, x in enumerate(psi) if x), 0), None
    for c in range(1, len(group.classes)) if norm != 1 else ():
        t_psi = _class_sum(group, c, psi)
        u_i, v_i = psi[i], t_psi[i]
        j = next((j for j, (u, v) in enumerate(zip(psi, t_psi)) if (v * u_i - u * v_i) % p), None)
        if j is None:  # T psi is a multiple of psi
            continue
        tt_psi = _class_sum(group, c, t_psi)
        u_j, v_j, w_i, w_j = psi[j], t_psi[j], tt_psi[i], tt_psi[j]
        det = pow(u_i * v_j - u_j * v_i, -1, p)
        s, q = (u_i * w_j - u_j * w_i) * det % p, (v_i * w_j - v_j * w_i) * det % p
        root = _sqrt_mod(s * s - 4 * q, p, group.non_residue)
        if root and not any((w - s * v + q * u) % p for u, v, w in zip(psi, t_psi, tt_psi)):
            mu, scale = (s - root) * (p + 1) // 2, pow(root, -1, p)  # (s - root) / 2
            part = [(v - mu * u) * scale % p for u, v in zip(psi, t_psi)]
            return _split(group, part) + _split(group, [(u - a) % p for u, a in zip(psi, part)])
        problem = f"no class sum has two eigenvalues on a class function of norm {norm}"
    m = math.isqrt(max(norm, 0))
    dim, rest = divmod(_lift(psi[0], p), m or 1)
    if problem is None and m and m * m == norm and not rest and 1 <= dim <= MAX_DEGREE:
        return [tuple(psi) if m == 1 else tuple([x * pow(m, -1, p) % p for x in psi])]
    problem = problem or f"a class function of norm {norm} is not a nonnegative sum of irreducibles"
    raise _failure(group.dtype, "character_table", problem)


def _irreducibles(group: FiniteGroup, graph: McKayGraph) -> list[tuple[int, ...]]:
    """Each extended-diagram node's irreducible character mod p, walked
    breadth first by McKay's identity chi_1 chi_x = sum_y adj[x][y] chi_y,
    chi_1 the defining character (:attr:`FiniteGroup.class_traces`).

    Node 0 takes the trivial row.  At node x, chi_1 chi_x less adj[x][y]
    chi_y for each neighbour y with a row is psi, which :func:`_split`
    separates; each neighbour u without a row, in ascending order, takes
    the first sorted part of degree marks_ext[u].  Less adj[x][u] chi_u
    for each u, psi must be 0 with no part unused, so the walk checks the
    identity once at every node, and the r rows must be distinct, or
    abort, as a walk that passes ``graph.size`` nodes does.  No search is
    needed: a diagram automorphism fixing node 0 and every node with a row
    swaps siblings of equal mark, so any choice among them extends, and no
    multiplicity depends on it.  Both walks read each node's (neighbour,
    weight) pairs, listed once.
    """
    p, chi_1 = group.p, group.class_traces
    marks, size = graph.marks_ext, graph.size
    links = [[(y, k) for y, k in enumerate(row) if k] for row in graph.adjacency]
    walk, seen = [0], {0}
    for x in walk:  # grows while it is walked: breadth first
        if x >= size:  # a node with no adjacency row
            raise _failure(graph.dtype, "character_table", f"the diagram walk passes {size} nodes")
        new = [y for y, _ in links[x] if y not in seen]
        walk += new
        seen.update(new)
    if len(walk) != size:
        raise _failure(graph.dtype, "character_table", "extended diagram is not connected")

    rows: list[tuple[int, ...]] = [(1,) * len(chi_1)] + [()] * (size - 1)  # () until walked to
    for x in walk:
        psi, new = [a * b for a, b in zip(chi_1, rows[x])], []
        for y, k in links[x]:
            if rows[y]:
                psi = [a - k * b for a, b in zip(psi, rows[y])]
            else:
                new.append((y, k))
        psi = [a % p for a in psi]
        parts = sorted(_split(group, psi)) if any(psi) else []
        for u, k in new:
            rows[u] = next((row for row in parts if row[0] == marks[u]), ())
            if rows[u]:
                parts.remove(rows[u])
                psi = [(a - k * b) % p for a, b in zip(psi, rows[u])]
        if not all(rows[u] for u, _ in new) or parts or any(psi):
            problem = "tensor adjacency does not match the extended diagram"
            raise _failure(graph.dtype, "character_table", problem)
    if len(set(rows)) != size:
        problem = f"{size} nodes but {len(set(rows))} distinct rows"
        raise _failure(graph.dtype, "character_table", problem)
    return rows


def character_table(group: FiniteGroup, graph: McKayGraph) -> CharacterTable:
    """Compute all irreducible characters mod p, one per extended node.

    The rows are walked off the extended diagram by the McKay identity
    (:func:`_irreducibles`), row i node i's.  There is no randomness.  The
    table derives each node's integer values at +-identity and the residue
    table from them, and its period table is built and proved here.
    """
    if (r := len(group.classes)) != graph.size:
        problem = f"{r} classes but {graph.size} extended nodes"
        raise _failure(group.dtype, "character_table", problem)
    table = CharacterTable(group, tuple(_irreducibles(group, graph)))
    table.periods  # noqa: B018 - proved once, here, rather than at the first level read
    return table


def oracle_multiplicity(group: FiniteGroup, table: CharacterTable, n: int, node: int) -> int:
    """Multiplicity of the node's irreducible in the level-n restriction,
    by the character inner product in exact integers.

    Safe for any n in O(1): the node's entry of the table's proved period
    table (:func:`_period_table`), base[r] + k step[r] for n = kE + r.  It
    reads that one entry, not a whole level, because a point query asks
    for each node in turn.
    """
    if n < 0:
        raise UsageError("n must be nonnegative")
    if not 0 <= node < len(table.rows):
        raise UsageError(f"node index {node} out of range for {group.dtype}")
    t = table.periods
    k, r = divmod(n, t.period)
    return t.base[r][node] + k * t.step[r][node]


def character_multiplicities(
    group: FiniteGroup, table: CharacterTable, order: int
) -> list[tuple[int, ...]]:
    """Multiplicity vectors over extended nodes for n = 0..order, read in
    turn from the table's period table.  A list, not the table itself: a
    level sweep indexes it once per level, and a list read is cheaper."""
    return list(table.periods.upto(order))
