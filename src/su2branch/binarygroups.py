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
in exact indices from the generator word of each element
(:func:`build_group`).

Characters are exact in the same F_p (Dixon's modular method): each
class's eigenvalue zeta is a root of x^2 - t x + 1, t the trace of its
representative (:attr:`FiniteGroup.roots_mod_p`), every character
identity holds mod p, and each integer the oracles need lifts from its
residue.  The central characters are the common eigenvectors of the
class-sum structure constants; rows are matched to extended-diagram
nodes by the tensor-with-defining-representation adjacency.

The character oracles and the Molien average share one inner product
<chi_n, chi>.  At +-identity chi_n is the integer (+-1)^n (n + 1); at an
element of order m it has period m in n, so the rest of the sum depends
on n only modulo E.  :func:`character_table` forms that rest once for
each residue r = 0..E-1 and each node (the residue table, in integers).
E is even, so n = r (mod E) keeps the parity of n, and the total grows
by exactly E (chi(1) +- chi(-1)) per E levels: one period table
(:func:`_period_table`) holds each node's multiplicity at r = 0..E-1
and that growth divided by |F*|, both checked once to be nonnegative
integers, so a level is base[r] + k step[r] for any n, checked no more.

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
import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import TYPE_CHECKING

from .errors import ConsistencyError
from .mckay import McKayGraph
from .rootsys import DiagramType
from .seriescalc import PeriodTable, iter_levels

if TYPE_CHECKING:
    from .branching import BranchParams

#: Largest irreducible degree of a binary polyhedral group (E8 has 6).
MAX_DEGREE = 6

_EIG_SEED = 20240801

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


def generators(dtype: DiagramType, p: int) -> tuple[Matrix, ...]:
    """Fixed generator list per family, mod p (see module docstring)."""
    if dtype.family in ("A", "D"):
        n = (dtype.rank + 1) // 2 if dtype.family == "A" else dtype.rank - 2
        roots = (pow(a, (p - 1) // (2 * n), p) for a in range(2, p))
        zeta = next(z for z in roots if _has_order(z, 2 * n, p))
        r_n = (zeta, 0, 0, pow(zeta, -1, p))
        return (r_n,) if dtype.family == "A" else (r_n, (0, 1, p - 1, 0))
    i, half = _sqrt_mod(-1, p), pow(2, -1, p)
    units = (_quaternion(0, 1, 0, 0, i, p), _quaternion(half, half, half, half, i, p))
    if dtype.rank == 6:
        return units
    if dtype.rank == 7:
        c = pow(_sqrt_mod(2, p), -1, p)
        return (*units, _quaternion(c, c, 0, 0, i, p))
    phi = (1 + _sqrt_mod(5, p)) * half
    return (units[0], _quaternion((phi - 1) * half, phi * half, half, 0, i, p))


@dataclass(eq=False)
class FiniteGroup:
    """A closed binary polyhedral group with index-based tables.

    ``elements`` are matrices mod ``p`` (:data:`Matrix`), ``elements[0]``
    the identity.  ``classes`` are conjugacy classes as sorted index
    tuples, ordered by their smallest member, so the identity class is
    first.
    """

    dtype: DiagramType
    p: int
    elements: tuple[Matrix, ...]
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

    @cached_property
    def class_inverse(self) -> tuple[int, ...]:
        """The class of the inverses of each class, where chi is conjugated."""
        return tuple(self.class_of[self.inverse[rep]] for rep in self.representatives())

    @cached_property
    def roots_mod_p(self) -> tuple[int, tuple[int, ...]]:
        """The prime p and, per class, an eigenvalue zeta mod p.

        zeta is a root of x^2 - t x + 1, t the trace of the class's
        representative; either root serves, chi_n being symmetric in zeta
        and zeta^-1.  It must have the class's exact order m, and m must
        divide the exponent E, or abort.
        """
        p, e, half = self.p, exponent(self.dtype), pow(2, -1, self.p)
        z, zetas = _non_residue(p), []
        for c, (rep, m) in enumerate(zip(self.representatives(), self.class_orders)):
            a, _, _, d = self.elements[rep]
            t = (a + d) % p
            root = _sqrt_mod(t * t - 4, p, z)
            zeta = None if root is None else (t + root) * half % p
            if zeta is None or e % m or not _has_order(zeta, m, p):
                problem = f"class {c}: trace {t} has no eigenvalue of order {m} dividing {e}"
                raise _failure(self.dtype, "build_group", problem)
            zetas.append(zeta)
        return p, tuple(zetas)


def build_group(dtype: DiagramType | str, params: BranchParams) -> FiniteGroup:
    """Close the generators mod p and compute tables and conjugacy classes.

    p is the smallest prime p = 1 (mod E) above 2 |F*| E MAX_DEGREE, with
    |F*| = a*b/2 from the denominator exponents.  The breadth-first
    closure records, for every element i and generator k, the index
    ``right[k][i]`` of ``elements[i] * gens[k]``, and for every new
    element j its parent (i, k) with ``elements[j] = elements[i] *
    gens[k]``.  The table is then filled from these words in exact
    indices: ``mult[i][j] = right[k][mult[i][i_j]]`` for j's parent
    (i_j, k), so only the n * |gens| closure products are ever formed.
    Overshooting |F*| during closure aborts, as does a non-central
    -identity.  A closure that stops short is returned as is: the
    registry's "group sanity" entry compares the order with a*b/2.
    """
    if isinstance(dtype, str):
        dtype = DiagramType.parse(dtype)
    expected, e = params.order_fstar, exponent(dtype)
    p = 2 * expected * e * MAX_DEGREE + 1
    while any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        p += e

    gens = generators(dtype, p)
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

    def row(i: int) -> tuple[int, ...]:
        out = [i]
        for parent, k in parents[1:]:
            out.append(right[k][out[parent]])
        return tuple(out)

    mult = tuple(row(i) for i in range(n))
    inverse = tuple(line.index(0) for line in mult)
    minus_identity = index.get((p - 1, 0, 0, p - 1))
    if minus_identity is None:
        raise _failure(dtype, "build_group", "-identity is not in the closure")
    for g in range(n):
        if mult[minus_identity][g] != mult[g][minus_identity]:
            raise _failure(dtype, "build_group", "-identity is not central")

    classes, class_of = conjugacy_classes(mult, inverse)
    return FiniteGroup(
        dtype=dtype,
        p=p,
        elements=tuple(elements),
        mult=mult,
        inverse=inverse,
        classes=classes,
        class_of=class_of,
        minus_identity=minus_identity,
    )


def conjugacy_classes(
    mult: tuple[tuple[int, ...], ...], inverse: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Partition element indices into conjugation orbits.

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
    return tuple(classes), tuple(class_of_list)


def _failure(dtype: DiagramType, stage: str, problem: str) -> ConsistencyError:
    return ConsistencyError(f"{dtype}: {problem}", dtype=str(dtype), stage=stage)


def _lift(x: int, p: int) -> int:
    """The integer in (-p/2, p/2) congruent to x mod p."""
    return (x + p // 2) % p - p // 2


def _su2_character(zeta: int, n: int, p: int) -> int:
    """chi_n mod p at an element with eigenvalues zeta^(+-1) != +-1, in
    O(log n): (zeta^(n+1) - zeta^-(n+1)) / (zeta - zeta^-1)."""
    return (pow(zeta, n + 1, p) - pow(zeta, -n - 1, p)) * pow(zeta - pow(zeta, -1, p), -1, p) % p


def _residue_sums(
    group: FiniteGroup, weights: list[tuple[int, ...]]
) -> tuple[tuple[int, ...], ...]:
    """The non-central part of |F*| <chi_n, chi>, for every n, in integers.

    ``weights[c]`` is class c's weight in each column, mod p.  Entry
    ``[r][k]`` is sum_c weights[c][k] chi_r(c) over the non-central
    classes c, for r = 0..E-1; chi_n has period m_c at a class of order
    m_c, so this covers every n.  As |chi_r| <= E and a weight is at most
    |C| MAX_DEGREE, the sum is below p/2 in absolute value and lifts
    exactly.  With no non-central class (A1) every entry is 0.
    """
    minus = group.class_of[group.minus_identity]
    noncentral = [c for c in range(len(group.classes)) if c not in (0, minus)]
    p, zetas = group.roots_mod_p
    orders = group.class_orders
    periods = [[_su2_character(zetas[c], k, p) for k in range(orders[c])] for c in noncentral]
    e = exponent(group.dtype)
    columns = [[weights[c][k] for c in noncentral] for k in range(len(weights[0]))]
    half = [
        tuple(_lift(sum(map(int.__mul__, chis, col)), p) for col in columns)
        for chis in ([chi[r % len(chi)] for chi in periods] for r in range(e // 2))
    ]
    # chi_(E-2-r) = -chi_r and chi_(E-1) = 0 at a non-central class
    negated = [tuple(-x for x in half[e - 2 - r]) for r in range(e // 2, e - 1)]
    return tuple(half + negated + [(0,) * len(columns)])


def _multiplicity(
    group: FiniteGroup, n: int, central: tuple[int, int], rest: int, node: int | None
) -> int:
    """<chi_n, chi> from chi's integer values at +identity and -identity
    and the non-central sum ``rest`` (:func:`_residue_sums`).

    At +-identity chi_n is the integer (+-1)^n (n + 1), so the total is
    exact; it must be |F*| times a nonnegative integer, or abort.  ``node``
    names chi in the error; None is the trivial character of the Molien
    average.
    """
    plus, minus = central
    total = (n + 1) * (plus - minus if n % 2 else plus + minus) + rest
    m, part = divmod(total, group.order)
    if part or m < 0:
        what = "invariant dimension" if node is None else f"multiplicity of node {node}"
        problem = f"{what} at n={n} is {total}/{group.order}, not a nonnegative integer"
        raise _failure(group.dtype, "oracles", problem)
    return m


def _period_table(
    group: FiniteGroup,
    central: tuple[tuple[int, int], ...],
    residues: tuple[tuple[int, ...], ...],
    names: tuple[int | None, ...],
) -> PeriodTable:
    """The multiplicities of the characters with the given values at
    +-identity (``central``) and non-central sums (``residues``, period
    E), as a period table of period E, proved once.

    base[r] is :func:`_multiplicity` at n = r < E, with its check.  E is
    even (the exponent of a group holding -identity), so n = r + kE has
    the parity of r and the total grows by kE c, c = chi(1) + chi(-1) for
    even r and chi(1) - chi(-1) for odd r: step[r] = E c / |F*|, which must
    be a nonnegative integer, or abort.  Then every level is base[r] +
    k step[r] and is a nonnegative integer.  ``names`` labels the columns
    in errors as in :func:`_multiplicity`.
    """
    e = len(residues)
    base = tuple(
        tuple(_multiplicity(group, r, c, rest, name) for c, rest, name in zip(central, row, names))
        for r, row in enumerate(residues)
    )
    steps: tuple[list[int], list[int]] = ([], [])
    for (plus, minus), name in zip(central, names):
        for parity, growth in enumerate((e * (plus + minus), e * (plus - minus))):
            m, part = divmod(growth, group.order)
            if part or m < 0:
                what = "invariant dimension" if name is None else f"multiplicity of node {name}"
                problem = (
                    f"{what} grows by {growth}/{group.order} per {e} levels at "
                    f"{('even', 'odd')[parity]} n, not a nonnegative integer"
                )
                raise _failure(group.dtype, "oracles", problem)
            steps[parity].append(m)
    return base, tuple(tuple(steps[r % 2]) for r in range(e))


def molien_series(group: FiniteGroup, order: int) -> tuple[int, ...]:
    """Invariant dimensions by direct group averaging of SU(2) traces.

    Independent of the character table: the average of chi_n over every
    element is <chi_n, 1>, with the trivial character's (1, 1) at
    +-identity and weight 1 on each other element (:func:`_residue_sums`),
    read from its own period table (:func:`_period_table`); any order is
    safe.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    rest = _residue_sums(group, [(size,) for size in group.class_sizes])
    table = _period_table(group, ((1, 1),), rest, (None,))
    return tuple(v[0] for v in iter_levels(table, order))


@dataclass(eq=False)
class CharacterTable:
    """Irreducible characters by conjugacy class, tied to diagram nodes.

    ``rows[r][c]`` is the value of irreducible r on class c, mod the p of
    ``group.roots_mod_p``; ``node_map`` sends each extended-diagram node to
    its row.  The character oracles read only ``central[node]``, the
    node's character at +identity and -identity as integers (dim, +-dim),
    and ``residues[r][node]``, the non-central sum of |F*| <chi_n,
    chi_node> for every n = r modulo the group exponent
    (:func:`_residue_sums`).  Both feed ``periods``, the proved period
    table every level is read from (:func:`_period_table`).
    """

    group: FiniteGroup
    rows: tuple[tuple[int, ...], ...]
    dims: tuple[int, ...]
    node_map: tuple[int, ...]
    central: tuple[tuple[int, int], ...] = field(repr=False)
    residues: tuple[tuple[int, ...], ...] = field(repr=False)

    @cached_property
    def periods(self) -> PeriodTable:
        nodes = tuple(range(len(self.central)))
        return _period_table(self.group, self.central, self.residues, nodes)


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder over F_p of polynomials as coefficient lists,
    constant term first; ``b`` has a nonzero leading coefficient."""
    a, lead, q = [x % p for x in a], pow(b[-1], -1, p), []
    for i in reversed(range(len(a) - len(b) + 1)):
        q.append(a[i + len(b) - 1] * lead % p)
        a[i : i + len(b)] = [(x - q[-1] * y) % p for x, y in zip(a[i : i + len(b)], b)]
    return q[::-1], _trim(a[: len(b) - 1])


def _poly_powmod(base: list[int], e: int, f: list[int], p: int) -> list[int]:
    """base^e modulo the monic f of degree n > deg base over F_p, with w
    bits per coefficient packed into an integer (Kronecker substitution):
    a product is one multiplication, and x^(n+j) folds back as x^(n+j) mod f."""
    n = len(f) - 1
    w = (2 * n * p * p).bit_length()
    low, mask = (1 << (w * n)) - 1, (1 << w) - 1
    folds, power = [], [-c % p for c in f[:n]]
    for _ in range(n - 1):
        folds.append(sum(c << (w * i) for i, c in enumerate(power)))
        power = [(a - power[-1] * c) % p for a, c in zip([0] + power[:-1], f)]
    out, packed = 1, sum(c << (w * i) for i, c in enumerate(base))
    for bit in bin(e)[2:]:
        for factor in (out, packed) if bit == "1" else (out,):
            prod = out * factor
            high = (((prod >> (w * j)) & mask) % p * fold for j, fold in enumerate(folds, n))
            prod = (prod & low) + sum(high)
            out = sum(((prod >> (w * i)) & mask) % p << (w * i) for i in range(n))
    return [(out >> (w * i)) & mask for i in range(n)]


def _non_residue(p: int) -> int:
    """The least quadratic non-residue modulo the odd prime p."""
    return next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)


def _sqrt_mod(a: int, p: int, z: int | None = None) -> int | None:
    """A square root of a modulo the odd prime p, or None if a is not a
    square, by Tonelli-Shanks (p - 1 = q 2^s with q odd), with z a
    quadratic non-residue mod p, :func:`_non_residue` when not given."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = _non_residue(p) if z is None else z
    c, t, root = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 1, t * t % p  # the least i with t^(2^i) = 1
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % p
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, root = i, b * b % p, t * b * b % p, root * b % p
    return root


def _roots(f: list[int], p: int, rng: random.Random) -> list[int]:
    """The roots of the monic f over F_p when it is a product of distinct
    linear factors (otherwise fewer).  A quadratic x^2 + b x + c splits in
    closed form, (-b +- sqrt(b^2 - 4c)) / 2; higher degrees by Cantor-
    Zassenhaus: gcd(f, (x + a)^((p-1)/2) - 1) splits such an f for about
    half of all a."""
    if len(f) == 2:
        return [-f[0] % p]
    if len(f) == 3:
        c, b, _ = f
        root = _sqrt_mod(b * b - 4 * c, p)
        if not root:  # a repeated root, or none in F_p
            return []
        half = pow(2, -1, p)
        return [(-b + root) * half % p, (-b - root) * half % p]
    for _ in range(64):
        h = _poly_powmod([rng.randrange(p), 1], (p - 1) // 2, f, p)
        g, rem = f, _trim([(h[0] - 1) % p] + h[1:])
        while rem:
            g, rem = rem, _poly_divmod(g, rem, p)[1]
        if 1 < len(g) < len(f):
            g = [x * pow(g[-1], -1, p) % p for x in g]
            return _roots(g, p, rng) + _roots(_poly_divmod(f, g, p)[0], p, rng)
    return []


def _solve(columns: list[list[int]], rhs: list[int], p: int) -> list[int] | None:
    """c with sum_i c_i columns[i] = rhs over F_p, or None if the columns
    are dependent."""
    n, rows = len(columns), [[*row, b] for row, b in zip(zip(*columns), rhs)]
    for i in range(n):
        k = next((k for k in range(i, n) if rows[k][i]), None)
        if k is None:
            return None
        rows[i], rows[k] = rows[k], rows[i]
        lead = pow(rows[i][i], -1, p)
        rows[i] = [x * lead % p for x in rows[i]]
        for j in range(n):
            if j != i:
                rows[j] = [(a - rows[j][i] * b) % p for a, b in zip(rows[j], rows[i])]
    return [row[n] for row in rows]


def _central_characters(group: FiniteGroup) -> list[list[int]]:
    """Each irreducible chi's central character |C| chi(C) / chi(1) mod p.

    These are the common eigenvectors w_chi, 1 at the identity class, of
    the class-sum matrices M_C[j][k] = #{x in C : x^-1 z_k in class j}
    (z_k represents class k).  e_0 = sum_chi (chi(1)^2 / |F*|) w_chi is
    cyclic for a seeded random combination M of them whose r eigenvalues
    are distinct; then the Krylov basis K = [e_0, ..., M^(r-1) e_0] gives
    M's characteristic polynomial f, and the eigenvector of its root
    lambda is K times the coefficients of f / (x - lambda).
    """
    p = group.p
    r, reps = len(group.classes), group.representatives()
    rng = random.Random(_EIG_SEED)
    for _ in range(32):
        coeffs = [rng.randrange(p) for _ in range(r)]
        combo = [[0] * r for _ in range(r)]
        for x, cls in enumerate(group.class_of):
            row = group.mult[group.inverse[x]]
            for k, z in enumerate(reps):
                combo[group.class_of[row[z]]][k] += coeffs[cls]
        krylov = [[int(i == 0) for i in range(r)]]
        for _ in range(r):
            krylov.append([sum(map(int.__mul__, row, krylov[-1])) % p for row in combo])
        solution = _solve(krylov[:r], krylov[r], p)
        f = [-c % p for c in solution or ()] + [1]
        roots = _roots(f, p, rng) if solution else []
        if len(roots) == r:
            columns = list(zip(*reversed(krylov[:r])))
            qs = [list(accumulate(f[:0:-1], lambda q, c, t=t: (q * t + c) % p)) for t in roots]
            vectors = [[sum(map(int.__mul__, q, col)) for col in columns] for q in qs]
            return [[x * pow(v[0], -1, p) % p for x in v] for v in vectors]
    raise _failure(group.dtype, "character_table", "class-sum diagonalization failed")


def character_table(group: FiniteGroup, graph: McKayGraph) -> CharacterTable:
    """Compute all irreducible characters mod p and match them to nodes.

    A central character w (:func:`_central_characters`) gives the row
    d w_C / |C|, with d^2 = |F*| / sum_C w_C w_(C^-1) / |C| lifted over
    1..MAX_DEGREE.  The node matching is forced by the trivial character
    at node 0, equal dimensions and marks, and the tensor adjacency;
    choices left open by diagram automorphisms are resolved
    deterministically and do not affect any multiplicity.  The table also
    carries each node's integer values at +-identity and the residue table,
    and its period table is built and proved here.
    """
    r = len(group.classes)
    if r != graph.size:
        raise _failure(
            group.dtype, "character_table", f"{r} classes but {graph.size} extended nodes"
        )
    p, zetas = group.roots_mod_p
    sizes, inverse, order = group.class_sizes, group.class_inverse, group.order
    per_size = [pow(size, -1, p) for size in sizes]
    rows_dims = []
    for w in _central_characters(group):
        u = [x * y % p for x, y in zip(w, per_size)]
        weight = sum(size * u[c] * u[inverse[c]] for c, size in enumerate(sizes))
        d = next((d for d in range(1, MAX_DEGREE + 1) if (d * d * weight - order) % p == 0), 0)
        if not d:
            raise _failure(group.dtype, "character_table", f"a degree is not in 1..{MAX_DEGREE}")
        rows_dims.append((d, tuple(d * x % p for x in u)))
    dims, rows = zip(*sorted(rows_dims))

    scale = pow(order, -1, p)
    defining = [(z + pow(z, -1, p)) * size * scale for z, size in zip(zetas, sizes)]
    conj = [[row[i] for i in inverse] for row in rows]
    tensor = [
        [_lift(sum(map(int.__mul__, chi, row)), p) for row in conj]
        for chi in ([x * y for x, y in zip(defining, row)] for row in rows)
    ]
    trivial = [idx for idx, row in enumerate(rows) if row == (1,) * r]
    if len(trivial) != 1:
        raise _failure(group.dtype, "character_table", "trivial character not unique")

    node_map = _match_nodes(graph, tensor, dims, trivial[0])
    minus = group.class_of[group.minus_identity]
    table = CharacterTable(
        group=group,
        rows=rows,
        dims=dims,
        node_map=node_map,
        central=tuple((rows[row][0], _lift(rows[row][minus], p)) for row in node_map),
        residues=_residue_sums(
            group, [tuple(size * conj[row][c] for row in node_map) for c, size in enumerate(sizes)]
        ),
    )
    table.periods  # noqa: B018 - proved once, here, rather than at the first level read
    return table


def _match_nodes(
    graph: McKayGraph, tensor: list[list[int]], dims: tuple[int, ...], trivial_row: int
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
        raise _failure(graph.dtype, "character_table", "extended diagram is not connected")

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
        raise _failure(
            graph.dtype, "character_table", "tensor adjacency does not match the extended diagram"
        )
    return tuple(assign[node] for node in range(size))


def oracle_multiplicity(group: FiniteGroup, table: CharacterTable, n: int, node: int) -> int:
    """Multiplicity of the node's irreducible in the level-n restriction,
    by the character inner product in exact integers.

    Safe for any n in O(1): the node's entry of the table's proved period
    table (:func:`_period_table`), base[r] + k step[r] for n = kE + r.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0 <= node < len(table.central):
        raise ValueError(f"node index {node} out of range for {group.dtype}")
    base, step = table.periods
    k, r = divmod(n, len(base))
    return base[r][node] + k * step[r][node]


def character_multiplicities(
    group: FiniteGroup, table: CharacterTable, order: int
) -> list[tuple[int, ...]]:
    """Multiplicity vectors over extended nodes for n = 0..order, read in
    turn from the table's period table."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return list(iter_levels(table.periods, order))
