"""Exact integer polynomials and truncated power series.

A polynomial is a tuple of int coefficients indexed by exponent, with
trailing zeros removed; the zero polynomial is the empty tuple.  A
truncated series of order ``N`` is a plain tuple of ``N + 1`` ints.
Dense storage: every degree in play here is small.

Each oracle's multiplicity vectors form a degree-1 quasi-polynomial in
the level n: with a period P, a base ``base[r]`` and a step ``step[r]``
for r = 0..P-1, level n = k P + r is ``base[r] + k step[r]``.  One
read-only type holds it, :class:`PeriodTable`.  The recursion and
Coxeter routes build their tables from packed levels, the characters in
closed form; each route proves its table once, where it is built; every
read (a level, an iteration, a view to another order) checks nothing.

Read cost.  On the third read of residue r past the base levels, or when
an iteration reads every residue at least three times past them, residue
r's base row and step row are each packed into one int of ``size``
unsigned 64-bit fields, and kept with kmax, the largest k with
(k + 1) M < 2^64 for the largest entry M of the two rows.
base[r] + k step[r] is at most (k + 1) M entry by entry, so no field
carries into its neighbour for 1 <= k <= kmax (``to_bytes`` would catch
only a carry out of the top field: kmax is what keeps the fields apart),
and level kP + r then costs one int multiply-add and one unpack of its
fields.  On a route's table each base and step entry is at most P (their
dimension sums are r + 1 and P), so every level n < 2^64 - P reads this
way once its residue is packed.  Every other level is read exactly,
entry by entry, as ``base[r] + k step[r]``: the first two reads of a
residue (so a point query, which reads a residue once or twice, packs
nothing), k < 0, k > kmax, and every level of a residue that does not
pack, one with a negative entry or with M >= 2^63.  A long iteration
keeps one packed running sum per residue: one int addition and one
unpack per level; a shorter one, such as verify's two periods, one exact
running sum.  Every view of a table shares its packed residues.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Iterator
from functools import lru_cache
from operator import add

from .rootsys import ReadOnly

Poly = tuple[int, ...]
Vector = tuple[int, ...]

#: Each packed field holds an unsigned 64-bit entry, so every entry stays below this.
_FIELD = 1 << 64
#: The packed form of a residue that does not pack: kmax 0 sends its reads to the exact path.
_UNPACKED = (0, 0, 0, None, 0)
#: Exact reads of a residue before its next read packs it.  Packing costs
#: about two and a half exact reads (E8: 1.8 against 0.7 us), so a residue
#: read once or twice, as a point query reads, never pays for it.
_EXACT_READS = 2


@lru_cache(maxsize=128)
def _fields(size: int) -> struct.Struct:
    """``size`` unsigned 64-bit fields, little-endian: one packed row."""
    return struct.Struct(f"<{size}Q")


def poly(coeffs: Iterable[int]) -> Poly:
    """Normalize a coefficient sequence (trim trailing zeros)."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def series_div_geom(z: Poly, a: int, b: int, order: int) -> tuple[int, ...]:
    """Expand ``z / ((1 - t^a)(1 - t^b))`` as a series up to ``order``.

    Dividing by 1 - t^a is a running sum with stride a,
    c[n] += c[n - a] in ascending n; the same with stride b follows.
    Exact integer arithmetic.
    """
    if a < 1 or b < 1:
        raise ValueError("denominator exponents must be >= 1")
    if order < 0:
        raise ValueError("order must be nonnegative")
    c = list(z[: order + 1]) + [0] * (order + 1 - len(z))
    for n in range(a, order + 1):
        c[n] += c[n - a]
    for n in range(b, order + 1):
        c[n] += c[n - b]
    return tuple(c)


class PeriodTable(ReadOnly):
    """A route's levels: level n = k P + r is ``base[r] + k step[r]`` for the
    period P = ``len(base)``.  Read-only: the routes cache and share it, and
    it hashes by identity, like every other record.

    Built from its base and step rows; :meth:`upto` shares ``base``,
    ``step`` and the packed residues at another order.  Three reads:
    :meth:`level` (also ``table[n]``) gives level n for any integer n,
    whatever ``order`` is; iteration yields levels 0..order; ``upto`` gives
    a view to another order.  A level costs one multiply-add of packed 64-bit fields once its
    residue is packed and 1 <= k <= kmax, the residue's bound, and O(size)
    exact int operations otherwise (module docstring); iteration one packed
    or exact running addition per level.
    """

    def __init__(self, base: tuple[Vector, ...], step: tuple[Vector, ...], order: int) -> None:
        if order < 0:
            raise ValueError("order must be nonnegative")
        # _packed holds each residue's packed form (:meth:`_pack`) or, until
        # it packs, the number of its exact reads past the base levels; every
        # upto view shares its table's list.
        period = len(base)
        vars(self).update(base=base, step=step, order=order, period=period, _packed=[0] * period)

    def upto(self, order: int) -> PeriodTable:
        """The levels 0..order, sharing this table's ``base``, ``step`` and
        packed residues."""
        if order < 0:
            raise ValueError("order must be nonnegative")
        view = object.__new__(PeriodTable)
        vars(view).update(vars(self), order=order)
        return view

    def _pack(self, r: int) -> tuple:
        """Pack residue r and keep it for later reads: (kmax, packed base row,
        packed step row, unpack, bytes per row), kmax 0 when the residue does
        not pack (module docstring)."""
        base, step = self.base[r], self.step[r]
        kmax = (_FIELD - 1) // max(*base, *step, 1) - 1
        packed = _UNPACKED
        if kmax > 0:
            fields = _fields(len(base))
            try:
                packed = (
                    kmax,
                    int.from_bytes(fields.pack(*base), "little"),
                    int.from_bytes(fields.pack(*step), "little"),
                    fields.unpack,
                    fields.size,
                )
            except struct.error:  # a negative entry
                pass
        self._packed[r] = packed
        return packed

    def level(self, n: int) -> Vector:
        """Level n, ``base[r] + k step[r]`` for n = k P + r (floor division),
        whatever ``order`` is: one packed multiply-add for 1 <= k <= kmax once
        residue r is packed (on its third read), the stored base itself for
        0 <= n < P, O(size) exact for any other integer n, and for n < 0 what
        chi_(-n-2) = -chi_n gives: minus level -n-2.  ``table[n]`` is this read."""
        k, r = divmod(n, self.period)
        slot = self._packed[r]
        if type(slot) is tuple and 0 < k <= slot[0]:
            _, base, step, unpack, width = slot
            return unpack((base + k * step).to_bytes(width, "little"))
        if not k:
            return self.base[r]
        if type(slot) is int:
            if slot >= _EXACT_READS:
                self._pack(r)
                return self.level(n)
            self._packed[r] = slot + 1
        return tuple([x + k * d for x, d in zip(self.base[r], self.step[r])])

    __getitem__ = level

    def __iter__(self) -> Iterator[Vector]:
        period, order = self.period, self.order
        yield from self.base[: order + 1]
        if order + 1 < (_EXACT_READS + 2) * period:  # too few levels per residue to pay for packing
            levels, step = list(self.base), self.step
            for n in range(period, order + 1):
                r = n % period
                levels[r] = tuple(map(add, levels[r], step[r]))
                yield levels[r]
            return
        rows = [slot if type(slot) is tuple else self._pack(r) for r, slot in enumerate(self._packed)]
        kmax, sums, step, unpack, width = zip(*rows)
        packed = min(order + 1, (min(kmax) + 1) * period)
        sums, unpack, width = list(sums), unpack[0], width[0]
        for n in range(period, packed):
            r = n % period
            sums[r] += step[r]
            yield unpack(sums[r].to_bytes(width, "little"))
        for n in range(packed, order + 1):
            yield self.level(n)


def sparse_items(p: Poly) -> list[tuple[int, int]]:
    """(exponent, coefficient) pairs of the nonzero terms, ascending."""
    return [(e, c) for e, c in enumerate(p) if c]


def poly_str(p: Poly, var: str = "t") -> str:
    """Human-readable sum such as ``t + 2*t^15 + t^29``."""
    if not p:
        return "0"
    parts = []
    for e, c in sparse_items(p):
        if e == 0:
            parts.append(str(c))
        else:
            term = var if e == 1 else f"{var}^{e}"
            parts.append(term if c == 1 else f"{c}*{term}")
    return " + ".join(parts)
