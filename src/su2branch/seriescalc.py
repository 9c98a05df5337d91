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

Read cost.  A table also holds each base and step row packed, one int of
``size`` unsigned 64-bit fields (:func:`fields`), and a bound M on every
entry.  Each route hands over the packed rows it already holds and a
bound it has proved; a table built from plain rows packs them and scans
them for M itself.  base[r] + k step[r] is at most (k + 1) M entry by
entry, so for 1 <= k <= kmax, the largest k with (k + 1) M < 2^64, no
field carries into its neighbour (``to_bytes`` would catch only a carry
out of the top one), and level kP + r costs one int multiply-add and one
unpack, from the first read; an iteration keeps one packed running sum
per residue.  Every other level is read exactly, entry by entry: k < 0,
k > kmax, and past the base every level of a table with a negative entry
or with M >= 2^63 (kmax 0).  No read writes to the table: kmax is fixed
when it is built, and its views share every row.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Iterator
from functools import lru_cache

from .errors import UsageError
from .rootsys import ReadOnly

Poly = tuple[int, ...]
Vector = tuple[int, ...]

#: Each packed field holds an unsigned 64-bit entry, so every entry stays below this.
_FIELD = 1 << 64


@lru_cache(maxsize=256)
def fields(size: int, form: str = "Q") -> struct.Struct:
    """``size`` fields of 64 bits, little-endian, each of the ``struct``
    format ``form``: unsigned by default, one packed row of a table."""
    return struct.Struct("<" + form * size)


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
    Exact integer arithmetic.  The routes call it with exponents and
    orders of their own, so a bad one is a fault (``ValueError``), not
    bad input.
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

    Built from the base and step rows and, when the route has them, the
    same rows ``packed`` (base rows, step rows) with ``bound``, at least
    every entry; else the table packs and scans its rows itself, and a
    negative entry leaves both None.  The routes build their tables at
    orders of their own, so a negative order is a fault (``ValueError``).
    :meth:`level` (also ``table[n]``) reads level n for any integer n,
    iteration yields levels 0..order, and :meth:`upto` a view to another
    order (module docstring).
    """

    def __init__(
        self, base: tuple[Vector, ...], step: tuple[Vector, ...], order: int,
        packed: tuple[tuple[int, ...], tuple[int, ...]] | None = None, bound: int | None = None,
    ) -> None:
        if order < 0:
            raise ValueError("order must be nonnegative")
        row = fields(len(base[0]))
        if bound is None:  # one scan of plain rows: a negative entry reads exactly
            entries = [x for rows in (base, step) for v in rows for x in v]
            bound = max(entries) if min(entries) >= 0 else None
        kmax = 0 if bound is None else (_FIELD - 1) // max(bound, 1) - 1
        if kmax < 1:  # a negative entry, or M >= 2^63: every level past the base reads exactly
            kmax, packed = 0, None
        elif packed is None:
            packed = tuple(
                tuple([int.from_bytes(row.pack(*v), "little") for v in rows]) for rows in (base, step)
            )
        vars(self).update(
            base=base, step=step, order=order, packed=packed, bound=bound,
            period=len(base), kmax=kmax, _unpack=row.unpack, _width=row.size,
        )

    def upto(self, order: int) -> PeriodTable:
        """The levels 0..order, sharing this table's rows."""
        if order < 0:
            raise UsageError("order must be nonnegative")
        view = object.__new__(PeriodTable)
        vars(view).update(vars(self), order=order)
        return view

    def level(self, n: int) -> Vector:
        """Level n, ``base[r] + k step[r]`` for n = k P + r (floor division),
        whatever ``order`` is: one packed multiply-add for 1 <= k <= kmax,
        the stored base itself for 0 <= n < P, O(size) exact for any other
        integer n, and for n < 0 what chi_(-n-2) = -chi_n gives: minus level
        -n-2.  ``table[n]`` is this read."""
        k, r = divmod(n, self.period)
        if 0 < k <= self.kmax:
            base, step = self.packed
            return self._unpack((base[r] + k * step[r]).to_bytes(self._width, "little"))
        if not k:
            return self.base[r]
        return tuple([x + k * d for x, d in zip(self.base[r], self.step[r])])

    __getitem__ = level

    def __iter__(self) -> Iterator[Vector]:
        period, order = self.period, self.order
        yield from self.base[: order + 1]
        packed = min(order + 1, (self.kmax + 1) * period)  # the levels read packed end here
        if packed > period:
            sums, step = list(self.packed[0]), self.packed[1]
            unpack, width = self._unpack, self._width
            for n in range(period, packed):
                r = n % period
                sums[r] += step[r]
                yield unpack(sums[r].to_bytes(width, "little"))
        for n in range(max(packed, period), order + 1):
            yield self.level(n)


def sparse_items(p: Poly) -> list[tuple[int, int]]:
    """(exponent, coefficient) pairs of the nonzero terms, ascending."""
    return [(e, c) for e, c in enumerate(p) if c]


def poly_str(p: Poly) -> str:
    """Human-readable sum such as ``t + 2*t^15 + t^29``."""
    if not p:
        return "0"
    parts = []
    for e, c in sparse_items(p):
        if e == 0:
            parts.append(str(c))
        else:
            term = "t" if e == 1 else f"t^{e}"
            parts.append(term if c == 1 else f"{c}*{term}")
    return " + ".join(parts)
