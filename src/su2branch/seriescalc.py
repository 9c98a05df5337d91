"""Exact integer polynomials and truncated power series.

A polynomial is a tuple of int coefficients indexed by exponent, with
trailing zeros removed; the zero polynomial is the empty tuple.  A
truncated series of order ``N`` is a plain tuple of ``N + 1`` ints.
Dense storage: every degree in play here is small.

Each oracle's multiplicity vectors form a degree-1 quasi-polynomial in
the level n: with a period P, a base ``base[r]`` and a step ``step[r]``
for r = 0..P-1, level n = k P + r is ``base[r] + k step[r]``.  One
read-only type holds it, :class:`PeriodTable`.  Every route builds its
table with :meth:`PeriodTable.of` from its levels 0..2P-1 and proves it
once, where it is built; every read (a level, an iteration, a view to
another order) checks nothing.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from operator import add

from .rootsys import ReadOnly

Poly = tuple[int, ...]
Vector = tuple[int, ...]


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


class PeriodTable(ReadOnly, Sequence):
    """A route's levels 0..order: level n = k P + r is ``base[r] + k step[r]``
    for the period P = ``len(base)``.  Read-only: the routes cache and share it.

    Built by :meth:`of`; :meth:`upto` shares ``base`` and ``step`` at another
    order.  Like ``range``: ``len`` is order + 1, negative indices and slices
    work, an index past ``order`` raises ``IndexError``, and it equals, element
    by element, any sequence of the same vectors (so it is unhashable).  A
    level costs O(size) for any n (:meth:`level`), iteration one addition per
    entry.
    """

    def __init__(self, base: tuple[Vector, ...], step: tuple[Vector, ...], order: int) -> None:
        if order < 0:
            raise ValueError("order must be nonnegative")
        vars(self).update(base=base, step=step, order=order, period=len(base))

    @classmethod
    def of(cls, levels: Sequence[Vector], period: int) -> PeriodTable:
        """The table of levels 0..2P-1 for the period P, to order 2P-1:
        base[r] = levels[r] and step[r] = levels[r + P] - levels[r].  The
        caller proves that the steps repeat, i.e. that levels[n + 2P] -
        2 levels[n + P] + levels[n] vanishes for every n >= 0."""
        base = tuple(levels[:period])
        step = tuple(tuple([y - x for x, y in zip(u, w)]) for u, w in zip(base, levels[period:]))
        return cls(base, step, 2 * period - 1)

    def upto(self, order: int) -> PeriodTable:
        """The levels 0..order, sharing this table's ``base`` and ``step``."""
        return PeriodTable(self.base, self.step, order)

    def negative_step(self) -> tuple[int, int] | None:
        """The first (r, i) with step[r][i] < 0, or None: no level then falls below its base."""
        pairs = ((r, i) for r, step in enumerate(self.step) for i, d in enumerate(step) if d < 0)
        return next(pairs, None)

    def level(self, n: int) -> Vector:
        """Level n, ``base[r] + k step[r]`` for n = k P + r (floor division),
        whatever ``order`` is: O(size) for every integer n, the stored base
        itself for 0 <= n < P, and for n < 0 what chi_(-n-2) = -chi_n gives:
        minus level -n-2."""
        k, r = divmod(n, self.period)
        if not k:
            return self.base[r]
        return tuple([x + k * d for x, d in zip(self.base[r], self.step[r])])

    def __len__(self) -> int:
        return self.order + 1

    def __getitem__(self, index):
        if type(index) is int and 0 <= index <= self.order:
            return self.level(index)
        if isinstance(index, slice):
            return [self[n] for n in range(self.order + 1)[index]]
        return self.level(range(self.order + 1)[index])

    def __iter__(self) -> Iterator[Vector]:
        step, period, levels = self.step, self.period, list(self.base)
        for n in range(self.order + 1):
            r = n % period
            if n >= period:
                levels[r] = tuple(map(add, levels[r], step[r]))
            yield levels[r]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return self.order + 1 == len(other) and all(a == b for a, b in zip(self, other))


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
