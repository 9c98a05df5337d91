"""Exact integer polynomials and truncated power series.

A polynomial is a tuple of int coefficients indexed by exponent, with
trailing zeros removed; the zero polynomial is the empty tuple.  A
truncated series of order ``N`` is a plain tuple of ``N + 1`` ints.
Dense storage: every degree in play here is small.

Each oracle's multiplicity vectors form a degree-1 quasi-polynomial in
the level n: with a period P, a base ``base[r]`` and a step ``step[r]``
for r = 0..P-1, level n = k P + r is ``base[r] + k step[r]``
(:data:`PeriodTable`).  Every route builds its table with
:func:`period_table` from its levels 0..2P-1 and proves it once, where
it is built; :func:`read_level`, :func:`iter_levels` and the
:class:`Levels` view read it and check nothing.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from operator import add

Poly = tuple[int, ...]
Vector = tuple[int, ...]
#: ``(base, step)``: level k P + r is base[r] + k step[r], P = len(base).
PeriodTable = tuple[tuple[Vector, ...], tuple[Vector, ...]]


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


def period_table(levels: Sequence[Vector], period: int) -> PeriodTable:
    """The table of levels 0..2P-1 for the period P: base[r] = levels[r]
    and step[r] = levels[r + P] - levels[r].  The caller proves that the
    steps repeat, i.e. that levels[n + 2P] - 2 levels[n + P] + levels[n]
    vanishes for every n >= 0."""
    base = tuple(levels[:period])
    step = (tuple([y - x for x, y in zip(u, w)]) for u, w in zip(base, levels[period:]))
    return base, tuple(step)


def negative_step(table: PeriodTable) -> tuple[int, int] | None:
    """The first (r, i) with step[r][i] < 0, or None: no level then falls below its base."""
    pairs = ((r, i) for r, step in enumerate(table[1]) for i, d in enumerate(step) if d < 0)
    return next(pairs, None)


def read_level(table: PeriodTable, n: int) -> Vector:
    """Level n of a period table, ``base[r] + k step[r]`` for n = k P + r
    (floor division): O(size) for every integer n, the stored base itself for
    0 <= n < P, and for n < 0 what chi_(-n-2) = -chi_n gives: minus level -n-2."""
    base, step = table
    k, r = divmod(n, len(base))
    if not k:
        return base[r]
    return tuple([x + k * d for x, d in zip(base[r], step[r])])


def iter_levels(table: PeriodTable, order: int) -> Iterator[Vector]:
    """Levels 0..order of a period table in turn, each the level one
    period back plus its step: one addition per entry."""
    base, step = table
    period, levels = len(base), list(base)
    for n in range(order + 1):
        r = n % period
        if n >= period:
            levels[r] = tuple(map(add, levels[r], step[r]))
        yield levels[r]


class Levels(Sequence):
    """Read-only view of the levels 0..order of a period table.

    Behaves like ``range``: ``len`` is order + 1, negative indices and
    slices work, an index past ``order`` raises ``IndexError``, and it
    compares equal, element by element, to any sequence of the same
    vectors.  A level costs O(size) for any n (:func:`read_level`),
    iteration one addition per entry (:func:`iter_levels`); ``period`` is
    the table's period.
    """

    def __init__(self, table: PeriodTable, order: int) -> None:
        self.table = table
        self.order = order
        self.period = len(table[0])

    def __len__(self) -> int:
        return self.order + 1

    def __getitem__(self, index):
        if type(index) is int and 0 <= index <= self.order:
            return read_level(self.table, index)
        if isinstance(index, slice):
            return [self[n] for n in range(self.order + 1)[index]]
        return read_level(self.table, range(self.order + 1)[index])

    def __iter__(self) -> Iterator[Vector]:
        return iter_levels(self.table, self.order)

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
