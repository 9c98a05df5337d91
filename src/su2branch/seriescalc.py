"""Exact integer polynomials and truncated power series.

A polynomial is a tuple of int coefficients indexed by exponent, with
trailing zeros removed; the zero polynomial is the empty tuple.  A
truncated series of order ``N`` is a plain tuple of ``N + 1`` ints.
Dense storage: every degree in play here is small.

Each oracle's multiplicity vectors form a degree-1 quasi-polynomial in
the level n: with a period P, a base ``base[r]`` and a step ``step[r]``
for r = 0..P-1, level n = k P + r is ``base[r] + k step[r]``
(:data:`PeriodTable`, read by :func:`read_level` and :func:`iter_levels`).
Each oracle proves its own table once, where it is built; reading a
level checks nothing.
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


def eval_at_one(p: Poly) -> int:
    """Sum of coefficients."""
    return sum(p)


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


def read_level(table: PeriodTable, n: int) -> Vector:
    """Level n >= 0 of a period table, ``base[r] + k step[r]`` for
    n = k P + r: O(size) for any n, and the stored base itself for n < P."""
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
