"""Exact integer polynomials and truncated power series.

A polynomial is a tuple of int coefficients indexed by exponent, with
trailing zeros removed; the zero polynomial is the empty tuple.  A
truncated series of order ``N`` is a plain tuple of ``N + 1`` ints.
Dense storage: every degree in play here is small.  A single
coefficient of ``1 / ((1 - t^a)(1 - t^b))`` also has a closed form
(:func:`pair_counter`), so one far-out coefficient of a quotient never
needs the dense expansion.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable

Poly = tuple[int, ...]


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

    Uses the recurrence c[n] = z[n] + c[n-a] + c[n-b] - c[n-a-b], with
    out-of-range terms read as zero.  Exact integer arithmetic.
    """
    if a < 1 or b < 1:
        raise ValueError("denominator exponents must be >= 1")
    if order < 0:
        raise ValueError("order must be nonnegative")
    c = [0] * (order + 1)
    for n in range(order + 1):
        v = z[n] if n < len(z) else 0
        if n >= a:
            v += c[n - a]
        if n >= b:
            v += c[n - b]
        if n >= a + b:
            v -= c[n - a - b]
        c[n] = v
    return tuple(c)


def pair_counter(a: int, b: int) -> Callable[[int], int]:
    """``count(N)``: the number of pairs (i, j) >= 0 with a*i + b*j = N.

    That is the coefficient of t^N in ``1 / ((1 - t^a)(1 - t^b))``, in
    closed form (Popoviciu).  With d = gcd(a, b), a' = a/d, b' = b/d
    and M = N/d, the solutions have j = j0 (mod a') for
    j0 = M * b'^(-1) mod a', so there are (M - b'*j0) // (a'*b') + 1 of
    them when b'*j0 <= M, and none when d does not divide N.  For
    a' = 1 the inverse is taken mod 1, which makes j0 = 0.  Exact
    integers, a handful of operations whatever N is.
    """
    if a < 1 or b < 1:
        raise ValueError("denominator exponents must be >= 1")
    d = math.gcd(a, b)
    a1, b1 = a // d, b // d
    inv = pow(b1, -1, a1)
    period = a1 * b1

    def count(n: int) -> int:
        if n < 0 or n % d:
            return 0
        m = n // d
        rest = m - b1 * (m * inv % a1)
        return rest // period + 1 if rest >= 0 else 0

    return count


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
