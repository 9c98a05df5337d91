"""One cached session per diagram type, so each type is constructed once
per run, and polynomial helpers used only by tests."""

from functools import lru_cache

from su2branch import Branching, Session
from su2branch.seriescalc import poly


@lru_cache(maxsize=None)
def session(type_str: str) -> Session:
    return Session(Branching.build(type_str))


def bundle(type_str: str) -> Branching:
    return session(type_str).bundle


def graph_for(type_str: str):
    return session(type_str).graph


def group_for(type_str: str):
    return session(type_str).group


def table_for(type_str: str):
    return session(type_str).table


# Polynomial helpers the tests use to multiply a series back by its
# denominator; the library itself never needs them.

ZERO = ()


def degree(p):
    """Degree of ``p``; -1 for the zero polynomial."""
    return len(p) - 1


def coefficient(p, exponent):
    return p[exponent] if 0 <= exponent < len(p) else 0


def monomial(exponent, coeff=1):
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    if coeff == 0:
        return ZERO
    return (0,) * exponent + (coeff,)


def poly_add(p, q):
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return poly(out)


def poly_mul(p, q):
    if not p or not q:
        return ZERO
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly(out)


def poly_truncate(p, order):
    """Coefficients of ``p`` up to ``order`` inclusive, zero padded."""
    return tuple(coefficient(p, n) for n in range(order + 1))
