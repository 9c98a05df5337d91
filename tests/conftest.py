"""One cached session per diagram type, so each type is constructed once
per run, and polynomial, counting and root-system helpers used only by
tests."""

import math
from functools import lru_cache

from su2branch import Branching, Session
from su2branch.rootsys import DiagramType, cartan_matrix
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


def pair_counter(a, b):
    """count(N): the number of pairs (i, j) >= 0 with a*i + b*j = N, the
    coefficient of t^N in 1 / ((1 - t^a)(1 - t^b)), in closed form
    (Popoviciu); an independent reference for the Coxeter period table.

    With d = gcd(a, b), a' = a/d, b' = b/d and M = N/d, the solutions have
    j = j0 (mod a') for j0 = M b'^(-1) mod a', so there are
    (M - b' j0) // (a' b') + 1 of them when b' j0 <= M, and none when d
    does not divide N.  For a' = 1 the inverse is taken mod 1, so j0 = 0.
    """
    d = math.gcd(a, b)
    a1, b1 = a // d, b // d
    inv = pow(b1, -1, a1)

    def count(n):
        if n < 0 or n % d:
            return 0
        m = n // d
        rest = m - b1 * (m * inv % a1)
        return rest // (a1 * b1) + 1 if rest >= 0 else 0

    return count


def plain_closure_roots(type_str):
    """All roots in ``RootSystem.roots`` order, by the plain breadth-first
    closure that recomputes every pairing (r, alpha_i) from Cartan row i:
    an independent reference for ``build_root_system``."""
    dtype = DiagramType.parse(type_str)
    rank, cartan = dtype.rank, cartan_matrix(dtype)
    simples = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    pos = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for r in frontier:
            for i in range(rank):
                if sum(cartan[i][j] * r[j] for j in range(rank)) == -1:
                    s = list(r)
                    s[i] += 1
                    t = tuple(s)
                    if t not in pos:
                        pos.add(t)
                        nxt.append(t)
        frontier = nxt
    positives = sorted(pos, key=lambda r: (sum(r), r))
    return tuple(positives) + tuple(tuple(-c for c in r) for r in positives)


def inner(rs, x, y):
    """The Cartan pairing x . C . y; bilinear, symmetric, (alpha, alpha) = 2."""
    return sum(a * c * b for a, row in zip(x, rs.cartan) for c, b in zip(row, y))


def reflect(rs, i, x):
    """Reflection in the hyperplane orthogonal to alpha_i: x - (x, alpha_i) alpha_i."""
    rs._check_node(i)
    out = list(x)
    out[i - 1] -= sum(c * y for c, y in zip(rs.cartan[i - 1], x))
    return tuple(out)


def reflect_table(rs):
    """``rs.reflections`` by definition: the index of every reflected root,
    or None where the image is not in the system's index."""
    return tuple(tuple(rs._index.get(reflect(rs, i, r)) for r in rs.roots) for i in rs.nodes)
