"""One cached bundle per diagram type, so each type is constructed once
per run, a copy-with-changes helper for the library's records, and
polynomial, counting and root-system helpers used only by tests."""

import inspect
import math
from functools import lru_cache

from su2branch import Branching
from su2branch.rootsys import DiagramType, build_root_system, cartan_matrix
from su2branch.seriescalc import PeriodTable, poly


@lru_cache(maxsize=None)
def bundle(type_str: str) -> Branching:
    return Branching.build(type_str)


def graph_for(type_str: str):
    return bundle(type_str).graph


def group_for(type_str: str):
    return bundle(type_str).group


def table_for(type_str: str):
    return bundle(type_str).character_table


def table_of(levels, period):
    """The period table of levels 0..2P-1 for the period P, to order 2P-1:
    base[r] = levels[r] and step[r] = levels[r + P] - levels[r]."""
    base = tuple(levels[:period])
    step = tuple(tuple(y - x for x, y in zip(u, w)) for u, w in zip(base, levels[period:]))
    return PeriodTable(base, step, 2 * period - 1)


def replace(obj, **changes):
    """A copy of ``obj`` with some constructor arguments changed: the
    constructor runs again on the old values and the changes, so the copy
    runs its checks and computes its own cached values.  An argument the
    constructor does not take raises ``TypeError``."""
    names = inspect.signature(type(obj)).parameters
    return type(obj)(**{**{name: getattr(obj, name) for name in names}, **changes})


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


def e8_with_a_root_listed_twice():
    """E8's root system with root 200, the negative of root 80, replaced by
    root 80: a root listed twice, in a system that runs its constructor."""
    rs = build_root_system("E8")
    roots = list(rs.roots)
    roots[200] = tuple(-c for c in roots[200])
    return replace(rs, roots=tuple(roots))


def e8_with_doubled_simple_roots():
    """E8's root system with ``simple_root(i)`` giving 2 alpha_i, so that
    ``orbit_table``'s beta_i = +-2 alpha_i is not a root."""
    rs = build_root_system("E8")
    vars(rs)["_simple_roots"] = [tuple(2 * c for c in rs.simple_root(i)) for i in rs.nodes]
    return rs


#: The affine D4 Cartan matrix (node 2 joined to 1, 3, 4 and 5), which is
#: not of finite type: put in place of D5's, the root closure still ends.
AFFINE_D4 = (
    (2, -1, 0, 0, 0),
    (-1, 2, -1, -1, -1),
    (0, -1, 2, 0, 0),
    (0, -1, 0, 2, 0),
    (0, -1, 0, 0, 2),
)
