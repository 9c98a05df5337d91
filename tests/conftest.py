"""One cached bundle per diagram type, so each type is constructed once
per run, a copy-with-changes helper for the library's records and one
for a group table's columns, and polynomial, counting and root-system
helpers used only by tests."""

import inspect
import math
from functools import lru_cache
from operator import mul

from su2branch import Branching
from su2branch.coxeter import perm_compose
from su2branch.rootsys import DiagramType, build_root_system, cartan_matrix
from su2branch.seriescalc import PeriodTable, poly, series_div_geom


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


def dense_series(b, node, order):
    """Levels 0..order of one node by the dense expansion of
    z_node / ((1 - t^a)(1 - t^b)), apart from the period table."""
    return series_div_geom(b.zpolys[node], b.params.a, b.params.b, order)


def group_average(group, order):
    """Invariant dimensions <chi_n, 1> for n = 0..order: chi_n averaged over
    the group class by class, weight |C|, apart from every route's table.

    chi_n is (+-1)^n (n + 1) at +-identity.  At another class of trace t
    it runs chi_(k+1) = t chi_k - chi_(k-1) mod p from chi_(-1) = 0 and
    chi_0 = 1, and |chi_n| <= 1 / sin(pi / m) <= m / 2 for the class order
    m, so the weighted sum over those classes is below |F*| E / 2 < p / 2
    in absolute value and lifts exactly."""
    p, minus = group.p, group.class_of[group.minus_identity]
    classes = [c for c in range(len(group.classes)) if c not in (0, minus)]
    sizes, traces = [group.class_sizes[c] for c in classes], [group.class_traces[c] for c in classes]
    before, chi, averages = [0] * len(classes), [1] * len(classes), []
    for n in range(order + 1):
        rest = (sum(map(mul, sizes, chi)) + p // 2) % p - p // 2
        average, part = divmod((n + 1) * (1 + (-1) ** n) + rest, group.order)
        assert part == 0 and average >= 0, (group.dtype, n)
        averages.append(average)
        before, chi = chi, [(t * x - y) % p for t, x, y in zip(traces, chi, before)]
    return tuple(averages)


def replace(obj, **changes):
    """A copy of ``obj`` with some constructor arguments changed: the
    constructor runs again on the old values and the changes, so the copy
    runs its checks and computes its own cached values.  An argument the
    constructor does not take raises ``TypeError``."""
    names = _parameters(type(obj))
    return type(obj)(**{**{name: getattr(obj, name) for name in names}, **changes})


@lru_cache(maxsize=None)
def _parameters(cls):
    """The names of ``cls``'s constructor arguments, read once per class."""
    return tuple(inspect.signature(cls).parameters)


def doctored_columns(group, entries):
    """The columns of ``group``'s table with ``mult[x][y] = v`` for each
    ``(x, y): v`` of ``entries``: only the columns y are rebuilt, each of its
    old type, or a tuple where a byte cannot hold v; the others are shared."""
    columns = list(group.columns)
    for (x, y), v in entries.items():
        col = [*columns[y]]
        col[x] = v
        columns[y] = bytes(col) if isinstance(columns[y], bytes) and 0 <= v < 256 else tuple(col)
    return tuple(columns)


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


def perm_power(p, k):
    """The permutation p^k (k >= 0) as an index tuple, by k gathers."""
    out = tuple(range(len(p)))
    for _ in range(k):
        out = tuple(p[x] for x in out)
    return out


def longest_element_failures(b, sigma):
    """The facts of Kostant's lemma (sigma^g acts as the longest Weyl
    element) that fail for the root permutation ``sigma`` of bundle ``b``,
    in order; [] when all six hold.  Root x + P is the negative of positive
    root x, P = num_positive."""
    rs, special = b.rs, b.params.special
    p, g = rs.num_positive, rs.coxeter_number // 2
    kappa = perm_power(sigma, g)
    simple = {i: rs.index_of(rs.simple_root(i)) for i in rs.nodes}
    steps = (g - 1) // 2 if g % 2 == 1 else g // 2
    reached = perm_power(sigma, steps)[rs.index_of(rs.highest_root)]
    facts = {
        "a positive root stays positive": all(kappa[x] >= p for x in range(p)),
        **{
            f"color class {k}": {kappa[simple[i]] for i in part} == {simple[i] + p for i in part}
            for k, part in ((1, b.bp.part1), (2, b.bp.part2))
        },
        "special simple root": kappa[simple[special]] == simple[special] + p,
        f"highest root after {steps} steps":
            reached == rs.index_of(b.table.signed_simples[special - 1]),
        "commutes": all(
            perm_compose(kappa, tau) == perm_compose(tau, kappa) for tau in (b.cox.tau1, b.cox.tau2)
        ),
    }
    return [fact for fact, held in facts.items() if not held]


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
