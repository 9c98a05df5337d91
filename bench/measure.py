"""Timing helpers for the benchmark: the reference task that times are
normalised by, the tail rule, and in-memory spans.

Spans are recorded by the benchmark around its own calls into the
library (or, for the CLI, from timestamps the child process reports),
kept in memory and written out when the run ends.  A span's self time
is its duration minus the part of its interval that its child spans
cover.
"""

from __future__ import annotations

import contextlib
import json
import math
import statistics
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

#: Both the benchmark and the CLI child read this clock, so their
#: timestamps can be compared (CLOCK_MONOTONIC is system-wide on Linux).
clock = time.monotonic_ns

#: Samples that must lie beyond the reported tail value.
TAIL_BEYOND = 10

#: Iterations of the reference task, the time a normalised duration
#: assumes it takes, and how often the measured loop times it.
REF_ITERS = 10_000
REF_NOMINAL_NS = 2_500_000
REF_EVERY_NS = 100_000_000


def reference_ns() -> int:
    """Time one run of a fixed pure-Python task that uses no su2branch code."""
    t0 = clock()
    acc = 0
    seen: dict[int, tuple[int, int, int]] = {}
    for i in range(REF_ITERS):
        row = (i % 97, (i * 31) % 89, i & 63)
        seen[row[0]] = row
        acc = (acc + seen.get((i * 7) % 97, row)[1] * row[2]) % 1_000_003
    return clock() - t0


def normalise(duration_ns: float, ref_ns: float) -> float:
    """``duration_ns`` as it would read on a host where the reference
    task takes ``REF_NOMINAL_NS``.

    The host's speed drifts by tens of percent over seconds (shared
    cores); dividing by the reference task's time next to the work
    cancels most of that drift.
    """
    return duration_ns * REF_NOMINAL_NS / ref_ns


class Mismatch(Exception):
    """A request's answer is wrong: oracles disagree, a check reports
    FAIL, or CLI output differs from the library."""


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= c * d
        if abs(c * d - 1.0) < 1e-14:
            break
    return h


def _beta_cdf(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_cf(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_cf(b, a, 1.0 - x) / b


def quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile.

    A weighted mean of all order statistics, with Beta(p(n+1),
    (1-p)(n+1)) weights centred on the p-th one.  When requests differ
    widely in cost, a single order statistic jumps with whichever
    requests a run happened to draw; this estimate moves much less.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    total, prev = 0.0, 0.0
    for i, value in enumerate(ordered, start=1):
        cur = _beta_cdf(a, b, i / n)
        total += (cur - prev) * value
        prev = cur
    return total


def median(values: list[float]) -> float:
    return statistics.median(values)


def tail(samples: list[float], percentile: float) -> tuple[float, float]:
    """The ``percentile`` quantile, or a lower one if fewer than
    ``TAIL_BEYOND`` samples would lie beyond it.

    Returns ``(value, percentile used)``.  A fixed percentile keeps the
    tail comparable between runs that fit different numbers of requests
    into the same time.  With ``TAIL_BEYOND`` samples or fewer the
    maximum is returned as the 100th percentile.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= TAIL_BEYOND:
        return max(samples), 100.0
    p = min(percentile / 100.0, (n - TAIL_BEYOND) / n)
    return quantile(samples, p), 100.0 * p


@dataclass(slots=True)
class Span:
    name: str
    start: int
    end: int
    parent: int
    request: str
    failed: bool = False


class Tracer:
    """Records spans; each span's parent is the span open when it began."""

    active = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.request = ""
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        rec = Span(name, clock(), 0, self._open[-1] if self._open else -1, self.request)
        self.spans.append(rec)
        self._open.append(index)
        try:
            yield
        except BaseException:
            rec.failed = True
            raise
        finally:
            rec.end = clock()
            self._open.pop()

    def record(self, name: str, start: int, end: int, failed: bool = False) -> None:
        """Add a finished span, as a child of the span open now."""
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, start, end, parent, self.request, failed))

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


class NullTracer:
    """Stands in for :class:`Tracer` in untraced runs; records nothing."""

    active = False
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def record(self, name: str, start: int, end: int, failed: bool = False) -> None:
        pass

    def count(self, name: str, amount: int = 1) -> None:
        pass


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if a >= b:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_self_ns(spans: list[Span]) -> list[int]:
    """Self time of each span, in nanoseconds."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [(s.end - s.start) - _covered(children[i], s.start, s.end) for i, s in enumerate(spans)]

