"""Seeded request streams, one per workload.

verify-all and cli-cold: an endless sequence of blocks that each ask
for the same mix of work, so a run that stops after a few blocks
measures nearly the same mix whatever the seed.  verify-all: each block
is the 18 types in a random order.  cli-cold: each block runs every
command template once, on random types, half of them with ``--json``.

point-levels and level-sweep: a finite list, the same (type, size)
pairs for every seed (every type at the same sizes, spread over the
size range), in a seeded order; a run does all of it whatever the
host's speed.  Their requests differ in cost by an order of magnitude,
so a run that stopped at a deadline would measure a mix that follows
the host's speed, and point-levels' known failures (A13's character
drift) would be counted a different number of times.  ``--seconds``
sets how many sizes each type gets.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from typing import NamedTuple

WORKLOADS = ("verify-all", "point-levels", "level-sweep", "cli-cold")

#: point-levels: n is log-spaced over this range.  A13's character
#: oracle drifts from n = 5815 on, so part of the range is known to fail.
POINT_N = (1_000, 20_000)
#: level-sweep: the top level N of each request is spread evenly over
#: this range.
SWEEP_N = (300, 1_000)
#: Sizes per type for each second of ``--seconds``, chosen so that a run
#: takes about ``--seconds`` on a shared 2-vCPU host: the 18 types at one
#: size take about 2.6 s raw on point-levels and 8 s on level-sweep.
SIZES_PER_S = {"point-levels": 0.32, "level-sweep": 0.12}
#: cli-cold: levels, nodes and orders stay small, as in the README.
CLI_MAX_N = 200

CLI_TEMPLATES = (
    ("branch", "coxeter"),
    ("branch", "recursion"),
    ("branch", "characters"),
    ("zpoly", None),
    ("series", None),
    ("mckay", None),
    ("group", None),
    ("table", None),
)


class CliCall(NamedTuple):
    """One ``su2branch`` command line."""

    sub: str
    dtype: str | None = None
    n: int | None = None
    oracle: str | None = None
    node: int | None = None
    order: int | None = None
    json: bool = False

    def argv(self) -> list[str]:
        out = [self.sub]
        if self.dtype is not None:
            out += ["--type", self.dtype]
        if self.n is not None:
            out += ["--n", str(self.n), "--oracle", self.oracle]
        if self.sub == "zpoly":
            out.append("--all")
        if self.node is not None:
            out += ["--node", str(self.node), "--order", str(self.order)]
        if self.json:
            out.append("--json")
        return out


def rank_of(dtype: str) -> int:
    return int(dtype[1:])


def _verify_block(rng: random.Random, types: tuple[str, ...]) -> list[str]:
    return rng.sample(types, len(types))


def sizes(workload: str, per_type: int) -> list[int]:
    """``per_type`` sizes for point-levels or level-sweep, one at the
    midpoint of each of ``per_type`` equal strata of the size range:
    log-spaced levels n for point-levels, evenly spaced tops N for
    level-sweep."""
    mids = [(j + 0.5) / per_type for j in range(per_type)]
    if workload == "point-levels":
        lo, hi = POINT_N
        return [round(lo * math.exp(math.log(hi / lo) * u)) for u in mids]
    lo, hi = SWEEP_N
    return [round(lo + (hi - lo) * u) for u in mids]


def fixed_requests(
    workload: str, seed: int, types: tuple[str, ...], seconds: float
) -> list[tuple[str, int]]:
    """Every type at every size of :func:`sizes`, in a seeded order.

    The number of sizes follows ``seconds`` (at least one), not the
    host's speed, so every run of the workload asks the same requests.
    """
    per_type = max(1, round(seconds * SIZES_PER_S[workload]))
    reqs = [(t, n) for n in sizes(workload, per_type) for t in types]
    random.Random(f"{workload}/{seed}").shuffle(reqs)
    return reqs


def _cli_block(rng: random.Random, types: tuple[str, ...]) -> list[CliCall]:
    with_json = set(rng.sample(range(len(CLI_TEMPLATES)), len(CLI_TEMPLATES) // 2))
    calls = []
    for k, (sub, oracle) in enumerate(CLI_TEMPLATES):
        use_json = k in with_json
        dtype = rng.choice(types)
        if sub == "branch":
            call = CliCall(sub, dtype, n=rng.randint(0, CLI_MAX_N), oracle=oracle)
        elif sub == "series":
            call = CliCall(
                sub, dtype, node=rng.randint(0, rank_of(dtype)), order=rng.randint(0, CLI_MAX_N)
            )
        elif sub == "table":
            call = CliCall(sub)
        else:
            call = CliCall(sub, dtype)
        calls.append(call._replace(json=use_json))
    rng.shuffle(calls)
    return calls


def blocks(workload: str, seed: int, types: tuple[str, ...]) -> Iterator[list]:
    """Endless blocks of requests for verify-all or cli-cold, fixed by ``seed``."""
    rng = random.Random(f"{workload}/{seed}")
    make = _verify_block if workload == "verify-all" else _cli_block
    while True:
        yield make(rng, types)


def requests(workload: str, seed: int, types: tuple[str, ...], seconds: float) -> Iterator:
    """The request stream of ``workload``: :func:`fixed_requests` for the
    workloads in ``SIZES_PER_S``, else the blocks of :func:`blocks` flattened."""
    if workload in SIZES_PER_S:
        yield from fixed_requests(workload, seed, types, seconds)
        return
    for block in blocks(workload, seed, types):
        yield from block
