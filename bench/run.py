"""su2branch benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload point-levels --seed 1 --seconds 20 --trace 0

Run from anywhere; it measures the code in ``src/`` next to this
directory.  With ``--trace 0`` it reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics from spans, which it also writes to
``.bench_out/``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See ``README.md``
in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import inputs
from measure import (
    REF_EVERY_NS,
    Mismatch,
    NullTracer,
    Tracer,
    clock,
    median,
    normalise,
    quantile,
    reference_ns,
    span_self_ns,
    tail,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Set-up is repeated this many times; ``setup_s`` is the median.
SETUP_REPS = 9
#: Bare ``python -c pass`` starts timed in cli-cold set-up, as a baseline.
BARE_PYTHON_REPS = 5
#: Reference timings taken on each side of a request that normalise it.
REF_WINDOW = 2

#: Percentile ``latency_tail_ms`` reports, per workload: as high as keeps
#: at least ten samples beyond it when the host runs at its slowest
#: observed speed (fewest requests per run).
TAIL_PERCENTILE = {"verify-all": 97.0, "point-levels": 90.0, "level-sweep": 70.0, "cli-cold": 85.0}

E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
}

BUILD_SPANS = (
    "rootsys.build_root_system",
    "coxeter.bipartition",
    "coxeter.coxeter_element",
    "coxeter.orbit_table",
    "branching.heisenberg_subsystem",
    "branching.z_polynomial",
    "branching.build",
)
ORACLE_SPANS = (
    "branching.vector",
    "mckay.extended_graph",
    "mckay.recursion_oracle",
    "binarygroups.build_group",
    "binarygroups.character_table",
    "binarygroups.oracle_multiplicity",
    "binarygroups.character_multiplicities",
)
CLI_SPANS = ("cli.command", "cli.python_startup", "cli.import") + tuple(
    dict.fromkeys(f"cli.main.{sub}" for sub, _ in inputs.CLI_TEMPLATES)
)
LAYERS = ("rootsys", "coxeter", "branching", "mckay", "binarygroups", "verify", "cli")
#: levels/s metric -> (levels counter, spans whose self time the oracle spends)
LEVEL_RATES = {
    "coxeter_levels_per_s": ("levels.coxeter", ("branching.vector",)),
    "recursion_levels_per_s": ("levels.recursion", ("mckay.recursion_oracle",)),
    "characters_levels_per_s": (
        "levels.characters",
        ("binarygroups.oracle_multiplicity", "binarygroups.character_multiplicities"),
    ),
}


def span_names(types: tuple[str, ...]) -> tuple[str, ...]:
    verify_spans = tuple(f"verify.run_type_checks.{t}" for t in types)
    return BUILD_SPANS + ORACLE_SPANS + verify_spans + CLI_SPANS


def per_layer_units(types: tuple[str, ...]) -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {f"{name}_ms": "ms" for name in span_names(types)}
    units["bench.self_ms"] = "ms"
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.failed"] = "count"
    units["branching.vector_calls"] = "count"
    units["mckay.recursion_oracle_levels"] = "count"
    units["binarygroups.oracle_multiplicity_failed"] = "count"
    for name in LEVEL_RATES:
        units[name] = "levels/s"
    units["trace.requests"] = "count"
    units["trace.latency_p50_ms"] = "ms"
    units["trace.requests_per_s"] = "1/s"
    return units


@dataclass
class Loop:
    """Outcome of the measured loop.

    ``ref_slot[k]`` indexes the last reference timing taken before
    request k; one more is always taken after the last request.
    """

    latencies_ns: list[int] = field(default_factory=list)
    ref_slot: list[int] = field(default_factory=list)
    refs_ns: list[int] = field(default_factory=list)
    failed: int = 0
    wrong: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)

    def normalised_ns(self) -> list[float]:
        """Latencies normalised by the median of the ``REF_WINDOW``
        reference timings on each side of them."""
        refs = self.refs_ns
        out = []
        for lat, i in zip(self.latencies_ns, self.ref_slot):
            near = refs[max(0, i + 1 - REF_WINDOW) : i + 1 + REF_WINDOW]
            out.append(normalise(lat, median(near)))
        return out


def run_loop(handle, stream, seconds: float, tracer) -> Loop:
    """Closed loop, one client: send the next request when one completes.

    Stops at the first request boundary after ``seconds`` (which may be
    ``math.inf``), or when the stream ends.  An exception fails its request and the loop goes on; a
    :class:`Mismatch` also marks the output wrong.  At least one request
    is always sent.  Between requests, at most every ``REF_EVERY_NS``,
    the reference task is timed.
    """
    loop = Loop(refs_ns=[reference_ns()])
    last_ref = start = clock()
    deadline = start + seconds * 1e9
    for req in stream:
        tracer.request = f"req-{loop.attempted}"
        t0 = clock()
        try:
            with tracer.span("bench.request"):
                handle(req)
        except Mismatch as exc:
            loop.failed += 1
            loop.wrong += 1
            loop.errors.append(f"{req!r}: wrong: {exc}")
        except Exception as exc:  # noqa: BLE001 - a failed request must not end the run
            loop.failed += 1
            loop.errors.append(f"{req!r}: {type(exc).__name__}: {exc}")
        t1 = clock()
        loop.latencies_ns.append(t1 - t0)
        loop.ref_slot.append(len(loop.refs_ns) - 1)
        if t1 - last_ref >= REF_EVERY_NS:
            loop.refs_ns.append(reference_ns())
            last_ref = clock()
        if t1 >= deadline:
            break
    if loop.ref_slot and loop.ref_slot[-1] == len(loop.refs_ns) - 1:
        loop.refs_ns.append(reference_ns())
    return loop


def timed_setup(build, reps: int) -> tuple[object, list[float], list[int]]:
    """Run ``build`` ``reps`` times; return its last result, each run's
    normalised duration, and the reference timings taken around them."""
    refs = [reference_ns()]
    durations = []
    for _ in range(reps):
        t0 = clock()
        result = build()
        elapsed = clock() - t0
        refs.append(reference_ns())
        durations.append(normalise(elapsed, (refs[-2] + refs[-1]) / 2))
    return result, durations, refs


def end_to_end(
    setup_ns: list[float], loop: Loop, tail_pct: float, peak_rss_mb: float
) -> dict[str, float]:
    lat = loop.normalised_ns()
    return {
        "setup_s": median(setup_ns) / 1e9,
        "latency_p50_ms": quantile(lat, 0.5) / 1e6,
        "latency_tail_ms": tail(lat, tail_pct)[0] / 1e6,
        "requests_per_s": loop.attempted / (sum(lat) / 1e9),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(
    tracer: Tracer, loop: Loop, setup_refs: list[int], types: tuple[str, ...]
) -> dict[str, float]:
    """Per-layer metrics.  Set-up spans are normalised by the median
    reference timing of the set-up, loop spans by that of the loop."""
    setup_ref, loop_ref = median(setup_refs), median(loop.refs_ns)
    own: dict[str, float] = {}
    for s, ns in zip(tracer.spans, span_self_ns(tracer.spans)):
        ns = normalise(ns, setup_ref if s.request == "setup" else loop_ref)
        own[s.name] = own.get(s.name, 0.0) + ns
    out: dict[str, float] = {}
    for name in span_names(types):
        out[f"{name}_ms"] = own.get(name, 0) / 1e6
    out["bench.self_ms"] = (own.get("bench.request", 0) + own.get("bench.setup", 0)) / 1e6

    spans = tracer.spans
    layer_of = [s.name.split(".", 1)[0] for s in spans]
    for layer in LAYERS:
        entries = [
            s
            for i, s in enumerate(spans)
            if layer_of[i] == layer and (s.parent < 0 or layer_of[s.parent] != layer)
        ]
        out[f"{layer}.calls"] = len(entries)
        out[f"{layer}.failed"] = sum(s.failed for s in entries)
    out["branching.vector_calls"] = sum(s.name == "branching.vector" for s in spans)
    out["mckay.recursion_oracle_levels"] = tracer.counts["mckay.recursion_oracle_levels"]
    out["binarygroups.oracle_multiplicity_failed"] = sum(
        s.failed for s in spans if s.name == "binarygroups.oracle_multiplicity"
    )
    for name, (counter, names) in LEVEL_RATES.items():
        busy_s = sum(own.get(n, 0) for n in names) / 1e9
        out[name] = tracer.counts[counter] / busy_s if busy_s else 0.0
    lat = loop.normalised_ns()
    out["trace.requests"] = loop.attempted
    out["trace.latency_p50_ms"] = quantile(lat, 0.5) / 1e6
    out["trace.requests_per_s"] = loop.attempted / (sum(lat) / 1e9)
    return out


def run_metadata(nproc: int) -> dict:
    """Facts about the code and machine; recorded, never scored."""
    sha = None
    try:
        if (ROOT / ".git").exists():
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    import numpy

    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "src_lines": src_lines,
    }


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")

    if not (SRC / "su2branch" / "__init__.py").is_file():
        print(f"error: no su2branch sources under {SRC}", file=sys.stderr)
        return 2
    # One CPU for the whole run, set before numpy starts any thread and
    # inherited by children, so the reference task and the measured work
    # see the same core.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    sys.path.insert(0, str(SRC))
    import su2branch

    if Path(su2branch.__file__).resolve().parent != (SRC / "su2branch").resolve():
        print(f"error: imported su2branch from {su2branch.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    types = workloads.TYPES
    tracer = Tracer() if args.trace else NullTracer()
    meta = run_metadata(nproc=len(cpus))
    meta.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)

    def build_session():
        tracer.request = "setup"
        with tracer.span("bench.setup"):
            return workloads.build_session(tracer)

    session, setup_ns, setup_refs = timed_setup(build_session, SETUP_REPS)

    if args.workload == "cli-cold":
        runner = workloads.CliRunner(ROOT)
        # Compile the package's bytecode once, as an installed package has it.
        runner.run(["mckay", "--type", "A3"])
        bare = [runner.bare_python_ns() for _ in range(BARE_PYTHON_REPS)]
        meta["bare_python_ms"] = median(bare) / 1e6
        handle = functools.partial(
            workloads.cli_call, session=session, tracer=tracer, runner=runner
        )
    else:
        fn = {
            "verify-all": workloads.verify_type,
            "point-levels": workloads.point_level,
            "level-sweep": workloads.level_sweep,
        }[args.workload]
        handle = functools.partial(fn, session=session, tracer=tracer)

    stream = inputs.requests(args.workload, args.seed, types, args.seconds)
    # point-levels' and level-sweep's streams are finite, sized from
    # --seconds, and always done whole (see inputs.py).
    budget = math.inf if args.workload in inputs.SIZES_PER_S else args.seconds
    loop = run_loop(handle, stream, budget, tracer)

    who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    meta.update(
        samples=loop.attempted,
        tail_percentile=tail(loop.latencies_ns, TAIL_PERCENTILE[args.workload])[1],
        setup_reference_ms=median(setup_refs) / 1e6,
        loop_reference_ms=median(loop.refs_ns) / 1e6,
        raw_latency_p50_ms=median(loop.latencies_ns) / 1e6,
        errors=loop.errors[:5],
    )
    if args.trace:
        metrics = per_layer(tracer, loop, setup_refs, types)
        units = per_layer_units(types)
        spans_file = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_file)
        meta["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        metrics = end_to_end(setup_ns, loop, TAIL_PERCENTILE[args.workload], _peak_rss_mb(who))
        units = E2E_UNITS

    for name, value in metrics.items():
        print(f"{name:<44} {value:>14.4f} {units[name]}")
    print("run " + json.dumps(meta))
    result = {
        "correct": loop.wrong == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
