"""Tests for the benchmark's own helpers (not for su2branch itself)."""

import itertools
import json
import statistics
from pathlib import Path

import pytest

import inputs
import run
import measure
from measure import Mismatch, NullTracer, Span, Tracer, quantile, span_self_ns, tail

from su2branch.verify import ACCEPTED_TYPES as TYPES


def take(workload, seed, count, seconds=25):
    return list(itertools.islice(inputs.requests(workload, seed, TYPES, seconds), count))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_streams_are_fixed_by_the_seed(workload):
    assert take(workload, 7, 60) == take(workload, 7, 60)
    assert take(workload, 7, 60) != take(workload, 8, 60)


@pytest.mark.parametrize("workload", sorted(inputs.SIZES_PER_S))
def test_sized_workloads_ask_the_same_set_for_every_seed(workload):
    lo, hi = inputs.POINT_N if workload == "point-levels" else inputs.SWEEP_N
    first = take(workload, 1, 10_000)
    sizes = inputs.sizes(workload, round(25 * inputs.SIZES_PER_S[workload]))
    assert sorted(first) == sorted((t, n) for t in TYPES for n in sizes)
    assert sizes == sorted(set(sizes)) and lo <= sizes[0] and sizes[-1] <= hi
    assert sorted(take(workload, 2, 10_000)) == sorted(first) != take(workload, 2, 10_000)
    # the work follows --seconds, never below one size per type
    assert len(take(workload, 1, 10_000, seconds=50)) == 2 * len(first)
    assert len(take(workload, 1, 10_000, seconds=0)) == len(TYPES)


def test_verify_blocks_are_permutations():
    reqs = take("verify-all", 5, 36)
    assert sorted(reqs[:18]) == sorted(TYPES) == sorted(reqs[18:])


def test_cli_blocks_use_every_template_and_half_json():
    block = next(inputs.blocks("cli-cold", 11, TYPES))
    assert sorted((c.sub, c.oracle) for c in block) == sorted(
        inputs.CLI_TEMPLATES, key=lambda t: (t[0], t[1] or "")
    )
    assert sum(c.json for c in block) == len(block) // 2
    for c in block:
        assert c.n is None or 0 <= c.n <= inputs.CLI_MAX_N
        assert c.node is None or 0 <= c.node <= inputs.rank_of(c.dtype)
    call = inputs.CliCall("branch", "E8", 17, "coxeter", json=True)
    assert call.argv() == ["branch", "--type", "E8", "--n", "17", "--oracle", "coxeter", "--json"]


def test_quantile_is_a_smoothed_order_statistic():
    assert quantile(list(range(101)), 0.5) == pytest.approx(50)
    assert quantile([7.0] * 30, 0.9) == pytest.approx(7.0)
    data = [float(i * i) for i in range(60)]
    qs = [quantile(data, p) for p in (0.1, 0.5, 0.9)]
    assert qs == sorted(qs) and data[0] < qs[0] and qs[-1] < data[-1]
    assert qs[1] == pytest.approx(statistics.median(data), rel=0.05)


def test_tail_is_a_fixed_percentile_with_ten_samples_beyond():
    value, pct = tail(list(range(100)), 90.0)
    assert pct == 90.0 and 88 < value < 91
    value, pct = tail(list(range(1000)), 90.0)
    assert pct == 90.0 and 898 < value < 901
    # too few samples for the 90th: the highest percentile with ten beyond
    value, pct = tail(list(range(50)), 90.0)
    assert pct == 80.0 and 38 < value < 41
    assert tail([5, 3, 9], 90.0) == (9, 100.0)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0, 100, -1, "r"),
        Span("a", 10, 40, 0, "r"),
        Span("b", 30, 60, 0, "r"),  # overlaps a: union 10..60
        Span("c", 35, 45, 2, "r"),
        Span("a", 90, 120, 0, "r"),  # runs past its parent: clipped to 90..100
    ]
    assert span_self_ns(spans) == [100 - 50 - 10, 30, 30 - 10, 10, 30]


def test_tracer_nests_and_marks_failures():
    tracer = Tracer()
    tracer.request = "q"
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with pytest.raises(ValueError):
            with tracer.span("bad"):
                raise ValueError
        tracer.record("stamped", 1, 2)
    names = [(s.name, s.parent, s.failed) for s in tracer.spans]
    assert names == [("outer", -1, False), ("inner", 0, False), ("bad", 0, True), ("stamped", 0, False)]
    assert all(s.request == "q" for s in tracer.spans)


def test_loop_counts_failures_and_wrong_answers_without_stopping():
    def handle(req):
        if req % 3 == 1:
            raise RuntimeError("refused")
        if req == 5:
            raise Mismatch("disagree")

    loop = run.run_loop(handle, iter(range(9)), 3600, NullTracer())
    assert loop.attempted == 9
    assert loop.failed == 4
    assert loop.wrong == 1
    assert len(loop.latencies_ns) == 9


def test_loop_sends_one_request_even_with_no_time():
    loop = run.run_loop(lambda req: None, itertools.count(), 0, NullTracer())
    assert loop.attempted == 1


def test_latencies_are_normalised_by_the_references_around_them(monkeypatch):
    refs = iter([100, 300, 200, 500, 700])
    monkeypatch.setattr(run, "reference_ns", lambda: next(refs))
    monkeypatch.setattr(run, "REF_EVERY_NS", 0)
    monkeypatch.setattr(measure, "REF_NOMINAL_NS", 100)
    loop = run.run_loop(lambda req: None, iter([1, 2, 3, 4]), 3600, NullTracer())
    assert loop.refs_ns == [100, 300, 200, 500, 700] and loop.ref_slot == [0, 1, 2, 3]
    lat = loop.latencies_ns
    # request k is normalised by the median of refs[k-1 .. k+2]
    assert loop.normalised_ns() == [lat[0] / 2, lat[1] / 2.5, lat[2] / 4, lat[3] / 5]


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.E2E_UNITS
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layers == run.per_layer_units(TYPES)
