"""Every library call the benchmark makes (``bench/workloads.py``), run once
at small inputs, so a change to a signature it uses fails here first."""

import sys
from pathlib import Path

import pytest

from su2branch import Branching

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "bench") not in sys.path:
    sys.path.insert(0, str(ROOT / "bench"))

import inputs  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402

TYPES = ("A3", "D5", "E8")


@pytest.fixture(scope="module")
def bench_session():
    return workloads.build_session(measure.NullTracer())


@pytest.mark.parametrize("name", TYPES)
def test_point_level_sweep_and_verify(bench_session, name):
    tracer = measure.NullTracer()
    workloads.point_level((name, 1000), bench_session, tracer)
    workloads.level_sweep((name, 60), bench_session, tracer)
    workloads.verify_type(name, bench_session, tracer)


def test_traced_build_calls_the_keyword_constructor():
    tracer = measure.Tracer()
    bundle = workloads.build_bundle("E8", tracer)
    assert bundle.zpolys == Branching.build("E8").zpolys
    names = {span.name for span in tracer.spans}
    assert {"branching.build", "coxeter.orbit_table", "branching.z_polynomial"} <= names


def test_cli_call(bench_session):
    call = inputs.CliCall("branch", "E8", n=17, oracle="coxeter", json=True)
    workloads.cli_call(call, bench_session, measure.NullTracer(), workloads.CliRunner(ROOT))
