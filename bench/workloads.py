"""The library session and one request handler per workload.

Handlers call the library's public functions and wrap each call in a
span (a no-op when the run is not traced).  A handler returns normally
when the answer is right, raises :class:`Mismatch` when an answer is
wrong, and lets any other exception propagate as a failed request.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from su2branch import binarygroups, mckay, verify
from su2branch.branching import Branching, branch_params, heisenberg_subsystem, z_polynomial
from su2branch.coxeter import bipartition, coxeter_element, orbit_table
from su2branch.rootsys import build_root_system

from inputs import CliCall
from measure import Mismatch, clock

TYPES: tuple[str, ...] = tuple(verify.ACCEPTED_TYPES)

#: Wall-clock limit for one CLI command; a command that hits it fails.
CLI_TIMEOUT_S = 60


@dataclass(frozen=True, eq=False)
class Entry:
    bundle: Branching
    graph: mckay.McKayGraph
    group: binarygroups.FiniteGroup
    table: binarygroups.CharacterTable


def build_bundle(dtype: str, tracer) -> Branching:
    """``Branching.build``; traced, its stages are called one by one in
    the order ``Branching.build`` uses, each in its own span."""
    if not tracer.active:
        return Branching.build(dtype)
    span = tracer.span
    with span("branching.build"):
        with span("rootsys.build_root_system"):
            rs = build_root_system(dtype)
        with span("coxeter.bipartition"):
            bp = bipartition(rs)
        with span("coxeter.coxeter_element"):
            cox = coxeter_element(rs, bp)
        with span("coxeter.orbit_table"):
            table = orbit_table(rs, cox, bp)
        params = branch_params(rs)
        with span("branching.heisenberg_subsystem"):
            hs = heisenberg_subsystem(rs, table)
        zpolys = {}
        for i in range(rs.rank + 1):
            with span("branching.z_polynomial"):
                zpolys[i] = z_polynomial(rs, table, hs, params, i)
        return Branching(
            rs=rs, bp=bp, cox=cox, table=table, params=params, heisenberg=hs, zpolys=zpolys
        )


def build_session(tracer) -> dict[str, Entry]:
    """Bundle, extended graph, group and character table for every type."""
    session = {}
    for dtype in TYPES:
        bundle = build_bundle(dtype, tracer)
        with tracer.span("mckay.extended_graph"):
            graph = mckay.extended_graph(bundle.rs)
        with tracer.span("binarygroups.build_group"):
            group = binarygroups.build_group(bundle.dtype, bundle.params)
        with tracer.span("binarygroups.character_table"):
            table = binarygroups.character_table(group, graph)
        session[dtype] = Entry(bundle, graph, group, table)
    return session


def verify_type(dtype: str, session: dict[str, Entry], tracer) -> None:
    """Every check of one type, with nothing reused from earlier calls."""
    with tracer.span(f"verify.run_type_checks.{dtype}"):
        checks = verify.run_type_checks(dtype)
        bad = [c for c in checks if not c.passed]
        if bad or not checks:
            raise Mismatch(f"{len(bad)} of {len(checks)} checks FAIL, first: {bad[:1]}")


def point_level(request: tuple[str, int], session: dict[str, Entry], tracer) -> None:
    """One level n answered by all three oracles, cross-checked."""
    dtype, n = request
    e = session[dtype]
    with tracer.span("branching.vector"):
        cox = e.bundle.vector(n)
    tracer.count("levels.coxeter")
    with tracer.span("mckay.recursion_oracle"):
        rec = mckay.recursion_oracle(e.graph, n)[n]
    tracer.count("levels.recursion")
    tracer.count("mckay.recursion_oracle_levels", n + 1)
    if cox != rec:
        raise Mismatch(f"{dtype} n={n}: coxeter {cox} != recursion {rec}")
    chars = []
    for node in range(e.graph.size):
        with tracer.span("binarygroups.oracle_multiplicity"):
            chars.append(binarygroups.oracle_multiplicity(e.group, e.table, n, node))
    tracer.count("levels.characters")
    if tuple(chars) != rec:
        raise Mismatch(f"{dtype} n={n}: characters {chars} != recursion {rec}")


def level_sweep(request: tuple[str, int], session: dict[str, Entry], tracer) -> None:
    """Every level 0..N from each oracle's own API, cross-checked level by level.

    The Coxeter path asks a freshly built bundle for ``vector(n)`` in
    ascending n, as the README's per-level API is used.
    """
    dtype, top = request
    e = session[dtype]
    bundle = build_bundle(dtype, tracer)
    cox = []
    for n in range(top + 1):
        with tracer.span("branching.vector"):
            cox.append(bundle.vector(n))
    tracer.count("levels.coxeter", top + 1)
    with tracer.span("mckay.recursion_oracle"):
        rec = mckay.recursion_oracle(e.graph, top)
    tracer.count("levels.recursion", top + 1)
    tracer.count("mckay.recursion_oracle_levels", top + 1)
    with tracer.span("binarygroups.character_multiplicities"):
        chars = binarygroups.character_multiplicities(e.group, e.table, top)
    tracer.count("levels.characters", top + 1)
    for n in range(top + 1):
        if not cox[n] == rec[n] == chars[n]:
            raise Mismatch(
                f"{dtype} n={n}: coxeter {cox[n]}, recursion {rec[n]}, characters {chars[n]}"
            )


class CliRunner:
    """Runs ``python -m su2branch`` on the checkout's ``src``, one at a time."""

    def __init__(self, root: Path) -> None:
        self.root = root
        src = str(root / "src")
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))
        self.child = str(Path(__file__).with_name("cli_child.py"))

    def run(self, argv: list[str], traced: bool = False) -> subprocess.CompletedProcess:
        entry = [self.child] if traced else ["-m", "su2branch"]
        return subprocess.run(
            [sys.executable, *entry, *argv],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )

    def bare_python_ns(self) -> int:
        """Time one ``python -c pass``, the start-up every command pays."""
        t0 = clock()
        subprocess.run(
            [sys.executable, "-c", "pass"], cwd=self.root, env=self.env, timeout=CLI_TIMEOUT_S
        )
        return clock() - t0


def cli_call(call: CliCall, session: dict[str, Entry], tracer, runner: CliRunner) -> None:
    """One CLI command in a fresh interpreter; ``--json`` output is
    compared with the in-process library result."""
    with tracer.span("cli.command"):
        start = clock()
        proc = runner.run(call.argv(), traced=tracer.active)
        if tracer.active:
            _record_child_spans(call, proc, start, tracer)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    if not proc.stdout.strip():
        raise Mismatch(f"{call.argv()}: empty output")
    if call.json:
        got = json.loads(proc.stdout)
        want = expected_json(call, session)
        if project(call, got) != want:
            raise Mismatch(f"{call.argv()}: output differs from the library")


def _record_child_spans(call: CliCall, proc, start: int, tracer) -> None:
    """Spans from the ``CHILD_STAMPS t0 t1 t2`` line ``cli_child.py`` prints."""
    stamps = None
    for line in reversed(proc.stderr.splitlines()):
        if line.startswith("CHILD_STAMPS "):
            stamps = [int(v) for v in line.split()[1:]]
            break
    if stamps is None:
        return
    t0, t1, t2 = stamps
    tracer.record("cli.python_startup", start, t0)
    tracer.record("cli.import", t0, t1)
    tracer.record(f"cli.main.{call.sub}", t1, t2, failed=proc.returncode != 0)


def project(call: CliCall, got):
    """The fields of a ``--json`` document that :func:`expected_json` pins."""
    if call.sub == "branch":
        return got["type"], got["n"], got["multiplicities"]
    if call.sub == "zpoly":
        return [(r["type"], r["node"], r["mark"], r["distance"], r["coeffs"]) for r in got]
    if call.sub == "series":
        return got["type"], got["node"], got["coeffs"]
    if call.sub == "mckay":
        return got["type"], got["adjacency"], got["marks"]
    if call.sub == "group":
        return got["type"], got["order"], got["class_sizes"], got["character_dims"]
    return [
        (r["type"], r["a"], r["b"], r["h"], r["g"], r["order_F"], r["order_Fstar"]) for r in got
    ]


def expected_json(call: CliCall, session: dict[str, Entry]):
    if call.sub == "table":
        rows = []
        for dtype in TYPES:
            p = session[dtype].bundle.params
            rows.append((dtype, p.a, p.b, p.h, p.g, p.order_f, p.order_fstar))
        return rows
    e = session[call.dtype]
    b = e.bundle
    if call.sub == "branch":
        return call.dtype, call.n, list(b.vector(call.n))
    if call.sub == "zpoly":
        return [
            (call.dtype, i, *b.node_label(i), list(b.zpolys[i])) for i in range(e.graph.size)
        ]
    if call.sub == "series":
        return call.dtype, call.node, list(b.series(call.node, call.order))
    if call.sub == "mckay":
        return call.dtype, [list(r) for r in e.graph.adjacency], list(e.graph.marks_ext)
    dims = [e.table.dims[e.table.node_map[i]] for i in range(e.graph.size)]
    return call.dtype, e.group.order, list(e.group.class_sizes), dims
