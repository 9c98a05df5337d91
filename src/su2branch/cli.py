"""Command-line front end.

Subcommands: table, verify, branch, zpoly, series, orbits, mckay,
group.  Each ``cmd_*`` computes its result once and returns a JSON
document and the text lines; ``verify`` also returns its status.
:func:`main` alone picks the format (aligned text by default, JSON with
--json), writes it to stdout or --out, and sets the exit code: 0
success, 1 internal check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import verify
from .branching import Branching
from .errors import ConsistencyError
from .invariants import ORACLES, Session
from .rootsys import NODE_CONVENTION, DiagramType
from .seriescalc import poly_str, sparse_items

#: Largest ``--order`` that ``series`` accepts; on E8 it peaks near 120 MB
#: at the limit.  ``Branching.series`` takes any order.
MAX_ORDER = 10**6


def _envelope(dtype: DiagramType, **fields) -> dict:
    return {"type": str(dtype), "convention": NODE_CONVENTION, **fields}


def cmd_table(args: argparse.Namespace) -> tuple:
    rows = []
    lines = [f"{'F':<8}{'type':<6}{'a':>4}{'b':>4}{'h':>4}{'g':>4}{'|F|':>6}{'|F*|':>6}  status"]
    for name in verify.ACCEPTED_TYPES:
        dtype = DiagramType.parse(name)
        p = Branching.build(dtype).params
        row = _envelope(
            dtype,
            F=verify.rotation_group_name(dtype),
            a=p.a,
            b=p.b,
            h=p.h,
            g=p.g,
            order_F=p.order_f,
            order_Fstar=p.order_fstar,
            matches_closed_form=True,  # Branching.build enforces it
        )
        rows.append(row)
        lines.append(
            f"{row['F']:<8}{row['type']:<6}{p.a:>4}{p.b:>4}{p.h:>4}"
            f"{p.g:>4}{p.order_f:>6}{p.order_fstar:>6}  ok"
        )
    return rows, lines


def cmd_verify(args: argparse.Namespace) -> tuple:
    types = (args.type,) if args.type else verify.ACCEPTED_TYPES
    checks = verify.run_all(types)
    all_pass = all(c.passed for c in checks)
    doc = {"checks": [c.record() for c in checks], "all_pass": all_pass}
    return doc, [verify.format_report(checks)], 0 if all_pass else 1


def cmd_branch(args: argparse.Namespace) -> tuple:
    if args.n < 0:
        raise ValueError("--n must be nonnegative")
    session = Session(Branching.build(args.type))
    bundle, vec = session.bundle, session.vector(args.n, args.oracle)
    doc = _envelope(bundle.dtype, n=args.n, oracle=args.oracle, multiplicities=list(vec))
    lines = [f"{bundle.dtype}  n = {args.n}  oracle = {args.oracle}"]
    lines.append(f"{'node':>4} {'mark':>4} {'dist':>4} {'mult':>6}")
    for i, mult in enumerate(vec):
        mark, dist = bundle.node_label(i)
        lines.append(f"{i:>4} {mark:>4} {dist:>4} {mult:>6}")
    return doc, lines


def cmd_zpoly(args: argparse.Namespace) -> tuple:
    bundle = Branching.build(args.type)
    if not args.all and args.node is None:
        raise ValueError("zpoly requires --node or --all")
    nodes = range(bundle.rs.rank + 1) if args.all else [bundle.resolve_node(args.node)]
    records, lines = [], []
    for i in nodes:
        mark, dist = bundle.node_label(i)
        z = bundle.zpolys[i]
        records.append(_envelope(bundle.dtype, node=i, mark=mark, distance=dist, coeffs=list(z)))
        pairs = " ".join(f"{e}:{c}" for e, c in sparse_items(z))
        lines.append(f"node {i} (mark {mark}, dist {dist}): {pairs}")
        lines.append(f"    {poly_str(z)}")
    return (records if args.all else records[0]), lines


def cmd_series(args: argparse.Namespace) -> tuple:
    if args.order > MAX_ORDER:
        raise ValueError(f"order {args.order} exceeds the limit {MAX_ORDER}")
    bundle = Branching.build(args.type)
    if args.node is None:
        raise ValueError("series requires --node")
    node = bundle.resolve_node(args.node)
    coeffs = bundle.series(node, args.order)
    mark, dist = bundle.node_label(node)
    doc = _envelope(bundle.dtype, node=node, mark=mark, distance=dist, coeffs=list(coeffs))
    return doc, [
        f"{bundle.dtype} node {node} (mark {mark}, dist {dist}) to order {args.order}",
        " ".join(str(c) for c in coeffs),
    ]


def cmd_orbits(args: argparse.Namespace) -> tuple:
    bundle = Branching.build(args.type)
    rs, table = bundle.rs, bundle.table
    records = [
        _envelope(
            bundle.dtype,
            root=list(rs.root_at(idx)),
            orbit=table.orbit_node[idx],
            k=table.parity[idx],
            n=table.exponent[idx],
        )
        for idx in range(rs.num_positive)
    ]
    width = max(len(str(r["root"])) for r in records)
    lines = [f"{'root':<{width}}  {'orbit':>5} {'k':>2} {'n':>3}"]
    for r in records:
        lines.append(f"{str(r['root']):<{width}}  {r['orbit']:>5} {r['k']:>2} {r['n']:>3}")
    return records, lines


def cmd_mckay(args: argparse.Namespace) -> tuple:
    session = Session(Branching.build(args.type))
    bundle, graph = session.bundle, session.graph
    adjacency = [list(row) for row in graph.adjacency]
    marks = list(graph.marks_ext)
    doc = _envelope(bundle.dtype, adjacency=adjacency, marks=marks)
    lines = [f"{bundle.dtype} extended diagram ({graph.size} nodes)"]
    for i, row in enumerate(adjacency):
        lines.append(f"{i:>3}  " + " ".join(str(v) for v in row))
    lines.append("marks  " + " ".join(str(m) for m in marks))
    labels = ("{}:({},{})".format(i, *bundle.node_label(i)) for i in range(graph.size))
    lines.append("labels " + " ".join(labels))
    return doc, lines


def cmd_group(args: argparse.Namespace) -> tuple:
    session = Session(Branching.build(args.type))
    bundle, group, table = session.bundle, session.group, session.table
    sizes = list(group.class_sizes)
    dims = [table.dims[table.node_map[i]] for i in range(session.graph.size)]
    doc = _envelope(bundle.dtype, order=group.order, class_sizes=sizes, character_dims=dims)
    cover = verify.rotation_group_name(bundle.dtype)
    return doc, [
        f"{bundle.dtype}  |F*| = {group.order}  ({cover} cover)",
        "class sizes: " + " ".join(str(s) for s in sizes),
        "character dims by node: " + " ".join(str(d) for d in dims),
    ]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="su2branch",
        description="Exact branching of SU(2) irreducibles under the binary "
        "polyhedral groups, with three cross-checked computation paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help, type_help="diagram type, e.g. A7, D5, E8", type_required=True):
        """A subparser with --type (unless ``type_help`` is None), --json and --out."""
        p = sub.add_parser(name, help=help)
        if type_help:
            p.add_argument("--type", required=type_required, help=type_help)
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.add_argument("--out", metavar="PATH", help="write output to a file")
        p.set_defaults(fn=fn)
        return p

    command("table", cmd_table, "parameter table for all accepted types", type_help=None)

    command(
        "verify",
        cmd_verify,
        "run the full cross-validation suite",
        type_help="restrict to one diagram type",
        type_required=False,
    )

    p = command("branch", cmd_branch, "one multiplicity vector")
    p.add_argument("--n", type=int, required=True, help="SU(2) level (dimension - 1)")
    p.add_argument(
        "--oracle",
        choices=ORACLES,
        default=ORACLES[0],
        help=f"computation path (default {ORACLES[0]})",
    )

    p = command("zpoly", cmd_zpoly, "numerator polynomials")
    p.add_argument("--node", help="canonical index or 'mark,distance'")
    p.add_argument("--all", action="store_true", help="all nodes 0..rank")

    p = command("series", cmd_series, "multiplicity series for one node")
    p.add_argument("--node", help="canonical index or 'mark,distance'")
    p.add_argument(
        "--order", type=int, default=200, help=f"series depth (default 200, at most {MAX_ORDER})"
    )

    command("orbits", cmd_orbits, "orbit label, parity and exponent per positive root")
    command("mckay", cmd_mckay, "extended adjacency matrix and marks")
    command("group", cmd_group, "group order, class sizes, character dims")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
            raise ValueError(f"cannot write --out {args.out}: its directory does not exist")
        if args.out and os.path.isdir(args.out):
            raise ValueError(f"cannot write --out {args.out}: it is a directory")
        doc, lines, *status = args.fn(args)
        text = json.dumps(doc, indent=2) if args.json else "\n".join(lines)
        if not args.out:
            print(text)
        else:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                raise ValueError(f"cannot write --out {args.out}: {exc.strerror}") from None
        return status[0] if status else 0
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ConsistencyError, IndexError) as exc:
        print(f"internal check failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
