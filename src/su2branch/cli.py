"""Command-line front end.

Subcommands: table, verify, branch, zpoly, series, orbits, mckay,
group.  Output is aligned text by default, JSON with --json, written to
stdout unless --out is given.  Exit codes: 0 success, 1 internal check
failure, 2 usage error.
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


def _envelope(dtype: DiagramType, **fields) -> dict:
    out = {"type": str(dtype), "convention": NODE_CONVENTION}
    out.update(fields)
    return out


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write --out {out_path}: {exc.strerror}") from None
    else:
        print(text)


def _dump(obj) -> str:
    return json.dumps(obj, indent=2)


def cmd_table(args: argparse.Namespace) -> int:
    rows = []
    for name in verify.ACCEPTED_TYPES:
        dtype = DiagramType.parse(name)
        p = Branching.build(dtype).params
        rows.append(
            {
                "type": str(dtype),
                "convention": NODE_CONVENTION,
                "F": verify.rotation_group_name(dtype),
                "a": p.a,
                "b": p.b,
                "h": p.h,
                "g": p.g,
                "order_F": p.order_f,
                "order_Fstar": p.order_fstar,
                "matches_closed_form": True,  # Branching.build enforces it
            }
        )
    if args.json:
        _emit(_dump(rows), args.out)
    else:
        lines = [
            f"{'F':<8}{'type':<6}{'a':>4}{'b':>4}{'h':>4}{'g':>4}{'|F|':>6}{'|F*|':>6}  status"
        ]
        for r in rows:
            lines.append(
                f"{r['F']:<8}{r['type']:<6}{r['a']:>4}{r['b']:>4}{r['h']:>4}"
                f"{r['g']:>4}{r['order_F']:>6}{r['order_Fstar']:>6}  ok"
            )
        _emit("\n".join(lines), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.order < 0:
        raise ValueError("--order must be nonnegative")
    types = (str(DiagramType.parse(args.type)),) if args.type else verify.ACCEPTED_TYPES
    checks = verify.run_all(types, order=args.order)
    if args.json:
        payload = [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
        ]
        _emit(_dump({"checks": payload, "all_pass": all(c.passed for c in checks)}), args.out)
    else:
        _emit(verify.format_report(checks), args.out)
    return 0 if all(c.passed for c in checks) else 1


def cmd_branch(args: argparse.Namespace) -> int:
    n = args.n
    if n < 0:
        raise ValueError("--n must be nonnegative")
    session = Session(Branching.build(args.type))
    bundle, vec = session.bundle, session.vector(n, args.oracle)
    if args.json:
        _emit(
            _dump(
                _envelope(
                    bundle.dtype, n=n, oracle=args.oracle, multiplicities=list(vec)
                )
            ),
            args.out,
        )
    else:
        lines = [f"{bundle.dtype}  n = {n}  oracle = {args.oracle}"]
        lines.append(f"{'node':>4} {'mark':>4} {'dist':>4} {'mult':>6}")
        for i, mult in enumerate(vec):
            mark, dist = bundle.node_label(i)
            lines.append(f"{i:>4} {mark:>4} {dist:>4} {mult:>6}")
        _emit("\n".join(lines), args.out)
    return 0


def _zpoly_record(bundle: Branching, node: int) -> dict:
    mark, dist = bundle.node_label(node)
    return _envelope(
        bundle.dtype,
        node=node,
        mark=mark,
        distance=dist,
        coeffs=list(bundle.zpolys[node]),
    )


def cmd_zpoly(args: argparse.Namespace) -> int:
    bundle = Branching.build(args.type)
    if args.all:
        nodes = list(range(bundle.rs.rank + 1))
    elif args.node is not None:
        nodes = [bundle.resolve_node(args.node)]
    else:
        raise ValueError("zpoly requires --node or --all")
    if args.json:
        records = [_zpoly_record(bundle, i) for i in nodes]
        _emit(_dump(records if args.all else records[0]), args.out)
    else:
        lines = []
        for i in nodes:
            mark, dist = bundle.node_label(i)
            z = bundle.zpolys[i]
            pairs = " ".join(f"{e}:{c}" for e, c in sparse_items(z))
            lines.append(f"node {i} (mark {mark}, dist {dist}): {pairs}")
            lines.append(f"    {poly_str(z)}")
        _emit("\n".join(lines), args.out)
    return 0


def cmd_series(args: argparse.Namespace) -> int:
    bundle = Branching.build(args.type)
    if args.node is None:
        raise ValueError("series requires --node")
    node = bundle.resolve_node(args.node)
    coeffs = bundle.series(node, args.order)
    mark, dist = bundle.node_label(node)
    if args.json:
        _emit(
            _dump(
                _envelope(
                    bundle.dtype, node=node, mark=mark, distance=dist, coeffs=list(coeffs)
                )
            ),
            args.out,
        )
    else:
        lines = [f"{bundle.dtype} node {node} (mark {mark}, dist {dist}) to order {args.order}"]
        lines.append(" ".join(str(c) for c in coeffs))
        _emit("\n".join(lines), args.out)
    return 0


def cmd_orbits(args: argparse.Namespace) -> int:
    bundle = Branching.build(args.type)
    rs = bundle.rs
    records = []
    for idx in range(rs.num_positive):
        records.append(
            _envelope(
                bundle.dtype,
                root=list(rs.root_at(idx)),
                orbit=bundle.table.orbit_node[idx],
                k=bundle.table.parity[idx],
                n=bundle.table.exponent[idx],
            )
        )
    if args.json:
        _emit(_dump(records), args.out)
    else:
        width = max(len(str(r["root"])) for r in records)
        lines = [f"{'root':<{width}}  {'orbit':>5} {'k':>2} {'n':>3}"]
        for r in records:
            lines.append(f"{str(r['root']):<{width}}  {r['orbit']:>5} {r['k']:>2} {r['n']:>3}")
        _emit("\n".join(lines), args.out)
    return 0


def cmd_mckay(args: argparse.Namespace) -> int:
    session = Session(Branching.build(args.type))
    bundle, graph = session.bundle, session.graph
    if args.json:
        _emit(
            _dump(
                _envelope(
                    bundle.dtype,
                    adjacency=[list(row) for row in graph.adjacency],
                    marks=list(graph.marks_ext),
                )
            ),
            args.out,
        )
    else:
        lines = [f"{bundle.dtype} extended diagram ({graph.size} nodes)"]
        for i, row in enumerate(graph.adjacency):
            lines.append(f"{i:>3}  " + " ".join(str(v) for v in row))
        lines.append("marks  " + " ".join(str(m) for m in graph.marks_ext))
        labels = ("{}:({},{})".format(i, *bundle.node_label(i)) for i in range(graph.size))
        lines.append("labels " + " ".join(labels))
        _emit("\n".join(lines), args.out)
    return 0


def cmd_group(args: argparse.Namespace) -> int:
    session = Session(Branching.build(args.type))
    bundle, group, table = session.bundle, session.group, session.table
    dims = [table.dims[table.node_map[i]] for i in range(session.graph.size)]
    if args.json:
        _emit(
            _dump(
                _envelope(
                    bundle.dtype,
                    order=group.order,
                    class_sizes=list(group.class_sizes),
                    character_dims=dims,
                )
            ),
            args.out,
        )
    else:
        lines = [
            f"{bundle.dtype}  |F*| = {group.order}  ({verify.rotation_group_name(bundle.dtype)} cover)",
            "class sizes: " + " ".join(str(s) for s in group.class_sizes),
            "character dims by node: " + " ".join(str(d) for d in dims),
        ]
        _emit("\n".join(lines), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="su2branch",
        description="Exact branching of SU(2) irreducibles under the binary "
        "polyhedral groups, with three cross-checked computation paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_type: bool = True) -> None:
        if with_type:
            p.add_argument("--type", required=True, help="diagram type, e.g. A7, D5, E8")
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.add_argument("--out", metavar="PATH", help="write output to a file")

    p = sub.add_parser("table", help="parameter table for all accepted types")
    add_common(p, with_type=False)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("verify", help="run the full cross-validation suite")
    p.add_argument("--type", help="restrict to one diagram type")
    p.add_argument(
        "--order", type=int, default=200, help="depth of every range check (default 200)"
    )
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("branch", help="one multiplicity vector")
    add_common(p)
    p.add_argument("--n", type=int, required=True, help="SU(2) level (dimension - 1)")
    p.add_argument(
        "--oracle",
        choices=ORACLES,
        default=ORACLES[0],
        help=f"computation path (default {ORACLES[0]})",
    )
    p.set_defaults(fn=cmd_branch)

    p = sub.add_parser("zpoly", help="numerator polynomials")
    add_common(p)
    p.add_argument("--node", help="canonical index or 'mark,distance'")
    p.add_argument("--all", action="store_true", help="all nodes 0..rank")
    p.set_defaults(fn=cmd_zpoly)

    p = sub.add_parser("series", help="multiplicity series for one node")
    add_common(p)
    p.add_argument("--node", help="canonical index or 'mark,distance'")
    p.add_argument("--order", type=int, default=200, help="series depth (default 200)")
    p.set_defaults(fn=cmd_series)

    p = sub.add_parser("orbits", help="orbit label, parity and exponent per positive root")
    add_common(p)
    p.set_defaults(fn=cmd_orbits)

    p = sub.add_parser("mckay", help="extended adjacency matrix and marks")
    add_common(p)
    p.set_defaults(fn=cmd_mckay)

    p = sub.add_parser("group", help="group order, class sizes, character dims")
    add_common(p)
    p.set_defaults(fn=cmd_group)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
            raise ValueError(f"cannot write --out {args.out}: its directory does not exist")
        if args.out and os.path.isdir(args.out):
            raise ValueError(f"cannot write --out {args.out}: it is a directory")
        return args.fn(args)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ConsistencyError, IndexError) as exc:
        print(f"internal check failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
