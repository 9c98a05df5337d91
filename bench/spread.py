"""Run-to-run spread of the end-to-end metrics, as the bounds are judged.

    python3 bench/spread.py --workload point-levels --seeds 1 2 3 4 5

Runs ``bench/run.py --trace 0`` once per seed, one run at a time, for
``run_seconds`` from ``BENCHMARK.json``, then prints for each metric
its median and its interquartile range as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def relative_spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload]
        cmd += ["--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        print(
            f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']}",
            flush=True,
        )
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'metric':<20} {'median':>12} {'spread':>8} {'bound':>6}  values")
    for name, vals in values.items():
        spread = relative_spread(vals) if len(vals) > 1 else 0.0
        flag = "" if spread < bounds[name] / 3 else "  <-- above bound/3"
        shown = " ".join(f"{v:.4g}" for v in vals)
        print(
            f"{name:<20} {statistics.median(vals):>12.4f} {spread:>8.3f} "
            f"{bounds[name]:>6.2f}  {shown}{flag}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
