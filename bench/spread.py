"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 10 --seconds 35 count-large sweep-small corpus-build

With ``--seeds 1`` this is the one command that runs every workload and
prints every end-to-end metric with its unit and ``failed_frac``; it exits
1 when any run fails verification.

For every workload, runs ``bench.py`` once per seed (1..N, one after the
other), then prints per metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread: the distance between
the quartiles as a share of the median.  This is the table of README.md.
The raw results go to ``out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}

    status = 0
    for workload in args.workloads:
        runs = []
        for seed in range(1, args.seeds + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "bench.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds)],
                capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        if not runs:
            continue
        (HERE / "out").mkdir(exist_ok=True)
        (HERE / "out" / f"spread-{workload}.json").write_text(
            json.dumps(runs, indent=1))
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, all correct: "
              f"{all(r['correct'] for r in runs)}, failed_frac = "
              f"{failed}/{attempted} = {failed / attempted:.6g}")
        print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) \
                if len(values) > 1 else (median, median, median)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            print(f"{name:40} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {'' if bound is None else bound:>6} "
                  f"{first['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
