"""jacstab benchmark: one workload, one seed, one closed-loop client.

    python3 bench/bench.py --workload sweep-small --seed 1 --seconds 35 --trace 0

Writes the workload's inputs from the seed (untimed), measures set-up time
in SETUP_PROBES fresh interpreters, then runs the workload in one more
fresh interpreter (``worker.py``) for ``--seconds``.  Prints every metric
with its unit, a metadata line, and as the last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones from a traced pass.  Exits 1 when any output fails verification and 2
when the benchmark cannot run at all (for example without ``src/jacstab``).
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 9
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in sorted((ROOT / "src" / "jacstab").glob("*.py")))


def run_worker(argv: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *argv], cwd=ROOT,
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's self-tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "jacstab" / "__init__.py").is_file():
        print(f"error: no jacstab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_dir = OUT / f"{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}"
    inputs_path = inputs.generate(args.workload, args.seed, run_dir, args.tiny)
    common = ["--workload", args.workload, "--inputs", str(inputs_path)]
    expected = json.loads((HERE / "expected.json").read_text())
    if args.seed == expected["seed"] and not args.tiny:
        common += ["--expect-sha256", expected["sha256"][args.workload]]
    try:
        probes = [] if args.trace else [
            run_worker(common + ["--seconds", "0", "--setup-only"])["setup_s"]
            for _ in range(SETUP_PROBES)]
        result = run_worker(common + [
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--spans-out", str(run_dir / "spans.json")])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        import tracing
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in tracing.PER_LAYER.items()}
    else:
        values = dict(result, setup_s=statistics.median(
            probes + [result["setup_s"]]))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    attempted, failed = result["attempted"], result["failed"]
    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "commit": commit(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "src_jacstab_lines": src_lines(),
        "output_sha256": result["digest"], "passes": result["passes"],
        "ops_per_pass": result["ops_per_pass"],
        "op_quantiles_ms": result["op_quantiles_ms"],
        "failed_frac": failed / attempted, "failures": result["failures"],
    }
    for failure in result["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"failed_frac = {failed}/{attempted} = {failed / attempted:.6g}")
    print("meta " + json.dumps(meta))
    (run_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "metrics": metrics}, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
