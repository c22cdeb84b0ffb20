"""One measured run of one workload, in a fresh interpreter.

Started by ``bench.py``; prints one JSON object on its last stdout line.
The set-up clock covers importing jacstab and loading the generated
inputs into memory.  Then passes over the workload's fixed operation list
repeat in one closed loop until ``--seconds`` have passed (at least
MIN_PASSES times).  Every time is reported at reference speed (see
``calibrate.py``): set-up against calibrations run right after it, each
operation against the calibrations around it.  Each pass gives its total
and its per-operation quantiles; the run reports their medians over the
passes.  After the clock stops, the first pass's outputs are verified and
the last pass's outputs are compared with them.  With ``--trace 1``,
TRACED_PASSES more passes run with the module-boundary wrappers of
``tracing.py`` installed, each with a fresh tracer that is removed before
the next pass; the per-layer metrics come from the fastest of them at
reference speed, with its self times put at reference speed too.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
TRACED_PASSES = 3
SETUP_CALIBRATIONS = 3


def pass_figures(latencies: list[float]) -> tuple[float, ...]:
    """A pass's total and its p50, p90, p95 and p99 per-operation latency."""
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return (sum(latencies), cuts[49], cuts[89], cuts[94], cuts[98])


def medians(rows: list[tuple[float, ...]]) -> list[float]:
    """Column-wise medians over passes."""
    return [statistics.median(column) for column in zip(*rows)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--expect-sha256", default=None,
                        help="stored output digest to compare against")
    args = parser.parse_args(argv)

    start = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import jacstab
    if not Path(jacstab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"jacstab imported from {jacstab.__file__}, not from the "
              f"checkout's src/", file=sys.stderr)
        return 2
    import calibrate
    import workloads
    workload = workloads.load(args.workload, args.inputs)
    setup_s = perf_counter() - start
    calibrate.reference_work()  # warm-up, untimed
    setup_s *= calibrate.REFERENCE_S / statistics.mean(
        calibrate.calibration_s() for _ in range(SETUP_CALIBRATIONS))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    passes = 0
    per_pass = []  # per pass: wall, p50, p90, p95, p99 at reference speed
    attempted = 0
    ops_per_pass = None
    failures: list[str] = []
    first_outputs = outputs = None
    deadline = perf_counter() + args.seconds
    while passes < MIN_PASSES or perf_counter() < deadline:
        outputs = None  # keep only the first and the current pass
        gc.collect()
        rec = workloads.Recorder(calibrate=True)
        outputs = workload.run_pass(rec)
        passes += 1
        attempted += len(rec.latencies)
        per_pass.append(pass_figures(rec.normalized()))
        if first_outputs is None:
            first_outputs, ops_per_pass = outputs, len(rec.latencies)
        elif len(rec.latencies) != ops_per_pass:
            failures.append(f"pass {passes} ran {len(rec.latencies)} "
                            f"operations, pass 1 ran {ops_per_pass}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    first_lines = workload.serialize(first_outputs)
    failures += [f"last pass: output {i} differs from pass 1"
                 for i, (a, b) in enumerate(
                     zip(workload.serialize(outputs), first_lines)) if a != b]
    failures += workload.verify(first_outputs)
    digest = workloads.digest(first_lines)
    if args.expect_sha256 and digest != args.expect_sha256:
        failures.append(f"output digest {digest} differs from the stored "
                        f"digest {args.expect_sha256}")

    wall_s, p50, p90, p95, p99 = medians(per_pass)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "passes": passes,
        "op_p50_ms": p50 * 1e3,
        "op_p99_ms": p99 * 1e3,
        "op_quantiles_ms": {"p90": p90 * 1e3, "p95": p95 * 1e3,
                            "p99": p99 * 1e3},
        "ops_per_pass": ops_per_pass,
        "peak_rss_mb": peak_rss_mb,
        "digest": digest,
    }

    if args.trace:
        import tracing
        traced = []  # per traced pass: wall at reference speed, scale, tracer
        for _ in range(TRACED_PASSES):
            tracer = tracing.Tracer()
            missing = tracer.install()
            try:
                rec = workloads.Recorder(tracer, calibrate=True)
                outputs = workload.run_pass(rec)
            finally:
                tracer.uninstall()
            attempted += len(rec.latencies)
            failures += [f"wrapper left in place: {name}"
                         for name in tracer.leftovers()]
            failures += [f"traced pass: output {i} differs from untraced"
                         for i, (a, b) in enumerate(
                             zip(workload.serialize(outputs), first_lines))
                         if a != b]
            traced.append((sum(rec.normalized()), calibrate.REFERENCE_S /
                           statistics.mean(rec.calibrations), tracer))
        if missing:
            print(f"not traced (missing in jacstab): {missing}",
                  file=sys.stderr)
        traced_wall = statistics.median(wall for wall, _, _ in traced)
        _, scale, tracer = min(traced, key=lambda item: item[0])
        result["per_layer"] = tracer.metrics(traced_wall - wall_s, scale)
        if args.spans_out:
            tracer.write_spans(args.spans_out)

    result.update(attempted=attempted, failed=min(len(failures), attempted),
                  failures=failures[:20])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
