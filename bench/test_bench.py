"""Self-tests of the benchmark, at a tiny size.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted(workload, trace):
    code, result = _bench(workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in named}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_benchmark_json_names_match_the_code():
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)
    assert {m["name"] for m in SPEC["end_to_end"]} == {
        "setup_s", "wall_s", "op_p50_ms", "op_p99_ms", "peak_rss_mb"}
    assert {w["name"] for w in SPEC["workloads"]} <= set(inputs.WORKLOADS)


def _jacstab_bindings() -> dict:
    return {(module.__name__, key): value
            for module in tracing._jacstab_modules()
            for key, value in vars(module).items()}


def test_wrappers_are_restored_after_the_traced_pass(tmp_path):
    import jacstab.stability
    path = inputs.generate("sweep-small", 5, tmp_path, tiny=True)
    workload = workloads.load("sweep-small", str(path))
    before = _jacstab_bindings()
    tracer = tracing.Tracer()
    assert tracer.install() == []
    try:
        assert jacstab.stability.check is not before[("jacstab.stability", "check")]
        assert jacstab.check is jacstab.stability.check
        workload.run_pass(workloads.Recorder(tracer))
    finally:
        tracer.uninstall()
    assert tracer.leftovers() == []
    after = _jacstab_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    metrics = tracer.metrics(0.0)
    assert metrics["stability.check.calls"] > 0
    assert metrics["graphs.subcurve_builds_per_graph"] > 1
    scaled = tracer.metrics(0.0, time_scale=2.0)
    assert scaled["stability.check.self_s"] == pytest.approx(
        2 * metrics["stability.check.self_s"])
    assert scaled["stability.check.calls"] == metrics["stability.check.calls"]


def test_recorder_reports_each_operation_at_reference_speed():
    rec = workloads.Recorder(calibrate=True)
    for _ in range(3):
        rec.call(sum, range(1000))
    rec.call(calibrate.reference_work)
    normalized = rec.normalized()
    assert len(normalized) == len(rec.latencies) == 4
    assert len(rec.calibrations) >= 2
    assert all(t > 0 for t in normalized)
    # the reference work itself reads about REFERENCE_S
    assert calibrate.REFERENCE_S / 4 < normalized[-1] < \
        calibrate.REFERENCE_S * 4


def _run_worker(path: Path, workload: str) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        code = worker.main(["--workload", workload, "--inputs", str(path),
                            "--seconds", "0"])
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_corrupted_count_is_counted_as_failed(tmp_path, monkeypatch):
    path = inputs.generate("count-large", 4, tmp_path, tiny=True)
    clean = _run_worker(path, "count-large")
    assert clean["failed"] == 0

    run_pass = workloads.CountLarge.run_pass

    def corrupted(self, rec):
        outputs = run_pass(self, rec)
        code, stdout, stderr = outputs[0]
        count = json.loads(stdout)["count"]
        outputs[0] = (code, stdout.replace(str(count), str(count + 1)), stderr)
        return outputs

    monkeypatch.setattr(workloads.CountLarge, "run_pass", corrupted)
    result = _run_worker(path, "count-large")
    assert result["failed"] >= 1
    assert any("complexity" in failure for failure in result["failures"])


def test_corrupted_sweep_outputs_fail_verification(tmp_path):
    path = inputs.generate("sweep-small", 6, tmp_path, tiny=True)
    workload = workloads.load("sweep-small", str(path))
    outputs = workload.run_pass(workloads.Recorder())
    assert workload.verify(outputs) == []
    case = next(out for out in outputs
                if out["types"] and len(out["types"][0].degrees) > 1)
    sheaf = case["types"][0]
    (v, d), (w, e) = sheaf.degrees[:2]
    case["types"][0] = workloads.SheafType(
        nonfree_edges=sheaf.nonfree_edges,
        degrees=((v, d + 50), (w, e - 50)) + sheaf.degrees[2:])
    case["equiv"][0] = not case["equiv"][0]  # the first pair is equivalent
    failures = workload.verify(outputs)
    assert any("is unstable" in f for f in failures)
    assert any("Laplacian-related" in f for f in failures)
