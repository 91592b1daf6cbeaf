"""Smoke test of the benchmark harness at toy sizes (a few seconds).

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# per-workload figures printed as "# extra" lines beside the gated metrics
EXTRAS = {"ops": "count", "error_rate": "ratio", "op_p50_s": "s"}
WORKLOAD_EXTRAS = {
    "exact_branches": {"branches_per_s": "1/s"},
    "sampling": {"trials_per_s": "1/s", "trajectories_per_s": "1/s"},
    "evolution": {"terms_per_s": "1/s"},
}


def bench(*args, root=ROOT):
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=170)


def tiny(workload, trace, seed=3):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    extras = {}
    for line in lines:
        if line.startswith("# extra "):
            name, printed = line[len("# extra "):].split(" = ")
            value, unit = printed.rsplit(" ", 1)
            extras[name] = (float(value), unit)
    return json.loads(lines[-1]), extras


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    result, extras = tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name
    if not trace:
        expected = dict(EXTRAS, **WORKLOAD_EXTRAS[workload])
        if extras["ops"][0] >= 100:
            expected["op_p90_s"] = "s"
        assert {name: extras[name][1] for name in expected if name in extras} == expected
        assert extras["error_rate"][0] == 0


def test_traced_work_counts_repeat_exactly():
    runs = [tiny("sampling", 1)[0], tiny("sampling", 1)[0]]
    counts = [{name: m["value"] for name, m in r["metrics"].items() if m["unit"] == "count"}
              for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["costs.trial.count"] > 0


def test_speedometer_costs_reference_work_at_one_unit_per_reference():
    sys.path.insert(0, str(HERE))
    import speed

    with speed.Speedometer() as meter:
        start = time.perf_counter()
        for _ in range(600):
            speed.reference()
        end = time.perf_counter()
    assert len(meter.seconds) >= speed.REF_MIN_SAMPLES
    assert 0 < meter.seconds_between(start, end) < end - start
    assert 0.7 < meter.cost(start, end) / 600 < 1.3


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_compare_refuses_mixed_backends(tmp_path):
    record = {"workload": "evolution", "seed": 1, "trace": 0, "work": {},
              "result": {"correct": True, "failed": 0, "metrics": {}}}
    for name, backend in (("a.jsonl", "python"), ("b.jsonl", "compiled")):
        (tmp_path / name).write_text(json.dumps(dict(record, env={"backend": backend})) + "\n")
    proc = subprocess.run([sys.executable, str(HERE / "compare.py"), str(tmp_path / "a.jsonl"),
                           str(tmp_path / "b.jsonl")], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "backend" in proc.stderr
