"""Smoke test of the benchmark on the coarsest meshes.

    python -m pytest benchmarks/test_smoke.py -q

Runs every workload through run.py with --tiny, traced and untraced, and
checks the result line against BENCHMARK.json; shows that a perturbed golden
value counts as a failed operation; and that a directory without the quadseq
sources is refused.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, run=HERE / "run.py"):
    return subprocess.run([sys.executable, str(run), "--seconds", "0", "--tiny", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    res = result(bench("--workload", workload, "--seed", "1", "--trace", str(trace)))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in want}
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_perturbed_golden_value_is_a_failure(tmp_path):
    golden = json.loads((HERE / "golden.json").read_text())
    golden["stokes-rect"]["tiny"]["*"]["velocity_ah"][0] *= 1 + 1e-8
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    res = result(bench("--workload", "stokes-rect", "--seed", "1", "--trace", "0",
                       "--golden", str(path)))
    assert not res["correct"] and res["failed"] == 1


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "stokes-rect", "--seed", "1", "--trace", "0",
                 cwd=tmp_path, run=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
