"""The benchmark's span tracer (``benchmarks/layers.py``) replaces named
quadseq functions and classes with timed wrappers, so a refactor that drops
one of those names breaks ``benchmarks/run.py --trace 1``, and one that uses
a wrapped name as a type (``isinstance(dofmap, VectorDofMap)``) breaks the
traced run itself. The tier-1 run collects only ``tests/``; these tests
install the tracer from here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INSTALL = "import sys; sys.path[:0] = sys.argv[1:]; import layers; layers.Tracer().install()"

# The tiny stokes-rect and certify-random workloads under the tracer, with
# the benchmark's output checks and golden values.
TRACED_RUN = INSTALL + """
import json
import workloads
golden = json.loads(open(sys.argv[1] + "/golden.json").read())
for name in ("stokes-rect", "certify-random"):
    inputs = workloads.prepare(name, 1, workloads.TINY)
    outputs, failed = workloads.run(name, 1, workloads.TINY, inputs)
    checks = workloads.checks(name, 1, workloads.TINY, outputs, golden)
    assert any(check.startswith("golden_") for check, _, _ in checks), name
    bad = [check for check, ok, _ in checks if not ok]
    assert failed == 0 and not bad, (name, failed, bad)
"""


def _run(script):
    # In a subprocess, so the wrappers stay out of this test session.
    return subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "benchmarks"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=170,
    )


def test_benchmark_tracer_installs():
    proc = _run(INSTALL)
    assert proc.returncode == 0, proc.stderr


def test_traced_workloads_pass_their_checks():
    proc = _run(TRACED_RUN)
    assert proc.returncode == 0, proc.stderr
