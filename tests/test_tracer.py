"""The benchmark's span tracer (``benchmarks/layers.py``) replaces named
quadseq functions and classes with timed wrappers, so a refactor that drops
one of those names breaks ``benchmarks/run.py --trace 1``. The tier-1 run
collects only ``tests/``; this test installs the tracer from here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INSTALL = "import sys; sys.path[:0] = sys.argv[1:]; import layers; layers.Tracer().install()"


def test_benchmark_tracer_installs():
    # In a subprocess, so the wrappers stay out of this test session.
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL, str(ROOT / "benchmarks"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
