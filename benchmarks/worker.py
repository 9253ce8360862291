"""One benchmark process: repeats a workload for a time budget and reports.

Started by run.py in a fresh process with the BLAS and OpenMP thread counts
pinned and ``src`` on the import path. Prints one JSON object holding the
wall time of every repetition, the outputs of the first one, the output
checks, the operation counts, the peak resident memory of this process and,
when traced, the per-layer metrics of every repetition.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def machine_info() -> dict:
    import numpy
    import scipy

    def proc_field(path, key):
        path = Path(path)
        if path.exists():
            for line in path.read_text().splitlines():
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
        return None

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": proc_field("/proc/cpuinfo", "model name") or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": (blas.get("openblas configuration")
                 or f"{blas.get('name')} {blas.get('version')}"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "process_threads": proc_field("/proc/self/status", "Threads:"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--min-reps", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--golden", type=Path, required=True)
    args = ap.parse_args(argv)

    import quadseq

    if not Path(quadseq.__file__).resolve().is_relative_to(SRC):
        print(f"quadseq imported from {quadseq.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import layers
    import workloads

    size = workloads.TINY if args.tiny else workloads.FULL
    golden = json.loads(args.golden.read_text())
    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        tracer.install()

    per_rep = workloads.operations(args.workload, size)
    rep_s, layer_reps, outputs, repeats = [], [], None, []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.reset()
        attempted += per_rep
        # Fresh inputs each time: a mesh caches its cell geometry.
        inputs = workloads.prepare(args.workload, args.seed, size)
        t0 = time.perf_counter()
        try:
            out, fails = workloads.run(args.workload, args.seed, size, inputs)
        except Exception:  # noqa: BLE001 - a failed repetition is counted and reported
            traceback.print_exc()
            out, fails = None, per_rep
        rep_s.append(time.perf_counter() - t0)
        failed += fails
        if out is None:
            break
        if tracer:
            layer_reps.append(tracer.metrics())
        if outputs is None:
            outputs = out
        else:
            repeats.append(out == outputs)
        if len(rep_s) >= args.min_reps and time.perf_counter() - start >= args.seconds:
            break

    if outputs is None:
        checks = [("outputs", False, "the workload raised")]
    else:
        checks = workloads.checks(args.workload, args.seed, size, outputs, golden)
        checks += [(f"repeat_{i + 2}_identical", ok, "") for i, ok in enumerate(repeats)]
    attempted += len(checks)
    failed += sum(not ok for _, ok, _ in checks)

    print(json.dumps({
        "rep_s": rep_s,
        "outputs": outputs,
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layer_reps,
        "machine": machine_info(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
