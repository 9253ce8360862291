"""quadseq benchmark: one workload, one run, every metric with its unit.

    python3 benchmarks/run.py --workload scalar-random --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; quadseq is imported from ``src``.
With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s``, the
median wall time of several fresh processes importing quadseq; ``run_s``,
the median wall time of one repetition of the workload's calls; and
``peak_rss_mb``, the peak resident memory of the process that ran them.
With ``--trace 1`` it runs the workload once untraced and once traced, each
in its own process, and reports the per-layer metrics of the traced process,
the tracing overhead and whether both produced bit-identical outputs.

Every process runs single-threaded, with the BLAS and OpenMP thread counts
pinned to BLAS_THREADS. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; failed counts failed
level solves, certificates and output checks. Exits with 2 if the checkout
holds no quadseq sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from layers import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
WORKLOADS = ("scalar-random", "stokes-rect", "certify-random")

BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_STARTS = 7          # timed cold imports, after one untimed start
MIN_REPS = 3              # run_s is the median of at least this many repetitions
DEADLINE_S = 170.0        # every process of a run ends within this

END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB")]


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(env, deadline) -> list:
    """Wall time of fresh processes that import quadseq; the first, untimed
    start compiles the bytecode a user's later calls reuse.

    The wait blocks in waitpid, so it returns the moment the child exits;
    subprocess.run with a timeout polls instead, in steps of up to 50 ms.
    """
    times = []
    for i in range(SETUP_STARTS + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", "import quadseq"], env=env, cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        if code != 0:
            raise subprocess.CalledProcessError(code, proc.args)
        if i:
            times.append(time.perf_counter() - t0)
    return times


def run_worker(env, deadline, *, workload, seed, seconds, trace, tiny, golden,
               min_reps=1) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
           "--min-reps", str(min_reps), "--golden", str(golden)] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median_layers(reps: list) -> dict:
    names = {k for rep in reps for k in rep}
    return {k: statistics.median(rep.get(k, 0) for rep in reps) for k in names}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="repeat the workload until this much time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="coarsest meshes only, for the benchmark's smoke test")
    ap.add_argument("--golden", type=Path, default=GOLDEN,
                    help="outputs pinned per workload and seed")
    args = ap.parse_args(argv)

    if not (SRC / "quadseq" / "__init__.py").is_file():
        print(f"no quadseq sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if BLAS_THREADS > (os.cpu_count() or 1):
        print(f"BLAS_THREADS={BLAS_THREADS} exceeds the {os.cpu_count()} CPUs",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    common = dict(workload=args.workload, seed=args.seed, tiny=args.tiny,
                  golden=args.golden)
    if args.trace:
        plain = run_worker(env, deadline, seconds=args.seconds / 2, trace=False, **common)
        traced = run_worker(env, deadline, seconds=args.seconds / 2, trace=True, **common)
        workers = [plain, traced]
        identical = plain["outputs"] == traced["outputs"]
        extra_checks = [("traced_outputs_identical", identical, "")]
        layers_by_name = _median_layers(traced["layers"])
        layers_by_name["trace.overhead_s"] = (statistics.median(traced["rep_s"])
                                             - statistics.median(plain["rep_s"]))
    else:
        setup = measure_setup(env, deadline)
        plain = run_worker(env, deadline, seconds=args.seconds, trace=False,
                           min_reps=MIN_REPS, **common)
        workers = [plain]
        extra_checks = []

    kinds = ("untraced", "traced")
    checks = [(f"{kind}.{name}", ok, detail) for kind, w in zip(kinds, workers)
              for name, ok, detail in w["checks"]] + extra_checks
    attempted = sum(w["attempted"] for w in workers) + len(extra_checks)
    failed = sum(w["failed"] for w in workers) + sum(not ok for _, ok, _ in extra_checks)

    if args.trace:
        layers_by_name["checks.fail_frac"] = failed / attempted
        metrics = {name: {"value": layers_by_name.get(name, 0), "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        values = {"setup_s": statistics.median(setup),
                  "run_s": statistics.median(plain["rep_s"]),
                  "peak_rss_mb": plain["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}"
          f"{' tiny' if args.tiny else ''}")
    print("machine " + json.dumps(plain["machine"], sort_keys=True))
    for kind, w in zip(kinds, workers):
        print(f"{kind} repetitions: {len(w['rep_s'])}, wall s "
              + ", ".join(f"{t:.3f}" for t in w["rep_s"]))
    if not args.trace:
        print("setup starts s " + ", ".join(f"{t:.3f}" for t in setup))
    for name, ok, detail in checks:
        print(f"check {name}: {'pass' if ok else 'FAIL'} {detail}".rstrip())
    print(f"fail_frac = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
