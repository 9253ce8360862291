"""Write golden.json: the outputs each workload's checks pin, per seed.

    python3 benchmarks/make_golden.py --seeds 0-31

Runs every workload once per seed, full size and tiny, in the same pinned
single-threaded processes as run.py, and records the outputs the checks
compare to 1e-10 relative (the study errors; the certificate workload's
ranks and inf-sup constants). Run it only on a commit whose outputs are
meant to hold; a later change must reproduce them.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from run import GOLDEN, SRC, WORKLOADS, child_env, run_worker

sys.path.insert(0, str(SRC))
from workloads import golden_key, golden_values  # noqa: E402 - imports quadseq from SRC


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("0-31"))
    args = ap.parse_args(argv)

    golden = {}
    env = child_env()
    with tempfile.TemporaryDirectory() as tmp:
        empty = Path(tmp) / "golden.json"
        empty.write_text("{}")
        for workload in WORKLOADS:
            for kind, tiny in (("full", False), ("tiny", True)):
                table = golden.setdefault(workload, {}).setdefault(kind, {})
                for seed in args.seeds:
                    key = golden_key(workload, seed)
                    if key in table:
                        continue
                    res = run_worker(env, time.monotonic() + 600, workload=workload,
                                     seed=seed, seconds=0, trace=False, tiny=tiny,
                                     golden=empty)
                    if res["failed"]:
                        print(f"{workload} {kind} seed {seed}: failed checks "
                              f"{[c for c in res['checks'] if not c[1]]}", file=sys.stderr)
                        return 1
                    table[key] = golden_values(workload, res["outputs"])
                    print(f"{workload} {kind} seed {seed}: {res['rep_s'][0]:.2f} s",
                          flush=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
