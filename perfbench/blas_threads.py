"""Measure certify_large passes with one and with two BLAS threads.

    python3 perfbench/blas_threads.py [PASSES]

Alternates one-thread and two-thread passes (PASSES of each, default 4) at the
default seed and writes perfbench/blas_threads.json.  run.py copies that file
into the environment record of every result: it is the measured reason the
benchmark pins its processes to one BLAS thread.
"""

import json
import os
import shutil
import statistics
import sys
import time

from run import SPREAD_FILE, WORK, load_liplab, spawn_pass
from workloads import DEFAULT_SEED

WORKLOAD = "certify_large"


def main(argv) -> int:
    count = int(argv[0]) if argv else 4
    if load_liplab() is None:
        print("error: liplab sources not found", file=sys.stderr)
        return 2
    wall = {1: [], 2: []}
    for i in range(count):
        for threads in wall:
            workdir = WORK / f"threads{threads}-{i}"
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                _, record = spawn_pass(WORKLOAD, DEFAULT_SEED, workdir, "run", threads)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if record is None or any(code != 0 for code in record["exit_codes"]):
                print(f"error: {threads}-thread pass failed", file=sys.stderr)
                return 1
            wall[threads].append(record["wall_s"])
    summary = {"workload": WORKLOAD, "seed": DEFAULT_SEED, "measured": time.strftime("%Y-%m-%d"),
               "nproc": os.cpu_count(),
               "wall_s": {f"{t}_thread": {"passes": v, "median": statistics.median(v),
                                          "min": min(v), "max": max(v)}
                          for t, v in wall.items()}}
    SPREAD_FILE.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(json.dumps(summary["wall_s"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
