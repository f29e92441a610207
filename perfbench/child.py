"""One benchmark pass, run in its own process by run.py.

Usage: python3 perfbench/child.py WORKLOAD SEED WORKDIR SPAWNED MODE

SPAWNED is the parent's time.monotonic() just before it started this process,
so setup_s covers interpreter start, importing liplab, writing the inputs and
one warm-up LAPACK call.  MODE "setup" stops there.  MODE "run" and "trace"
then run the workload's jobs through liplab.cli.main, one after another, and
the timed region ends when the last report is on disk; "trace" records spans.
The pass writes pass.json (and, when traced, trace.json) into WORKDIR; run.py
checks the outputs after this process has exited.
"""

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def cpu_seconds() -> float:
    return sum(u.ru_utime + u.ru_stime for u in
               (resource.getrusage(resource.RUSAGE_SELF),
                resource.getrusage(resource.RUSAGE_CHILDREN)))


def main(argv) -> int:
    name, seed, workdir, spawned, mode = argv
    seed, workdir = int(seed), Path(workdir)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import liplab.cli
    from workloads import CONTROLS, WORKLOADS

    workload = {**WORKLOADS, **CONTROLS}[name]
    workload.make_inputs(seed, workdir)
    np.linalg.eigh(np.eye(8) + 1.0)  # warm-up LAPACK call
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    rss_setup = rss_bytes()
    cpu_start = cpu_seconds()
    setup_s = time.monotonic() - float(spawned)
    if mode == "setup":
        (workdir / "pass.json").write_text(json.dumps({"setup_s": setup_s}))
        return 0
    codes = []
    start = time.perf_counter()
    for job in workload.jobs(workdir):
        try:
            code = liplab.cli.main(job.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a raising job is a failed unit, not a failed pass
            traceback.print_exc()
            code = "raised"
        codes.append(code)
    wall_s = time.perf_counter() - start
    cpu_s = cpu_seconds() - cpu_start
    peak_kib = max(resource.getrusage(who).ru_maxrss
                   for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))

    record = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
              "peak_rss_mib": (peak_kib * 1024 - rss_setup) / 2 ** 20,
              "exit_codes": codes, "liplab": liplab.__file__}
    (workdir / "pass.json").write_text(json.dumps(record))
    if tracer:
        (workdir / "trace.json").write_text(json.dumps(tracer.dump()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
