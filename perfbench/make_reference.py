"""Write the stored reference outputs of every workload at the default seed.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs one untraced pass per workload at workloads.DEFAULT_SEED and copies its
report files into perfbench/reference/<workload>/.  Later runs at that seed
compare their reports with these files (values to 1e-9 relative, and a count
of byte-identical files).  Regenerate only for a declared change of report
values.
"""

import shutil
import sys
from pathlib import Path

from run import WORK, load_liplab, spawn_pass
from workloads import DEFAULT_SEED, REFERENCE_DIR, WORKLOADS


def main(names) -> int:
    if load_liplab() is None:
        print("error: liplab sources not found", file=sys.stderr)
        return 2
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        workdir = WORK / f"reference-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            _, record = spawn_pass(name, DEFAULT_SEED, workdir)
            if record is None or any(code != 0 for code in record["exit_codes"]):
                print(f"error: reference pass of {name} failed", file=sys.stderr)
                return 1
            target = REFERENCE_DIR / name
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            for job in workload.jobs(workdir):
                shutil.copyfile(job.output, target / Path(job.output).name)
            print(f"wrote {target}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
