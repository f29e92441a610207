"""liplab benchmark: one workload, closed loop, one pass per child process.

    python3 perfbench/run.py --workload sweep_doi --seed 1 --seconds 36 --trace 0

Runs passes of the workload one after another (one client, closed loop), each
in a fresh child process pinned to one BLAS thread, until the next pass would
end after --seconds.  Every pass is checked outside its timed region (see
workloads.py).  With --trace 0 the result carries the end-to-end metrics as
medians over the passes; with --trace 1 the run alternates untraced and traced
passes and reports the per-layer metrics of the traced ones.  The last line of
standard output is the JSON result; the lines before it are a readable
summary and the environment.  A full record of the run is written to
.perfbench/results/ in the checkout.

The benchmark imports liplab only from src/ of the checkout it sits in and
exits with code 2 if that source tree is missing.
"""

import os

# One BLAS thread for every process of the benchmark, set before NumPy loads.
BLAS_THREADS = 1
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: str(BLAS_THREADS) for var in PINNED})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracer import MODULES, aggregate  # noqa: E402
from workloads import CONTROLS, DEFAULT_SEED, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# A hung pass is killed early enough for the run to end within 180 s.
PASS_TIMEOUT_S = 100
SPREAD_FILE = HERE / "blas_threads.json"
# Set-up-only processes before each untraced pass, so setup_s is a median of
# many samples spread over the whole run.
SETUP_SAMPLES_PER_PASS = 8

# Per-function metrics named by the benchmark's standing predictions (NOTES.md).
TRACED_FUNCTIONS = ("linalg.eigh_symmetric", "doi.doi_apply", "doi.check_birman_solomyak",
                    "functions.loewner_matrix", "functions.apply_function",
                    "measures.materialize", "certificate.build_certificate",
                    "certificate.partition", "certificate.verify_certificate",
                    "sweeps.emit_report")
SELF_TIME_MODULES = ("rng", "ideals", "sweeps", "cli")


def spawn_pass(name: str, seed: int, workdir: Path, mode: str = "run",
               threads: int = BLAS_THREADS):
    """Run child.py in MODE setup, run or trace; return (elapsed_s, pass record or None)."""
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), **{var: str(threads) for var in PINNED})
    argv = [sys.executable, str(HERE / "child.py"), name, str(seed), str(workdir)]
    spawned = time.monotonic()
    with open(workdir / "stdout.txt", "w") as out, open(workdir / "stderr.txt", "w") as err:
        try:
            proc = subprocess.run(argv + [repr(spawned), mode], stdout=out,
                                  stderr=err, env=env, timeout=PASS_TIMEOUT_S)
            returncode = proc.returncode
        except subprocess.TimeoutExpired:
            returncode = "timeout"
    elapsed = time.monotonic() - spawned
    record_file = workdir / "pass.json"
    if returncode != 0 or not record_file.is_file():
        tail = (workdir / "stderr.txt").read_text()[-2000:]
        print(f"pass process failed ({returncode}):\n{tail}", file=sys.stderr)
        return elapsed, None
    return elapsed, json.loads(record_file.read_text())


def run_pass(workload, seed: int, workdir: Path, trace: bool, inputs: Path, prepared) -> dict:
    """One pass plus its correctness gate; the pass directory is removed afterwards."""
    elapsed, record = spawn_pass(workload.name, seed, workdir, "trace" if trace else "run")
    result = {"trace": trace, "elapsed_s": elapsed, "units": workload.units}
    try:
        if record is None:
            result.update(failed=workload.units, problems=["pass process failed"])
            return result
        same_inputs = all((workdir / f.name).read_bytes() == f.read_bytes()
                          for f in inputs.iterdir())
        check = workload.check(workdir, record["exit_codes"], seed, prepared)
        failed = check.unit_ok.count(False) + max(0, workload.units - len(check.unit_ok))
        if not same_inputs:
            failed = workload.units
            check.problems.append("pass inputs differ from the parent's for the same seed")
        result.update(record, failed=failed, problems=check.problems,
                      byte_identical=check.byte_identical,
                      defect_rank_sum=check.defect_rank_sum)
        if trace:
            result["stats"] = aggregate(json.loads((workdir / "trace.json").read_text()))
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def layer_metrics(p: dict, operators: int) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    stats = p["stats"]

    def stat(name, key):
        return stats.get(name, {}).get(key, 0)

    def module_sum(module, key):
        return sum(v[key] for k, v in stats.items() if k.startswith(module + "."))

    out = {}
    for op, work_unit in (("eigh", "d3-computed"), ("qr", None), ("svd", "mnk-computed")):
        out[f"lapack.{op}_s"] = (stat(f"lapack.{op}", "total_s"), "s")
        out[f"lapack.{op}_calls"] = (stat(f"lapack.{op}", "calls"), "count")
        if work_unit:
            work_name = "lapack.eigh_d3" if op == "eigh" else f"lapack.{op}_work"
            out[work_name] = (stat(f"lapack.{op}", "work"), work_unit)
    for fn in TRACED_FUNCTIONS:
        out[f"{fn}.self_s"] = (stat(fn, "self_s"), "s")
        out[f"{fn}.calls"] = (stat(fn, "calls"), "count")
    for module in SELF_TIME_MODULES:
        out[f"{module}.self_s"] = (module_sum(module, "self_s"), "s")
    materialized = stat("measures.materialize", "calls")
    out["measures.materialize_per_operator"] = (
        materialized / operators if operators else 0.0, "calls/operator")
    out["measures.io_s"] = (stat("measures.read_kernel_operator", "total_s")
                            + stat("measures.write_kernel_operator", "total_s"), "s")
    out["certificate.defect_rank_sum"] = (p["defect_rank_sum"], "count")
    for module in MODULES:
        out[f"{module}.errors"] = (module_sum(module, "errors"), "count")
    return out


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    spread = json.loads(SPREAD_FILE.read_text()) if SPREAD_FILE.is_file() else None
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "blas": blas.get("name", "unknown"), "blas_version": blas.get("version", "unknown"),
            "blas_threads": BLAS_THREADS, "blas_thread_vars": list(PINNED),
            "numpy": np.__version__, "python": platform.python_version(),
            "blas_thread_spread": spread}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_liplab():
    """Import liplab from the checkout's src/ and nowhere else; None if it is absent."""
    if not (SRC / "liplab" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import liplab
    if Path(liplab.__file__).resolve().parent != (SRC / "liplab").resolve():
        return None
    return liplab


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # running pass and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    liplab = load_liplab()
    if liplab is None:
        print(f"error: liplab sources not found under {SRC}", file=sys.stderr)
        return 2
    workload = {**WORKLOADS, **CONTROLS}.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    # Fixed-width names: the length of the paths handed to the program shifts
    # its heap layout, which moved peak_rss_mib by 2 MiB between seeds 1 and 10.
    run_dir = WORK / f"{workload.name}-{os.getpid():08d}"
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = run_dir / "inputs"
    inputs.mkdir(parents=True)
    passes, setups = [], []
    try:
        workload.make_inputs(args.seed, inputs)
        prepared = workload.prepare(args.seed, inputs, liplab)
        kinds = (False, True) if args.trace else (False,)
        last = {}
        start = time.monotonic()
        while True:
            trace = kinds[len(passes) % len(kinds)]
            step_start = time.monotonic()
            if len(passes) >= len(kinds) and step_start - start + last[trace] > args.seconds:
                break
            for i in range(0 if trace else SETUP_SAMPLES_PER_PASS):
                workdir = run_dir / f"setup{len(passes):03d}-{i}"
                _, record = spawn_pass(workload.name, args.seed, workdir, "setup")
                shutil.rmtree(workdir, ignore_errors=True)
                if record is not None:
                    setups.append(record["setup_s"])
            passes.append(run_pass(workload, args.seed, run_dir / f"pass{len(passes):03d}",
                                   trace, inputs, prepared))
            last[trace] = time.monotonic() - step_start
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    timed = [p for p in passes if "wall_s" in p]
    plain = [p for p in timed if not p["trace"]]
    traced = [p for p in timed if p["trace"]]
    if not plain or (args.trace and not traced):
        print("error: no pass completed; see the messages above", file=sys.stderr)
        return 1
    attempted = sum(p["units"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    if args.trace:
        per_pass = [layer_metrics(p, workload.operators) for p in traced]
        metrics = {name: (statistics.median(m[name][0] for m in per_pass), unit)
                   for name, (_, unit) in per_pass[0].items()}
        cpu_s = median_of(plain, "cpu_s")
        metrics["process.cpu_s"] = (cpu_s, "s")
        metrics["process.cpu_util"] = (cpu_s / median_of(plain, "wall_s"), "share")
        metrics["tracing.overhead_share"] = (
            median_of(traced, "wall_s") / median_of(plain, "wall_s") - 1.0, "share")
    else:
        metrics = {"wall_s": (median_of(plain, "wall_s"), "s"),
                   "peak_rss_mib": (median_of(plain, "peak_rss_mib"), "MiB"),
                   "setup_s": (statistics.median(setups + [p["setup_s"] for p in plain]), "s")}

    env = environment()
    identical = sum(p.get("byte_identical", 0) for p in passes)
    outputs = len(workload.jobs(Path("."))) * len(passes)
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} passes ({len(plain)} untraced, {len(traced)} traced)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  {'error_share':40s} {failed / attempted:14.6g} share  "
          f"({failed} of {attempted} units failed)")
    if not args.trace:
        print(f"  {'throughput':40s} {workload.units / metrics['wall_s'][0]:14.6g} units/s")
    if args.seed == DEFAULT_SEED and workload.has_reference:
        print(f"  reference: values compared to 1e-9 (a mismatch fails its unit); "
              f"{identical} of {outputs} outputs byte-identical")
    else:
        print(f"  reference: none at seed {args.seed} (invariant checks only)")
    for i, p in enumerate(passes):
        for problem in p.get("problems", []):
            print(f"  pass {i}: {problem}")
    print("environment " + json.dumps(env, sort_keys=True))

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record = {"args": vars(args), "environment": env, "result": result, "setup_samples": setups,
              "passes": [{k: v for k, v in p.items() if k != "stats"} for p in passes]}
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
