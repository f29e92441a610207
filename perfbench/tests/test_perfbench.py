"""Tests of the benchmark harness itself (about 65 s: two traced passes per workload).

    python3 -m pytest perfbench/tests -q
"""

import shutil
import subprocess
import sys

import pytest

from run import ROOT, WORK, layer_metrics, load_liplab, run_pass
from workloads import CONTROLS, DEFAULT_SEED, WORKLOADS

EXACT = ("lapack.eigh_calls", "lapack.eigh_d3", "lapack.svd_calls", "lapack.svd_work",
         "lapack.qr_calls", "certificate.defect_rank_sum", "measures.materialize_per_operator")


def passes(workload, count, trace, tag):
    """`count` checked passes of a workload at the default seed."""
    liplab = load_liplab()
    assert liplab is not None
    run_dir = WORK / f"test-{tag}-{workload.name}"
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = run_dir / "inputs"
    inputs.mkdir(parents=True)
    try:
        workload.make_inputs(DEFAULT_SEED, inputs)
        prepared = workload.prepare(DEFAULT_SEED, inputs, liplab)
        return [run_pass(workload, DEFAULT_SEED, run_dir / f"pass{i}", trace, inputs, prepared)
                for i in range(count)]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    workload = WORKLOADS[name]
    first, second = passes(workload, 2, True, "trace")
    assert first["failed"] == second["failed"] == 0
    a = layer_metrics(first, workload.operators)
    b = layer_metrics(second, workload.operators)
    exact = [k for k in a if k.endswith(".calls") or k.endswith(".errors") or k in EXACT]
    assert {k: a[k] for k in exact} == {k: b[k] for k in exact}
    calls = {k: v for k, (v, _) in a.items()}
    if name == "sweep_doi":
        assert calls["lapack.eigh_calls"] == 250
        assert calls["doi.doi_apply.calls"] == 125
        assert calls["measures.materialize.calls"] == 0
    else:
        assert calls["lapack.eigh_calls"] == 0
        assert calls["doi.doi_apply.calls"] == 0
        assert calls["measures.materialize_per_operator"] == 21


def test_failing_unit_is_counted_and_pass_continues():
    workload = CONTROLS["control_missing_nu"]
    (result,) = passes(workload, 1, False, "control")
    assert result["exit_codes"] == [2, 0]
    assert result["units"] == 1 + 5
    assert result["failed"] == 1
    assert result["problems"] == ["broken.json: exit 2"]


def test_exits_nonzero_without_the_program():
    bare = WORK / "test-bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep_doi",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
