import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from liplab import doi, sweeps
from liplab.doi import doi_apply
from liplab.errors import SoundnessError, ValidationError
from liplab.functions import absolute_value, identity_function
from liplab.ideals import (s_Omega_norm, s_omega_norm, schatten_norm, singular_spectrum,
                           weak_s1_quasinorm)
from liplab.linalg import eigh_symmetric
from liplab.rng import make_rng, random_orthogonal, random_symmetric, random_trace_spectrum
from liplab.sweeps import ExperimentReport, SweepConfig, emit_report, load_config, run_sweep

BASE = {"experiment": "rank_one", "dimensions": [4, 8], "ensemble": 3, "seed": 11,
        "function": {"kind": "abs"}}


def cfg_with(**overrides) -> SweepConfig:
    data = dict(BASE)
    data.update(overrides)
    return load_config(data)


def test_config_validation():
    with pytest.raises(ValidationError):
        cfg_with(experiment="mystery")
    with pytest.raises(ValidationError):
        cfg_with(dimensions=[1, 4])
    with pytest.raises(ValidationError):
        cfg_with(dimensions=[])
    with pytest.raises(ValidationError):
        cfg_with(ensemble=0)
    with pytest.raises(ValidationError):
        cfg_with(function={"kind": "wat"})
    with pytest.raises(ValidationError):
        cfg_with(experiment="interp")  # missing p and epsilon
    with pytest.raises(ValidationError):
        cfg_with(experiment="interp", p=0.5, epsilon=0.5)
    with pytest.raises(ValidationError):
        cfg_with(experiment="interp", p=1.0, epsilon=0.0)
    with pytest.raises(ValidationError):
        cfg_with(format="xml")
    with pytest.raises(ValidationError):
        cfg_with(n_values=[0])
    with pytest.raises(ValidationError, match="'dimensions', 'ensemble', 'seed', 'function'"):
        load_config({"experiment": "rank_one"})
    with pytest.raises(ValidationError, match="unknown fields \\['bogus_field'\\]"):
        load_config(dict(BASE, bogus_field=1))
    for bad in ({"dimensions": 5}, {"n_values": 4}, {"ensemble": "x"}, {"seed": "abc"},
                {"dimensions": [4, None]}, {"experiment": "interp", "p": "x", "epsilon": 0.5},
                {"emit_curves": "no"},
                # The output path is a CLI setting (--out), not a config field.
                {"out": 1}, {"out": 3.5}, {"out": "report.csv"},
                # The function a config builds from "function" is not a field either.
                {"f": {"kind": "abs"}},
                # A function kind that is not a string, and fields no constructor takes.
                {"function": {"kind": ["abs"]}}, {"function": {"kind": {"abs": 1}}},
                {"function": {"kind": "smooth_ramp", "delat": 0.5}},
                {"function": {"kind": "abs", "t": 3}},
                {"function": {"kind": "shifted_abs", "t": 3, "seed": 1}},
                # Sizes no instance could allocate, and an ensemble too long to list.
                {"dimensions": [4, 10 ** 10]}, {"ensemble": 10 ** 10}):
        with pytest.raises(ValidationError):
            cfg_with(**bad)


def test_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE))
    cfg = load_config(path)
    assert cfg.dimensions == (4, 8)
    with pytest.raises(ValidationError):
        load_config(tmp_path / "missing.json")
    path.write_text("{broken")
    with pytest.raises(ValidationError):
        load_config(path)


@pytest.mark.parametrize("experiment,extra", [
    ("rank_one", {}),
    ("trace_class", {}),
    ("matsaev", {}),
    ("interp", {"p": 1.0, "epsilon": 0.5}),
])
def test_row_count_and_finiteness(experiment, extra):
    cfg = cfg_with(experiment=experiment, **extra)
    report = run_sweep(cfg)
    assert len(report.rows) == cfg.ensemble * len(cfg.dimensions)
    for row in report.rows:
        for col in report.columns:
            value = row[col]
            if isinstance(value, float):
                assert math.isfinite(value)
    assert set(report.summary["max_per_dimension"]) == {"4", "8"}


def test_certificate_sweep_rows():
    cfg = cfg_with(experiment="certificate", dimensions=[20, 30], ensemble=2,
                   n_values=[2, 4])
    report = run_sweep(cfg)
    assert len(report.rows) == 2 * 2  # one row per instance
    assert report.summary["fitted_K_bound_max"] > 0
    for row in report.rows:
        for n in (2, 4):
            assert row[f"rank_n{n}"] <= 7 * n
            assert row[f"s_r_n{n}"] <= row[f"bound_n{n}"] + 1e-9
            assert row[f"bound_n{n}"] <= row[f"analytic_n{n}"] + 1e-9
        assert row["fitted_K_bound"] >= 2 * row["bound_n2"]


def test_repeated_n_values_give_one_column_each(tmp_path):
    cfg = cfg_with(experiment="certificate", dimensions=[12], ensemble=1, n_values=[4, 4])
    report = run_sweep(cfg)
    assert report.columns == list(report.rows[0])
    assert report.columns.count("bound_n4") == 1
    emit_report(report, str(tmp_path / "r.csv"))
    assert (tmp_path / "r.csv").read_text().splitlines()[0] == ",".join(report.columns)


def test_trace_class_identity_trivial_bound():
    # With the identity symbol and generically disjoint spectra the integral
    # returns T, so rho = s_Omega(T) / ||T||_S1 <= 1 / ln 2.
    cfg = cfg_with(experiment="trace_class", function={"kind": "identity"})
    report = run_sweep(cfg)
    for row in report.rows:
        assert row["rho"] <= 1.0 / math.log(2.0) + 1e-9


def test_interp_identity_trivial_bound():
    cfg = cfg_with(experiment="interp", function={"kind": "identity"}, p=1.0, epsilon=0.5)
    report = run_sweep(cfg)
    for row in report.rows:
        assert row["rho"] <= 1.0 + 1e-9  # Schatten monotonicity


def test_matsaev_rank_one_ratio_is_one():
    # Rank-one T: operator norm equals the Matsaev norm, so with identity f
    # and disjoint spectra the ratio is exactly 1.
    rng = make_rng(77)
    d1 = eigh_symmetric(random_symmetric(rng, 6) + 10 * np.eye(6))
    d2 = eigh_symmetric(random_symmetric(rng, 6) - 10 * np.eye(6))
    t = np.outer(rng.standard_normal(6), rng.standard_normal(6))
    q = doi_apply(identity_function(), d1, d2, t)
    spec_q = singular_spectrum(q)
    spec_t = singular_spectrum(t)
    rho = spec_q[0] / s_omega_norm(spec_t)
    assert rho == pytest.approx(1.0, rel=1e-9)


def test_ratios_scale_invariant():
    rng = make_rng(78)
    f = absolute_value()
    d1 = eigh_symmetric(random_symmetric(rng, 10))
    d2 = eigh_symmetric(random_symmetric(rng, 10))
    sigma = random_trace_spectrum(rng, 10)
    t = (random_orthogonal(rng, 10) * sigma) @ random_orthogonal(rng, 10).T
    for functional, denom in (
        (weak_s1_quasinorm, lambda s: s[0]),
        (s_Omega_norm, lambda s: schatten_norm(s, 1)),
        (lambda s: s[0], s_omega_norm),
        (lambda s: schatten_norm(s, 1.5), lambda s: schatten_norm(s, 1.0)),
    ):
        base_spec = singular_spectrum(doi_apply(f, d1, d2, t))
        scaled_spec = singular_spectrum(doi_apply(f, d1, d2, 10.0 * t))
        rho = functional(base_spec) / denom(singular_spectrum(t))
        rho10 = functional(scaled_spec) / denom(singular_spectrum(10.0 * t))
        assert rho10 == pytest.approx(rho, rel=1e-10)


def test_fdelta_ratio_scale_invariant_for_abs():
    # abs is positively homogeneous, so scaling (A, B) jointly leaves the
    # weak-norm ratio unchanged.
    rng = make_rng(79)
    a = random_symmetric(rng, 8)
    b = a + 0.7 * np.outer(*(2 * [rng.standard_normal(8)]))
    b = 0.5 * (b + b.T)
    f = absolute_value()
    op_norm = lambda m: float(singular_spectrum(m)[0])
    spec = lambda s: singular_spectrum(doi.birman_solomyak_delta(f, s * a, s * b)[0])
    rho = weak_s1_quasinorm(spec(1)) / op_norm(a - b)
    rho10 = weak_s1_quasinorm(spec(10)) / op_norm(10 * (a - b))
    assert rho10 == pytest.approx(rho, rel=1e-10)


def test_emit_deterministic(tmp_path):
    cfg = cfg_with(emit_curves=True)
    r1 = run_sweep(cfg)
    r2 = run_sweep(cfg)
    for fmt in ("csv", "json"):
        p1 = tmp_path / f"a.{fmt}"
        p2 = tmp_path / f"b.{fmt}"
        emit_report(r1, p1, fmt)
        emit_report(r2, p2, fmt)
        assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "a.csv.curves.csv").exists()


def test_emit_empty_report_header_only(tmp_path):
    report = ExperimentReport("rank_one", ["a", "b"], [], {})
    path = tmp_path / "empty.csv"
    emit_report(report, path, "csv")
    assert path.read_text() == "a,b\n"


def test_json_roundtrip(tmp_path):
    cfg = cfg_with(emit_curves=True)
    report = run_sweep(cfg)
    path = tmp_path / "r.json"
    emit_report(report, path, "json")
    assert json.loads(path.read_text()) == json.loads(json.dumps(asdict(report)))
    assert load_config(report.config) == cfg


def test_curves_are_decay_triples():
    cfg = cfg_with(emit_curves=True)
    report = run_sweep(cfg)
    assert report.curves
    for row in report.curves:
        assert row["weighted"] == pytest.approx((1 + row["j"]) * row["s_j"], rel=1e-12, abs=0)


def test_bs_guard_runs_in_rank_one_sweep():
    # Every rank_one row carries the measured Birman-Solomyak residual.
    report = run_sweep(cfg_with())
    for row in report.rows:
        assert row["bs_residual"] >= 0.0
        assert row["bs_residual"] < 1e-8


def test_rank_one_degenerate_rows_flagged():
    # A constant function has lip 0, so every ratio denominator vanishes and
    # rows come back flagged with rho = 0.
    report = run_sweep(cfg_with(function={"kind": "constant", "c": 2.0}))
    for row in report.rows:
        assert row["degenerate"] == 1
        assert row["rho"] == 0.0 and row["rho_doi"] == 0.0


def test_emit_report_bad_format(tmp_path):
    report = ExperimentReport("rank_one", ["a"], [], {})
    with pytest.raises(ValidationError):
        emit_report(report, tmp_path / "x", "yaml")


# The sweep reports in tests/golden/<experiment>.json: each is
# emit_report(run_sweep(load_config(config)), path, "json") of the config it carries.
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def read_golden(name: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


GOLDEN_SWEEPS = sorted(path.stem for path in GOLDEN_DIR.glob("*.json")
                       if "config" in read_golden(path.stem))


def golden_config(experiment: str) -> SweepConfig:
    return load_config(read_golden(experiment)["config"])


def assert_matches_golden(value, ref, where="report"):
    # Rounding-level values (Birman-Solomyak residuals, the null tail of a
    # rank-one spectrum) carry no relative precision across BLAS builds, hence
    # the absolute floor next to the relative tolerance.
    if isinstance(ref, dict):
        assert isinstance(value, dict) and list(value) == list(ref), where
        for key in ref:
            assert_matches_golden(value[key], ref[key], f"{where}.{key}")
    elif isinstance(ref, list):
        assert isinstance(value, list) and len(value) == len(ref), where
        for i, (v, r) in enumerate(zip(value, ref)):
            assert_matches_golden(v, r, f"{where}[{i}]")
    elif isinstance(ref, float):
        assert isinstance(value, float), where
        assert math.isclose(value, ref, rel_tol=1e-12, abs_tol=1e-12), (where, value, ref)
    else:
        assert type(value) is type(ref) and value == ref, (where, value, ref)


@pytest.mark.parametrize("experiment", GOLDEN_SWEEPS)
def test_report_matches_golden(experiment, tmp_path):
    golden = read_golden(experiment)
    emit_report(run_sweep(load_config(golden["config"])), tmp_path / "r.json", "json")
    assert golden["experiment"] == experiment
    # Every key list and every string exactly, every float to 1e-12.
    assert_matches_golden(json.loads((tmp_path / "r.json").read_text()), golden)


@pytest.mark.parametrize("experiment, limit", [
    ("rank_one", 8.5), ("trace_class", 6.5), ("matsaev", 6.5), ("interp", 6.5)])
def test_instance_working_set(experiment, limit):
    # The traced peak of one instance at d = 256, in d x d float64 arrays, read
    # as below at one BLAS thread (numpy 2.4): 7.28 for rank_one, which leaves
    # 1.22 arrays of room, and 6.15 for the others.  rank_one peaks in the
    # Loewner product of birman_solomyak_delta's integral, with A, B, both
    # frames, f(A) - f(B) and X alive, and at this size one half-size Loewner
    # block, the one being formed, and its x - y: eigenbasis_product releases
    # each block before the next (holding the last one made 7.78).  The others
    # peak in a QR of random_orthogonal with two frames (or one frame and
    # U^T Q1 sigma) alive.  Copies of A and B, full-size temporaries in the
    # checks and A - B held through the integral made 11.15 for rank_one (A - B
    # alone, as doi_apply(f, da, db, A - B) holds it, makes 8.28), and holding
    # both frames through the second QR made 7.15 for the others; the limits
    # keep them from coming back.  LAPACK's own buffers are not traced.
    cfg, dim = golden_config(experiment), 256
    sweeps._instance(cfg, 8, 0)  # first-call allocations are not the instance's
    tracemalloc.start()
    try:
        sweeps._instance(cfg, dim, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * dim * dim) <= limit


def report_bytes(report, directory: Path) -> dict:
    """The bytes of every file emit_report writes for report, JSON and CSV."""
    directory.mkdir()
    emit_report(report, directory / "r.json", "json")
    emit_report(report, directory / "r.csv", "csv")
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


# At dimension 128 a multi-threaded OpenBLAS changes rank_one's last digits, so the
# rank_one golden's config at that size shows whether every path pins BLAS to one thread.
_D128 = dict(read_golden("rank_one")["config"], dimensions=[128])


@pytest.mark.parametrize("experiment", [*GOLDEN_SWEEPS, "rank_one_d128"])
def test_report_bytes_do_not_depend_on_worker_count(experiment, tmp_path, monkeypatch):
    cfg = load_config(_D128) if experiment == "rank_one_d128" else golden_config(experiment)
    reports = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(sweeps, "_cores", lambda n=workers: n)
        reports.append(report_bytes(run_sweep(cfg), tmp_path / str(workers)))
    assert sorted(reports[0]) == ["r.csv", "r.csv.curves.csv", "r.json"]
    assert reports[0] == reports[1] == reports[2]


def log_instances(tmp_path, monkeypatch, record):
    """Two cores, and a reader of the words record() returned as each sweep instance began."""
    log = tmp_path / "instances"
    log.touch()
    make_rng_ = sweeps.make_rng

    def logging_make_rng(*key):
        with open(log, "a") as fh:  # one short append per instance, from any process
            fh.write(f"{record()}\n")
        return make_rng_(*key)

    monkeypatch.setattr(sweeps, "make_rng", logging_make_rng)
    monkeypatch.setattr(sweeps, "_cores", lambda: 2)
    return lambda: [line.split() for line in log.read_text().splitlines()]


@pytest.fixture
def instance_pids(tmp_path, monkeypatch):
    """Two cores, and a reader of the ids of the processes that ran each sweep instance."""
    read = log_instances(tmp_path, monkeypatch, os.getpid)
    return lambda: [int(pid) for pid, in read()]


def test_a_sweep_builds_its_function_once(monkeypatch):
    # Once for the whole sweep, when its config is built, not once per instance.
    calls = []
    build = sweeps.function_from_spec
    monkeypatch.setattr(sweeps, "function_from_spec",
                        lambda spec: calls.append(spec) or build(spec))
    monkeypatch.setattr(sweeps, "_cores", lambda: 1)
    cfg = cfg_with(experiment="trace_class", dimensions=[4, 6], ensemble=3,
                   function={"kind": "pwl", "breakpoints": [-1.0, 0.0, 1.0], "seed": 7})
    assert len(run_sweep(cfg).rows) == 6
    assert calls == [cfg.function]


def test_sweep_runs_in_workers_with_a_pinnable_blas(instance_pids):
    if sweeps._openblas_threads() is None:
        pytest.skip("no loaded OpenBLAS whose thread count can be set")
    cfg = golden_config("matsaev")
    run_sweep(cfg)
    pids = instance_pids()
    assert len(pids) == cfg.ensemble * len(cfg.dimensions)
    assert os.getpid() not in pids and len(set(pids)) <= 2


def test_workers_inherit_the_pin_and_the_caller_gets_its_threads_back(tmp_path, monkeypatch):
    threads = sweeps._openblas_threads()
    if threads is None:
        pytest.skip("no loaded OpenBLAS whose thread count can be set")
    get_threads, set_threads = threads
    read = log_instances(tmp_path, monkeypatch, lambda: f"{os.getpid()} {get_threads()}")
    cfg = cfg_with(experiment="trace_class", dimensions=[4], ensemble=2)
    before = get_threads()
    set_threads(2)
    try:
        run_sweep(cfg)
        assert get_threads() == 2
        ran = read()
        assert len(ran) == 2
        assert all(int(pid) != os.getpid() and count == "1" for pid, count in ran)
        # A worker that raises: the error reaches the caller, the count is restored.
        monkeypatch.setattr(doi, "S2_SLACK", -1.0)
        with pytest.raises(SoundnessError):
            run_sweep(cfg)
        assert get_threads() == 2
    finally:
        set_threads(before)


# Run in a fresh interpreter, so modules this process has loaded cannot hide a worker's
# import.  The wrapper replaces sweeps._instance; pool.submit pickles it by name, so the
# forked workers run it too, and it appends "pid module..." per instance to a log.
_WORKER_IMPORTS = """
import os, sys
from liplab import sweeps
from liplab.sweeps import load_config, run_sweep

log, instance = sys.argv[1], sweeps._instance

def recording_instance(*args):
    before = set(sys.modules)
    result = instance(*args)
    with open(log, "a") as fh:
        fh.write(" ".join([str(os.getpid()), *sorted(set(sys.modules) - before)]) + "\\n")
    return result

sweeps._instance = recording_instance
sweeps._cores = lambda: 2
for experiment in sweeps.EXPERIMENTS:
    run_sweep(load_config({"experiment": experiment, "dimensions": [8, 12], "ensemble": 2,
                           "seed": 3, "function": {"kind": "abs"}, "p": 1.0,
                           "epsilon": 0.5, "n_values": [2]}))
print(os.getpid())
"""


def test_sweep_workers_import_nothing(tmp_path):
    """Workers inherit every module an instance needs from the caller, numpy.random included."""
    if sweeps._openblas_threads() is None:
        pytest.skip("no loaded OpenBLAS whose thread count can be set")
    log = tmp_path / "imports"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(sweeps.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _WORKER_IMPORTS, str(log)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    records = [line.split() for line in log.read_text().splitlines()]
    assert len(records) == len(sweeps.EXPERIMENTS) * 4
    assert str(int(done.stdout)) not in {pid for pid, *_ in records}
    assert [imported for _, *imported in records if imported] == []


@pytest.mark.parametrize("experiment", GOLDEN_SWEEPS)
def test_sweep_without_a_pinnable_blas_runs_here(experiment, instance_pids, monkeypatch,
                                                 tmp_path):
    monkeypatch.setattr(sweeps, "_openblas_threads", lambda: None)
    cfg = golden_config(experiment)
    report = json.loads(report_bytes(run_sweep(cfg), tmp_path / "report")["r.json"])
    assert instance_pids() == [os.getpid()] * (cfg.ensemble * len(cfg.dimensions))
    assert_matches_golden(report, read_golden(experiment))
