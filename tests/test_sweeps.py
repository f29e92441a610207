import json
import math
from pathlib import Path

import numpy as np
import pytest

from liplab.doi import doi_apply
from liplab.errors import ValidationError
from liplab.functions import absolute_value, identity_function
from liplab.ideals import (s_Omega_norm, s_omega_norm, schatten_norm, singular_spectrum,
                           weak_s1_quasinorm)
from liplab.linalg import eigh_symmetric
from liplab.rng import make_rng, random_prescribed_spectrum, random_symmetric
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
    with pytest.raises(ValidationError):
        load_config({"experiment": "rank_one"})
    with pytest.raises(ValidationError):
        load_config(dict(BASE, bogus_field=1))
    for bad in ({"dimensions": 5}, {"n_values": 4}, {"ensemble": "x"}, {"seed": "abc"},
                {"dimensions": [4, None]}, {"experiment": "interp", "p": "x", "epsilon": 0.5}):
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
    t, sigma = random_prescribed_spectrum(rng, 10)
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
    from liplab.doi import f_delta
    rng = make_rng(79)
    a = random_symmetric(rng, 8)
    b = a + 0.7 * np.outer(*(2 * [rng.standard_normal(8)]))
    b = 0.5 * (b + b.T)
    f = absolute_value()
    op_norm = lambda m: float(singular_spectrum(m)[0])
    rho = weak_s1_quasinorm(singular_spectrum(f_delta(f, a, b))) / op_norm(a - b)
    rho10 = weak_s1_quasinorm(singular_spectrum(f_delta(f, 10 * a, 10 * b))) / op_norm(10 * (a - b))
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
    back = json.loads(path.read_text())
    assert back["experiment"] == report.experiment
    assert back["columns"] == report.columns
    assert back["rows"] == json.loads(json.dumps(report.rows))
    assert back["summary"] == json.loads(json.dumps(report.summary))
    assert back["curves"] == json.loads(json.dumps(report.curves))


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


# Fixed configs behind the reports in tests/golden/<experiment>.json.  Each
# golden file is emit_report(run_sweep(load_config(config)), path, "json").
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
PWL = {"kind": "pwl", "breakpoints": [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0], "seed": 3}
GOLDEN_CONFIGS = {
    "rank_one": {"function": {"kind": "abs"}},
    "trace_class": {"function": {"kind": "abs"}},
    "matsaev": {"function": PWL},
    "interp": {"function": PWL, "p": 1.0, "epsilon": 0.5},
    "certificate": {"function": {"kind": "abs"}, "dimensions": [20, 40], "n_values": [2, 4]},
}


def golden_config(experiment: str) -> SweepConfig:
    data = {"experiment": experiment, "dimensions": [4, 8, 16], "ensemble": 2,
            "seed": 905, "emit_curves": True, "format": "json"}
    data.update(GOLDEN_CONFIGS[experiment])
    return load_config(data)


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


@pytest.mark.parametrize("experiment", sorted(GOLDEN_CONFIGS))
def test_report_matches_golden(experiment, tmp_path):
    path = tmp_path / "report.json"
    emit_report(run_sweep(golden_config(experiment)), path, "json")
    report = json.loads(path.read_text())
    golden = json.loads((GOLDEN_DIR / f"{experiment}.json").read_text())
    assert report["experiment"] == golden["experiment"] == experiment
    assert report["columns"] == golden["columns"]
    assert [list(row) for row in report["rows"]] == [list(row) for row in golden["rows"]]
    assert [c["label"] for c in report["curves"]] == [c["label"] for c in golden["curves"]]
    assert_matches_golden(report, golden)
