"""Experiment sweeps: empirical ratio studies and certificate batteries.

Each sweep draws a seeded random ensemble and reports how an output norm
(weak quasinorm, S_Omega norm, operator norm, or Schatten norm of a double
operator integral) compares to the matching input norm, per instance and as
per-dimension maxima.  Bounded ratios across dimensions are the empirical
signature of the dimension-free inequalities this package studies.  Identical
configs (including the seed) produce byte-identical reports.

run_sweep is the only loop.  An experiment is one instance function
(rng, f, dim, cfg) -> (row, spectrum) plus one _EXPERIMENTS entry naming its
columns, its summary and its size label.  A broken soundness guard raises
SoundnessError, which the CLI turns into exit 3.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .certificate import certify
from .doi import birman_solomyak_delta, bs_residual_bound, doi_apply, rank_one_perturb
from .errors import SoundnessError, ValidationError, checked, json_text, read_json, write_text
from .functions import LipschitzFunction, function_from_spec
from .ideals import (schatten_norm, singular_spectrum, singular_value_at, s_Omega_norm,
                     s_omega_norm, weak_s1_quasinorm)
from .linalg import eigh_symmetric, frobenius
from .rng import (make_rng, random_kernel_operator, random_prescribed_spectrum,
                  random_symmetric, random_unit)

EXPERIMENTS = ("rank_one", "trace_class", "matsaev", "interp", "certificate")
_TAG = {name: i + 1 for i, name in enumerate(EXPERIMENTS)}

# Relative slack for the entrywise Schur-multiplier S2 bound.
S2_SLACK = 1e-9

DEFAULT_N_VALUES = (4, 8, 16, 32, 64)


@dataclass(frozen=True)
class SweepConfig:
    experiment: str
    dimensions: tuple
    ensemble: int
    seed: int
    function: dict
    p: float | None = None
    epsilon: float | None = None
    n_values: tuple = DEFAULT_N_VALUES
    out: str | None = None
    format: str = "csv"
    emit_curves: bool = False

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValidationError(f"unknown experiment {self.experiment!r}; known: {EXPERIMENTS}")
        object.__setattr__(self, "dimensions", _integers("dimensions", self.dimensions, 2))
        object.__setattr__(self, "n_values", _integers("n_values", self.n_values, 1))
        object.__setattr__(self, "ensemble", checked(self.ensemble, int, "ensemble"))
        if self.ensemble < 1:
            raise ValidationError("ensemble size must be >= 1")
        object.__setattr__(self, "seed", checked(self.seed, int, "seed"))
        function_from_spec(self.function)  # validate early
        if self.experiment == "interp":
            object.__setattr__(self, "p", checked(self.p, float, "p"))
            object.__setattr__(self, "epsilon", checked(self.epsilon, float, "epsilon"))
            if not (self.p >= 1.0 and self.epsilon > 0.0):
                raise ValidationError("interp sweep requires p >= 1 and epsilon > 0")
        if self.format not in ("csv", "json"):
            raise ValidationError(f"format must be 'csv' or 'json', got {self.format!r}")


def _integers(name: str, values, least: int) -> tuple:
    """values as a nonempty tuple of integers >= least, or a ValidationError."""
    ints = tuple(checked(values, [int], name))
    if not ints or min(ints) < least:
        raise ValidationError(f"{name} must be a nonempty list of integers >= {least}, "
                              f"got {values!r}")
    return ints


def load_config(source) -> SweepConfig:
    """Build a SweepConfig from a dict or a JSON file path."""
    if isinstance(source, dict):
        data = dict(source)
    else:
        data = checked(read_json(source, "config"), dict, f"config {source}")
    known = {f.name for f in SweepConfig.__dataclass_fields__.values()}
    unknown = set(data) - known
    if unknown:
        raise ValidationError(f"unknown config fields: {sorted(unknown)}")
    missing = {"experiment", "dimensions", "ensemble", "seed", "function"} - set(data)
    if missing:
        raise ValidationError(f"config is missing required fields: {sorted(missing)}")
    return SweepConfig(**data)


@dataclass
class ExperimentReport:
    experiment: str
    columns: list
    rows: list
    summary: dict
    curves: list = field(default_factory=list)


def _doi_spectrum(f: LipschitzFunction, d1, d2, t: np.ndarray) -> np.ndarray:
    """Singular values of doi(f, T), once the entrywise S2 Schur bound has held."""
    q = doi_apply(f, d1, d2, t)
    # The bound must hold on every instance or the DOI is wrong.
    lhs = frobenius(q)
    rhs = f.lip * frobenius(t) * (1.0 + S2_SLACK)
    if lhs > rhs:
        raise SoundnessError("S2 Schur-multiplier bound violated", lhs, rhs)
    return singular_spectrum(q)


def _ratio(value: float, denom: float) -> float:
    return 0.0 if denom == 0.0 else value / denom


def _rank_one(rng, f: LipschitzFunction, dim: int, cfg: SweepConfig):
    """Rank-one perturbations: weak quasinorm of f(A) - f(B) against lip * ||A - B||.

    Each instance also runs a DOI variant with independent spectral measures
    and a random rank-one T.  The Birman-Solomyak residual is checked before
    any functional is reported.
    """
    a = random_symmetric(rng, dim)
    u = random_unit(rng, dim)
    c = 0.5 + rng.uniform(0.0, 1.0)
    b = rank_one_perturb(a, u, c)
    delta, residual = birman_solomyak_delta(f, a, b)
    # The contract scales with lip; at lip = 0 both sides are zero in exact
    # arithmetic and the residual is pure frame rounding.
    bound = bs_residual_bound(a, b, f.lip)
    if f.lip > 0.0 and residual > bound:
        raise SoundnessError("Birman-Solomyak residual out of contract", residual, bound)
    spec = singular_spectrum(delta)
    weak = weak_s1_quasinorm(spec)
    denom = f.lip * abs(c)

    t = (0.5 + rng.uniform(0.0, 1.0)) * np.outer(random_unit(rng, dim), random_unit(rng, dim))
    d1 = eigh_symmetric(random_symmetric(rng, dim))
    d2 = eigh_symmetric(random_symmetric(rng, dim))
    doi_weak = weak_s1_quasinorm(_doi_spectrum(f, d1, d2, t))
    row = {
        "lip": f.lip, "perturbation": c, "weak_s1": weak, "rho": _ratio(weak, denom),
        "doi_weak_s1": doi_weak,
        "rho_doi": _ratio(doi_weak, f.lip * frobenius(t)),  # ||T|| = ||T||_F at rank one
        "bs_residual": residual, "degenerate": int(denom == 0.0),
    }
    return row, spec


def _prescribed_doi(rng, f: LipschitzFunction, dim: int):
    """Common machinery for the T-based sweeps: (spectrum of doi(f, T), sigma of T)."""
    d1 = eigh_symmetric(random_symmetric(rng, dim))
    d2 = eigh_symmetric(random_symmetric(rng, dim))
    t, sigma = random_prescribed_spectrum(rng, dim)
    return _doi_spectrum(f, d1, d2, t), sigma


def _trace_class(rng, f: LipschitzFunction, dim: int, cfg: SweepConfig):
    """S_Omega norm of doi(f, T) against lip * ||T||_S1 for trace-normalized T."""
    spec, sigma = _prescribed_doi(rng, f, dim)
    trace = float(np.sum(sigma))
    value = s_Omega_norm(spec)
    row = {"lip": f.lip, "t_trace_norm": trace, "s_Omega": value,
           "rho": _ratio(value, f.lip * trace)}
    return row, spec


def _matsaev(rng, f: LipschitzFunction, dim: int, cfg: SweepConfig):
    """Operator norm of doi(f, T) against lip * ||T||_{S_omega}."""
    spec, sigma = _prescribed_doi(rng, f, dim)
    matsaev = s_omega_norm(sigma)
    top = float(spec[0])
    row = {"lip": f.lip, "t_matsaev_norm": matsaev, "op_norm": top,
           "rho": _ratio(top, f.lip * matsaev)}
    return row, spec


def _interp(rng, f: LipschitzFunction, dim: int, cfg: SweepConfig):
    """Schatten p+epsilon norm of doi(f, T) against lip * ||T||_p.

    Also logs the p-to-p ratio, which is allowed to grow with dimension; the
    p-to-p+epsilon ratio is the one expected to stay bounded.
    """
    spec, sigma = _prescribed_doi(rng, f, dim)
    p, eps = cfg.p, cfg.epsilon
    t_p = schatten_norm(sigma, p)
    q_pe = schatten_norm(spec, p + eps)
    denom = f.lip * t_p
    row = {"lip": f.lip, "p": p, "epsilon": eps, "t_norm_p": t_p,
           "doi_norm_p_eps": q_pe, "rho": _ratio(q_pe, denom),
           "rho_p_to_p": _ratio(schatten_norm(spec, p), denom)}
    return row, spec


def _certificate(rng, f: LipschitzFunction, atoms: int, cfg: SweepConfig):
    """Build and verify decay certificates on a random kernel operator.

    The size is the atom count per measure side.  For each n in cfg.n_values a
    certificate is built and verified; the fitted constants max_n(n * bound)
    and max_n(n * s_{7n}) are reported.  An unsound certificate aborts the
    sweep (it signals an implementation bug).
    """
    spectrum, results = certify(random_kernel_operator(rng, f, atoms, atoms), cfg.n_values)
    row = {}
    k_bound = k_direct = 0.0
    for n, (cert, report) in zip(cfg.n_values, results):
        s7n = singular_value_at(spectrum, 7 * n)
        k_bound = max(k_bound, n * cert.empirical_bound)
        k_direct = max(k_direct, n * s7n)
        row[f"rank_n{n}"] = cert.defect_rank
        row[f"bound_n{n}"] = cert.empirical_bound
        row[f"analytic_n{n}"] = cert.analytic_bound
        row[f"s_r_n{n}"] = report.singular_value
        row[f"s7n_n{n}"] = s7n
    # The truncation radius and the weak ratio are reported for the last n.
    row.update(truncation_radius=cert.truncation_radius, weak_ratio=report.weak_ratio,
               fitted_K_bound=k_bound, fitted_K_direct=k_direct)
    return row, spectrum


def _max_per_dimension(rows: list, dimensions, keys) -> dict:
    per_dim = {}
    for dim in dimensions:
        sub = [r for r in rows if r["dimension"] == dim]
        per_dim[str(dim)] = {k: max((r[k] for r in sub), default=0.0) for k in keys}
    fitted = {k: max((r[k] for r in rows), default=0.0) for k in keys}
    return {"max_per_dimension": per_dim, "fitted_constant": fitted}


def _certificate_summary(rows: list, atoms) -> dict:
    return {
        "fitted_K_bound_max": max((r["fitted_K_bound"] for r in rows), default=0.0),
        "fitted_K_direct_max": max((r["fitted_K_direct"] for r in rows), default=0.0),
        "max_weak_ratio": max((r["weak_ratio"] for r in rows), default=0.0),
    }


@dataclass(frozen=True)
class _Experiment:
    """What one experiment adds to the shared loop in run_sweep."""

    instance: Callable  # (rng, f, size, cfg) -> (row of the own columns, spectrum)
    columns: tuple
    summary: Callable  # (rows, sizes) -> dict
    size: str = "dimension"
    curve_label: str = "dim"
    per_n: tuple = ()  # column prefixes repeated for each n in cfg.n_values


_EXPERIMENTS = {
    "rank_one": _Experiment(
        _rank_one, ("lip", "perturbation", "weak_s1", "rho", "doi_weak_s1", "rho_doi",
                    "bs_residual", "degenerate"),
        partial(_max_per_dimension, keys=("rho", "rho_doi"))),
    "trace_class": _Experiment(
        _trace_class, ("lip", "t_trace_norm", "s_Omega", "rho"),
        partial(_max_per_dimension, keys=("rho",))),
    "matsaev": _Experiment(
        _matsaev, ("lip", "t_matsaev_norm", "op_norm", "rho"),
        partial(_max_per_dimension, keys=("rho",))),
    "interp": _Experiment(
        _interp, ("lip", "p", "epsilon", "t_norm_p", "doi_norm_p_eps", "rho", "rho_p_to_p"),
        partial(_max_per_dimension, keys=("rho", "rho_p_to_p"))),
    "certificate": _Experiment(
        _certificate, ("truncation_radius", "weak_ratio", "fitted_K_bound", "fitted_K_direct"),
        _certificate_summary, size="atoms", curve_label="atoms",
        per_n=("rank_n", "bound_n", "analytic_n", "s_r_n", "s7n_n")),
}


def run_sweep(cfg: SweepConfig) -> ExperimentReport:
    """Run cfg's experiment on every (size, instance) pair, sizes outermost.

    Each pair draws from its own Philox stream, so no row depends on another.
    """
    exp = _EXPERIMENTS[cfg.experiment]
    f = function_from_spec(cfg.function)
    rows, curves = [], []
    for size in cfg.dimensions:
        for idx in range(cfg.ensemble):
            row, spectrum = exp.instance(make_rng(cfg.seed, _TAG[cfg.experiment], size, idx),
                                         f, size, cfg)
            rows.append({"instance": idx, exp.size: size, "function": f.name, **row})
            if cfg.emit_curves and idx == 0:
                label = f"{exp.curve_label}{size}"
                curves += [{"label": label, "j": j, "s_j": float(s), "weighted": float((1 + j) * s)}
                           for j, s in enumerate(spectrum)]
    expected = cfg.ensemble * len(cfg.dimensions)
    if len(rows) != expected:
        raise RuntimeError(f"report has {len(rows)} rows, expected {expected}")
    columns = (["instance", exp.size, "function", *exp.columns]
               + [f"{prefix}{n}" for n in cfg.n_values for prefix in exp.per_n])
    return ExperimentReport(cfg.experiment, columns, rows, exp.summary(rows, cfg.dimensions),
                            curves)


def _format_value(v) -> str:
    if isinstance(v, (int, np.integer)):  # bool included: True -> "1"
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _csv_text(columns, rows) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_value(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def emit_report(report: ExperimentReport, path: str, format: str = "csv") -> None:
    """Write a report deterministically; identical reports give identical bytes.

    CSV carries the per-instance rows only (summary lives in the JSON form);
    decay curves, when present, go to a sibling '<path>.curves.csv'.
    """
    if format == "json":
        write_text(path, json_text(asdict(report)), "report")
    elif format == "csv":
        write_text(path, _csv_text(report.columns, report.rows), "report")
        if report.curves:
            write_text(f"{path}.curves.csv",
                       _csv_text(["label", "j", "s_j", "weighted"], report.curves), "report")
    else:
        raise ValidationError(f"format must be 'csv' or 'json', got {format!r}")
