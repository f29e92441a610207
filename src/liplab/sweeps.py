"""Experiment sweeps: empirical ratio studies and certificate batteries.

Each sweep draws a seeded random ensemble and reports how an output norm
(weak quasinorm, S_Omega norm, operator norm, or Schatten norm of a double
operator integral) compares to the matching input norm, per instance and as
per-dimension maxima.  Bounded ratios across dimensions are the empirical
signature of the dimension-free inequalities this package studies.  Identical
configs (including the seed) produce byte-identical reports, and a JSON
report's config, which load_config takes unchanged, reruns it.

SweepConfig builds f once per sweep.  run_sweep is the only loop: it pins BLAS
to one thread and runs the (size, instance) pairs on every available core, in
forked worker processes that get the config, f included, by value.  An
experiment is one instance function (rng, f, dim, cfg) -> (row, spectrum),
whose row keys in order are the report's columns after instance, size and
function, plus one _EXPERIMENTS entry naming its summary and its size label.
liplab.doi checks the DOI contracts and liplab.certificate verifies
certificates; a broken one ends the sweep as a soundness failure, which the CLI
turns into exit 3, also when a worker raised it.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from typing import Callable

import numpy as np

from .certificate import certify
from .doi import birman_solomyak_delta, eigenbasis_product, rank_one_perturb
from .errors import (ValidationError, checked, checked_integers, constructed, json_text,
                     read_json, write_text)
from .functions import LipschitzFunction, function_from_spec
from .ideals import (schatten_norm, singular_spectrum, singular_value_at, s_Omega_norm,
                     s_omega_norm, weak_s1_quasinorm)
from .linalg import eigh_symmetric, frobenius
from .rng import (make_rng, random_kernel_operator, random_orthogonal, random_symmetric,
                  random_trace_spectrum, random_unit)

FORMATS = ("csv", "json")

DEFAULT_N_VALUES = (4, 8, 16, 32, 64)
# Largest size a sweep accepts.  An instance holds several size x size float64
# matrices, and one at 8192 takes 512 MiB.
MAX_SIZE = 8192
# Largest ensemble: _run_instances lists every (size, instance) pair before any runs.
MAX_ENSEMBLE = 1 << 16


@dataclass(frozen=True)
class SweepConfig:
    """A sweep's checked settings, and f, its function, built here once (not an argument)."""

    experiment: str
    dimensions: tuple
    ensemble: int
    seed: int
    function: dict
    p: float | None = None
    epsilon: float | None = None
    n_values: tuple = DEFAULT_N_VALUES
    format: str = "csv"
    emit_curves: bool = False
    f: LipschitzFunction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValidationError(f"unknown experiment {self.experiment!r}; known: {EXPERIMENTS}")
        object.__setattr__(self, "dimensions", checked_integers(self.dimensions, 2, "dimensions"))
        if max(self.dimensions) > MAX_SIZE:
            raise ValidationError(f"dimensions must be at most {MAX_SIZE}, "
                                  f"got {max(self.dimensions)}")
        object.__setattr__(self, "n_values", checked_integers(self.n_values, 1, "n_values"))
        object.__setattr__(self, "ensemble", checked(self.ensemble, int, "ensemble"))
        if not 1 <= self.ensemble <= MAX_ENSEMBLE:
            raise ValidationError(f"ensemble size must be in [1, {MAX_ENSEMBLE}], "
                                  f"got {self.ensemble}")
        object.__setattr__(self, "seed", checked(self.seed, int, "seed"))
        object.__setattr__(self, "f", function_from_spec(self.function))
        interp = self.experiment == "interp"
        for name in ("p", "epsilon"):  # interp requires both; any experiment checks their type
            if interp or getattr(self, name) is not None:
                object.__setattr__(self, name, checked(getattr(self, name), float, name))
        if interp and not (self.p >= 1.0 and self.epsilon > 0.0):
            raise ValidationError("interp sweep requires p >= 1 and epsilon > 0")
        if self.format not in FORMATS:
            raise ValidationError(f"format must be one of {FORMATS}, got {self.format!r}")
        checked(self.emit_curves, bool, "emit_curves")


def load_config(source) -> SweepConfig:
    """A SweepConfig from a dict or a JSON file path; errors.constructed checks its fields."""
    data = source if isinstance(source, dict) else read_json(source, "config")
    return constructed(SweepConfig, checked(data, dict, f"config {source}"), "config")


@dataclass
class ExperimentReport:
    experiment: str
    columns: list
    rows: list
    summary: dict
    curves: list = field(default_factory=list)
    config: dict = field(default_factory=dict)  # the SweepConfig fields, as load_config takes them


def _ratio(value: float, denom: float) -> float:
    return 0.0 if denom == 0.0 else value / denom


def _rank_one(rng, f: LipschitzFunction, dim: int, cfg: SweepConfig):
    """Rank-one perturbations: weak quasinorm of f(A) - f(B) against lip * ||A - B||.

    Each instance also runs a DOI variant with independent spectral measures
    and a random rank-one T.  birman_solomyak_delta checks the residual
    before any functional is reported.  The two halves run in their own
    helpers, so neither holds the other's matrices, and f(A) - f(B) is
    released before the variant starts.
    """
    c, delta, residual = _rank_one_pair(rng, f, dim)
    spec = singular_spectrum(delta)
    del delta
    weak = weak_s1_quasinorm(spec)
    denom = f.lip * abs(c)

    t_norm, product = _rank_one_doi(rng, f, dim)
    doi_weak = weak_s1_quasinorm(singular_spectrum(product))
    row = {
        "lip": f.lip, "perturbation": c, "weak_s1": weak, "rho": _ratio(weak, denom),
        "doi_weak_s1": doi_weak,
        "rho_doi": _ratio(doi_weak, f.lip * t_norm),  # ||T|| = ||T||_F at rank one
        "bs_residual": residual, "degenerate": int(denom == 0.0),
    }
    return row, spec


def _rank_one_pair(rng, f: LipschitzFunction, dim: int):
    """(c, f(A) - f(B), Birman-Solomyak residual) for a GOE A and B = A + c u u^T."""
    a = random_symmetric(rng, dim)
    u = random_unit(rng, dim)
    c = 0.5 + rng.uniform(0.0, 1.0)
    return (c, *birman_solomyak_delta(f, a, rank_one_perturb(a, u, c)))


def _rank_one_doi(rng, f: LipschitzFunction, dim: int):
    """(||T||_F, L o X) for T = s x y^T and two GOE spectral measures.

    X = U^T T V = s (U^T x)(V^T y)^T is formed in O(d^2), without T, and each
    frame is released right after its product.
    """
    s = 0.5 + rng.uniform(0.0, 1.0)
    x, y = random_unit(rng, dim), random_unit(rng, dim)
    d1 = eigh_symmetric(random_symmetric(rng, dim))
    lam, ux = d1.eigenvalues, s * (d1.frame.T @ x)
    del d1
    d2 = eigh_symmetric(random_symmetric(rng, dim))
    mu, vy = d2.eigenvalues, d2.frame.T @ y
    del d2
    t_norm = float(s * frobenius(x) * frobenius(y))
    return t_norm, eigenbasis_product(f, lam, mu, np.outer(ux, vy), t_norm)


def _prescribed_doi(rng, f: LipschitzFunction, dim: int):
    """Common machinery for the T-based sweeps: (spectrum of doi(f, T), sigma of T).

    T = Q1 diag(sigma) Q2^T with Haar Q1, Q2 and a trace-one sigma
    (random_trace_spectrum) is never formed: X = U^T T V is taken as
    (U^T Q1 diag(sigma))(V^T Q2)^T, and U with Q1 is released before Q2's QR.
    The spectrum is that of L o X, the integral in the eigenbases.
    """
    d1 = eigh_symmetric(random_symmetric(rng, dim))
    d2 = eigh_symmetric(random_symmetric(rng, dim))
    lam, mu = d1.eigenvalues, d2.eigenvalues
    sigma = random_trace_spectrum(rng, dim)
    left = d1.frame.T @ (random_orthogonal(rng, dim) * sigma)
    del d1
    right = d2.frame.T @ random_orthogonal(rng, dim)
    del d2
    x = left @ right.T
    del left, right
    # ||T||_F = ||sigma||_2, the norm T is drawn with.
    product = eigenbasis_product(f, lam, mu, x, frobenius(sigma))
    return singular_spectrum(product), sigma


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
    per_n = {}
    k_bound = k_direct = 0.0
    for n, (cert, report) in zip(cfg.n_values, results):
        s7n = singular_value_at(spectrum, 7 * n)
        k_bound = max(k_bound, n * cert.empirical_bound)
        k_direct = max(k_direct, n * s7n)
        per_n.update({f"rank_n{n}": cert.defect_rank, f"bound_n{n}": cert.empirical_bound,
                      f"analytic_n{n}": cert.analytic_bound,
                      f"s_r_n{n}": report.singular_value, f"s7n_n{n}": s7n})
    # The truncation radius and the weak ratio are reported for the last n.
    return {"truncation_radius": cert.truncation_radius, "weak_ratio": report.weak_ratio,
            "fitted_K_bound": k_bound, "fitted_K_direct": k_direct, **per_n}, spectrum


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

    instance: Callable  # (rng, f, size, cfg) -> (row, spectrum); the row's keys are the columns
    summary: Callable  # (rows, sizes) -> dict
    size: str = "dimension"
    curve_label: str = "dim"


_EXPERIMENTS = {
    "rank_one": _Experiment(_rank_one, partial(_max_per_dimension, keys=("rho", "rho_doi"))),
    "trace_class": _Experiment(_trace_class, partial(_max_per_dimension, keys=("rho",))),
    "matsaev": _Experiment(_matsaev, partial(_max_per_dimension, keys=("rho",))),
    "interp": _Experiment(_interp, partial(_max_per_dimension, keys=("rho", "rho_p_to_p"))),
    "certificate": _Experiment(_certificate, _certificate_summary, size="atoms",
                               curve_label="atoms"),
}
EXPERIMENTS = tuple(_EXPERIMENTS)
_TAG = {name: i + 1 for i, name in enumerate(EXPERIMENTS)}


def run_sweep(cfg: SweepConfig) -> ExperimentReport:
    """Run cfg's experiment on every (size, instance) pair, sizes outermost.

    Each pair draws from its own Philox stream, so no row depends on another.
    Where the loaded BLAS can be pinned, the pairs run at one BLAS thread (see
    _run_instances), so the report depends neither on the core count nor on
    the BLAS thread count.
    """
    exp = _EXPERIMENTS[cfg.experiment]
    rows, curves = [], []
    for row, spectrum in _run_instances(cfg):
        rows.append(row)
        if spectrum is not None:
            label = f"{exp.curve_label}{row[exp.size]}"
            curves += [{"label": label, "j": j, "s_j": float(s), "weighted": float((1 + j) * s)}
                       for j, s in enumerate(spectrum)]
    config = {k.name: getattr(cfg, k.name) for k in fields(cfg) if k.init}
    return ExperimentReport(cfg.experiment, list(rows[0]), rows,
                            exp.summary(rows, cfg.dimensions), curves, config)


def _instance(cfg: SweepConfig, size: int, idx: int):
    """One pair's report row, and its spectrum if the pair draws a decay curve (else None)."""
    exp, f = _EXPERIMENTS[cfg.experiment], cfg.f
    row, spectrum = exp.instance(make_rng(cfg.seed, _TAG[cfg.experiment], size, idx), f, size, cfg)
    return ({"instance": idx, exp.size: size, "function": f.name, **row},
            spectrum if cfg.emit_curves and idx == 0 else None)


def _run_instances(cfg: SweepConfig) -> list:
    """_instance of every (size, instance) pair of cfg, sizes outermost.

    Each pair gets cfg, and with it the function cfg built, by value.
    The loaded BLAS is pinned to one thread for the whole sweep, and the
    caller's thread count is restored afterwards.  With more than one pair and
    more than one available core, the pairs run in a pool of forked workers,
    one per core, largest sizes first so that the biggest instances do not form
    the tail.  Forked workers inherit the loaded modules and their state, the
    pin included.  numpy.random (numpy 2 loads it lazily; make_rng needs it) and
    certify's ThreadPoolExecutor are imported here before the fork, so the
    workers share those pages copy-on-write instead of each loading them again,
    which cost every worker 5-7 MiB of peak RSS.  A pool runs only if the loaded
    BLAS can be pinned: workers that each start the parent's BLAS threads
    oversubscribe the cores and run slower than this process alone.  Otherwise
    the pairs run here.
    """
    pairs = [(size, idx) for size in cfg.dimensions for idx in range(cfg.ensemble)]
    threads = _openblas_threads()
    workers = 1 if threads is None else min(len(pairs), _cores())
    get_threads, set_threads = threads or (lambda: None, lambda count: None)
    before = get_threads()
    set_threads(1)
    try:
        if workers == 1:
            return [_instance(cfg, *pair) for pair in pairs]
        # Imported here: a pool is not needed to import liplab, and they cost import time.
        import numpy.random  # noqa: F401
        from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor  # noqa: F401
        from multiprocessing import get_context

        pool = ProcessPoolExecutor(workers, mp_context=get_context("fork"))
        try:
            largest_first = sorted(range(len(pairs)), key=lambda i: -pairs[i][0])
            futures = {i: pool.submit(_instance, cfg, *pairs[i]) for i in largest_first}
            return [futures[i].result() for i in range(len(pairs))]
        finally:
            pool.shutdown(cancel_futures=True)
    finally:
        set_threads(before)


def _cores() -> int:
    """The number of cores this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _openblas_threads():
    """(get, set) for the thread count of the OpenBLAS numpy loaded, or None.

    The library is found among this process's mappings (Linux only) and its
    entry points under the names of the plain, 64-bit-integer and numpy-wheel
    (scipy_openblas) builds.
    """
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return None
    paths = {f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5].lower()}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    return None


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

    CSV carries the per-instance rows only (summary and config live in the JSON
    form); decay curves, when present, go to a sibling '<path>.curves.csv'.
    """
    if format == "json":
        write_text(path, json_text(asdict(report)), "report")
    elif format == "csv":
        write_text(path, _csv_text(report.columns, report.rows), "report")
        if report.curves:
            write_text(f"{path}.curves.csv",
                       _csv_text(["label", "j", "s_j", "weighted"], report.curves), "report")
    else:
        raise ValidationError(f"format must be one of {FORMATS}, got {format!r}")
