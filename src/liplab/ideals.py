"""Singular-value functionals: Schatten norms and the weak/logarithmic ideals.

A spectrum here is a finite nonincreasing sequence s_0 >= s_1 >= ... >= 0.
The classical ideals are measured by

    schatten_norm(s, p)    = (sum_j s_j^p)^(1/p),            p >= 1
    weak_s1_quasinorm(s)   = max_j (1 + j) * s_j
    s_Omega_norm(s)        = max_n (sum_{j<=n} s_j) / log(2 + n)
    s_omega_norm(s)        = sum_j s_j / (1 + j)

Logs are natural; on finite spectra the suprema become maxima and are always
attained.  Zero-padding a spectrum changes none of these values.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, ValidationError
from .linalg import as_matrix

# Monotonicity repair threshold, relative to max |s_j|: increases or negative
# values beyond it are a hard error.
MONOTONICITY_TOL = 1e-9


def as_spectrum(values) -> np.ndarray:
    """Validate a nonincreasing nonnegative sequence; repair sub-tolerance jitter."""
    s = np.atleast_1d(np.asarray(values, dtype=float))
    if s.ndim != 1:
        raise ValidationError(f"spectrum must be 1-D, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValidationError("spectrum contains non-finite values")
    if s.size == 0:
        return s
    tol = MONOTONICITY_TOL * np.max(np.abs(s))
    if np.any(np.diff(s) > tol):
        raise ValidationError("spectrum increases beyond tolerance; not a singular spectrum")
    if np.any(s < -tol):
        raise ValidationError("spectrum has negative values beyond tolerance")
    # Sub-tolerance repairs keep downstream functionals exactly monotone.
    s = np.minimum.accumulate(np.clip(s, 0.0, None))
    return s


def singular_spectrum(m) -> np.ndarray:
    """Singular values of a matrix, nonincreasing, length min(rows, cols).

    Raises ConvergenceError if LAPACK does not converge.
    """
    mat = as_matrix(m)
    try:
        values = np.linalg.svd(mat, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"singular values failed at shape {mat.shape}: {exc}") from exc
    return as_spectrum(values)


def schatten_norm(s, p: float) -> float:
    """(sum s_j^p)^(1/p); p = 1 trace norm, p = 2 Hilbert-Schmidt."""
    p = float(p)
    if not p >= 1.0:
        raise ValidationError(f"schatten_norm requires p >= 1, got {p}")
    spec = as_spectrum(s)
    if spec.size == 0 or spec[0] == 0.0:
        return 0.0
    # Scale by the top value so large p cannot overflow; fsum is exactly
    # rounded, which makes the value independent of zero padding.
    top = spec[0]
    return float(top * math.fsum((spec / top) ** p) ** (1.0 / p))


def weak_s1_quasinorm(s) -> float:
    """max_j (1 + j) * s_j, the weak trace-class quasinorm."""
    spec = as_spectrum(s)
    if spec.size == 0:
        return 0.0
    j = np.arange(1.0, spec.size + 1.0)
    return float(np.max(j * spec))


def s_Omega_norm(s) -> float:
    """max_n (partial sum through n) / log(2 + n); the Banach hull norm of weak-S1."""
    spec = as_spectrum(s)
    if spec.size == 0:
        return 0.0
    partial = np.cumsum(spec)
    denom = np.log(2.0 + np.arange(spec.size, dtype=float))
    return float(np.max(partial / denom))


def s_omega_norm(s) -> float:
    """sum_j s_j / (1 + j), the Matsaev ideal norm."""
    spec = as_spectrum(s)
    if spec.size == 0:
        return 0.0
    return float(math.fsum(spec / np.arange(1.0, spec.size + 1.0)))


def singular_value_at(s, index: int) -> float:
    """s_index with 0-based indexing; 0 beyond the spectrum length."""
    spec = as_spectrum(s)
    if index < 0:
        raise ValidationError("singular value index must be nonnegative")
    return float(spec[index]) if index < spec.size else 0.0


def harmonic_log_gap(n: int) -> float:
    """log(2 + n) / ln 2 minus the harmonic partial sum H(n + 1).

    Nonnegative for every n >= 0; this is the elementary inequality behind
    s_Omega_norm(s) <= (1 / ln 2) * weak_s1_quasinorm(s).
    """
    h = float(np.sum(1.0 / np.arange(1.0, n + 2.0)))
    return math.log(2.0 + n) / math.log(2.0) - h

