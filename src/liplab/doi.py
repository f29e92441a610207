"""Finite-dimensional double operator integrals and the f(A) - f(B) identity.

In finite dimensions the double operator integral with the divided-difference
symbol is a Schur multiplier in the eigenbases:

    doi(f, D1, D2, T) = U (L o X) V^T,    X = U^T T V,

where U, V are the eigenvector frames, L the Loewner matrix of f at the two
spectra, and o the entrywise product.  With T = A - B this reproduces
f(A) - f(B) exactly (Birman and Solomyak).

eigenbasis_product computes L o X from the two spectra and X alone, taking
L one row block at a time from functions.loewner_blocks, so L is never held
whole; every path here goes through it: doi_apply conjugates it back,
birman_solomyak_delta checks f(A) - f(B) against its conjugate, and a caller
that reads only singular values takes them from L o X itself, since
s(U (L o X) V^T) = s(L o X).  Such a caller needs a frame only until it has
been multiplied into X.

Both contracts the sweeps rest on are checked here, where their values are
computed: eigenbasis_product the S2 bound ||L o X||_F <= lip ||T||_F, and
birman_solomyak_delta the identity residual.  A broken contract raises
SoundnessError; one beyond the float range, ValidationError.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SoundnessError, ValidationError
from .functions import LipschitzFunction, apply_function, loewner_blocks
from .linalg import SpectralDecomposition, as_matrix, as_symmetric, eigh_symmetric, frobenius

# Residual contract for the Birman-Solomyak identity, relative to
# (1 + ||A||_F + ||B||_F) * lip.
BS_RESIDUAL_TOL = 1e-8

# Relative slack for the entrywise Schur-multiplier S2 bound.
S2_SLACK = 1e-9


def eigenbasis_product(f: LipschitzFunction, lam: np.ndarray, mu: np.ndarray, x: np.ndarray,
                       t_norm: float) -> np.ndarray:
    """L o X, the double operator integral of T in the eigenbases: X = U^T T V.

    lam and mu are the eigenvalues of the two operators, in the order of the
    columns of U and V; the frames themselves are not needed.  The Loewner
    matrix L of f at lam (rows) and mu (columns) multiplies x in place, one
    block of loewner_blocks at a time, and x itself is returned, so pass an
    array the caller owns and no longer needs.  t_norm is ||T||_F.  Every
    Loewner entry is at most lip in size, so ||L o X||_F, which equals
    ||doi(f, T)||_F, must be at most lip * t_norm up to S2_SLACK, or
    SoundnessError is raised.  f is evaluated at each eigenvalue once; a
    spectrum at which L could hold a NaN is bad input, and loewner_blocks
    raises ValidationError whatever the block size.
    """
    _require_shape("X", x, np.shape(lam) + np.shape(mu))
    allowed = f.lip * t_norm * (1.0 + S2_SLACK)
    if not math.isfinite(allowed):
        raise ValidationError("lip * ||T||_F exceeds the float range")
    for rows, block in loewner_blocks(f, lam, mu):
        x[rows] *= block
    SoundnessError.require("S2 Schur-multiplier bound violated", frobenius(x), allowed)
    return x


def doi_apply(f: LipschitzFunction, d1: SpectralDecomposition, d2: SpectralDecomposition,
              t) -> np.ndarray:
    """Double operator integral of T against the divided-difference symbol of f.

    The result U (L o X) V^T satisfies the S2 bound of eigenbasis_product.
    """
    mat = as_matrix(t)
    _require_shape("T", mat, (d1.dim, d2.dim))
    t_norm = frobenius(mat)  # before the products: it rejects a T whose norm overflows
    return d1.frame @ eigenbasis_product(f, d1.eigenvalues, d2.eigenvalues,
                                         d1.frame.T @ mat @ d2.frame, t_norm) @ d2.frame.T


def _require_shape(name: str, m: np.ndarray, shape: tuple) -> None:
    if m.shape != shape:
        raise ValidationError(f"{name} has shape {m.shape}, expected {shape} from the spectra")


def bs_residual_bound(a, b, lip: float) -> float:
    """The residual contract at the symmetric pair a, b: 0.0 at lip = 0, ValidationError if inf."""
    bound = BS_RESIDUAL_TOL * (1.0 + frobenius(a) + frobenius(b)) * float(lip) if lip else 0.0
    if not math.isfinite(bound):
        raise ValidationError("the Birman-Solomyak contract exceeds the float range")
    return bound


def birman_solomyak_delta(f: LipschitzFunction, a, b, *,
                          dec_a: SpectralDecomposition | None = None,
                          dec_b: SpectralDecomposition | None = None) -> tuple[np.ndarray, float]:
    """f(A) - f(B) and its Frobenius residual against the double operator integral.

    This is liplab's one f(A) - f(B), two spectral calculi subtracted, and
    every caller gets it checked.  The identity is exact in exact arithmetic,
    so the residual measures only rounding; above bs_residual_bound of the
    symmetric parts it raises SoundnessError.  At lip = 0 the integral is
    identically 0 and the residual is only frame rounding, so no contract
    applies.  Precomputed decompositions may be passed to avoid repeated
    eigendecompositions.

    A - B is formed only as a temporary inside X = U^T (A - B) V, and f(A) -
    f(B) is subtracted from the integral in place, so besides A, B and the
    frames the working set holds f(A) - f(B) and one product at a time.

    A and B are symmetrized first.  ValidationError unless their shapes match
    and f(A) - f(B) fits the floats: every entry of f(A) is at most ||f(A)||_2 <=
    |f(0)| + lip ||A||_F in size, and apply_function's symmetrization and the
    difference each at most double an entry.
    """
    ma = as_symmetric(a)
    mb = as_symmetric(b)
    if ma.shape != mb.shape:
        raise ValidationError(f"A and B must share a dimension, got {ma.shape} and {mb.shape}")
    f0 = float(f.at(np.zeros(1), "x =")[0])
    if not math.isfinite(2.0 * (abs(f0) + f.lip * max(frobenius(ma), frobenius(mb)))):
        raise ValidationError("f(A) - f(B) may exceed the float range")
    bound = bs_residual_bound(ma, mb, f.lip)
    t_norm = frobenius(ma - mb)
    da = dec_a if dec_a is not None else eigh_symmetric(ma)
    db = dec_b if dec_b is not None else eigh_symmetric(mb)
    delta = apply_function(f, da)
    delta -= apply_function(f, db)
    gap = da.frame @ eigenbasis_product(f, da.eigenvalues, db.eigenvalues,
                                        da.frame.T @ (ma - mb) @ db.frame, t_norm) @ db.frame.T
    gap -= delta
    residual = frobenius(gap)
    if f.lip > 0.0:
        SoundnessError.require("Birman-Solomyak residual out of contract", residual, bound)
    return delta, residual


def check_birman_solomyak(f: LipschitzFunction, a, b, *,
                          dec_a: SpectralDecomposition | None = None,
                          dec_b: SpectralDecomposition | None = None) -> float:
    """Frobenius residual of f(A) - f(B) against the double operator integral.

    See birman_solomyak_delta, which checks the contract and also returns
    f(A) - f(B) itself.
    """
    return birman_solomyak_delta(f, a, b, dec_a=dec_a, dec_b=dec_b)[1]


def rank_one_perturb(a, u, c: float) -> np.ndarray:
    """A + c * u u^T; the perturbation has rank one whenever c != 0."""
    ma = as_symmetric(a)
    vec = np.atleast_1d(np.asarray(u, dtype=float))
    if vec.shape != (ma.shape[0],):
        raise ValidationError(f"u must have length {ma.shape[0]}, got shape {vec.shape}")
    if not np.any(vec != 0.0):
        raise ValidationError("u must be nonzero")
    return as_symmetric(ma + float(c) * np.outer(vec, vec))
