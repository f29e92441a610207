"""Dense reference implementations that tests compare the library against.

The certificate pipeline used to run on full matrices: a truncation stage, an
SVD of all defect vectors at once, dense projectors and an explicit residual
matrix.  The library now works interval by interval and streams the residual;
the dense path lives on here as the oracle it must agree with.
"""

from __future__ import annotations

import math

import numpy as np

from liplab.certificate import (DEFECT_ANGLE_TOL, IntervalPartition, heavy_atoms, mask,
                                normalize, partition, taylor_defects)
from liplab.errors import ValidationError
from liplab.functions import LipschitzFunction
from liplab.linalg import frobenius
from liplab.measures import WeightedKernelOperator, materialize


def estimate_lip_seminorm(f: LipschitzFunction, grid) -> float:
    """Max slope over consecutive distinct grid points; a lower bound for lip."""
    pts = np.unique(np.asarray(grid, dtype=float))
    if pts.size < 2:
        raise ValidationError("lip estimation needs at least 2 distinct grid points")
    vals = np.asarray(f(pts), dtype=float)
    return float(np.max(np.abs(np.diff(vals)) / np.diff(pts)))


def orthonormal_columns(vectors, dim: int, rel_tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis (as columns) of the span of the given vectors.

    rel_tol is the relative singular-value cutoff separating independent
    directions from near-parallel duplicates.
    """
    rows = [np.asarray(v, dtype=float) for v in vectors]
    rows = [v for v in rows if v.size and np.linalg.norm(v) > 0.0]
    if not rows:
        return np.zeros((dim, 0))
    stack = np.column_stack(rows)
    if stack.shape[0] != dim:
        raise ValidationError(f"vectors must have length {dim}, got {stack.shape[0]}")
    u, s, _ = np.linalg.svd(stack, full_matrices=False)
    rank = int(np.sum(s > rel_tol * s[0])) if s.size else 0
    return u[:, :rank]


def complement_projector(vectors, dim: int) -> np.ndarray:
    """Orthogonal projector onto the complement of span(vectors) in R^dim.

    Zero vectors are skipped; near-parallel vectors collapse to a single
    direction.  P satisfies P^2 = P = P^T and rank(P) = dim - rank(span).
    """
    basis = orthonormal_columns(vectors, dim)
    return np.eye(dim) - basis @ basis.T


def truncation_tail_hs(kop: WeightedKernelOperator, radius: float) -> float:
    """HS norm of the kernel block discarded by restricting to [-radius, radius]."""
    m = materialize(kop)
    inside_x = np.abs(kop.mu.positions) <= radius
    inside_y = np.abs(kop.nu.positions) <= radius
    keep = inside_x[:, None] & inside_y[None, :]
    return float(np.sqrt(np.sum(np.where(keep, 0.0, m) ** 2)))


def doubling_truncation_radius(kop: WeightedKernelOperator, n: int, start: float = 1.0) -> float:
    """Smallest radius from the doubling search start, 2*start, ... with tail < 1/sqrt(n)."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    if start <= 0:
        raise ValidationError("start radius must be positive")
    cap = kop.support_radius
    target = 1.0 / math.sqrt(n)
    radius = float(start)
    while radius < cap and truncation_tail_hs(kop, radius) >= target:
        radius *= 2.0
    return min(radius, cap)


def truncate(kop: WeightedKernelOperator, radius: float) -> WeightedKernelOperator:
    """Zero the weights of all atoms outside [-radius, radius] (closed window)."""
    phi = np.where(np.abs(kop.mu.positions) <= radius, kop.phi, 0.0)
    psi = np.where(np.abs(kop.nu.positions) <= radius, kop.psi, 0.0)
    return kop.with_weights(phi, psi)


def diag_block_hs(kop: WeightedKernelOperator, part: IntervalPartition) -> float:
    """Exact HS norm of the diagonal interval blocks of the materialized operator."""
    m = materialize(kop)
    ix, iy = part.interval_of(kop.mu.positions), part.interval_of(kop.nu.positions)
    on_diag = ix[:, None] == iy[None, :]
    return float(np.sqrt(np.sum(np.where(on_diag, m, 0.0) ** 2)))


def correction_ratios(part: IntervalPartition, kop: WeightedKernelOperator):
    """Entrywise Taylor correction factors for the upper and lower families.

    Upper blocks (row interval at least as long) are corrected by
    (y - c(J)) / (x - c(J)) with J the column interval; lower blocks by
    (x - c(I)) / (y - c(I)) with I the row interval.  Returns (upper_ratio,
    lower_ratio, upper_mask, lower_mask, diag_mask).
    """
    ix = part.interval_of(kop.mu.positions)
    iy = part.interval_of(kop.nu.positions)
    lengths = part.lengths
    centers = 0.5 * (part.edges[:-1] + part.edges[1:])
    x = kop.mu.positions[:, None]
    y = kop.nu.positions[None, :]
    li = lengths[ix][:, None]
    lj = lengths[iy][None, :]
    same = ix[:, None] == iy[None, :]
    upper_mask = (~same) & (li >= lj)
    lower_mask = (~same) & (li < lj)

    cj = centers[iy][None, :]
    ci = centers[ix][:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        up = np.where(upper_mask, (y - cj) / (x - cj), 0.0)
        low = np.where(lower_mask, (x - ci) / (y - ci), 0.0)
    return np.nan_to_num(up), np.nan_to_num(low), upper_mask, lower_mask, same


def upper_corrected_matrix(kop: WeightedKernelOperator, part: IntervalPartition) -> np.ndarray:
    """The corrected kernel matrix on the upper block family (algebraic form)."""
    return materialize(kop) * correction_ratios(part, kop)[0]


def lower_corrected_matrix(kop: WeightedKernelOperator, part: IntervalPartition) -> np.ndarray:
    """The corrected kernel matrix on the lower block family (algebraic form)."""
    return materialize(kop) * correction_ratios(part, kop)[1]


def dense_certificate(kop: WeightedKernelOperator, n: int) -> dict:
    """The certificate's residual norms and defect rank by the dense pipeline.

    Materializes the truncated and masked operators, orthonormalizes all
    defects of a side with one SVD, projects with dense matrix products and
    takes the HS norm of the full residual matrix E.  Norms are in the
    original operator's scale, as in WeakDecayCertificate.
    """
    unit, scale = normalize(kop)
    radius = unit.support_radius
    trunc = truncate(unit, radius)
    hx = heavy_atoms(trunc.mu, trunc.phi, n)
    hy = heavy_atoms(trunc.nu, trunc.psi, n)
    masked = mask(trunc, hx, hy)
    part = partition(masked, n, radius)

    m_masked = materialize(masked)
    _, _, upper_mask, lower_mask, diag_mask = correction_ratios(part, masked)
    m_diag = np.where(diag_mask, m_masked, 0.0)
    m_upper = np.where(upper_mask, m_masked, 0.0)
    m_lower = np.where(lower_mask, m_masked, 0.0)
    q_col = orthonormal_columns(taylor_defects(part, masked, "column"), masked.nu.size,
                                rel_tol=DEFECT_ANGLE_TOL)
    q_row = orthonormal_columns(taylor_defects(part, masked, "row"), masked.mu.size,
                                rel_tol=DEFECT_ANGLE_TOL)
    upper = m_upper - (m_upper @ q_col) @ q_col.T
    lower = m_lower - q_row @ (q_row.T @ m_lower)
    e = (materialize(unit) - materialize(trunc)) + m_diag + upper + lower
    return {
        "residual_hs": scale * frobenius(e),
        "diag_hs": scale * frobenius(m_diag),
        "upper_hs": scale * frobenius(upper),
        "lower_hs": scale * frobenius(lower),
        "defect_rank": int(hx.size + hy.size + q_col.shape[1] + q_row.shape[1] + n),
    }
