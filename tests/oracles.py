"""Dense reference implementations that tests compare the library against.

The certificate pipeline used to run on full matrices: an SVD of all defect
vectors at once, dense projectors and an explicit residual matrix.  The
library now works interval by interval and streams the residual; the dense
path lives on here as the oracle it must agree with.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

import numpy as np

from liplab.certificate import CAP_SLACK, DEFECT_ANGLE_TOL, IntervalPartition, partition
from liplab.errors import ValidationError
from liplab.functions import LipschitzFunction
from liplab.linalg import frobenius
from liplab.measures import WeightedKernelOperator, materialize


def estimate_lip_seminorm(f: LipschitzFunction, grid) -> float:
    """Max slope over consecutive distinct grid points; a lower bound for lip."""
    pts = np.unique(np.asarray(grid, dtype=float))
    if pts.size < 2:
        raise ValidationError("lip estimation needs at least 2 distinct grid points")
    vals = f.at(pts, "grid point")
    return float(np.max(np.abs(np.diff(vals)) / np.diff(pts)))


def divided_differences(f: LipschitzFunction, xs, ys) -> np.ndarray:
    """Dense (f(x) - f(y)) / (x - y) at xs (rows) and ys (columns), 0 where x = y,
    clipped to [-lip, lip]; f is taken through f.at."""
    diff = np.subtract.outer(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        quotients = np.subtract.outer(f.at(xs, "x ="), f.at(ys, "y =")) / diff
    return np.clip(np.where(diff == 0.0, 0.0, quotients), -f.lip, f.lip)


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


def taylor_defects(part: IntervalPartition, kop: WeightedKernelOperator, side: str):
    """Per-interval defect vectors in the orthonormal atom basis, as dense vectors.

    side "column": for each interval J, the vectors representing psi * chi_J
    and psi * f * chi_J in L2(nu) coordinates (psi(y_j) sqrt(nu_j) on atoms of
    J, optionally multiplied by f(y_j)).  side "row": the mirrored phi-side
    vectors in L2(mu) coordinates.  Zero vectors (empty or fully masked
    intervals) are skipped, so at most 2 * count vectors are returned.
    """
    if side == "column":
        positions, masses, weights = kop.nu.positions, kop.nu.masses, kop.psi
    elif side == "row":
        positions, masses, weights = kop.mu.positions, kop.mu.masses, kop.phi
    else:
        raise ValidationError(f"side must be 'column' or 'row', got {side!r}")
    base = weights * np.sqrt(masses)
    fvals = kop.f.at(positions, "an atom")
    idx = part.interval_of(positions)
    out = []
    for interval in range(part.count):
        sel = idx == interval
        plain = np.where(sel, base, 0.0)
        if not np.any(plain != 0.0):
            continue
        out.append(plain)
        weighted = plain * fvals
        if np.any(weighted != 0.0):
            out.append(weighted)
    return out


def masked_operator(kop: WeightedKernelOperator, n: int):
    """(masked, heavy_x, heavy_y, part): kop normalized and its heavy atoms zeroed, densely.

    masked has ||phi|| = ||psi|| = lip = 1 before the weights of the heavy
    atoms (weight^2 * mass >= 1/n) are zeroed; part is the library's
    partition of it.  Bounds for masked times kop.norm_product are in kop's scale.
    """
    f = kop.f
    unit_f = LipschitzFunction(f"{f.name}/lip", lambda x: (1.0 / f.lip) * f.eval(x), 1.0)
    weights, heavy = [], []
    for measure, unit in ((kop.mu, kop.phi / kop.phi_norm), (kop.nu, kop.psi / kop.psi_norm)):
        heavy.append(np.flatnonzero(np.square(measure.coordinates(unit)) >= 1.0 / n))
        weights.append(np.where(np.isin(np.arange(unit.size), heavy[-1]), 0.0, unit))
    masked = WeightedKernelOperator(kop.mu, kop.nu, *weights, unit_f)
    part = partition(kop.mu.positions, kop.mu.coordinates(masked.phi), kop.nu.positions,
                     kop.nu.coordinates(masked.psi), n, kop.support_radius)
    return masked, *heavy, part


def dense_certificate(kop: WeightedKernelOperator, n: int) -> dict:
    """The certificate's residual norms and defect rank by the dense pipeline.

    Materializes the masked operator, orthonormalizes all
    defects of a side with one SVD, projects with dense matrix products and
    takes the HS norm of the full residual matrix E.  Norms are in the
    original operator's scale, as in WeakDecayCertificate; defect_counts are
    the numbers of raw defects per side.
    """
    masked, hx, hy, part = masked_operator(kop, n)
    scale = kop.norm_product

    m_masked = materialize(masked)
    _, _, upper_mask, lower_mask, diag_mask = correction_ratios(part, masked)
    m_diag = np.where(diag_mask, m_masked, 0.0)
    m_upper = np.where(upper_mask, m_masked, 0.0)
    m_lower = np.where(lower_mask, m_masked, 0.0)
    col_defects = taylor_defects(part, masked, "column")
    row_defects = taylor_defects(part, masked, "row")
    q_col = orthonormal_columns(col_defects, masked.nu.size, rel_tol=DEFECT_ANGLE_TOL)
    q_row = orthonormal_columns(row_defects, masked.mu.size, rel_tol=DEFECT_ANGLE_TOL)
    upper = m_upper - (m_upper @ q_col) @ q_col.T
    lower = m_lower - q_row @ (q_row.T @ m_lower)
    e = m_diag + upper + lower
    return {
        "residual_hs": scale * frobenius(e),
        "diag_hs": scale * frobenius(m_diag),
        "upper_hs": scale * frobenius(upper),
        "lower_hs": scale * frobenius(lower),
        "defect_rank": int(hx.size + hy.size + q_col.shape[1] + q_row.shape[1] + n),
        "defect_counts": {"column": len(col_defects), "row": len(row_defects)},
    }


# Relative margin within which an exact decision counts as a tie that rounding may flip:
# far above the rounding of the small sums replayed here (about 1e-15), and below
# the partition's CAP_SLACK, so an interval weighing exactly 4/n is not a tie.
TIE = Fraction(1, 10**13)


def _near(lhs: Fraction, rhs: Fraction) -> bool:
    return abs(lhs - rhs) <= TIE * abs(rhs)


def exact_heavy(coordinates, n: int):
    """(heavy, ties): the atoms with n * c_i^2 >= sum(c^2), in exact arithmetic.

    coordinates are weight * sqrt(mass) before normalization, taken exactly as
    Fractions; ties are the atoms whose two sides differ by at most TIE
    relative, where the library's rounded normalization may decide either way.
    """
    squares = [Fraction(float(c)) ** 2 for c in coordinates]
    total = sum(squares)
    heavy = {i for i, s in enumerate(squares) if n * s >= total}
    ties = {i for i, s in enumerate(squares) if _near(n * s, total)}
    return heavy, ties


def exact_edges(x, cx, heavy_x, y, cy, heavy_y, n: int, radius: float):
    """(edges, settled): the greedy partition of [-radius, radius], in exact arithmetic.

    An atom weighs c_i^2 / sum(c^2) over its side, 0 if heavy; the positions
    are swept in order, and an interval is closed before the position whose
    weight would push it above the library's cap (4/n)(1 + CAP_SLACK).
    edges[:settled] were fixed before the first close decision within TIE of
    that cap, which rounding may flip; settled is len(edges) if there is none.
    """
    weight: dict = {}
    for positions, coordinates, heavy in ((x, cx, heavy_x), (y, cy, heavy_y)):
        squares = [Fraction(float(c)) ** 2 for c in coordinates]
        total = sum(squares)
        for i, (pos, s) in enumerate(zip(positions, squares)):
            weight[float(pos)] = weight.get(float(pos), 0) + (0 if i in heavy else s / total)
    cap = Fraction(4, n) * (1 + Fraction(CAP_SLACK))
    edges, acc, settled = [-float(radius)], Fraction(0), None
    for pos in sorted(weight):
        if settled is None and _near(acc + weight[pos], cap):
            settled = len(edges)
        if acc + weight[pos] > cap:
            edges.append(pos)
            acc = Fraction(0)
        acc += weight[pos]
    edges.append(float(radius))
    return edges, len(edges) if settled is None else settled


def exact_defect_rank(positions, coordinates, heavy, fvalues, edges) -> int:
    """The rank of one side's Taylor defects over the partition edges, counted exactly.

    On each interval the defects are c and c * f, with c the coordinates of
    the interval's light atoms (those not in heavy) and f the values there.
    Over the atoms with a nonzero coordinate, c * f is a multiple of c exactly
    when f is constant on them, so the interval adds its number of distinct f
    values there, capped at 2 (none if every coordinate is 0).  An atom lies
    in interval k when exactly k interior edges are at or below it, as in
    IntervalPartition.interval_of.
    """
    interior = [float(e) for e in edges[1:-1]]
    values: dict = {}
    for i, (pos, c, fv) in enumerate(zip(positions, coordinates, fvalues)):
        if c != 0.0 and i not in heavy:
            values.setdefault(bisect_right(interior, float(pos)), set()).add(Fraction(float(fv)))
    return sum(min(2, len(v)) for v in values.values())
