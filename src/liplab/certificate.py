"""Weak-decay certificates for weighted divided-difference kernel operators.

Given a kernel operator I_k with kernel phi(x) dd_f(x, y) psi(y) on discrete
measures, certify(kop, n_values) materializes its matrix M once, runs a fully
constructive pipeline for each n and verifies every result against one SVD
of M, taken on a helper thread; build_certificate is the one-n form, unverified.
A zero kernel (lip, phi or psi zero) is not materialized: its certificates
have rank 0 and the same fields as any other, every bound 0.  Otherwise:

  1. normalize weights and function (||phi|| = ||psi|| = lip = 1); the
     normalized matrix is M divided by the removed norm product.  Each side's
     positions, coordinates, nonzero-weight mask and f / lip at the atoms are
     computed once per operator and read by every n;
  2. remove "heavy" atoms carrying weighted mass >= 1/n on either side
     (at most n per side) by zeroing their rows and columns;
  3. split the support window [-N, N] into at most n intervals, each of
     combined weight <= (4/n)(1 + CAP_SLACK) (greedy left-to-right sweep);
  4. for off-diagonal interval pairs, project out two defect vectors per
     interval (the weighted indicator and the weighted-f indicator), which
     cancels the first-order term of the kernel expanded around interval
     centers and leaves a corrected kernel with entrywise bound
     short/(short + dist).  The defects of an interval live on its atoms, a
     contiguous slice of the sorted atoms, so they are built and
     orthonormalized interval by interval and each projection acts within
     one interval;
  5. measure the Hilbert-Schmidt norm of what remains, row block by row block.

The result is a pair (r, b) with r <= 7n and s_r(I_k) <= b, verified
independently against the singular spectrum of M in verify_certificate.  A
certificate keeps the counts of nonzero raw defects per side (defect_counts),
not the vectors.  All reported bounds are in the scale of the original
operator (norm products multiplied back in).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (CertificateUnsoundError, PartitionInfeasibleError, ValidationError,
                     checked_integers)
from .ideals import singular_spectrum, singular_value_at, weak_s1_quasinorm
from .linalg import row_blocks
from .measures import WeightedKernelOperator, materialize

# Dimension-free constant for the weak quasinorm check in verify_certificate.
# The construction chain above certifies roughly 8 * (1 + 4 + 4 * sqrt(5)) ~ 110;
# measured ratios on random ensembles stay below 4.  Frozen generously
# between the two.
WEAK_NORM_CONSTANT = 64.0

# Tolerance for the verification comparisons, relative to the norm product
# ||phi|| ||psi|| lip, the scale every certified bound carries.
VERIFY_TOL = 1e-9

# Relative cutoff collapsing near-parallel defect vectors to one direction.
DEFECT_ANGLE_TOL = 1e-10

# Relative slack of the interval weight cap (4/n)(1 + CAP_SLACK).  Two unit sides
# without heavy atoms weigh exactly 4/n at n = 2; the rounding of their sums, an
# ulp or so per atom, stays below it, so they keep one interval.  The analytic
# bounds grow by a factor <= 1 + CAP_SLACK, which VERIFY_TOL covers.
CAP_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class IntervalPartition:
    """Contiguous intervals [edges[i], edges[i+1]) covering [-N, N], last closed.

    phi_weights[i] and psi_weights[i] are the weighted masses each side puts
    into interval i; their sum is capped by (4/n)(1 + CAP_SLACK).
    """

    edges: np.ndarray
    phi_weights: np.ndarray
    psi_weights: np.ndarray
    n: int

    def __post_init__(self):
        edges = np.atleast_1d(np.asarray(self.edges, dtype=float))
        pw = np.atleast_1d(np.asarray(self.phi_weights, dtype=float))
        qw = np.atleast_1d(np.asarray(self.psi_weights, dtype=float))
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "phi_weights", pw)
        object.__setattr__(self, "psi_weights", qw)
        # Neighbours are compared, not subtracted: a difference of edges at
        # +-1e308 overflows.
        if edges.size < 2 or np.any(edges[1:] < edges[:-1]):
            raise ValidationError("edges must be nondecreasing with at least two entries")
        count = edges.size - 1
        if pw.shape != (count,) or qw.shape != (count,):
            raise ValidationError("per-interval weights must match the interval count")
        if count > self.n:
            raise ValidationError(f"{count} intervals exceed the cap n = {self.n}")
        if np.any(pw + qw > 4.0 / self.n * (1.0 + CAP_SLACK)):
            raise ValidationError("an interval exceeds the combined weight cap 4/n")

    @property
    def count(self) -> int:
        return self.edges.size - 1

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.edges)

    @property
    def combined_weights(self) -> np.ndarray:
        return self.phi_weights + self.psi_weights

    def interval_of(self, positions) -> np.ndarray:
        """Index of the interval containing each position (last interval closed)."""
        pos = np.atleast_1d(np.asarray(positions, dtype=float))
        return np.clip(np.searchsorted(self.edges, pos, side="right") - 1, 0, self.count - 1)

    def distance(self, i, j) -> np.ndarray:
        """Distance between intervals i and j (0 for adjacent or identical); broadcasts."""
        e = self.edges
        return np.maximum(0.0, np.maximum(e[j] - e[i + 1], e[i] - e[j + 1]))


def partition(x: np.ndarray, cx: np.ndarray, y: np.ndarray, cy: np.ndarray, n: int,
              radius: float) -> IntervalPartition:
    """Greedy left-to-right split of [-radius, radius] into <= n intervals.

    x and y are the atom positions of the two sides, cx and cy their
    coordinates weight * sqrt(mass); an atom weighs its coordinate squared.
    radius must cover both sides.  Sweeping atom positions in order, an
    interval is closed just before adding the next position would push its
    combined weight above the cap (4/n)(1 + CAP_SLACK).  Every closed interval
    then carries weight > 2/n (a single position carries < 2/n once heavy atoms
    are zeroed), which forces the interval count <= n.  The cap is tested on
    the two per-side sums that IntervalPartition adds and checks, so it accepts
    every partition built here.  Raises PartitionInfeasibleError if a single
    position exceeds the cap, which can only happen when the heavy atoms were
    not zeroed.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    cap = 4.0 / n * (1.0 + CAP_SLACK)
    points, where = np.unique(np.r_[x, y], return_inverse=True)
    # A side's positions are distinct: each bin holds one atom's weight, or 0.
    per_side = [np.bincount(where[:x.size], np.square(cx), points.size).tolist(),
                np.bincount(where[x.size:], np.square(cy), points.size).tolist()]
    edges, closed, acc_x, acc_y = [-float(radius)], [], 0.0, 0.0
    for pos, wx, wy in zip(points.tolist(), *per_side):
        if wx + wy > cap:
            raise PartitionInfeasibleError(
                f"single position at {pos!r} carries weight {wx + wy!r} > 4/n = {4.0 / n!r}; "
                "was heavy-atom masking skipped?"
            )
        if (acc_x + wx) + (acc_y + wy) > cap:
            edges.append(float(pos))
            closed.append((acc_x, acc_y))
            acc_x = acc_y = 0.0
        acc_x += wx
        acc_y += wy
    return IntervalPartition(edges + [float(radius)], *zip(*closed, (acc_x, acc_y)), n)


def split_blocks(part: IntervalPartition):
    """All ordered interval pairs in three disjoint families, each in row-major order.

    diag: (i, i); upper: i != j with length(i) >= length(j) (ties included);
    lower: length(i) < length(j).  Together they cover every ordered pair
    exactly once.
    """
    families = _families(part)
    return tuple([tuple(pair) for pair in np.argwhere(families == family).tolist()]
                 for family in range(3))


def _families(part: IntervalPartition) -> np.ndarray:
    """Family of each ordered interval pair (i, j): 0 diag, 1 upper, 2 lower."""
    lengths = part.lengths
    families = np.where(lengths[:, None] >= lengths[None, :], 1, 2).astype(np.int8)
    np.fill_diagonal(families, 0)
    return families


def diag_weight_bound(part: IntervalPartition) -> float:
    """sqrt(sum_I phi_weight * psi_weight): the sharp product bound <= 2/sqrt(n)."""
    return float(np.sqrt(np.sum(part.phi_weights * part.psi_weights)))


def flat_bound(part: IntervalPartition) -> tuple[float, float]:
    """Analytic HS bounds for the corrected upper and lower block families.

    Each is sqrt((4/n^2) * sum over the family of short^2 / (short + dist)^2),
    with short the column-interval length for the upper family and the
    row-interval length for the lower family.  One interval has no such pairs,
    so its lengths and distances are not evaluated: the zero kernel's single
    interval [-R, R] may be wider than the float range.
    """
    if part.count == 1:
        return 0.0, 0.0
    lengths, index = part.lengths, np.arange(part.count)
    families = _families(part)
    distance = part.distance(index[:, None], index[None, :])
    short = np.where(families == 1, lengths[None, :], lengths[:, None])
    denom = short + distance
    ratio = np.divide(short, denom, out=np.zeros_like(denom), where=denom > 0.0)
    factor = 4.0 / part.n ** 2
    # Summed one pair at a time in row-major order, like a loop over split_blocks.
    return tuple(math.sqrt(factor * sum((ratio[families == family] ** 2).tolist()))
                 for family in (1, 2))


class _DefectBasis(NamedTuple):
    """Kept defect directions of one side, interval by interval.

    Each occupied interval is one segment (a slice) of the sorted atoms; on it
    the two rows of vectors hold the interval's kept directions or zeros.
    count is the number of nonzero raw defects, rank that of kept directions.
    """

    segments: list
    segment: np.ndarray
    vectors: np.ndarray
    rank: int
    count: int


def _defect_basis(base: np.ndarray, fvals: np.ndarray, idx: np.ndarray) -> _DefectBasis:
    """Orthonormal basis of one side's Taylor defects: base and base * fvals on each interval.

    base is weight * sqrt(mass) at the sorted atoms (zero where masked), fvals
    is f there and idx the interval of each atom.

    Two-pass Gram-Schmidt with segment sums factors each interval's defects
    as Q R with R 2 x 2.  One batched SVD of the R's gives the singular values
    of all defects, cut below DEFECT_ANGLE_TOL times the largest as one SVD
    of all defects would; a Gram matrix would square away that gap.
    """
    first = np.r_[True, idx[1:] != idx[:-1]]
    starts = np.flatnonzero(first)
    segment = np.cumsum(first) - 1

    def sums(x):
        return np.add.reduceat(x, starts)

    def normalized(x, norms):
        inverse = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0.0)
        return x * inverse[segment]

    weighted = base * fvals
    # Nonzero tests, not sums of squares, which can underflow to zero.
    count = np.count_nonzero(sums(base != 0.0)) + np.count_nonzero(sums(weighted != 0.0))
    r11 = np.sqrt(sums(base * base))
    q1 = normalized(base, r11)
    r12 = sums(q1 * weighted)
    rest = weighted - r12[segment] * q1
    again = sums(q1 * rest)  # the second pass restores orthogonality lost to cancellation
    rest -= again[segment] * q1
    r22 = np.sqrt(sums(rest * rest))
    r = np.zeros((starts.size, 2, 2))
    r[:, 0, 0], r[:, 0, 1], r[:, 1, 1] = r11, r12 + again, r22
    u, s, _ = np.linalg.svd(r)
    kept = s > DEFECT_ANGLE_TOL * s.max()
    u = u * kept[:, None, :]
    vectors = q1 * u[segment, 0, :].T + normalized(rest, r22) * u[segment, 1, :].T
    bounds = np.r_[starts, idx.size]
    segments = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    return _DefectBasis(segments, segment, vectors, int(np.count_nonzero(kept)), int(count))


def _residual_squares(m: np.ndarray, scale: float, row_keep: np.ndarray, col_keep: np.ndarray,
                      part: IntervalPartition, ix: np.ndarray, iy: np.ndarray,
                      col: _DefectBasis, row: _DefectBasis) -> np.ndarray:
    """Squared HS norms of the diagonal, upper and lower parts of the residual.

    A is m / scale with the rows and columns outside row_keep and col_keep
    (zero weights and heavy atoms) zeroed, U and L its upper and lower
    families; ix and iy are the intervals of its rows and columns.  Families
    are constant on interval blocks and Q is block diagonal, so U Qc and
    Qr^T L take one small product per interval.
    E = A - U Qc Qc^T - Qr Qr^T L is formed one row block at a time and its
    squares are summed per family.
    """
    families = _families(part)
    col_factor = np.where(col_keep, 1.0 / scale, 0.0)
    # up[i, t, s] = (U Qc)[i, direction t of column segment s];
    # low[t, s, j] = (Qr^T L)[direction t of row segment s, j].
    up = np.stack([(m[:, seg] @ (col.vectors[:, seg] * col_factor[seg]).T)
                   * (row_keep * (families[ix, iy[seg.start]] == 1))[:, None]
                   for seg in col.segments], axis=2)
    low = np.stack([(row.vectors[:, seg] @ m[seg]) * col_factor
                    * (families[ix[seg.start], iy] == 2) for seg in row.segments], axis=1)
    starts = [seg.start for seg in col.segments]
    segment_families = families[:, iy[starts]]
    squares = np.zeros(3)
    for rows in row_blocks(*m.shape):
        e = m[rows] * col_factor
        e[~row_keep[rows]] = 0.0
        for t in range(2):
            e -= up[rows, t][:, col.segment] * col.vectors[t]
            e -= row.vectors[t, rows, None] * low[t][row.segment[rows]]
        per_segment = np.add.reduceat(e * e, starts, axis=1)
        squares += np.bincount(segment_families[ix[rows]].ravel(), per_segment.ravel(),
                               minlength=3)
    return squares


@dataclass(frozen=True, eq=False)
class WeakDecayCertificate:
    """Machine-checkable record that s_r of the operator is at most b.

    All bounds (residual_hs, empirical_bound, analytic_bound, components) are
    in the scale of the original, un-normalized operator.
    """

    n: int
    truncation_radius: float
    heavy_x: np.ndarray
    heavy_y: np.ndarray
    partition: IntervalPartition
    defect_counts: dict
    defect_rank: int
    residual_hs: float
    empirical_bound: float
    analytic_bound: float
    scale: float
    components: dict = field(default_factory=dict)


def build_certificate(kop: WeightedKernelOperator, n: int) -> WeakDecayCertificate:
    """Run the constructive pipeline for one n, without verification (see certify).

    The certificate satisfies s_{defect_rank}(M) <= empirical_bound for
    M = materialize(kop), with defect_rank <= 7n: the difference between M
    and the measured residual factors through the heavy rows/columns and the
    defect-vector spans, and an extra codimension n converts the HS norm into
    the operator-norm bound (s_n(E) <= ||E||_HS / sqrt(n + 1)).  Raises
    ValidationError if the pipeline's intermediates would overflow.
    """
    checked_integers([n], 1, "n")
    return _prepare(kop)[1](n)


def certify(kop: WeightedKernelOperator, n_values) -> tuple[np.ndarray, list]:
    """Build and verify the certificate for each n with one materialization and one SVD.

    Returns the singular spectrum of materialize(kop) and one (certificate,
    VerificationReport) pair per n.  Raises CertificateUnsoundError if a
    certificate fails verification, ValidationError, before the SVD, if the
    pipeline's intermediates would overflow, and ConvergenceError if the SVD
    does not converge.

    The SVD runs on a one-worker executor while this thread builds the
    certificates; both only read M, and numpy releases the GIL inside LAPACK.
    Leaving the executor joins its thread, so certify never returns or raises
    with the SVD still running, and an SVD error is raised again here.  Peak
    memory is M plus the SVD's Fortran copy and workspace plus the
    certificates' temporaries, which coexist.  The spectrum is the same call on
    the same input as a serial singular_spectrum(M), so its bits do not change.
    """
    n_values = checked_integers(n_values, 1, "n values")  # before any O(d^3) work
    m, build = _prepare(kop)
    # Imported here, like the sweep pool: importing liplab does not need it.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1, thread_name_prefix="certify-svd") as helper:
        svd = helper.submit(singular_spectrum, m)
        certificates = [build(n) for n in n_values]
    spectrum = svd.result()
    return spectrum, [(cert, verify_certificate(kop, cert, spectrum=spectrum))
                      for cert in certificates]


def _prepare(kop: WeightedKernelOperator):
    """(M, build): M = materialize(kop), zeros for a zero kernel, and build(n).

    A weight norm is 0 only where every coordinate is, and then so is M.
    materialize's checks run first, then the pipeline's overflow checks, so
    certify raises their ValidationError before it starts the SVD: the norms
    must be normal floats, the partition spans [-R, R], and the defect basis
    sums squares of at most sum((weight * sqrt(mass) * f / lip)^2) over a side.
    A zero kernel's norms and their product must be finite too: verification
    reads the product, which is otherwise nan (0 * inf).
    """
    a, b, lip, scale = kop.phi_norm, kop.psi_norm, kop.f.lip, kop.norm_product
    zero = min(a, b, lip) == 0.0
    m = np.zeros((kop.mu.size, kop.nu.size)) if zero else materialize(kop)
    # scale < inf fails if any factor, or their product, is inf or nan.
    if not (scale < math.inf and (zero or min(a, b, lip, scale) >= np.finfo(float).tiny)):
        raise ValidationError(f"||phi|| = {a!r}, ||psi|| = {b!r}, lip = {lip!r} or their "
                              f"product {scale!r} is outside the normal float range")
    radius = kop.support_radius
    if zero:
        empty = np.empty(0, dtype=int)
        return m, lambda n: _record(
            n, radius, 0.0, empty, empty,
            IntervalPartition(np.array([-radius, radius]), np.zeros(1), np.zeros(1), n),
            {"column": 0, "row": 0}, 0, np.zeros(3))
    if not math.isfinite(2.0 * radius):
        raise ValidationError(f"support window [-{radius!r}, {radius!r}] is wider than the "
                              "float range")
    sides = []
    for measure, weights, norm in ((kop.mu, kop.phi, a), (kop.nu, kop.psi, b)):
        unit = weights / norm
        coordinates = measure.coordinates(unit)
        with np.errstate(over="ignore", invalid="ignore"):  # f / lip overflows if lip < 1
            fvals = (1.0 / lip) * kop.f.at(measure.positions, "an atom")
            squares = np.sum(np.square(coordinates * fvals))
        if not np.isfinite(squares):
            raise ValidationError("the weighted squares of the normalized function values "
                                  "at the atoms overflow the float range")
        sides.append(_Side(measure.positions, coordinates, unit != 0.0, fvals))
    return m, lambda n: _certificate(m, scale, radius, *sides, n)


class _Side(NamedTuple):
    """One side of the normalized operator (||weights|| = lip = 1), read by every n.

    coordinates are weight * sqrt(mass) and keep marks the nonzero weights:
    a weight whose coordinate underflows to 0 still has a row or column in M.
    """

    positions: np.ndarray
    coordinates: np.ndarray
    keep: np.ndarray
    fvals: np.ndarray

    def light(self, n: int):
        """(heavy, coordinates, keep): the heavy atoms, coordinate^2 >= 1/n, zeroed in copies."""
        heavy = np.flatnonzero(np.square(self.coordinates) >= 1.0 / n)
        coordinates, keep = self.coordinates.copy(), self.keep.copy()
        coordinates[heavy] = 0.0
        keep[heavy] = False
        return heavy, coordinates, keep


def _certificate(m: np.ndarray, scale: float, radius: float, x: _Side, y: _Side,
                 n: int) -> WeakDecayCertificate:
    (hx, cx, row_keep), (hy, cy, col_keep) = x.light(n), y.light(n)
    part = partition(x.positions, cx, y.positions, cy, n, radius)
    ix, iy = part.interval_of(x.positions), part.interval_of(y.positions)
    col = _defect_basis(cy, y.fvals, iy)
    row = _defect_basis(cx, x.fvals, ix)
    return _record(n, radius, scale, hx, hy, part, {"column": col.count, "row": row.count},
                   int(hx.size + hy.size + col.rank + row.rank + n),
                   _residual_squares(m, scale, row_keep, col_keep, part, ix, iy, col, row))


def _record(n: int, radius: float, scale: float, hx: np.ndarray, hy: np.ndarray,
            part: IntervalPartition, defect_counts: dict, defect_rank: int,
            squares: np.ndarray) -> WeakDecayCertificate:
    """The certificate from the pipeline's results for one n; scale = 0 makes every bound 0."""
    residual = math.sqrt(squares.sum())
    diag_hs, upper_hs, lower_hs = np.sqrt(squares)
    flat_up, flat_low = flat_bound(part)

    # Analytic chain: the 4/sqrt(n) diagonal bound and the separation-sum
    # bounds for the two corrected families.
    analytic_hs = 4.0 / math.sqrt(n) + flat_up + flat_low
    root = math.sqrt(n + 1.0)
    return WeakDecayCertificate(
        n=n,
        truncation_radius=radius,
        heavy_x=hx,
        heavy_y=hy,
        partition=part,
        defect_counts=defect_counts,
        defect_rank=defect_rank,
        residual_hs=scale * residual,
        empirical_bound=scale * residual / root,
        analytic_bound=scale * analytic_hs / root,
        scale=scale,
        components={
            # Nothing outside the support window is discarded; the field stays
            # for format compatibility.
            "tail_hs": 0.0,
            "diag_hs": scale * diag_hs,
            "diag_weight_bound": scale * diag_weight_bound(part),
            "diag_apriori_bound": scale * 4.0 / math.sqrt(n),
            "upper_hs": scale * upper_hs,
            "lower_hs": scale * lower_hs,
            "flat_upper": scale * flat_up,
            "flat_lower": scale * flat_low,
        },
    )


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    singular_value: float
    weak_quasinorm: float
    norm_product: float
    weak_ratio: float


def verify_certificate(kop: WeightedKernelOperator, cert: WeakDecayCertificate, *,
                       spectrum: np.ndarray) -> VerificationReport:
    """Check a certificate against spectrum, the singular spectrum of materialize(kop).

    (a) s_{r}(M) <= b, (b) b <= analytic_bound, (c) the weak quasinorm of the
    spectrum is at most WEAK_NORM_CONSTANT times ||phi|| ||psi|| lip, each up to
    VERIFY_TOL times that norm product, and the rank budget r <= 7n.  Raises
    CertificateUnsoundError on any failure.
    """
    s_r = singular_value_at(spectrum, cert.defect_rank)
    product = kop.norm_product
    slack = VERIFY_TOL * product
    CertificateUnsoundError.require(f"s_{cert.defect_rank} violates the certified bound",
                                    s_r, cert.empirical_bound + slack)
    CertificateUnsoundError.require("empirical bound exceeds the analytic bound",
                                    cert.empirical_bound, cert.analytic_bound + slack)
    CertificateUnsoundError.require("defect rank exceeds 7n", cert.defect_rank, 7 * cert.n)
    weak = weak_s1_quasinorm(spectrum)
    CertificateUnsoundError.require(
        "weak quasinorm exceeds the reported constant times the norm product",
        weak, WEAK_NORM_CONSTANT * product + slack)
    return VerificationReport(
        passed=True,
        singular_value=s_r,
        weak_quasinorm=weak,
        norm_product=product,
        weak_ratio=weak / product if product > 0 else 0.0,
    )
