"""Weak-decay certificates for weighted divided-difference kernel operators.

Given a kernel operator I_k with kernel phi(x) dd_f(x, y) psi(y) on discrete
measures, certify(kop, n_values) materializes its matrix M once, runs a fully
constructive pipeline for each n and verifies every result against one SVD
of M:

  1. normalize weights and function (||phi|| = ||psi|| = lip = 1); the
     normalized matrix is M divided by the removed norm product;
  2. remove "heavy" atoms carrying weighted mass >= 1/n on either side
     (at most n per side) by zeroing their rows and columns;
  3. split the support window [-N, N] into at most n intervals, each of
     combined weight <= 4/n (greedy left-to-right sweep);
  4. for off-diagonal interval pairs, project out two defect vectors per
     interval (the weighted indicator and the weighted-f indicator), which
     cancels the first-order term of the kernel expanded around interval
     centers and leaves a corrected kernel with entrywise bound
     short/(short + dist).  The defects of an interval live on its atoms, a
     contiguous slice of the sorted atoms, so they are orthonormalized
     interval by interval and each projection acts within one interval;
  5. measure the Hilbert-Schmidt norm of what remains, row block by row block.

The result is a pair (r, b) with r <= 7n and s_r(I_k) <= b, verified
independently against the singular spectrum of M in verify_certificate.  All
reported bounds are in the scale of the original operator (norm products
multiplied back in).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import CertificateUnsoundError, PartitionInfeasibleError, ValidationError
from .ideals import singular_spectrum, singular_value_at, weak_s1_quasinorm
from .measures import DiscreteMeasure, WeightedKernelOperator, materialize, row_blocks

# Dimension-free constant for the weak quasinorm check in verify_certificate.
# The construction chain above certifies roughly 8 * (1 + 4 + 4 * sqrt(5)) ~ 110;
# measured ratios on random ensembles stay below 4.  Frozen generously
# between the two.
WEAK_NORM_CONSTANT = 64.0

# Tolerance for the verification comparisons (absolute, original scale).
VERIFY_TOL = 1e-9

# Relative cutoff collapsing near-parallel defect vectors to one direction.
DEFECT_ANGLE_TOL = 1e-10


def normalize(kop: WeightedKernelOperator) -> tuple[WeightedKernelOperator, float]:
    """Scale weights and function to ||phi|| = ||psi|| = lip = 1.

    Returns the normalized operator and the scale factor (the product of the
    removed norms) that converts bounds for the normalized operator back to
    the original one.  Idempotent up to rounding.
    """
    a = kop.phi_norm
    b = kop.psi_norm
    lip = kop.f.lip
    if a == 0.0 or b == 0.0:
        raise ValidationError("cannot normalize an operator with zero phi or psi")
    if lip <= 0.0:
        raise ValidationError("cannot normalize a function with zero Lipschitz seminorm")
    scaled = WeightedKernelOperator(
        kop.mu, kop.nu, kop.phi / a, kop.psi / b, kop.f.rescaled(1.0 / lip)
    )
    return scaled, a * b * lip


def heavy_atoms(measure: DiscreteMeasure, weights, n: int) -> np.ndarray:
    """Indices of atoms with weight^2 * mass >= 1/n.

    With the side normalized (sum of weight^2 * mass <= 1) there are at most
    n such atoms.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    if w.shape != measure.positions.shape:
        raise ValidationError("weights must have one value per atom")
    return np.nonzero(w * w * measure.masses >= 1.0 / n)[0]


def mask(kop: WeightedKernelOperator, heavy_x, heavy_y) -> WeightedKernelOperator:
    """Zero phi at heavy_x indices and psi at heavy_y indices.

    The materialized difference between input and output is supported on the
    zeroed rows and columns, hence has rank at most len(heavy_x) + len(heavy_y).
    """
    hx = np.asarray(heavy_x, dtype=int)
    hy = np.asarray(heavy_y, dtype=int)
    if hx.size and (hx.min() < 0 or hx.max() >= kop.mu.size):
        raise ValidationError("heavy_x contains out-of-range indices")
    if hy.size and (hy.min() < 0 or hy.max() >= kop.nu.size):
        raise ValidationError("heavy_y contains out-of-range indices")
    phi = kop.phi.copy()
    psi = kop.psi.copy()
    phi[hx] = 0.0
    psi[hy] = 0.0
    return kop.with_weights(phi, psi)


@dataclass(frozen=True, eq=False)
class IntervalPartition:
    """Contiguous intervals [edges[i], edges[i+1]) covering [-N, N], last closed.

    phi_weights[i] and psi_weights[i] are the weighted masses each side puts
    into interval i; their sum is capped by 4/n.
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
        if edges.size < 2 or np.any(np.diff(edges) < 0):
            raise ValidationError("edges must be nondecreasing with at least two entries")
        count = edges.size - 1
        if pw.shape != (count,) or qw.shape != (count,):
            raise ValidationError("per-interval weights must match the interval count")
        if count > self.n:
            raise ValidationError(f"{count} intervals exceed the cap n = {self.n}")
        cap = 4.0 / self.n
        combined = pw + qw
        if np.any(combined > cap * (1.0 + 1e-12)):
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
        idx = np.searchsorted(self.edges, pos, side="right") - 1
        return np.clip(idx, 0, self.count - 1)

    def distance(self, i: int, j: int) -> float:
        """Distance between intervals i and j (0 for adjacent or identical)."""
        e = self.edges
        return float(max(0.0, e[j] - e[i + 1], e[i] - e[j + 1]))


def partition(kop: WeightedKernelOperator, n: int, radius: float) -> IntervalPartition:
    """Greedy left-to-right split of [-radius, radius] into <= n intervals.

    radius must cover the support of both measures.  Sweeping atom positions
    in order, an interval is closed just before adding the next position would
    push its combined weight above 4/n.  Every closed interval then carries
    weight > 2/n (a single position carries < 2/n once heavy atoms are
    masked), which forces the interval count <= n.  Raises
    PartitionInfeasibleError if a single position exceeds the cap, which can
    only happen when masking was skipped.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    cap = 4.0 / n
    phi_mass = kop.phi ** 2 * kop.mu.masses
    psi_mass = kop.psi ** 2 * kop.nu.masses
    points, where = np.unique(np.r_[kop.mu.positions, kop.nu.positions], return_inverse=True)
    contributions = np.zeros(points.size)
    np.add.at(contributions, where, np.r_[phi_mass, psi_mass])

    edges = [-float(radius)]
    acc = 0.0
    occupied = False
    for pos, w in zip(points.tolist(), contributions.tolist()):
        if w > cap:
            raise PartitionInfeasibleError(
                f"single position at {pos!r} carries weight {w!r} > 4/n = {cap!r}; "
                "was heavy-atom masking skipped?"
            )
        if occupied and acc + w > cap:
            edges.append(float(pos))
            acc = 0.0
        acc += w
        occupied = True
    edges.append(float(radius))

    count = len(edges) - 1
    # Bin the per-side weights into the final intervals (last one closed).
    bins = [np.clip(np.searchsorted(edges, x, side="right") - 1, 0, count - 1)
            for x in (kop.mu.positions, kop.nu.positions)]
    return IntervalPartition(np.asarray(edges),
                             np.bincount(bins[0], weights=phi_mass, minlength=count),
                             np.bincount(bins[1], weights=psi_mass, minlength=count), n)


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


def _defect_inputs(kop: WeightedKernelOperator, side: str):
    """Positions, weight * sqrt(mass) and f values of the atoms of one side."""
    if side == "column":
        positions, masses, weights = kop.nu.positions, kop.nu.masses, kop.psi
    elif side == "row":
        positions, masses, weights = kop.mu.positions, kop.mu.masses, kop.phi
    else:
        raise ValidationError(f"side must be 'column' or 'row', got {side!r}")
    return positions, weights * np.sqrt(masses), np.asarray(kop.f(positions), dtype=float)


def taylor_defects(part: IntervalPartition, kop: WeightedKernelOperator, side: str):
    """Per-interval defect vectors in the orthonormal atom basis.

    side "column": for each interval J, the vectors representing psi * chi_J
    and psi * f * chi_J in L2(nu) coordinates (psi(y_j) sqrt(nu_j) on atoms of
    J, optionally multiplied by f(y_j)).  side "row": the mirrored phi-side
    vectors in L2(mu) coordinates.  Zero vectors (empty or fully masked
    intervals) are skipped, so at most 2 * count vectors are returned.
    """
    positions, base, fvals = _defect_inputs(kop, side)
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


def flat_bound(part: IntervalPartition) -> tuple[float, float]:
    """Analytic HS bounds for the corrected upper and lower block families.

    Each is sqrt((4/n^2) * sum over the family of short^2 / (short + dist)^2),
    with short the column-interval length for the upper family and the
    row-interval length for the lower family.
    """
    lengths, left, right = part.lengths, part.edges[:-1], part.edges[1:]
    families = _families(part)
    distance = np.maximum(0.0, np.maximum(left[None, :] - right[:, None],
                                          left[:, None] - right[None, :]))
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
    """

    segments: list
    segment: np.ndarray
    vectors: np.ndarray
    rank: int


def _defect_basis(part: IntervalPartition, kop: WeightedKernelOperator, side: str) -> _DefectBasis:
    """Orthonormal basis of the span of taylor_defects(part, kop, side).

    Two-pass Gram-Schmidt with segment sums factors each interval's defects
    as Q R with R 2 x 2.  One batched SVD of the R's gives the singular values
    of all defects, cut below DEFECT_ANGLE_TOL times the largest as one SVD
    of all defects would; a Gram matrix would square away that gap.
    """
    positions, base, fvals = _defect_inputs(kop, side)
    idx = part.interval_of(positions)
    first = np.r_[True, idx[1:] != idx[:-1]]
    starts = np.flatnonzero(first)
    segment = np.cumsum(first) - 1

    def sums(x):
        return np.add.reduceat(x, starts)

    def normalized(x, norms):
        inverse = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0.0)
        return x * inverse[segment]

    weighted = base * fvals
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
    return _DefectBasis(segments, segment, vectors, int(np.count_nonzero(kept)))


def _residual_squares(m: np.ndarray, scale: float, hx, hy, part: IntervalPartition,
                      kop: WeightedKernelOperator, col: _DefectBasis,
                      row: _DefectBasis) -> np.ndarray:
    """Squared HS norms of the diagonal, upper and lower parts of the residual.

    A is m / scale with the heavy rows hx and columns hy zeroed, U and L its
    upper and lower families.  Families are constant on interval blocks and
    Q is block diagonal, so U Qc and Qr^T L take one small product per
    interval.  E = A - U Qc Qc^T - Qr Qr^T L is formed one row block at a
    time and its squares are summed per family.
    """
    families = _families(part)
    ix, iy = part.interval_of(kop.mu.positions), part.interval_of(kop.nu.positions)
    col_factor = np.full(m.shape[1], 1.0 / scale)
    col_factor[hy] = 0.0
    row_keep = np.ones(m.shape[0])
    row_keep[hx] = 0.0
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
        e[row_keep[rows] == 0.0] = 0.0
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
    column_defects: list
    row_defects: list
    defect_rank: int
    residual_hs: float
    empirical_bound: float
    analytic_bound: float
    scale: float
    components: dict = field(default_factory=dict)


def build_certificate(kop: WeightedKernelOperator, n: int) -> WeakDecayCertificate:
    """The certificate for one n; see build_certificates."""
    return build_certificates(kop, [n])[0]


def build_certificates(kop: WeightedKernelOperator, n_values) -> list:
    """Run the constructive pipeline for each n, materializing the operator once.

    Each certificate satisfies s_{defect_rank}(M) <= empirical_bound for
    M = materialize(kop), with defect_rank <= 7n: the difference between M
    and the measured residual factors through the heavy rows/columns and the
    defect-vector spans, and an extra codimension n converts the HS norm into
    the operator-norm bound (s_n(E) <= ||E||_HS / sqrt(n + 1)).
    """
    n_values = _checked_n_values(n_values)
    return _certificates(kop, n_values, materialize(kop))


def certify(kop: WeightedKernelOperator, n_values) -> tuple[np.ndarray, list]:
    """Build and verify the certificate for each n with one materialization and one SVD.

    Returns the singular spectrum of materialize(kop) and one (certificate,
    VerificationReport) pair per n.  Raises CertificateUnsoundError if a
    certificate fails verification.
    """
    n_values = _checked_n_values(n_values)
    m = materialize(kop)
    # SVD first: its workspace and the certificates' defect vectors never coexist.
    spectrum = singular_spectrum(m)
    return spectrum, [(cert, verify_certificate(kop, cert, spectrum=spectrum))
                      for cert in _certificates(kop, n_values, m)]


def _checked_n_values(n_values) -> list:
    """n_values as a list, checked before any O(d^3) work is spent on them."""
    n_values = list(n_values)
    if not n_values or min(n_values) < 1:
        raise ValidationError(f"n values must be a nonempty list of integers >= 1: {n_values!r}")
    return n_values


def _certificates(kop: WeightedKernelOperator, n_values: list, m: np.ndarray) -> list:
    """The certificates of build_certificates, given m = materialize(kop)."""
    if kop.f.lip == 0.0 or kop.phi_norm == 0.0 or kop.psi_norm == 0.0:
        # Identically zero kernel: certify rank 0 directly.
        radius = kop.support_radius
        return [WeakDecayCertificate(
            n=n, truncation_radius=radius,
            heavy_x=np.empty(0, dtype=int), heavy_y=np.empty(0, dtype=int),
            partition=IntervalPartition(np.array([-radius, radius]), np.zeros(1), np.zeros(1), n),
            column_defects=[], row_defects=[],
            defect_rank=0, residual_hs=0.0, empirical_bound=0.0, analytic_bound=0.0,
            scale=0.0, components={"tail_hs": 0.0, "diag_hs": 0.0},
        ) for n in n_values]
    unit, scale = normalize(kop)
    return [_certificate(m, unit, scale, n) for n in n_values]


def _certificate(m: np.ndarray, unit: WeightedKernelOperator, scale: float,
                 n: int) -> WeakDecayCertificate:
    radius = unit.support_radius
    hx = heavy_atoms(unit.mu, unit.phi, n)
    hy = heavy_atoms(unit.nu, unit.psi, n)
    masked = mask(unit, hx, hy)
    part = partition(masked, n, radius)
    col = _defect_basis(part, masked, "column")
    row = _defect_basis(part, masked, "row")
    squares = _residual_squares(m, scale, hx, hy, part, masked, col, row)
    residual = math.sqrt(squares.sum())
    diag_hs, upper_hs, lower_hs = np.sqrt(squares)
    flat_up, flat_low = flat_bound(part)

    # Analytic chain: the 4/sqrt(n) diagonal bound and the separation-sum
    # bounds for the two corrected families.
    analytic_hs = 4.0 / math.sqrt(n) + flat_up + flat_low

    defect_rank = int(hx.size + hy.size + col.rank + row.rank + n)
    root = math.sqrt(n + 1.0)
    return WeakDecayCertificate(
        n=n,
        truncation_radius=radius,
        heavy_x=hx,
        heavy_y=hy,
        partition=part,
        column_defects=taylor_defects(part, masked, "column"),
        row_defects=taylor_defects(part, masked, "row"),
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
    defect_rank: int
    singular_value: float
    empirical_bound: float
    analytic_bound: float
    weak_quasinorm: float
    norm_product: float
    weak_ratio: float


def verify_certificate(kop: WeightedKernelOperator, cert: WeakDecayCertificate, *,
                       spectrum=None) -> VerificationReport:
    """Check a certificate against a full SVD of the materialized operator.

    (a) s_{r}(M) <= b, (b) b <= analytic_bound, (c) the weak quasinorm of the
    spectrum is at most WEAK_NORM_CONSTANT times ||phi|| ||psi|| lip, and the
    rank budget r <= 7n.  Raises CertificateUnsoundError on any failure; a
    precomputed singular spectrum may be passed to avoid repeating the SVD.
    """
    if spectrum is None:
        spectrum = singular_spectrum(materialize(kop))
    s_r = singular_value_at(spectrum, cert.defect_rank)
    if not s_r <= cert.empirical_bound + VERIFY_TOL:
        raise CertificateUnsoundError(
            f"s_{cert.defect_rank} violates the certified bound",
            observed=s_r, allowed=cert.empirical_bound + VERIFY_TOL,
        )
    if not cert.empirical_bound <= cert.analytic_bound + VERIFY_TOL:
        raise CertificateUnsoundError(
            "empirical bound exceeds the analytic bound",
            observed=cert.empirical_bound, allowed=cert.analytic_bound + VERIFY_TOL,
        )
    if not cert.defect_rank <= 7 * cert.n:
        raise CertificateUnsoundError(
            "defect rank exceeds 7n", observed=cert.defect_rank, allowed=7 * cert.n
        )
    weak = weak_s1_quasinorm(spectrum)
    product = kop.norm_product
    allowed = WEAK_NORM_CONSTANT * product + VERIFY_TOL
    if not weak <= allowed:
        raise CertificateUnsoundError(
            "weak quasinorm exceeds the reported constant times the norm product",
            observed=weak, allowed=allowed,
        )
    return VerificationReport(
        passed=True,
        defect_rank=cert.defect_rank,
        singular_value=s_r,
        empirical_bound=cert.empirical_bound,
        analytic_bound=cert.analytic_bound,
        weak_quasinorm=weak,
        norm_product=product,
        weak_ratio=weak / product if product > 0 else 0.0,
    )


def certificate_to_dict(cert: WeakDecayCertificate, include_vectors: bool = False) -> dict:
    out = {
        "n": cert.n,
        "truncation_radius": cert.truncation_radius,
        "heavy_x": [int(i) for i in cert.heavy_x],
        "heavy_y": [int(i) for i in cert.heavy_y],
        "partition": {
            "edges": [float(e) for e in cert.partition.edges],
            "phi_weights": [float(w) for w in cert.partition.phi_weights],
            "psi_weights": [float(w) for w in cert.partition.psi_weights],
            "n": cert.partition.n,
        },
        "defect_rank": cert.defect_rank,
        "residual_hs": cert.residual_hs,
        "empirical_bound": cert.empirical_bound,
        "analytic_bound": cert.analytic_bound,
        "scale": cert.scale,
        "components": {k: float(v) for k, v in sorted(cert.components.items())},
        "defect_counts": {"column": len(cert.column_defects), "row": len(cert.row_defects)},
    }
    if include_vectors:
        out["defect_vectors"] = {
            "column": [[float(x) for x in v] for v in cert.column_defects],
            "row": [[float(x) for x in v] for v in cert.row_defects],
        }
    return out
