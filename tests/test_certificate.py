import dataclasses
import math
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from liplab import certificate
from liplab.certificate import (IntervalPartition, build_certificate, certify,
                                diag_weight_bound, flat_bound, partition, split_blocks,
                                verify_certificate)
from liplab.errors import (CertificateUnsoundError, PartitionInfeasibleError,
                           ValidationError, json_text)
from liplab.functions import (LipschitzFunction, absolute_value, clamp_function,
                              constant_function, function_from_spec, identity_function,
                              piecewise_linear)
from liplab.ideals import singular_spectrum, singular_value_at
from liplab.linalg import frobenius
from liplab.measures import (DiscreteMeasure, kernel_operator, materialize,
                             read_kernel_operator)
from liplab.rng import make_rng, random_kernel_operator
from oracles import (correction_ratios, dense_certificate, diag_block_hs, exact_defect_rank,
                     exact_edges, exact_heavy, lower_corrected_matrix, masked_operator,
                     orthonormal_columns, taylor_defects, upper_corrected_matrix)


def masked_instance(seed, atoms, n, f=None):
    """Normalized, masked operator plus its partition."""
    rng = make_rng(seed, 900)
    kop = random_kernel_operator(rng, f or absolute_value(), atoms, atoms)
    masked, _, _, part = masked_operator(kop, n)
    return masked, part, kop.support_radius


def sides(kop):
    """partition's side arguments: positions and coordinates of mu, then of nu."""
    return (kop.mu.positions, kop.mu.coordinates(kop.phi),
            kop.nu.positions, kop.nu.coordinates(kop.psi))


# ---------------------------------------------------------------- normalize

def test_normalize_already_unit():
    kop = kernel_operator([0.0], [1.0], [1.0], [1.0], [1.0], [1.0], absolute_value())
    assert build_certificate(kop, 2).scale == 1.0


def test_normalize_scaling():
    # Bounds are in the scale of the operator: the removed norm product times
    # those of the normalized one.
    kop = kernel_operator([0.0, 1.0], [1.0, 1.0], [2.0, 2.0], [1.0, 3.0], [1.0, 1.0],
                          [1.0, 1.0], absolute_value())
    cert = build_certificate(kop, 1)
    assert cert.scale == pytest.approx(4.0)
    assert cert.residual_hs == pytest.approx(frobenius(materialize(kop)), rel=1e-15)


def test_normalize_idempotent():
    rng = make_rng(40, 0)
    kop = random_kernel_operator(rng, absolute_value(), 25, 25)
    unit = dataclasses.replace(kop, phi=kop.phi / kop.phi_norm, psi=kop.psi / kop.psi_norm)
    for n in (1, 4, 16):
        once, twice = build_certificate(kop, n), build_certificate(unit, n)
        assert twice.scale == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(once.heavy_x, twice.heavy_x)
        np.testing.assert_array_equal(once.partition.edges, twice.partition.edges)
        assert twice.residual_hs == pytest.approx(once.residual_hs / once.scale, rel=1e-12)


def test_normalize_rejects_degenerate():
    # A subnormal norm or lip is too coarse to normalize by; the product
    # overflows at 1e200 * 1e200 (M is 0 there: its atoms coincide).
    tiny = kernel_operator([0.0], [1.0], [1e-310], [1.0], [1.0], [1.0], absolute_value())
    flat = LipschitzFunction("flat", lambda x: 1e-310 * x, 1e-310)
    huge = kernel_operator([0.0], [1.0], [1e200], [0.0], [1.0], [1e200], absolute_value())
    for kop in (tiny, dataclasses.replace(tiny, phi=[1.0], f=flat), huge):
        with pytest.raises(ValidationError, match="outside the normal float range"):
            build_certificate(kop, 2)


# --------------------------------------------------------------- truncation

def test_truncation_radius_is_support_radius():
    rng = make_rng(41, 0)
    kop = random_kernel_operator(rng, absolute_value(), 30, 30)
    # n = 1: any window with tail < 1 would do; still the support radius.
    for n in (1, 4):
        assert build_certificate(kop, n).truncation_radius == kop.support_radius <= 3.0


# -------------------------------------------------------------- heavy atoms

def heavy_sets(mu, phi, nu, psi, n):
    """The certificate's heavy atoms at n for weights phi on mu and psi on nu, under abs."""
    kop = kernel_operator(mu.positions, mu.masses, phi, nu.positions, nu.masses, psi,
                          absolute_value())
    cert = build_certificate(kop, n)
    return set(cert.heavy_x.tolist()), set(cert.heavy_y.tolist())


def test_heavy_atoms_uniform_none():
    m = DiscreteMeasure(np.arange(10.0), np.full(10, 0.1))
    assert heavy_sets(m, np.ones(10), m, np.ones(10), 1) == (set(), set())


def test_heavy_atoms_concentrated():
    # A single atom carrying the whole unit weight is heavy for every n.
    m = DiscreteMeasure([0.0], [1.0])
    spread = DiscreteMeasure([0.0, 1.0], [0.999, 0.001])
    for n in (1, 2, 8):
        assert heavy_sets(m, np.ones(1), spread, np.ones(2), n)[0] == {0}
    # At n = 1 only full concentration qualifies.
    assert heavy_sets(m, np.ones(1), spread, np.ones(2), 1)[1] == set()
    assert heavy_sets(m, np.ones(1), spread, np.ones(2), 2)[1] == {0}


def test_heavy_atoms_matches_brute_force():
    rng = make_rng(42, 0)
    for _ in range(20):
        args, brute = [], []
        for count in rng.integers(5, 60, size=2).tolist():
            m = DiscreteMeasure(np.sort(rng.uniform(-3, 3, count)),
                                rng.uniform(0.01, 1.0, count))
            w = rng.standard_normal(count)
            w = w / math.sqrt(float(np.sum(w * w * m.masses)))
            args += [m, w]
            brute.append({i for i in range(count) if w[i] ** 2 * m.masses[i] >= 1.0 / 8.0})
        got = heavy_sets(*args, 8)
        assert list(got) == brute
        assert max(map(len, got)) <= 8


def test_heavy_sets_and_partition_edges_replay_exactly():
    # Dyadic positions and weights, masses the squares of dyadics: every
    # coordinate weight * sqrt(mass) is exact, so the heavy test
    # n * c_i^2 >= sum(c^2) and the greedy 4/n sweep replay in Fractions.
    # Only a decision within TIE of its threshold may go either way; those
    # are counted, not avoided.  The partition is replayed on the certificate's
    # heavy sets, and its edges are compared up to the first tied decision.
    # Without heavy atoms at n = 2 both sides weigh exactly 4/n = 2 together;
    # the cap's slack keeps that one interval in both sweeps, so it is no tie.
    # Each certificate's defect rank, less its heavy atoms and n, is replayed
    # too, on its own heavy sets and edges, for abs and for a pwl with kinks
    # at -1, 0 and 1 (the heavy sets and edges do not depend on f).
    rng = make_rng(24, 13)
    checked = ties = heavy = split = 0
    rank_mismatches = []
    for case in range(60):
        args = []
        for count in rng.integers(1, 41, size=2).tolist():
            args += [rng.choice(np.arange(-64, 65), size=count, replace=False) / 8.0,
                     (rng.integers(1, 9, size=count) / 4.0) ** 2,
                     rng.integers(-8, 9, size=count) / 4.0]
        kop = kernel_operator(*args, absolute_value())
        kop_pwl = kernel_operator(*args, piecewise_linear([-1.0, 0.0, 1.0], 7))
        cx, cy = kop.mu.coordinates(kop.phi), kop.nu.coordinates(kop.psi)
        if not (np.any(cx) and np.any(cy)):
            continue
        for n in (1, 2, 4, 8):
            cert = build_certificate(kop, n)
            (hx, tx), (hy, ty) = exact_heavy(cx, n), exact_heavy(cy, n)
            for got, exact, tied in ((cert.heavy_x, hx, tx), (cert.heavy_y, hy, ty)):
                assert set(got.tolist()) - tied == exact - tied
            edges, settled = exact_edges(kop.mu.positions, cx, set(cert.heavy_x.tolist()),
                                         kop.nu.positions, cy, set(cert.heavy_y.tolist()),
                                         n, kop.support_radius)
            got = cert.partition.edges.tolist()
            assert got[:settled] == edges[:settled]
            if settled == len(edges):
                assert got == edges
                checked += 1
                heavy += bool(hx or hy)
                split += len(edges) > 3
            ties += bool(tx or ty) or settled < len(edges)
            for op, c in ((kop, cert), (kop_pwl, build_certificate(kop_pwl, n))):
                light_rank = c.defect_rank - c.heavy_x.size - c.heavy_y.size - n
                exact_rank = sum(
                    exact_defect_rank(side.positions, coords, set(side_heavy.tolist()),
                                      op.f.at(side.positions, "an atom"), c.partition.edges)
                    for side, coords, side_heavy in ((op.mu, cx, c.heavy_x), (op.nu, cy, c.heavy_y)))
                if light_rank != exact_rank:
                    rank_mismatches.append(f"case {case}, {op.f.name}, n = {n}: rank {light_rank} "
                                           f"beyond the heavy atoms and n, exactly {exact_rank}")
    # 240 cases: all replay their edges in full, and 2 have a heavy-set tie (at n = 1).
    assert (checked, ties) == (240, 2) and heavy >= 20 and split >= 20
    assert rank_mismatches == []


# --------------------------------------------------------------------- mask

def test_mask_empty_is_identity():
    # No heavy atom at n = 1 and one interval: the residual is all of M.
    rng = make_rng(43, 0)
    kop = random_kernel_operator(rng, absolute_value(), 10, 10)
    cert = build_certificate(kop, 1)
    assert cert.heavy_x.size == cert.heavy_y.size == 0 and cert.partition.count == 1
    assert cert.residual_hs == pytest.approx(frobenius(materialize(kop)), rel=1e-12)


def test_mask_everything_gives_zero_operator():
    # One atom per side is heavy at every n; zeroing both leaves no residual.
    kop = kernel_operator([0.0], [0.5], [3.0], [1.0], [2.0], [0.25], absolute_value())
    for n in (1, 2, 8):
        cert = build_certificate(kop, n)
        assert cert.heavy_x.tolist() == cert.heavy_y.tolist() == [0]
        assert cert.residual_hs == 0.0


def test_mask_rank_bound_via_svd():
    # Zeroing the heavy rows and columns changes M by rank at most their count.
    rng = make_rng(45, 0)
    for n in (2, 4, 8, 16, 32):
        kop = random_kernel_operator(rng, absolute_value(), 30, 25)
        cert = build_certificate(kop, n)
        m = materialize(kop)
        masked = m.copy()
        masked[cert.heavy_x] = 0.0
        masked[:, cert.heavy_y] = 0.0
        s = np.linalg.svd(m - masked, compute_uv=False)
        assert int(np.sum(s > 1e-10)) <= cert.heavy_x.size + cert.heavy_y.size


# ---------------------------------------------------------------- partition

def test_tiny_masses_weigh_without_overflow():
    # weight^2 alone overflows at 1e160, weight * sqrt(mass) is 0.022 at mass
    # 5e-324: only the second atom (weighted mass 0.81) is heavy at n = 2.
    kop = kernel_operator([0.0, 1.0], [5e-324, 1.0], [1e160, 0.9], [0.5], [1.0], [0.5],
                          absolute_value())
    np.testing.assert_array_equal(build_certificate(kop, 2).heavy_x, [1])
    part = partition(*sides(dataclasses.replace(kop, phi=[1e160, 0.0])), 8, 1.0)
    assert part.phi_weights.sum() == pytest.approx((1e160 * math.sqrt(5e-324)) ** 2, rel=1e-12)


def test_partition_single_interval_for_n1():
    masked, part, radius = masked_instance(47, 30, 1)
    assert part.count == 1
    assert part.edges[0] == -radius and part.edges[-1] == radius
    assert part.combined_weights[0] <= 4.0


def test_partition_uniform_light_atoms():
    # 2n atoms of combined weight 1/n each: greedy packs them into <= n bins.
    n = 8
    count = 2 * n
    pos = np.linspace(-1.0, 1.0, count)
    masses = np.full(count, 1.0 / count)
    weights = np.full(count, math.sqrt(count / (2.0 * count)))  # w^2 m = 1/(2n) per side
    kop = kernel_operator(pos, masses, weights, pos, masses, weights, absolute_value())
    part = partition(*sides(kop), n, 1.0)
    assert part.count <= n
    assert np.all(part.combined_weights <= 4.0 / n + 1e-15)
    total = float(np.sum(part.combined_weights))
    assert total == pytest.approx(1.0, rel=1e-12)


def test_partition_contract_on_random_instances():
    hits = 0
    for seed in range(100):
        n = int(4 + (seed % 5) * 8)
        masked, part, _ = masked_instance(seed, 20 + seed % 40, n)
        assert part.count <= n
        cap = 4.0 / n
        assert np.all(part.combined_weights <= cap * (1 + 1e-12))
        # Capacity argument: every closed bin except possibly the last > 2/n.
        if part.count > 1:
            assert np.all(part.combined_weights[:-1] > 2.0 / n)
            hits += 1
    assert hits > 10  # the sweep exercised genuinely multi-interval partitions


def test_partition_infeasible_without_masking():
    kop = kernel_operator([0.0, 1.0], [0.9, 0.1], [1.0, 1.0],
                          [0.0, 1.0], [0.9, 0.1], [1.0, 1.0], absolute_value())
    with pytest.raises(PartitionInfeasibleError):
        partition(*sides(kop), 16, 1.0)


def test_partition_keeps_one_interval_at_the_cap():
    # Without heavy atoms at n = 2 both unit sides weigh exactly the cap 4/n = 2
    # together; their rounded sum may land an ulp above it, which the cap's
    # slack absorbs.  Without it, 8 of these 25 operators split off their last
    # position as a second interval.
    light = 0
    for idx in range(25):
        kop = random_kernel_operator(make_rng(1, 5, 64, idx), absolute_value(), 64, 64)
        cert = build_certificate(kop, 2)
        if cert.heavy_x.size == cert.heavy_y.size == 0:
            light += 1
            assert cert.partition.count == 1 and cert.defect_rank == 6
    assert light >= 10


def test_partition_invariant_validation():
    with pytest.raises(ValidationError):
        IntervalPartition(np.array([0.0, 1.0]), np.array([5.0]), np.array([0.0]), 2)
    with pytest.raises(ValidationError):
        IntervalPartition(np.array([0.0, 0.5, 1.0]), np.zeros(2), np.zeros(2), 1)
    with pytest.raises(ValidationError, match="at least two entries"):
        IntervalPartition(np.array([0.0]), np.zeros(0), np.zeros(0), 1)
    with pytest.raises(ValidationError, match="must match the interval count"):
        IntervalPartition(np.array([0.0, 1.0]), np.zeros(2), np.zeros(1), 2)


# ------------------------------------------------------------- split_blocks

def test_split_blocks_single_interval():
    part = IntervalPartition(np.array([-1.0, 1.0]), np.zeros(1), np.zeros(1), 1)
    diag, upper, lower = split_blocks(part)
    assert diag == [(0, 0)] and upper == [] and lower == []


def test_split_blocks_two_equal_intervals():
    part = IntervalPartition(np.array([-1.0, 0.0, 1.0]), np.zeros(2), np.zeros(2), 2)
    diag, upper, lower = split_blocks(part)
    assert len(diag) == 2
    assert sorted(upper) == [(0, 1), (1, 0)]  # ties go to the upper family
    assert lower == []


def test_split_blocks_counting():
    for seed in range(5):
        masked, part, _ = masked_instance(seed + 300, 60, 24)
        diag, upper, lower = split_blocks(part)
        k = part.count
        assert len(diag) + len(upper) + len(lower) == k * k
        seen = set(diag) | set(upper) | set(lower)
        assert len(seen) == k * k


# ------------------------------------------------------------- diag blocks

def test_diag_block_hs_constant_function_zero():
    rng = make_rng(48, 0)
    kop = random_kernel_operator(rng, constant_function(2.0), 12, 12)
    part = IntervalPartition(np.array([-3.0, 3.0]), np.ones(1), np.ones(1), 1)
    assert diag_block_hs(kop, part) == 0.0


def test_diag_block_hs_single_interval_whole_norm():
    masked, part, radius = masked_instance(49, 25, 1)
    got = diag_block_hs(masked, part)
    assert got == pytest.approx(frobenius(materialize(masked)), rel=1e-12)
    assert got <= 4.0


@pytest.mark.parametrize("n", [4, 16, 64])
def test_diag_block_hs_paper_bound(n):
    for seed in range(5):
        masked, part, _ = masked_instance(seed + n, 80, n)
        got = diag_block_hs(masked, part)
        assert got <= 4.0 / math.sqrt(n) + 1e-12
        # The sharp weight-product bound dominates the exact norm too.
        assert got <= diag_weight_bound(part) + 1e-12
        assert diag_weight_bound(part) <= 2.0 / math.sqrt(n) + 1e-12


# ------------------------------------------------------------ taylor defects

def test_taylor_defects_parallel_when_f_constant_on_interval():
    # Atoms confined to x > 1 where clamp is constant: the two defect vectors
    # per interval are parallel and collapse to one direction.
    pos = np.linspace(1.5, 2.5, 12)
    kop = kernel_operator(pos, np.full(12, 1 / 12), np.ones(12),
                          pos + 1e-4, np.full(12, 1 / 12), np.ones(12), clamp_function())
    unit, _, _, part = masked_operator(kop, 4)
    vecs = taylor_defects(part, unit, "column")
    basis = orthonormal_columns(vecs, unit.nu.size)
    idx = part.interval_of(unit.nu.positions)
    occupied = len(set(idx.tolist()))
    assert basis.shape[1] == occupied  # one independent direction per occupied interval


def test_taylor_defects_skip_empty_intervals():
    masked, part, _ = masked_instance(50, 30, 8)
    for side, size in (("column", masked.nu.size), ("row", masked.mu.size)):
        vecs = taylor_defects(part, masked, side)
        assert len(vecs) <= 2 * part.count
        for v in vecs:
            assert v.shape == (size,)
            assert np.linalg.norm(v) > 0.0


def test_taylor_defects_bad_side():
    masked, part, _ = masked_instance(51, 10, 2)
    with pytest.raises(ValidationError):
        taylor_defects(part, masked, "diagonal")


def test_taylor_correction_identity():
    # On the complement of the column defects, the upper blocks act exactly
    # like the corrected kernel; mirrored for rows.  This is the algebraic
    # heart of the construction, checked entrywise on small instances.
    for seed, n in ((52, 12), (53, 16), (54, 20)):
        f = piecewise_linear(np.linspace(-2.5, 2.5, 11), seed)
        masked, part, _ = masked_instance(seed, 45, n, f=f)
        m = materialize(masked)
        up, low, upper_mask, lower_mask, _ = correction_ratios(part, masked)
        m_upper = np.where(upper_mask, m, 0.0)
        m_lower = np.where(lower_mask, m, 0.0)
        b2 = np.where(upper_mask, upper_corrected_matrix(masked, part), 0.0)
        b3 = np.where(lower_mask, lower_corrected_matrix(masked, part), 0.0)
        qc = orthonormal_columns(taylor_defects(part, masked, "column"), masked.nu.size)
        qr = orthonormal_columns(taylor_defects(part, masked, "row"), masked.mu.size)
        pc = np.eye(masked.nu.size) - qc @ qc.T
        pr = np.eye(masked.mu.size) - qr @ qr.T
        assert np.abs(m_upper @ pc - b2 @ pc).max() <= 1e-10
        assert np.abs(pr @ m_lower - pr @ b3).max() <= 1e-10


def test_corrected_kernel_entrywise_bound():
    # |a_IJ| <= short / (short + dist) entrywise, with dd clamped to 1.
    masked, part, _ = masked_instance(55, 50, 16)
    up, low, upper_mask, lower_mask, _ = correction_ratios(part, masked)
    lengths = part.lengths
    ix = part.interval_of(masked.mu.positions)
    iy = part.interval_of(masked.nu.positions)
    for i in range(masked.mu.size):
        for j in range(masked.nu.size):
            if upper_mask[i, j]:
                cap = lengths[iy[j]] / (lengths[iy[j]] + part.distance(ix[i], iy[j]))
                assert abs(up[i, j]) <= cap + 1e-12
            if lower_mask[i, j]:
                cap = lengths[ix[i]] / (lengths[ix[i]] + part.distance(ix[i], iy[j]))
                assert abs(low[i, j]) <= cap + 1e-12


# ---------------------------------------------------------------- flat bound

def test_flat_bound_single_interval():
    part = IntervalPartition(np.array([-1.0, 1.0]), np.zeros(1), np.zeros(1), 1)
    assert flat_bound(part) == (0.0, 0.0)


def test_distance_broadcasts_like_the_scalar_rule():
    # flat_bound takes every pair's distance in one broadcast call.
    for seed in range(10):
        _, part, _ = masked_instance(seed + 650, 40, 4 + 4 * seed)
        e, index = part.edges, np.arange(part.count)
        loop = [[max(0.0, e[j] - e[i + 1], e[i] - e[j + 1]) for j in index] for i in index]
        assert np.array_equal(part.distance(index[:, None], index[None, :]), loop)


def test_separation_sum_constant():
    # Oracle-confirmed constant: for every interval, the separation sum over
    # its upper partners stays below 5 (the enumeration argument gives ~4.6).
    worst = 0.0
    for seed in range(100):
        n = int(4 + (seed % 6) * 10)
        masked, part, _ = masked_instance(seed + 600, 30 + (seed % 50), n)
        lengths = part.lengths
        _, upper, lower = split_blocks(part)
        for j in range(part.count):
            total = sum((lengths[j] / (lengths[j] + part.distance(i, j))) ** 2
                        for i, jj in upper if jj == j and lengths[j] + part.distance(i, j) > 0)
            worst = max(worst, total)
        for i in range(part.count):
            total = sum((lengths[i] / (lengths[i] + part.distance(i, j))) ** 2
                        for ii, j in lower if ii == i and lengths[i] + part.distance(i, j) > 0)
            worst = max(worst, total)
    assert worst <= 5.0


def test_separation_enumeration_bound():
    # dist(I_k, J) >= ((k - 3) / 2) |J| for partners sorted by distance.
    for seed in range(20):
        masked, part, _ = masked_instance(seed + 700, 60, 32)
        lengths = part.lengths
        _, upper, _ = split_blocks(part)
        for j in range(part.count):
            dists = sorted(part.distance(i, jj) for i, jj in upper if jj == j)
            for k, d in enumerate(dists, start=1):
                assert d >= (k - 3) / 2.0 * lengths[j] - 1e-12


def test_flat_bound_dominates_corrected_norms():
    for seed in range(10):
        masked, part, _ = masked_instance(seed + 800, 70, 24)
        up, low = flat_bound(part)
        b2 = upper_corrected_matrix(masked, part)
        b3 = lower_corrected_matrix(masked, part)
        assert frobenius(b2) <= up + 1e-9
        assert frobenius(b3) <= low + 1e-9


# ---------------------------------------------------------- build and verify

def test_certificate_constant_function_trivial():
    kop = kernel_operator([0.0, 1.0], [0.5, 0.5], [1.0, 1.0],
                          [0.0, 1.0], [0.5, 0.5], [1.0, 1.0], constant_function(7.0))
    cert = build_certificate(kop, 4)
    assert cert.defect_rank == 0
    assert cert.residual_hs == 0.0
    assert cert.empirical_bound == 0.0
    assert verify_certificate(kop, cert, spectrum=singular_spectrum(materialize(kop))).passed
    # The zero-kernel record has the fields of any other certificate, every bound 0.
    nonzero = build_certificate(dataclasses.replace(kop, f=absolute_value()), 4)
    assert cert.components == dict.fromkeys(nonzero.components, 0.0)


def test_certificate_n1():
    rng = make_rng(60, 0)
    kop = random_kernel_operator(rng, absolute_value(), 20, 20)
    cert = build_certificate(kop, 1)
    assert cert.defect_rank <= 7
    assert cert.empirical_bound <= cert.residual_hs + 1e-15
    assert verify_certificate(kop, cert, spectrum=singular_spectrum(materialize(kop))).passed


def test_certificate_rejects_bad_n():
    rng = make_rng(61, 0)
    kop = random_kernel_operator(rng, absolute_value(), 5, 5)
    with pytest.raises(ValidationError):
        build_certificate(kop, 0)
    # partition checks its own n, called on its own.
    with pytest.raises(ValidationError, match="n must be"):
        partition(*sides(kop), 0, kop.support_radius)


def test_certificate_rejects_overflowing_spread():
    # x - y and f(x) - f(y) overflow to inf / inf at atoms +-1e308.
    kop = kernel_operator([-1e308, 1e308], [1.0, 1.0], [1.0, 1.0],
                          [-1e308, 1e308], [1.0, 1.0], [1.0, 1.0], identity_function())
    with pytest.raises(ValidationError, match="float range"):
        build_certificate(kop, 2)


@pytest.mark.parametrize("call", [certify, build_certificate])
def test_certify_names_a_non_finite_function_first(call):
    # sqrt(x^2 + delta^2) is inf at every atom; materialize says so before the
    # pipeline's overflow checks see the same values.
    f = function_from_spec({"kind": "smooth_ramp", "delta": 1e200})
    kop = random_kernel_operator(make_rng(8, 0), f, 10, 10)
    with pytest.raises(ValidationError, match="non-finite at an atom"):
        call(kop, [2] if call is certify else 2)


def test_certificate_soundness_random_battery():
    for seed in range(15):
        rng = make_rng(seed, 62)
        f = absolute_value() if seed % 2 else piecewise_linear(np.linspace(-2.5, 2.5, 21), seed)
        kop = random_kernel_operator(rng, f, int(rng.integers(30, 150)), int(rng.integers(30, 150)))
        spectrum = np.linalg.svd(materialize(kop), compute_uv=False)
        for n in (2, 8, 32):
            cert = build_certificate(kop, n)
            report = verify_certificate(kop, cert, spectrum=spectrum)
            assert report.passed
            assert cert.defect_rank <= 7 * n
            assert singular_value_at(spectrum, cert.defect_rank) <= cert.empirical_bound + 1e-9
            assert cert.empirical_bound <= cert.analytic_bound + 1e-9
            assert cert.heavy_x.size <= n and cert.heavy_y.size <= n


def test_certificate_fitted_constant_stabilizes():
    rng = make_rng(63, 0)
    kop = random_kernel_operator(rng, absolute_value(), 500, 500)
    k_values = {}
    for n in (4, 8, 16, 32, 64):
        cert = build_certificate(kop, n)
        k_values[n] = n * cert.empirical_bound
    small = max(k_values[4], k_values[8], k_values[16])
    large = max(k_values[32], k_values[64])
    assert large <= 1.5 * small


def test_build_certificates_matches_dense_oracle():
    # The interval-by-interval pipeline against the dense one: one SVD of all
    # defects, dense projectors and the full residual matrix.  clamp is
    # constant beyond +-1, so intervals there have parallel defects; the
    # random weights carry spikes, so larger n masks heavy atoms.  On the
    # integer grid intervals tie in length (ties belong to the upper family),
    # and far from 0 abs is nearly constant on a tight cluster, so the
    # weighted-f defect is nearly parallel to the indicator.
    kops = []
    for seed in range(24):
        rng = make_rng(seed, 66)
        f = (absolute_value(), clamp_function(),
             piecewise_linear(np.linspace(-2.5, 2.5, 21), seed))[seed % 3]
        kops.append(random_kernel_operator(rng, f, int(rng.integers(5, 90)),
                                           int(rng.integers(5, 90))))
    for pos, offset in ((np.arange(-8.0, 8.0), 0.5), (1000.0 + 1e-6 * np.arange(20.0), 5e-7)):
        uniform = np.full(pos.size, 1.0 / pos.size)
        kops.append(kernel_operator(pos, uniform, np.ones(pos.size), pos + offset, uniform,
                                    np.ones(pos.size), absolute_value()))
    n_values = (1, 2, 4, 8, 16, 32)
    checked = heavy = collapsed = 0
    for kop in kops:
        for n in n_values:
            cert = build_certificate(kop, n)
            dense = dense_certificate(kop, n)
            assert cert.defect_rank == dense["defect_rank"]
            assert cert.defect_counts == dense["defect_counts"]
            floor = 1e-12 * kop.norm_product
            assert cert.residual_hs == pytest.approx(dense["residual_hs"], rel=1e-12, abs=floor)
            for key in ("diag_hs", "upper_hs", "lower_hs"):
                assert cert.components[key] == pytest.approx(dense[key], rel=1e-12, abs=floor)
            heavy += cert.heavy_x.size + cert.heavy_y.size > 0
            collapsed += (cert.defect_rank - n - cert.heavy_x.size - cert.heavy_y.size
                          < cert.defect_counts["column"] + cert.defect_counts["row"])
            checked += 1
    assert checked == len(kops) * len(n_values) and heavy and collapsed


def test_build_certificates_shares_one_matrix():
    rng = make_rng(67, 0)
    kop = random_kernel_operator(rng, absolute_value(), 30, 40)
    single = [build_certificate(kop, n).residual_hs for n in (2, 8)]
    spectrum, results = certify(kop, [2, 8])
    assert [cert.residual_hs for cert, _ in results] == single
    assert all(report.passed for _, report in results)
    np.testing.assert_array_equal(spectrum, singular_spectrum(materialize(kop)))
    with pytest.raises(ValidationError):
        build_certificate(kop, 0)
    with pytest.raises(ValidationError):
        certify(kop, [])


GOLDEN_OPERATOR = Path(__file__).resolve().parent / "golden" / "certify_operator.txt"


@pytest.mark.parametrize("operator", ["golden", "rectangular", "zero_kernel"])
def test_certify_equals_serial_pipeline(operator):
    # certify takes its SVD on a helper thread; every output must keep the bits
    # of the serial singular_spectrum + build_certificate + verify_certificate.
    kop = {
        "golden": lambda: read_kernel_operator(GOLDEN_OPERATOR),  # 60 x 80, pwl
        "rectangular": lambda: random_kernel_operator(make_rng(68, 0), absolute_value(), 90, 55),
        "zero_kernel": lambda: random_kernel_operator(make_rng(68, 1), constant_function(2.0),
                                                      30, 40),
    }[operator]()
    n_values = [1, 2, 4, 8, 16]
    threads = threading.active_count()
    spectrum, results = certify(kop, n_values)
    assert threading.active_count() == threads
    serial = singular_spectrum(materialize(kop))
    assert spectrum.dtype == serial.dtype and spectrum.tobytes() == serial.tobytes()
    certificates = [build_certificate(kop, n) for n in n_values]
    assert ([json_text(dataclasses.asdict(cert)) for cert, _ in results]
            == [json_text(dataclasses.asdict(cert)) for cert in certificates])
    assert ([repr(report) for _, report in results]
            == [repr(verify_certificate(kop, cert, spectrum=serial)) for cert in certificates])


def fail_svd_off_main_thread(monkeypatch) -> list:
    """Make np.linalg.svd raise LinAlgError on any thread but the main one.

    Returns the list of the thread names it raised on.
    """
    raised = []
    svd = np.linalg.svd

    def helper_fails(m, *args, **options):
        if threading.current_thread() is threading.main_thread():
            return svd(m, *args, **options)
        raised.append(threading.current_thread().name)
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", helper_fails)
    return raised


def test_certify_joins_its_thread_when_a_certificate_fails(monkeypatch):
    failed = threading.Event()

    def slow_spectrum(m):
        # Still running when the build has raised and certify's caller looks.
        failed.wait(timeout=10.0)
        time.sleep(0.2)
        return singular_spectrum(m)

    def fail(*args):
        failed.set()
        raise ValidationError("residual failed")

    monkeypatch.setattr(certificate, "singular_spectrum", slow_spectrum)
    monkeypatch.setattr(certificate, "_residual_squares", fail)
    kop = random_kernel_operator(make_rng(69, 0), absolute_value(), 40, 50)
    threads = threading.active_count()
    with pytest.raises(ValidationError, match="residual failed"):
        certify(kop, [2, 4])
    assert threading.active_count() == threads


def test_verify_zero_operator():
    kop = kernel_operator([0.0], [1.0], [1.0], [0.5], [1.0], [0.0], absolute_value())
    cert = build_certificate(kop, 2)
    report = verify_certificate(kop, cert, spectrum=singular_spectrum(materialize(kop)))
    assert report.passed and report.weak_quasinorm == 0.0


def test_verify_rejects_corrupted_bound():
    rng = make_rng(64, 0)
    kop = random_kernel_operator(rng, absolute_value(), 40, 40)
    cert = build_certificate(kop, 4)
    bad = dataclasses.replace(cert, empirical_bound=cert.empirical_bound / 2.0,
                              analytic_bound=cert.analytic_bound)
    # Halving b may or may not still dominate s_r; force failure by zeroing.
    worse = dataclasses.replace(cert, empirical_bound=0.0)
    spectrum = np.linalg.svd(materialize(kop), compute_uv=False)
    if singular_value_at(spectrum, cert.defect_rank) > bad.empirical_bound + 1e-9:
        with pytest.raises(CertificateUnsoundError):
            verify_certificate(kop, bad, spectrum=singular_spectrum(materialize(kop)))
    if singular_value_at(spectrum, cert.defect_rank) > 1e-9:
        with pytest.raises(CertificateUnsoundError):
            verify_certificate(kop, worse, spectrum=singular_spectrum(materialize(kop)))
    # b above analytic is always unsound.
    inflated = dataclasses.replace(cert, empirical_bound=cert.analytic_bound * 2.0 + 1.0)
    with pytest.raises(CertificateUnsoundError):
        verify_certificate(kop, inflated, spectrum=singular_spectrum(materialize(kop)))
    # r beyond the 7n budget is unsound even if the bound holds.
    overdrawn = dataclasses.replace(cert, defect_rank=7 * cert.n + 1)
    with pytest.raises(CertificateUnsoundError):
        verify_certificate(kop, overdrawn, spectrum=singular_spectrum(materialize(kop)))
    # NaN bounds compare false both ways; verification must fail closed.
    nan = dataclasses.replace(cert, empirical_bound=math.nan, analytic_bound=math.nan)
    with pytest.raises(CertificateUnsoundError):
        verify_certificate(kop, nan, spectrum=spectrum)


def tiny_psi_operator():
    """MU weights 1 and 2, NU weights 1e-170 and 3e-170, abs: norm product 7.07e-170."""
    return kernel_operator([0.0, 1.0], [1.0, 1.0], [1.0, 2.0],
                           [0.5, 2.0], [1.0, 1.0], [1e-170, 3e-170], absolute_value())


def scaled_to(kop, product):
    """kop with phi rescaled so that its norm product is about product."""
    return dataclasses.replace(kop, phi=kop.phi * (product / kop.norm_product))


@pytest.mark.parametrize("kop", [
    tiny_psi_operator(),
    scaled_to(random_kernel_operator(make_rng(65, 0), absolute_value(), 30, 30), 1e-12),
], ids=["P=7e-170", "P=1e-12"])
def test_verify_slack_scales_with_the_norm_product(kop):
    # A certificate claiming rank 0 and every bound 0 is false whenever s_0 > 0,
    # however small the operator's scale; an absolute slack would pass it.
    spectrum = singular_spectrum(materialize(kop))
    assert 0.0 < spectrum[0] < 1e-9
    tampered = dataclasses.replace(build_certificate(kop, 1), defect_rank=0,
                                   empirical_bound=0.0, analytic_bound=0.0)
    with pytest.raises(CertificateUnsoundError, match="s_0 violates the certified bound"):
        verify_certificate(kop, tampered, spectrum=spectrum)


@pytest.mark.parametrize("exponent", [-140, -40, 40, 140])
def test_valid_certificates_verify_at_every_scale(exponent):
    # Norm products from about 1e-42 to 1e42; a power-of-two scale moves no bit.
    base = random_kernel_operator(make_rng(66, 0), absolute_value(), 200, 200)
    kop = dataclasses.replace(base, phi=base.phi * 2.0 ** exponent)
    assert 1e-43 < kop.norm_product < 1e43
    for cert, report in certify(kop, [2, 8, 32])[1]:
        assert report.passed and report.norm_product == kop.norm_product
