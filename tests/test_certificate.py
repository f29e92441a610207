import dataclasses
import math

import numpy as np
import pytest

from liplab.certificate import (IntervalPartition, build_certificate, build_certificates,
                                certify, diag_weight_bound, flat_bound, heavy_atoms, mask,
                                normalize, partition, split_blocks, taylor_defects,
                                verify_certificate)
from liplab.errors import (CertificateUnsoundError, PartitionInfeasibleError,
                           ValidationError)
from liplab.functions import (absolute_value, clamp_function, constant_function,
                              identity_function, piecewise_linear)
from liplab.ideals import singular_spectrum, singular_value_at
from liplab.linalg import frobenius
from liplab.measures import discrete_measure, kernel_operator, materialize
from liplab.rng import make_rng, random_kernel_operator
from oracles import (correction_ratios, dense_certificate, diag_block_hs,
                     doubling_truncation_radius, lower_corrected_matrix, orthonormal_columns,
                     truncate, truncation_tail_hs, upper_corrected_matrix)


def masked_instance(seed, atoms, n, f=None):
    """Normalized, masked operator plus its partition."""
    rng = make_rng(seed, 900)
    kop = random_kernel_operator(rng, f or absolute_value(), atoms, atoms)
    unit, _ = normalize(kop)
    radius = unit.support_radius
    hx = heavy_atoms(unit.mu, unit.phi, n)
    hy = heavy_atoms(unit.nu, unit.psi, n)
    masked = mask(unit, hx, hy)
    return masked, partition(masked, n, radius), radius


# ---------------------------------------------------------------- normalize

def test_normalize_already_unit():
    kop = kernel_operator([0.0], [1.0], [1.0], [1.0], [1.0], [1.0], absolute_value())
    unit, scale = normalize(kop)
    assert scale == pytest.approx(1.0)
    np.testing.assert_allclose(unit.phi, kop.phi)
    np.testing.assert_allclose(unit.psi, kop.psi)


def test_normalize_scaling():
    kop = kernel_operator([0.0], [1.0], [2.0], [1.0], [1.0], [1.0], absolute_value())
    unit, scale = normalize(kop)
    assert scale == pytest.approx(2.0)
    assert unit.phi_norm == pytest.approx(1.0)


def test_normalize_idempotent():
    rng = make_rng(40, 0)
    kop = random_kernel_operator(rng, absolute_value(), 25, 25)
    once, scale1 = normalize(kop)
    twice, scale2 = normalize(once)
    assert scale2 == pytest.approx(1.0, abs=1e-12)
    assert np.abs(once.phi - twice.phi).max() <= 1e-12
    assert np.abs(once.psi - twice.psi).max() <= 1e-12


def test_normalize_rejects_degenerate():
    kop = kernel_operator([0.0], [1.0], [0.0], [1.0], [1.0], [1.0], absolute_value())
    with pytest.raises(ValidationError):
        normalize(kop)
    kop = kernel_operator([0.0], [1.0], [1.0], [1.0], [1.0], [1.0], constant_function(1.0))
    with pytest.raises(ValidationError):
        normalize(kop)


# --------------------------------------------------------------- truncation

def test_truncation_radius_is_support_radius():
    rng = make_rng(41, 0)
    kop = random_kernel_operator(rng, absolute_value(), 30, 30)
    # n = 1: any window with tail < 1 would do; still the support radius.
    for n in (1, 4):
        assert build_certificate(kop, n).truncation_radius == kop.support_radius <= 3.0
    assert truncation_tail_hs(kop, kop.support_radius) == 0.0


def test_truncation_tail_matches_double_sum_oracle():
    # Two clusters; cutting at radius 2 discards exactly the far one.
    pos = np.concatenate([np.linspace(-0.5, 0.5, 10), np.linspace(4.0, 5.0, 10)])
    kop = kernel_operator(pos, np.full(20, 0.05), np.ones(20),
                          pos + 1e-3, np.full(20, 0.05), np.ones(20), absolute_value())
    unit, _ = normalize(kop)
    m = materialize(unit)
    keep = (np.abs(unit.mu.positions) <= 2.0)[:, None] & (np.abs(unit.nu.positions) <= 2.0)[None, :]
    oracle = math.sqrt(float(np.sum(np.where(keep, 0.0, m) ** 2)))
    assert truncation_tail_hs(unit, 2.0) == pytest.approx(oracle, rel=1e-12)
    assert oracle > 0.0


def test_doubling_truncation_radius_cuts_support():
    pos = np.concatenate([np.linspace(-0.5, 0.5, 40), [6.0]])
    masses = np.concatenate([np.full(40, 1.0 / 41), [1e-9]])
    kop = kernel_operator(pos, masses, np.ones(41), pos, masses, np.ones(41), absolute_value())
    unit, _ = normalize(kop)
    # The lone far atom carries negligible mass, so the search stops early.
    radius = doubling_truncation_radius(unit, 4)
    assert radius < unit.support_radius
    assert truncation_tail_hs(unit, radius) < 1.0 / math.sqrt(4)


def test_truncate_zeroes_outside_window():
    pos = np.array([-3.0, 0.0, 3.0])
    kop = kernel_operator(pos, np.ones(3), np.ones(3), pos, np.ones(3), np.ones(3),
                          absolute_value())
    cut = truncate(kop, 1.0)
    np.testing.assert_array_equal(cut.phi, [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(cut.psi, [0.0, 1.0, 0.0])


# -------------------------------------------------------------- heavy atoms

def test_heavy_atoms_uniform_none():
    m = discrete_measure(np.arange(10.0), np.full(10, 0.1))
    assert heavy_atoms(m, np.ones(10), 1).size == 0


def test_heavy_atoms_concentrated():
    # A single atom carrying the whole unit weight is heavy for every n.
    m = discrete_measure([0.0], [1.0])
    for n in (1, 2, 8):
        np.testing.assert_array_equal(heavy_atoms(m, np.ones(1), n), [0])
    # At n = 1 only full concentration qualifies.
    spread = discrete_measure([0.0, 1.0], [0.999, 0.001])
    assert heavy_atoms(spread, np.ones(2), 1).size == 0
    np.testing.assert_array_equal(heavy_atoms(spread, np.ones(2), 2), [0])


def test_heavy_atoms_matches_brute_force():
    rng = make_rng(42, 0)
    for _ in range(20):
        count = int(rng.integers(5, 60))
        m = discrete_measure(np.sort(rng.uniform(-3, 3, count)), rng.uniform(0.01, 1.0, count))
        w = rng.standard_normal(count)
        total = float(np.sum(w * w * m.masses))
        w = w / math.sqrt(total)
        got = set(heavy_atoms(m, w, 8).tolist())
        brute = {i for i in range(count) if w[i] ** 2 * m.masses[i] >= 1.0 / 8.0}
        assert got == brute
        assert len(got) <= 8


# --------------------------------------------------------------------- mask

def test_mask_empty_is_identity():
    rng = make_rng(43, 0)
    kop = random_kernel_operator(rng, absolute_value(), 10, 10)
    same = mask(kop, [], [])
    np.testing.assert_array_equal(same.phi, kop.phi)
    np.testing.assert_array_equal(same.psi, kop.psi)


def test_mask_everything_gives_zero_operator():
    rng = make_rng(44, 0)
    kop = random_kernel_operator(rng, absolute_value(), 6, 7)
    zero = mask(kop, np.arange(6), np.arange(7))
    assert np.abs(materialize(zero)).max() == 0.0


def test_mask_rank_bound_via_svd():
    rng = make_rng(45, 0)
    for _ in range(10):
        kop = random_kernel_operator(rng, absolute_value(), 30, 25)
        hx = rng.choice(30, size=int(rng.integers(0, 5)), replace=False)
        hy = rng.choice(25, size=int(rng.integers(0, 5)), replace=False)
        diff = materialize(kop) - materialize(mask(kop, hx, hy))
        s = np.linalg.svd(diff, compute_uv=False)
        assert int(np.sum(s > 1e-10)) <= hx.size + hy.size


def test_mask_validates_indices():
    rng = make_rng(46, 0)
    kop = random_kernel_operator(rng, absolute_value(), 5, 5)
    with pytest.raises(ValidationError):
        mask(kop, [7], [])


# ---------------------------------------------------------------- partition

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
    part = partition(kop, n, 1.0)
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
    unit, _ = normalize(kop)
    with pytest.raises(PartitionInfeasibleError):
        partition(unit, 16, 1.0)


def test_partition_invariant_validation():
    with pytest.raises(ValidationError):
        IntervalPartition(np.array([0.0, 1.0]), np.array([5.0]), np.array([0.0]), 2)
    with pytest.raises(ValidationError):
        IntervalPartition(np.array([0.0, 0.5, 1.0]), np.zeros(2), np.zeros(2), 1)


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
    unit, _ = normalize(kop)
    part = partition(unit, 4, unit.support_radius)
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
    assert verify_certificate(kop, cert).passed


def test_certificate_n1():
    rng = make_rng(60, 0)
    kop = random_kernel_operator(rng, absolute_value(), 20, 20)
    cert = build_certificate(kop, 1)
    assert cert.defect_rank <= 7
    assert cert.empirical_bound <= cert.residual_hs + 1e-15
    assert verify_certificate(kop, cert).passed


def test_certificate_rejects_bad_n():
    rng = make_rng(61, 0)
    kop = random_kernel_operator(rng, absolute_value(), 5, 5)
    with pytest.raises(ValidationError):
        build_certificate(kop, 0)


def test_certificate_rejects_overflowing_spread():
    # x - y and f(x) - f(y) overflow to inf / inf at atoms +-1e308.
    kop = kernel_operator([-1e308, 1e308], [1.0, 1.0], [1.0, 1.0],
                          [-1e308, 1e308], [1.0, 1.0], [1.0, 1.0], identity_function())
    with pytest.raises(ValidationError, match="float range"):
        build_certificate(kop, 2)


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
        for n, cert in zip(n_values, build_certificates(kop, n_values)):
            dense = dense_certificate(kop, n)
            assert cert.defect_rank == dense["defect_rank"]
            floor = 1e-12 * kop.norm_product
            assert cert.residual_hs == pytest.approx(dense["residual_hs"], rel=1e-12, abs=floor)
            for key in ("diag_hs", "upper_hs", "lower_hs"):
                assert cert.components[key] == pytest.approx(dense[key], rel=1e-12, abs=floor)
            heavy += cert.heavy_x.size + cert.heavy_y.size > 0
            collapsed += (cert.defect_rank - n - cert.heavy_x.size - cert.heavy_y.size
                          < len(cert.column_defects) + len(cert.row_defects))
            checked += 1
    assert checked == len(kops) * len(n_values) and heavy and collapsed


def test_build_certificates_shares_one_matrix():
    rng = make_rng(67, 0)
    kop = random_kernel_operator(rng, absolute_value(), 30, 40)
    single = [build_certificate(kop, n).residual_hs for n in (2, 8)]
    assert [c.residual_hs for c in build_certificates(kop, [2, 8])] == single
    spectrum, results = certify(kop, [2, 8])
    assert [cert.residual_hs for cert, _ in results] == single
    assert all(report.passed for _, report in results)
    np.testing.assert_array_equal(spectrum, singular_spectrum(materialize(kop)))
    with pytest.raises(ValidationError):
        build_certificates(kop, [])
    with pytest.raises(ValidationError):
        certify(kop, [])


def test_verify_zero_operator():
    kop = kernel_operator([0.0], [1.0], [1.0], [0.5], [1.0], [0.0], absolute_value())
    cert = build_certificate(kop, 2)
    report = verify_certificate(kop, cert)
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
            verify_certificate(kop, bad)
    if singular_value_at(spectrum, cert.defect_rank) > 1e-9:
        with pytest.raises(CertificateUnsoundError):
            verify_certificate(kop, worse)
    # b above analytic is always unsound.
    inflated = dataclasses.replace(cert, empirical_bound=cert.analytic_bound * 2.0 + 1.0)
    with pytest.raises(CertificateUnsoundError):
        verify_certificate(kop, inflated)
    # r beyond the 7n budget is unsound even if the bound holds.
    overdrawn = dataclasses.replace(cert, defect_rank=7 * cert.n + 1)
    with pytest.raises(CertificateUnsoundError):
        verify_certificate(kop, overdrawn)
    # NaN bounds compare false both ways; verification must fail closed.
    nan = dataclasses.replace(cert, empirical_bound=math.nan, analytic_bound=math.nan)
    with pytest.raises(CertificateUnsoundError):
        verify_certificate(kop, nan, spectrum=spectrum)
