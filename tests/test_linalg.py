import math

import numpy as np
import pytest

from liplab.doi import birman_solomyak_delta, doi_apply
from liplab.errors import ConvergenceError, ValidationError
from liplab.functions import absolute_value
from liplab.ideals import singular_spectrum
from liplab.linalg import (EIG_RESIDUAL_TOL, ORTHONORMALITY_TOL, SVD_RESIDUAL_TOL,
                           SpectralDecomposition, as_symmetric, eigh_symmetric, frobenius,
                           matrix_text, read_matrix, svd)
from liplab.rng import make_rng, random_symmetric
from oracles import complement_projector, orthonormal_columns


def test_eigh_identity():
    dec = eigh_symmetric(np.eye(3))
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0, 1.0])
    np.testing.assert_allclose(dec.frame.T @ dec.frame, np.eye(3), atol=1e-12)


def test_eigh_diagonal():
    dec = eigh_symmetric(np.diag([-2.0, 5.0]))
    np.testing.assert_allclose(dec.eigenvalues, [-2.0, 5.0])
    np.testing.assert_allclose(np.abs(dec.frame), np.eye(2), atol=1e-14)


def test_eigh_exchange_matrix():
    dec = eigh_symmetric(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_eigh_rejects_bad_input():
    with pytest.raises(ValidationError):
        eigh_symmetric(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValidationError):
        eigh_symmetric(np.ones((2, 3)))
    with pytest.raises(ValidationError, match="expected a 2-D matrix"):
        eigh_symmetric(np.ones(3))


def test_eigh_lapack_failure_is_convergence_error(monkeypatch):
    def fail(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(ConvergenceError):
        eigh_symmetric(np.eye(2))


@pytest.mark.parametrize("call", [svd, singular_spectrum])
def test_svd_lapack_failure_is_convergence_error(monkeypatch, call):
    def fail(m, **options):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(ConvergenceError):
        call(np.eye(2))


@pytest.mark.parametrize("vals, frame, error", [
    # Only the residual sees a NaN eigenvalue of a 1 x 1 matrix.
    ([math.nan], [[1.0]], ConvergenceError),
    ([math.nan, 0.0, 1.0], np.eye(3), ValidationError),  # order
    ([0.0, 1.0, 2.0], np.full((3, 3), math.nan), ValidationError),  # orthonormality
])
def test_eigh_contracts_fail_closed_on_nan(monkeypatch, vals, frame, error):
    monkeypatch.setattr(np.linalg, "eigh", lambda m: (np.array(vals), np.array(frame)))
    with pytest.raises(error):
        eigh_symmetric(np.eye(len(vals)))


def test_svd_contract_fails_closed_on_nan(monkeypatch):
    nan = np.full((2, 2), math.nan)
    monkeypatch.setattr(np.linalg, "svd", lambda m, full_matrices: (nan, nan[0], nan))
    with pytest.raises(ConvergenceError):
        svd(np.eye(2))


def test_svd_rejects_increasing_singular_values(monkeypatch):
    # An exact factorization of diag(1, 2), with its singular values out of order.
    monkeypatch.setattr(np.linalg, "svd",
                        lambda m, full_matrices: (np.eye(2), np.array([1.0, 2.0]), np.eye(2)))
    with pytest.raises(ConvergenceError, match="not nonincreasing"):
        svd(np.diag([1.0, 2.0]))


@pytest.mark.parametrize("scale", [1.0, 1e-13])
def test_zero_spectrum_with_the_true_frames_fails_at_any_scale(monkeypatch, scale):
    # Every eigenvalue or singular value 0 rebuilds the zero matrix, a residual
    # of ||A||_F: the contracts, relative to ||A||_F, reject it at every scale.
    a = scale * random_symmetric(make_rng(1), 6)
    eigh, lapack_svd = np.linalg.eigh, np.linalg.svd

    def zero_svd(m, full_matrices):
        u, s, vh = lapack_svd(m, full_matrices=full_matrices)
        return u, np.zeros_like(s), vh

    monkeypatch.setattr(np.linalg, "eigh", lambda m: (np.zeros(len(m)), eigh(m)[1]))
    monkeypatch.setattr(np.linalg, "svd", zero_svd)
    with pytest.raises(ConvergenceError, match="eigendecomposition residual"):
        eigh_symmetric(a)
    with pytest.raises(ConvergenceError, match="svd residual"):
        svd(a)


@pytest.mark.parametrize("dim", [2, 8, 32])
def test_eigh_contracts_random(dim):
    rng = make_rng(100, dim)
    for _ in range(50):
        a = random_symmetric(rng, dim, scale=float(rng.uniform(0.1, 10.0)))
        dec = eigh_symmetric(a)
        scale = frobenius(a)
        assert np.abs(dec.frame.T @ dec.frame - np.eye(dim)).max() <= ORTHONORMALITY_TOL * dim
        recon = (dec.frame * dec.eigenvalues) @ dec.frame.T
        assert frobenius(a - recon) <= EIG_RESIDUAL_TOL * scale
        assert np.all(np.diff(dec.eigenvalues) >= 0)


def test_eigh_deterministic():
    rng = make_rng(7)
    a = random_symmetric(rng, 16)
    d1 = eigh_symmetric(a)
    d2 = eigh_symmetric(a.copy())
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
    assert np.array_equal(d1.frame, d2.frame)


def test_frobenius_beyond_squared_range():
    # The entries' squares overflow; the norm itself is far below the float range.
    a = np.array([[1e160, 3e159], [3e159, -2e159]])
    assert frobenius(a) == pytest.approx(math.hypot(1e160, 3e159, 3e159, -2e159), rel=1e-15)
    with pytest.raises(ValidationError):
        frobenius(np.full((2, 2), 1e308))
    # The entries' squares underflow; the norm itself is a normal float.
    assert frobenius(np.array([[1e-170, 3e-170]])) == pytest.approx(3.1622776601683794e-170,
                                                                     rel=1e-15)
    assert frobenius(np.array([5e-324, 0.0])) == 5e-324
    assert frobenius(np.zeros((2, 3))) == 0.0
    assert frobenius(np.zeros((0, 3))) == 0.0


def test_svd_diagonal_with_negative():
    s, u, v = svd(np.diag([3.0, -2.0]))
    np.testing.assert_allclose(s, [3.0, 2.0])


def test_svd_zero_matrix():
    s, u, v = svd(np.zeros((4, 3)))
    np.testing.assert_allclose(s, [0.0, 0.0, 0.0])


def test_svd_rank_one():
    rng = make_rng(3)
    a = rng.standard_normal(5)
    b = rng.standard_normal(7)
    s, u, v = svd(np.outer(a, b))
    assert s[0] == pytest.approx(np.linalg.norm(a) * np.linalg.norm(b), rel=1e-12)
    np.testing.assert_allclose(s[1:], 0.0, atol=1e-12)


@pytest.mark.parametrize("shape", [(2, 2), (8, 5), (5, 8), (32, 32)])
def test_svd_contracts_random(shape):
    rng = make_rng(200, *shape)
    for _ in range(25):
        m = rng.standard_normal(shape)
        s, u, v = svd(m)
        assert frobenius(m - (u * s) @ v.T) <= SVD_RESIDUAL_TOL * frobenius(m)
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)


def test_svd_matches_eigh_of_gram():
    # Cross-route check: singular values vs sqrt of eigenvalues of M^T M.
    rng = make_rng(201)
    for _ in range(20):
        m = rng.standard_normal((12, 9))
        s, _, _ = svd(m)
        gram_eigs = eigh_symmetric(m.T @ m).eigenvalues
        expected = np.sqrt(np.clip(gram_eigs, 0.0, None))[::-1]
        assert np.abs(s - expected).max() <= 1e-8 * frobenius(m)


def test_complement_projector_empty():
    np.testing.assert_allclose(complement_projector([], 3), np.eye(3))


def test_complement_projector_coordinate_vector():
    p = complement_projector([np.array([1.0, 0.0])], 2)
    np.testing.assert_allclose(p, np.diag([0.0, 1.0]), atol=1e-14)


def test_complement_projector_parallel_vectors():
    v = np.array([1.0, 2.0, -1.0])
    p = complement_projector([v, 2 * v], 3)
    # Span is one-dimensional, so the projector has rank 2.
    assert np.trace(p) == pytest.approx(2.0, abs=1e-10)
    assert np.linalg.norm(p @ v) <= 1e-10 * np.linalg.norm(v)


def test_complement_projector_properties_random():
    rng = make_rng(202)
    for _ in range(20):
        d = int(rng.integers(2, 12))
        k = int(rng.integers(0, d + 2))
        vecs = [rng.standard_normal(d) for _ in range(k)]
        if k and rng.random() < 0.5:
            vecs.append(np.zeros(d))  # zero vectors are skipped
        p = complement_projector(vecs, d)
        assert np.abs(p @ p - p).max() <= 1e-10
        assert np.abs(p - p.T).max() <= 1e-10
        for v in vecs:
            assert np.linalg.norm(p @ v) <= 1e-10 * max(1.0, np.linalg.norm(v))
        rank = np.linalg.matrix_rank(np.column_stack(vecs)) if any(
            np.linalg.norm(v) > 0 for v in vecs) else 0
        assert np.trace(p) == pytest.approx(d - rank, abs=1e-8)


def test_orthonormal_columns_dimension_mismatch():
    with pytest.raises(ValidationError):
        orthonormal_columns([np.ones(3)], 4)


def test_as_symmetric_averages():
    m = as_symmetric([[1.0, 2.0], [0.0, 3.0]])
    np.testing.assert_allclose(m, [[1.0, 1.0], [1.0, 3.0]])


def test_as_symmetric_returns_an_exactly_symmetric_in_range_matrix_itself():
    half = 0.5 * np.finfo(float).max
    for m in (random_symmetric(make_rng(43), 5), np.array([[half, -half], [-half, 0.0]])):
        assert as_symmetric(m) is m
    m = np.array([[1.0, 2.0], [0.0, 3.0]])
    assert as_symmetric(m) is not m
    np.testing.assert_array_equal(m, [[1.0, 2.0], [0.0, 3.0]])
    # Beyond half the float range 0.5 * (M + M^T) overflows, so M is still rejected.
    with pytest.raises(ValidationError, match="float range"):
        as_symmetric(np.array([[np.finfo(float).max, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("call", [eigh_symmetric, birman_solomyak_delta, doi_apply])
def test_array_arguments_are_left_unchanged(call):
    rng = make_rng(44)
    f = absolute_value()
    a, b, t = random_symmetric(rng, 7), random_symmetric(rng, 7), rng.standard_normal((7, 7))
    d1, d2 = eigh_symmetric(a), eigh_symmetric(b)
    args = {eigh_symmetric: (a,), doi_apply: (f, d1, d2, t)}.get(call, (f, a, b))
    arrays = [a, b, t, d1.eigenvalues, d1.frame, d2.eigenvalues, d2.frame]
    before = [x.copy() for x in arrays]
    call(*args)
    for x, y in zip(arrays, before):
        np.testing.assert_array_equal(x, y)


def test_spectral_decomposition_rejects_bad_frame():
    with pytest.raises(ValidationError):
        SpectralDecomposition(np.array([0.0, 1.0]), np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        SpectralDecomposition(np.array([1.0, 0.0]), np.eye(2))  # descending
    with pytest.raises(ValidationError, match="shapes are inconsistent"):
        SpectralDecomposition(np.array([0.0, 1.0, 2.0]), np.eye(2))


def test_matrix_io_roundtrip(tmp_path):
    rng = make_rng(42)
    m = rng.standard_normal((3, 5)) * 1e-7  # exercises scientific notation
    path = tmp_path / "m.txt"
    path.write_text(matrix_text(m))
    np.testing.assert_array_equal(read_matrix(path), m)


def test_matrix_io_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n1.0 2.0\n")
    with pytest.raises(ValidationError):
        read_matrix(path)
    path.write_text("not a header\n")
    with pytest.raises(ValidationError):
        read_matrix(path)
    path.write_text("1 2\n1.0 oops\n")
    with pytest.raises(ValidationError):
        read_matrix(path)
    with pytest.raises(ValidationError):
        read_matrix(tmp_path / "missing.txt")
