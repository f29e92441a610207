import math
import pickle

import numpy as np
import pytest

from liplab import doi, sweeps
from liplab.doi import (birman_solomyak_delta, bs_residual_bound, check_birman_solomyak,
                        doi_apply, eigenbasis_product, rank_one_perturb)
from liplab.errors import CertificateUnsoundError, SoundnessError, ValidationError
from liplab.functions import (LipschitzFunction, absolute_value, apply_function, constant_function, default_suite,
                              identity_function, piecewise_linear, shifted_absolute)
from liplab.ideals import schatten_norm, singular_spectrum
from liplab.linalg import SpectralDecomposition, as_symmetric, eigh_symmetric, frobenius
from liplab.rng import make_rng, random_orthogonal, random_symmetric, random_unit
from oracles import exact_delta, exact_doi, householder_pair, relative_error


def test_doi_constant_function_vanishes():
    rng = make_rng(10)
    d1 = eigh_symmetric(random_symmetric(rng, 5))
    d2 = eigh_symmetric(random_symmetric(rng, 5))
    t = rng.standard_normal((5, 5))
    np.testing.assert_array_equal(doi_apply(constant_function(3.0), d1, d2, t), np.zeros((5, 5)))


def test_doi_identity_disjoint_spectra_returns_t():
    rng = make_rng(11)
    # Shift the spectra apart so no divided difference hits the diagonal.
    d1 = eigh_symmetric(random_symmetric(rng, 6) + 10.0 * np.eye(6))
    d2 = eigh_symmetric(random_symmetric(rng, 6) - 10.0 * np.eye(6))
    t = rng.standard_normal((6, 6))
    got = doi_apply(identity_function(), d1, d2, t)
    assert frobenius(got - t) <= 1e-9 * frobenius(t)


def test_doi_abs_symmetric_spectrum_annihilates():
    dec = eigh_symmetric(np.diag([-1.0, 1.0]))
    t = np.array([[0.0, 1.0], [1.0, 0.0]])
    got = doi_apply(absolute_value(), dec, dec, t)
    np.testing.assert_allclose(got, np.zeros((2, 2)), atol=1e-14)


def test_doi_dimension_mismatch():
    rng = make_rng(12)
    d1 = eigh_symmetric(random_symmetric(rng, 4))
    d2 = eigh_symmetric(random_symmetric(rng, 5))
    with pytest.raises(ValidationError):
        doi_apply(absolute_value(), d1, d2, np.zeros((4, 4)))


def test_doi_linear_in_t():
    rng = make_rng(13)
    f = absolute_value()
    d1 = eigh_symmetric(random_symmetric(rng, 8))
    d2 = eigh_symmetric(random_symmetric(rng, 8))
    t1 = rng.standard_normal((8, 8))
    t2 = rng.standard_normal((8, 8))
    a, b = 2.5, -1.25
    lhs = doi_apply(f, d1, d2, a * t1 + b * t2)
    rhs = a * doi_apply(f, d1, d2, t1) + b * doi_apply(f, d1, d2, t2)
    scale = frobenius(t1) + frobenius(t2)
    assert frobenius(lhs - rhs) <= 1e-10 * scale


def test_doi_schur_s2_bound():
    rng = make_rng(14)
    for f in default_suite():
        for _ in range(10):
            dim = int(rng.integers(2, 24))
            d1 = eigh_symmetric(random_symmetric(rng, dim))
            d2 = eigh_symmetric(random_symmetric(rng, dim))
            t = rng.standard_normal((dim, dim)) * float(rng.uniform(0.1, 10))
            q = doi_apply(f, d1, d2, t)
            lhs = schatten_norm(singular_spectrum(q), 2)
            rhs = f.lip * schatten_norm(singular_spectrum(t), 2)
            assert lhs <= rhs * (1 + 1e-9)


def test_eigenbasis_product_has_the_singular_values_of_doi_apply():
    # s(U (L o X) V^T) = s(L o X): the sweeps read the spectrum of the product.
    rng = make_rng(24)
    for f in default_suite():
        for dim in (2, 9, 40):
            d1 = eigh_symmetric(random_symmetric(rng, dim))
            d2 = eigh_symmetric(random_symmetric(rng, dim))
            t = rng.standard_normal((dim, dim))
            expected = singular_spectrum(doi_apply(f, d1, d2, t))
            x = d1.frame.T @ t @ d2.frame
            got = singular_spectrum(eigenbasis_product(f, d1.eigenvalues, d2.eigenvalues, x,
                                                       frobenius(t)))
            assert np.max(np.abs(got - expected)) <= 1e-12 * expected[0]


def test_eigenbasis_product_evaluates_f_once_per_eigenvalue():
    # f at each spectrum once per call, over all row blocks.
    sizes = []
    f = LipschitzFunction("abs", lambda x: sizes.append(x.size) or np.abs(x), 1.0)
    rng = make_rng(42)
    lam, mu = rng.uniform(-1.0, 1.0, 300), rng.uniform(-1.0, 1.0, 200)
    x = rng.standard_normal((300, 200))
    expected = eigenbasis_product(absolute_value(), lam, mu, x.copy(), frobenius(x))
    np.testing.assert_array_equal(eigenbasis_product(f, lam, mu, x, frobenius(x)), expected)
    assert sum(sizes) == 300 + 200


def test_eigenbasis_product_rejects_a_mismatched_x():
    lam = np.array([0.0, 1.0, 2.0])
    for mu, x in ((lam, np.zeros((3, 2))), (lam[:2], np.zeros((3, 3))),
                  (lam.reshape(3, 1), np.zeros((3, 3)))):
        with pytest.raises(ValidationError, match="X has shape"):
            eigenbasis_product(absolute_value(), lam, mu, x, 1.0)


def test_s2_guard_catches_a_loewner_matrix_beyond_lip(monkeypatch):
    monkeypatch.setattr(doi, "loewner_blocks", lambda f, xs, ys: [
        (slice(0, len(xs)), np.full((len(xs), len(ys)), 2.0 * f.lip))])
    rng = make_rng(25)
    f = absolute_value()
    a = random_symmetric(rng, 6)
    b = rank_one_perturb(a, random_unit(rng, 6), 0.7)
    with pytest.raises(SoundnessError, match="S2"):
        doi_apply(f, eigh_symmetric(a), eigh_symmetric(b), rng.standard_normal((6, 6)))
    with pytest.raises(SoundnessError, match="S2"):
        birman_solomyak_delta(f, a, b)
    for experiment in ("rank_one", "trace_class"):
        cfg = sweeps.load_config({"experiment": experiment, "dimensions": [6], "ensemble": 1,
                                  "seed": 3, "function": {"kind": "abs"}})
        with pytest.raises(SoundnessError, match="S2"):
            sweeps._instance(cfg, 6, 0)


def test_doi_well_defined_under_eigenbasis_rotation():
    # Repeated eigenvalues leave the frame arbitrary within the eigenspace;
    # the integral must not depend on that choice.
    rng = make_rng(15)
    vals = np.array([-1.0, 2.0, 2.0, 5.0])
    frame1 = random_orthogonal(rng, 4)
    rot = np.eye(4)
    block = random_orthogonal(rng, 2)
    rot[1:3, 1:3] = block  # rotate inside the eigenvalue-2 eigenspace
    frame2 = frame1 @ rot
    d1 = SpectralDecomposition(vals, frame1)
    d2 = SpectralDecomposition(vals, frame2)
    other = eigh_symmetric(random_symmetric(rng, 4))
    t = rng.standard_normal((4, 4))
    f = absolute_value()
    q1 = doi_apply(f, d1, other, t)
    q2 = doi_apply(f, d2, other, t)
    assert frobenius(q1 - q2) <= 1e-10 * frobenius(t)
    q3 = doi_apply(f, other, d1, t)
    q4 = doi_apply(f, other, d2, t)
    assert frobenius(q3 - q4) <= 1e-10 * frobenius(t)


@pytest.mark.parametrize("dim", [7, 64])
def test_outputs_do_not_depend_on_frame_column_signs(dim):
    # Every output is built from the projections u u^T, and IEEE products and
    # sums are sign-symmetric, so flipping frame columns leaves their bits
    # alone; only an SVD of L o X, whose rows and columns flip, may round
    # differently.
    rng = make_rng(26, dim)
    a, b = random_symmetric(rng, dim), random_symmetric(rng, dim)
    t = rng.standard_normal((dim, dim))
    decs = [eigh_symmetric(a), eigh_symmetric(b)]
    flipped = []
    for dec in decs:
        signs = rng.choice([-1.0, 1.0], size=dim)
        signs[rng.integers(dim)] = -1.0
        flipped.append(SpectralDecomposition(dec.eigenvalues, dec.frame * signs))
    for f in default_suite():
        assert np.array_equal(apply_function(f, flipped[0]), apply_function(f, decs[0]))
        assert np.array_equal(doi_apply(f, *flipped, t), doi_apply(f, *decs, t))
        assert (birman_solomyak_delta(f, a, b, dec_a=flipped[0], dec_b=flipped[1])[1]
                == birman_solomyak_delta(f, a, b, dec_a=decs[0], dec_b=decs[1])[1])
        got, expected = (singular_spectrum(eigenbasis_product(
            f, d1.eigenvalues, d2.eigenvalues, d1.frame.T @ t @ d2.frame, frobenius(t)))
            for d1, d2 in (flipped, decs))
        assert np.max(np.abs(got - expected)) <= 1e-15 * expected[0]


def test_bs_delta_equal_operators():
    rng = make_rng(16)
    a = random_symmetric(rng, 6)
    got = birman_solomyak_delta(absolute_value(), a, a)[0]
    np.testing.assert_allclose(got, np.zeros((6, 6)), atol=1e-12)


def test_bs_delta_identity_function():
    rng = make_rng(17)
    a = random_symmetric(rng, 6)
    b = random_symmetric(rng, 6)
    got = birman_solomyak_delta(identity_function(), a, b)[0]
    assert frobenius(got - (a - b)) <= 1e-9 * (frobenius(a) + frobenius(b))


def test_bs_delta_diagonal_abs():
    got = birman_solomyak_delta(absolute_value(), np.diag([0.0, 2.0]), np.diag([1.0, 2.0]))[0]
    np.testing.assert_allclose(got, np.diag([-1.0, 0.0]), atol=1e-12)


def test_bs_worked_example():
    residual = check_birman_solomyak(absolute_value(), np.diag([0.0, 2.0]), np.diag([1.0, 2.0]))
    assert residual <= 1e-10


def test_bs_identity_function():
    rng = make_rng(18)
    a = random_symmetric(rng, 10)
    b = random_symmetric(rng, 10)
    assert check_birman_solomyak(identity_function(), a, b) <= 1e-9 * frobenius(a - b)


def test_bs_rank_one_pwl():
    rng = make_rng(19)
    f = piecewise_linear(np.linspace(-2.5, 2.5, 41), 7)
    a = random_symmetric(rng, 16)
    b = rank_one_perturb(a, random_unit(rng, 16), 0.8)
    residual = check_birman_solomyak(f, a, b)
    assert residual <= bs_residual_bound(a, b, f.lip)


def test_bs_with_shared_eigenvalues():
    # Quantized diagonal spectra force exact eigenvalue collisions between A and B.
    rng = make_rng(20)
    for f in default_suite():
        vals_a = np.sort(rng.integers(-4, 5, 12).astype(float) / 4.0)
        vals_b = vals_a.copy()
        vals_b[::3] = np.sort(rng.integers(-4, 5, 4).astype(float) / 4.0)
        a = np.diag(vals_a)
        b = np.diag(np.sort(vals_b))
        residual = check_birman_solomyak(f, a, b)
        assert residual <= bs_residual_bound(a, b, f.lip)


def test_bs_same_spectrum_rotated():
    # B = Q A Q^T shares the whole spectrum with A up to rounding.
    rng = make_rng(21)
    a = random_symmetric(rng, 12)
    q = random_orthogonal(rng, 12)
    b = 0.5 * ((q @ a @ q.T) + (q @ a @ q.T).T)
    for f in default_suite():
        residual = check_birman_solomyak(f, a, b)
        assert residual <= bs_residual_bound(a, b, f.lip)


def test_rank_one_perturb_examples():
    rng = make_rng(22)
    a = random_symmetric(rng, 4)
    np.testing.assert_array_equal(rank_one_perturb(a, np.ones(4), 0.0), a)
    got = rank_one_perturb(np.zeros((3, 3)), np.array([1.0, 0.0, 0.0]), 3.0)
    np.testing.assert_allclose(got, np.diag([3.0, 0.0, 0.0]))
    with pytest.raises(ValidationError):
        rank_one_perturb(a, np.zeros(4), 1.0)
    with pytest.raises(ValidationError, match="u must have length 4"):
        rank_one_perturb(a, np.ones(3), 1.0)


def asymmetric_pair():
    """(A + K, B): ROADMAP item 2's d = 6 GOE draws A and B, each (g + g^T) / 2 from
    np.random.default_rng(1), and K = 50 (k - k^T) with k the generator's next draw.

    At shifted_abs t = -1e8 the residual on this pair exceeds the contract of
    the symmetric parts (item 2's false exit 3), but not that of A + K itself,
    whose Frobenius norm is about 42 times larger.
    """
    rng = np.random.default_rng(1)
    g = rng.standard_normal((6, 6))
    a = (g + g.T) / 2
    g = rng.standard_normal((6, 6))
    b = (g + g.T) / 2
    k = rng.standard_normal((6, 6))
    return a + 50.0 * (k - k.T), b


def test_bs_contract_reads_the_symmetric_parts():
    # The identity runs on the symmetric parts of A and B, and so does its
    # contract: an antisymmetric part that the identity never sees must not
    # widen it.  Both calls fail on item 2's defect, with one contract.
    ak, b = asymmetric_pair()
    f = shifted_absolute(-1e8)
    with pytest.raises(SoundnessError) as raw:
        birman_solomyak_delta(f, ak, b)
    with pytest.raises(SoundnessError) as symmetric:
        birman_solomyak_delta(f, as_symmetric(ak), b)
    allowed = bs_residual_bound(as_symmetric(ak), b, 1.0)
    assert raw.value.allowed == symmetric.value.allowed == allowed
    assert raw.value.observed == symmetric.value.observed


def test_bs_residual_bound_at_any_scale():
    a = np.array([[1.0, 0.5], [0.5, -1.0]])
    assert bs_residual_bound(a, -a, 1.0) == 1e-8 * (frobenius(a) + frobenius(-a))
    # The contract scales with the pair: no absolute floor below unit scale.
    for k in (-60, 60):
        s = 2.0 ** k
        assert bs_residual_bound(s * a, -s * a, 1.0) == s * bs_residual_bound(a, -a, 1.0)
    # ||A||_F + ||B||_F overflows: no contract at lip = 0, none in the float range at lip = 1.
    big = np.diag([1e308, 1e308])
    assert bs_residual_bound(big, big, 0.0) == 0.0
    with pytest.raises(ValidationError, match="contract exceeds the float range"):
        bs_residual_bound(big, big, 1.0)


@pytest.mark.parametrize("d", [4, 8, 16])
def test_householder_pairs_match_the_exact_answers(d):
    # Non-commuting integer pairs with exact answers (ROADMAP item 18): f(A) -
    # f(B) as fdelta prints it, and doi_apply of an integer T, each within
    # 1e-12 relative of the Fraction oracle.  Each case is (f, offset), the
    # spectra moved up by offset (v^T v)^2.
    cases = [(absolute_value(), 0), (identity_function(), 0), (shifted_absolute(-1e6), 0),
             (shifted_absolute(0.0), 10),
             (piecewise_linear([-20000, -300, 0, 4000, 90000], 7), 0)]
    rng = make_rng(18, d)
    for f, offset in cases:
        pair = householder_pair(rng, d, offset)
        t = rng.integers(-5, 6, size=(d, d))
        delta = birman_solomyak_delta(f, pair.a, pair.b)[0]
        assert relative_error(delta, exact_delta(f, pair)) <= 1e-12, f.name
        integral = doi_apply(f, eigh_symmetric(pair.a), eigh_symmetric(pair.b), t)
        assert relative_error(integral, exact_doi(f, pair, t)) <= 1e-12, f.name


def test_rank_one_trace_norm():
    rng = make_rng(23)
    for _ in range(10):
        dim = int(rng.integers(2, 10))
        a = random_symmetric(rng, dim)
        u = rng.standard_normal(dim)
        c = float(rng.uniform(-3, 3))
        diff = rank_one_perturb(a, u, c) - a
        trace_norm = schatten_norm(singular_spectrum(diff), 1)
        assert trace_norm == pytest.approx(abs(c) * float(u @ u), rel=1e-10, abs=1e-12)
        if c != 0.0:
            assert np.linalg.matrix_rank(diff, tol=1e-10) == 1


@pytest.mark.parametrize("observed, allowed", [(math.nan, 1.0), (0.0, math.nan)])
def test_require_fails_closed_on_nan(observed, allowed):
    SoundnessError.require("equal passes", 1.0, 1.0)
    with pytest.raises(SoundnessError, match="^check: observed"):
        SoundnessError.require("check", observed, allowed)
    with pytest.raises(CertificateUnsoundError):
        CertificateUnsoundError.require("check", observed, allowed)


@pytest.mark.parametrize("cls", [SoundnessError, CertificateUnsoundError])
def test_soundness_errors_pickle(cls):
    # A sweep worker hands its error to the parent pickled.
    back = pickle.loads(pickle.dumps(cls("m", 1.0, 0.5)))
    assert type(back) is cls
    assert (back.message, back.observed, back.allowed) == ("m", 1.0, 0.5)
    assert str(back) == str(cls("m", 1.0, 0.5))
