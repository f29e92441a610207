import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liplab.errors import ValidationError
from liplab.ideals import (as_spectrum, harmonic_log_gap, s_Omega_norm, s_omega_norm,
                           schatten_norm, singular_spectrum, singular_value_at,
                           weak_s1_quasinorm)
from liplab.rng import make_rng


def spectra_strategy(max_len=64):
    return st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=0, max_size=max_len
    ).map(lambda xs: np.sort(np.asarray(xs, dtype=float))[::-1])


def test_singular_spectrum_examples():
    np.testing.assert_allclose(singular_spectrum(np.diag([1.0, 2.0, 3.0])), [3.0, 2.0, 1.0])
    np.testing.assert_allclose(singular_spectrum(np.zeros((3, 2))), [0.0, 0.0])
    np.testing.assert_allclose(singular_spectrum([[0.0, 1.0], [1.0, 0.0]]), [1.0, 1.0])


def test_schatten_examples():
    assert schatten_norm([4.0, 3.0], 2) == pytest.approx(5.0, rel=1e-14)
    assert schatten_norm([1.0, 1.0, 1.0], 1) == pytest.approx(3.0)
    assert schatten_norm([1.0, 0.5, 0.25], 1) == pytest.approx(1.75)


def test_schatten_rejects_p_below_one():
    with pytest.raises(ValidationError):
        schatten_norm([1.0], 0.5)


def test_weak_s1_examples():
    harmonic = 1.0 / (1.0 + np.arange(100.0))
    assert weak_s1_quasinorm(harmonic) == pytest.approx(1.0, rel=1e-14)
    assert weak_s1_quasinorm([5.0, 0.0, 0.0]) == pytest.approx(5.0)
    assert weak_s1_quasinorm([1.0, 1.0, 1.0, 1.0]) == pytest.approx(4.0)


def test_s_Omega_single_value():
    assert s_Omega_norm([1.0]) == pytest.approx(1.0 / math.log(2.0), rel=1e-14)
    assert s_Omega_norm([0.0, 0.0, 0.0]) == 0.0


def test_s_Omega_harmonic_64():
    s = 1.0 / (1.0 + np.arange(64.0))
    # Oracle: evaluate every partial-sum ratio directly.
    expected = max(
        sum(s[: n + 1]) / math.log(2.0 + n) for n in range(64)
    )
    got = s_Omega_norm(s)
    assert got == pytest.approx(expected, rel=1e-14)
    # The sup is attained at n = 0 with value 1/ln 2.
    assert got == pytest.approx(1.4426950408889634, rel=1e-12)


def test_s_omega_examples():
    assert s_omega_norm([1.0, 0.0, 0.0]) == pytest.approx(1.0)
    assert s_omega_norm([1.0, 1.0]) == pytest.approx(1.5)
    s = 2.0 / (1.0 + np.arange(4.0))
    # Oracle: direct summation 2 * (1 + 1/4 + 1/9 + 1/16) = 205/72.
    expected = sum(x / (1 + j) for j, x in enumerate(s))
    assert expected == pytest.approx(205.0 / 72.0, rel=1e-15)
    assert s_omega_norm(s) == pytest.approx(expected, rel=1e-14)


@given(spectra_strategy(), st.floats(min_value=0.0, max_value=1e3))
@settings(max_examples=150, deadline=None)
def test_homogeneity(spec, c):
    for func in (weak_s1_quasinorm, s_Omega_norm, s_omega_norm,
                 lambda s: schatten_norm(s, 1), lambda s: schatten_norm(s, 2.5)):
        base = func(spec)
        scaled = func(c * spec)
        assert scaled == pytest.approx(c * base, rel=1e-12, abs=1e-300)


@given(spectra_strategy())
@settings(max_examples=150, deadline=None)
def test_domination_by_trace_norm(spec):
    trace = schatten_norm(spec, 1) if spec.size else 0.0
    assert s_omega_norm(spec) <= trace * (1 + 1e-12)
    assert weak_s1_quasinorm(spec) <= trace * (1 + 1e-12)


@given(spectra_strategy())
@settings(max_examples=150, deadline=None)
def test_zero_padding_invariance(spec):
    padded = np.concatenate([spec, np.zeros(7)])
    for func in (weak_s1_quasinorm, s_Omega_norm, s_omega_norm,
                 lambda s: schatten_norm(s, 1), lambda s: schatten_norm(s, 3)):
        assert func(padded) == pytest.approx(func(spec), rel=1e-13, abs=0.0)


def test_harmonic_log_lemma_all_orders():
    # H(n + 1) <= log(2 + n) / ln 2 for every n < 4096; this is what makes
    # s_Omega_norm <= (1 / ln 2) * weak_s1_quasinorm on spectra of that length.
    gaps = np.array([harmonic_log_gap(n) for n in range(4096)])
    assert np.all(gaps >= -1e-12)


def test_omega_bounded_by_weak():
    rng = make_rng(55)
    for _ in range(25):
        size = int(rng.integers(1, 4096))
        spec = np.sort(rng.uniform(0.0, 3.0, size))[::-1]
        assert s_Omega_norm(spec) <= weak_s1_quasinorm(spec) / math.log(2.0) * (1 + 1e-12)


def test_schatten_monotone_in_spectrum():
    rng = make_rng(56)
    for _ in range(25):
        size = int(rng.integers(1, 50))
        s = np.sort(rng.uniform(0.0, 2.0, size))[::-1]
        bigger = s + np.sort(rng.uniform(0.0, 1.0, size))[::-1]
        for p in (1.0, 2.0, 3.7):
            assert schatten_norm(s, p) <= schatten_norm(bigger, p) * (1 + 1e-12)


def test_singular_value_at():
    assert singular_value_at([3.0, 2.0, 1.0], 0) == 3.0
    assert singular_value_at([3.0, 2.0, 1.0], 2) == 1.0
    assert singular_value_at([3.0, 2.0, 1.0], 5) == 0.0
    with pytest.raises(ValidationError):
        singular_value_at([1.0], -1)


def test_as_spectrum_validation():
    with pytest.raises(ValidationError):
        as_spectrum([1.0, 2.0])  # increasing beyond tolerance
    with pytest.raises(ValidationError):
        as_spectrum([1.0, np.nan])
    with pytest.raises(ValidationError):
        as_spectrum([-1.0])
    # Sub-tolerance jitter is repaired, not rejected.
    fixed = as_spectrum([1.0, 1.0 + 1e-12, 0.5])
    assert np.all(np.diff(fixed) <= 0)

