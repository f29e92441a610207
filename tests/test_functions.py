import numpy as np
import pytest

from liplab.errors import EvaluationError, ValidationError
from liplab.functions import (LipschitzFunction, absolute_value, apply_function,
                              clamp_function, constant_function, default_suite,
                              divided_difference, function_from_spec, identity_function,
                              loewner_matrix, piecewise_linear, shifted_absolute, smooth_ramp)
from liplab.linalg import eigh_symmetric, frobenius
from liplab.rng import make_rng, random_symmetric
from oracles import estimate_lip_seminorm


def test_suite_lipschitz_property():
    rng = make_rng(1)
    for f in default_suite():
        x = rng.uniform(-10.0, 10.0, 10_000)
        y = rng.uniform(-10.0, 10.0, 10_000)
        lhs = np.abs(np.asarray(f(x)) - np.asarray(f(y)))
        rhs = f.lip * np.abs(x - y) * (1 + 1e-12)
        assert np.all(lhs <= rhs), f.name


def test_divided_difference_examples():
    f = absolute_value()
    assert divided_difference(f, -1.0, 0.0) == -1.0
    assert divided_difference(f, 3.7, 3.7) == 0.0
    assert divided_difference(identity_function(), 2.0, 5.0) == 1.0


def test_divided_difference_zero_on_diagonal_every_function():
    for f in default_suite():
        assert divided_difference(f, 1.234, 1.234) == 0.0


def test_divided_difference_bounded_by_lip():
    rng = make_rng(2)
    for f in default_suite():
        for _ in range(200):
            x, y = rng.uniform(-5, 5, 2)
            assert abs(divided_difference(f, x, y)) <= f.lip


def test_loewner_identity_function():
    got = loewner_matrix(identity_function(), [0.0, 1.0], [2.0, 3.0])
    np.testing.assert_allclose(got, np.ones((2, 2)))


def test_loewner_abs_column():
    got = loewner_matrix(absolute_value(), [-1.0, 1.0], [0.0])
    np.testing.assert_allclose(got, [[-1.0], [1.0]])


def test_loewner_abs_symmetric_points_vanishes():
    # (|-1| - |1|) / (-1 - 1) = 0 off the diagonal; diagonal is 0 by convention.
    got = loewner_matrix(absolute_value(), [-1.0, 1.0], [-1.0, 1.0])
    np.testing.assert_array_equal(got, np.zeros((2, 2)))


def test_loewner_pwl_entries_exactly_in_unit_interval():
    rng = make_rng(3)
    f = piecewise_linear(np.linspace(-2.0, 2.0, 21), 11)
    xs = rng.uniform(-4, 4, 60)
    ys = rng.uniform(-4, 4, 60)
    entries = loewner_matrix(f, xs, ys)
    assert np.all(entries >= -1.0) and np.all(entries <= 1.0)


def test_estimate_lip_examples():
    assert estimate_lip_seminorm(absolute_value(), [-1.0, 0.0, 1.0]) == 1.0
    assert estimate_lip_seminorm(constant_function(3.0), [0.0, 1.0, 2.0]) == 0.0
    assert estimate_lip_seminorm(clamp_function(), [-2.0, -1.0, 0.0, 1.0, 2.0]) == 1.0
    with pytest.raises(ValidationError):
        estimate_lip_seminorm(absolute_value(), [1.0, 1.0])


def test_estimate_lip_below_declared():
    rng = make_rng(4)
    for f in default_suite():
        grid = np.sort(rng.uniform(-6, 6, 500))
        assert estimate_lip_seminorm(f, grid) <= f.lip + 1e-12


def test_apply_identity_reconstructs():
    rng = make_rng(5)
    a = random_symmetric(rng, 9)
    dec = eigh_symmetric(a)
    got = apply_function(identity_function(), dec)
    assert frobenius(got - a) <= 1e-9 * frobenius(a)


def test_apply_constant_is_scaled_identity():
    rng = make_rng(6)
    dec = eigh_symmetric(random_symmetric(rng, 3))
    got = apply_function(constant_function(7.0), dec)
    np.testing.assert_allclose(got, 7.0 * np.eye(3), atol=1e-12)


def test_apply_abs_exchange_matrix():
    # Hand oracle: eigenvalues are -1 and 1, both map to 1, so f(A) = I.
    dec = eigh_symmetric(np.array([[0.0, 1.0], [1.0, 0.0]]))
    got = apply_function(absolute_value(), dec)
    np.testing.assert_allclose(got, np.eye(2), atol=1e-12)


def test_apply_respects_affine_maps():
    rng = make_rng(7)
    for _ in range(10):
        dim = int(rng.integers(2, 12))
        a = random_symmetric(rng, dim)
        dec = eigh_symmetric(a)
        slope, offset = rng.uniform(-3, 3, 2)
        f = LipschitzFunction("affine", lambda x, s=slope, o=offset: s * x + o, abs(slope))
        got = apply_function(f, dec)
        want = slope * a + offset * np.eye(dim)
        assert frobenius(got - want) <= 1e-9 * (abs(slope) * frobenius(a) + abs(offset) * dim)


def test_apply_non_finite_value_names_eigenvalue():
    dec = eigh_symmetric(np.diag([0.0, 4.0]))
    bad = LipschitzFunction("inv", lambda x: np.where(x == 0.0, np.inf, 1.0 / np.maximum(x, 1e-300)), 1.0)
    with pytest.raises(EvaluationError, match="0.0"):
        apply_function(bad, dec)


def test_pwl_construction():
    nodes = np.linspace(-2.0, 2.0, 9)
    f = piecewise_linear(nodes, 42)
    # Anchored at the first breakpoint.
    assert float(f(nodes[0])) == 0.0
    # Slopes are exactly +-1 between consecutive samples within a segment.
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    slopes = (np.asarray(f(mid + 1e-3)) - np.asarray(f(mid - 1e-3))) / 2e-3
    assert np.all(np.isin(np.round(slopes, 9), [-1.0, 1.0]))
    # Continuity across breakpoints.
    left = np.asarray(f(nodes - 1e-12))
    right = np.asarray(f(nodes + 1e-12))
    assert np.abs(left - right).max() < 1e-9


def test_pwl_seed_reproducibility():
    nodes = np.linspace(-1.0, 1.0, 7)
    x = np.linspace(-3, 3, 101)
    assert np.array_equal(piecewise_linear(nodes, 5)(x), piecewise_linear(nodes, 5)(x))
    assert not np.array_equal(piecewise_linear(nodes, 5)(x), piecewise_linear(nodes, 6)(x))


def test_pwl_validation():
    with pytest.raises(ValidationError):
        piecewise_linear([], 1)
    with pytest.raises(ValidationError):
        piecewise_linear([0.0, 0.0], 1)


def test_function_from_spec_roundtrip():
    for f in default_suite() + [identity_function(), constant_function(2.0)]:
        rebuilt = function_from_spec(f.spec)
        x = np.linspace(-4, 4, 50)
        np.testing.assert_array_equal(rebuilt(x), f(x))
        assert rebuilt.lip == f.lip


def test_function_from_spec_errors():
    with pytest.raises(ValidationError):
        function_from_spec({"kind": "nope"})
    with pytest.raises(ValidationError):
        function_from_spec({"no_kind": 1})
    with pytest.raises(ValidationError):
        function_from_spec({"kind": "shifted_abs"})  # missing t


def test_smooth_ramp_validation():
    with pytest.raises(ValidationError):
        smooth_ramp(0.0)


def test_shifted_absolute():
    f = shifted_absolute(0.3)
    assert float(f(0.3)) == 0.0
    assert float(f(1.3)) == pytest.approx(1.0)
