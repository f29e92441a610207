import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liplab import functions, linalg
from liplab.errors import ValidationError
from liplab.functions import (LipschitzFunction, absolute_value, apply_function,
                              clamp_function, constant_function, default_suite,
                              function_from_spec, identity_function, loewner_blocks,
                              piecewise_linear, shifted_absolute, smooth_ramp)
from liplab.linalg import eigh_symmetric, frobenius
from liplab.rng import make_rng, random_symmetric
from oracles import divided_differences, estimate_lip_seminorm


def one_block(f, xs, ys):
    """The Loewner matrix of a call small enough for one row block."""
    return next(loewner_blocks(f, xs, ys))[1]


def test_suite_lipschitz_property():
    rng = make_rng(1)
    for f in default_suite():
        x = rng.uniform(-10.0, 10.0, 10_000)
        y = rng.uniform(-10.0, 10.0, 10_000)
        lhs = np.abs(f.at(x, "x") - f.at(y, "y"))
        rhs = f.lip * np.abs(x - y) * (1 + 1e-12)
        assert np.all(lhs <= rhs), f.name


def test_divided_difference_examples():
    f = absolute_value()
    assert one_block(f, -1.0, 0.0)[0, 0] == -1.0
    assert one_block(f, 3.7, 3.7)[0, 0] == 0.0
    assert one_block(identity_function(), 2.0, 5.0)[0, 0] == 1.0


def test_divided_difference_zero_on_diagonal_every_function():
    for f in default_suite():
        assert one_block(f, 1.234, 1.234)[0, 0] == 0.0


def test_divided_difference_bounded_by_lip():
    rng = make_rng(2)
    for f in default_suite():
        for _ in range(200):
            x, y = rng.uniform(-5, 5, 2)
            assert abs(one_block(f, x, y)[0, 0]) <= f.lip


def test_loewner_identity_function():
    got = one_block(identity_function(), [0.0, 1.0], [2.0, 3.0])
    np.testing.assert_allclose(got, np.ones((2, 2)))


def test_loewner_abs_column():
    got = one_block(absolute_value(), [-1.0, 1.0], [0.0])
    np.testing.assert_allclose(got, [[-1.0], [1.0]])


def test_loewner_abs_symmetric_points_vanishes():
    # (|-1| - |1|) / (-1 - 1) = 0 off the diagonal; diagonal is 0 by convention.
    got = one_block(absolute_value(), [-1.0, 1.0], [-1.0, 1.0])
    np.testing.assert_array_equal(got, np.zeros((2, 2)))


def test_loewner_pwl_entries_exactly_in_unit_interval():
    rng = make_rng(3)
    f = piecewise_linear(np.linspace(-2.0, 2.0, 21), 11)
    xs = rng.uniform(-4, 4, 60)
    ys = rng.uniform(-4, 4, 60)
    entries = one_block(f, xs, ys)
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
    with pytest.raises(ValidationError, match="0.0"):
        apply_function(bad, dec)


def test_apply_non_finite_message_names_a_plain_float():
    # smooth_ramp(1e200) overflows to inf everywhere; numpy 2's scalar repr
    # would read "np.float64(0.0)".
    with pytest.raises(ValidationError) as exc:
        apply_function(smooth_ramp(1e200), eigh_symmetric(np.diag([0.0, 1.0])))
    assert str(exc.value) == "ramp(d=1e+200) is non-finite at eigenvalue 0.0"


def test_non_finite_values_raise_without_a_warning():
    # f.at evaluates with overflow silenced, so its check, not a RuntimeWarning
    # (an error under this suite's settings), reports the first bad point.
    f = piecewise_linear([1e308], 1)
    with pytest.raises(ValidationError) as exc:
        next(loewner_blocks(f, [1.0, -8e307], [-9e307]))
    assert str(exc.value) == "pwl(seed=1) is non-finite at an atom -8e+307"
    with pytest.raises(ValidationError, match="is non-finite at x = 0.0"):
        smooth_ramp(1e200).at(np.zeros(1), "x =")
    np.testing.assert_array_equal(f.at([1.0, 2.0], "x ="), f.eval(np.array([1.0, 2.0])))


def test_loewner_blocks_evaluate_f_once_at_the_rows_and_once_at_the_columns(monkeypatch):
    rng = make_rng(40)
    xs, ys = rng.uniform(-3.0, 3.0, 50), rng.uniform(-3.0, 3.0, 40)
    monkeypatch.setattr(linalg, "BLOCK_ELEMENTS", 17 * ys.size)
    for f in default_suite():
        sizes = []
        counted = LipschitzFunction(f.name, lambda x, _f=f: sizes.append(x.size) or _f.eval(x),
                                    f.lip)
        blocks = list(loewner_blocks(counted, xs, ys))
        assert [rows for rows, _ in blocks] == [slice(0, 17), slice(17, 34), slice(34, 50)]
        for rows, block in blocks:
            np.testing.assert_array_equal(block, divided_differences(f, xs[rows], ys))
        assert sizes == [50, 40]


def test_loewner_blocks_keep_the_rule_of_loewner_matrix():
    # A bad row atom is named before a bad column atom, as on the concatenated atoms.
    hole = LipschitzFunction("hole", lambda x: np.where(x > 5.0, np.nan, x), 1.0)
    with pytest.raises(ValidationError, match="hole is non-finite at an atom 6.0"):
        next(loewner_blocks(hole, [0.0, 6.0], [1.0, 7.0]))
    with pytest.raises(ValidationError, match="hole is non-finite at an atom 7.0"):
        next(loewner_blocks(hole, [0.0], [1.0, 7.0]))
    # The spread checks span rows and columns; inf - inf raises without a warning.
    with pytest.raises(ValidationError, match="spread beyond the float range"):
        next(loewner_blocks(identity_function(), [1e308], [0.0, -1e308]))
    with pytest.raises(ValidationError, match="spread beyond the float range"):
        next(loewner_blocks(clamp_function(), [np.inf], [np.inf]))
    # With no rows there is no block, but the rule still covers the columns.
    assert list(loewner_blocks(absolute_value(), [], [1.0, 2.0])) == []
    with pytest.raises(ValidationError, match="hole is non-finite at an atom 7.0"):
        list(loewner_blocks(hole, [], [7.0]))


def test_pwl_construction():
    nodes = np.linspace(-2.0, 2.0, 9)
    f = piecewise_linear(nodes, 42)
    # Anchored at the first breakpoint.
    assert float(f.at(nodes[0], "x")) == 0.0
    # Slopes are exactly +-1 between consecutive samples within a segment.
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    slopes = (f.at(mid + 1e-3, "x") - f.at(mid - 1e-3, "x")) / 2e-3
    assert np.all(np.isin(np.round(slopes, 9), [-1.0, 1.0]))
    # Continuity across breakpoints.
    left = f.at(nodes - 1e-12, "x")
    right = f.at(nodes + 1e-12, "x")
    assert np.abs(left - right).max() < 1e-9


def test_pwl_seed_reproducibility():
    nodes = np.linspace(-1.0, 1.0, 7)
    x = np.linspace(-3, 3, 101)

    def values(seed):
        return piecewise_linear(nodes, seed).at(x, "x")

    assert np.array_equal(values(5), values(5))
    assert not np.array_equal(values(5), values(6))


def test_pwl_validation():
    with pytest.raises(ValidationError):
        piecewise_linear([], 1)
    with pytest.raises(ValidationError):
        piecewise_linear([0.0, 0.0], 1)
    # The gap between the breakpoints, and so the second node value, overflows.
    with pytest.raises(ValidationError, match="float range"):
        piecewise_linear([-1e308, 1e308], 1)
    # Breakpoints that are not a list of numbers, from Python as from a spec.
    for breakpoints in ("ab", {"a": 1}, [[0], [1, 2]], np.zeros((2, 2)), None):
        with pytest.raises(ValidationError, match="pwl breakpoints has the wrong type"):
            piecewise_linear(breakpoints, 1)


def test_function_from_spec_roundtrip():
    for f in default_suite() + [identity_function(), constant_function(2.0)]:
        rebuilt = function_from_spec(f.spec)
        x = np.linspace(-4, 4, 50)
        np.testing.assert_array_equal(rebuilt.at(x, "x"), f.at(x, "x"))
        assert rebuilt.lip == f.lip


def test_every_function_pickles_with_the_same_values():
    # A sweep hands its function to its worker processes pickled.
    fields = {"abs": {}, "shifted_abs": {"t": 0.3}, "clamp": {}, "smooth_ramp": {"delta": 0.25},
              "identity": {}, "constant": {"c": -2.5},
              "pwl": {"breakpoints": [-1.5, 0.0, 0.25, 2.0], "seed": 7}}
    assert sorted(fields) == sorted(functions._KINDS)
    built = {kind: function_from_spec({"kind": kind, **f}) for kind, f in fields.items()}
    x = np.array([-0.0, 0.0, 0.3, -1.5, 0.25, 2.0, 1e6, -1e6, 1e6 + 0.25, -1e6 - 0.125,
                  *np.linspace(-3.0, 3.0, 25)])
    for f in built.values():
        back = pickle.loads(pickle.dumps(f))
        assert (back.name, back.lip, back.spec) == (f.name, f.lip, f.spec)
        np.testing.assert_array_equal(back.at(x, "x").view(np.int64), f.at(x, "x").view(np.int64))


def test_function_from_spec_errors():
    with pytest.raises(ValidationError):
        function_from_spec({"kind": "nope"})
    with pytest.raises(ValidationError):
        function_from_spec({"no_kind": 1})
    with pytest.raises(ValidationError, match="missing fields \\['t'\\]"):
        function_from_spec({"kind": "shifted_abs"})
    for kind in (["abs"], {"abs": 1}, 1, None):
        with pytest.raises(ValidationError, match="function spec kind"):
            function_from_spec({"kind": kind})
    with pytest.raises(ValidationError, match="smooth_ramp spec: unknown fields \\['delat'\\]"):
        function_from_spec({"kind": "smooth_ramp", "delat": 0.5})
    with pytest.raises(ValidationError, match="pwl spec: unknown fields \\['t'\\], "
                                              "missing fields \\['seed'\\]"):
        function_from_spec({"kind": "pwl", "breakpoints": [0.0], "t": 1})


def test_function_from_spec_takes_the_constructor_defaults():
    assert function_from_spec({"kind": "smooth_ramp"}).name == "ramp(d=0.1)"
    assert function_from_spec({"kind": "constant"}).name == "const(0.0)"
    assert function_from_spec({"kind": "constant"}).spec == {"kind": "constant", "c": 0.0}


# Any JSON value, and dicts with a known kind (or any value as kind) and some known fields.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=4),
                                                                       children, max_size=3),
    max_leaves=12)
_KNOWN = st.fixed_dictionaries(
    {"kind": st.sampled_from(["abs", "shifted_abs", "clamp", "pwl", "smooth_ramp", "identity",
                              "constant"]) | _JSON},
    optional={name: _JSON | st.floats() | st.lists(st.floats(), max_size=4)
              for name in ("t", "breakpoints", "seed", "delta", "c", "x")})


@settings(max_examples=300, deadline=None)
@given(_JSON | _KNOWN)
def test_function_from_spec_returns_a_function_or_raises_validation_error(spec):
    spec = json.loads(json.dumps(spec))  # as json.loads returns it, NaN and Infinity included
    try:
        assert isinstance(function_from_spec(spec), LipschitzFunction)
    except ValidationError:
        pass


def test_smooth_ramp_validation():
    with pytest.raises(ValidationError):
        smooth_ramp(0.0)


@pytest.mark.parametrize("build", [lambda v: smooth_ramp(v), lambda v: shifted_absolute(v),
                                   lambda v: constant_function(v),
                                   lambda v: piecewise_linear([v], 1),
                                   lambda v: piecewise_linear([0.0, v], 1),
                                   lambda v: piecewise_linear([0.0], v)])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_constructors_reject_non_finite_parameters(build, value):
    # Each would otherwise build a function that is NaN or inf everywhere.
    with pytest.raises(ValidationError, match="has the wrong type or value"):
        build(value)


def test_shifted_absolute():
    f = shifted_absolute(0.3)
    assert float(f.at(0.3, "x")) == 0.0
    assert float(f.at(1.3, "x")) == pytest.approx(1.0)
