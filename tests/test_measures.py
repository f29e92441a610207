import dataclasses
import math

import numpy as np
import pytest

from liplab import linalg
from liplab.doi import eigenbasis_product
from liplab.errors import ValidationError
from liplab.functions import (LipschitzFunction, absolute_value, clamp_function, constant_function,
                              identity_function, piecewise_linear, shifted_absolute, smooth_ramp)
from liplab.linalg import frobenius, row_blocks
from liplab.measures import (DiscreteMeasure, WeightedKernelOperator, kernel_operator,
                             materialize, read_kernel_operator)
from liplab.rng import make_rng, random_kernel_operator
from oracles import write_operator


def test_discrete_measure_sorts():
    # kernel_operator sorts each side's measure; masses follow their positions.
    kop = kernel_operator([2.0, -1.0, 0.5], [1.0, 2.0, 3.0], [1.0, 1.0, 1.0],
                          [3.0, -4.0], [5.0, 6.0], [1.0, 1.0], absolute_value())
    np.testing.assert_array_equal(kop.mu.positions, [-1.0, 0.5, 2.0])
    np.testing.assert_array_equal(kop.mu.masses, [2.0, 3.0, 1.0])
    np.testing.assert_array_equal(kop.nu.positions, [-4.0, 3.0])
    np.testing.assert_array_equal(kop.nu.masses, [6.0, 5.0])
    assert kop.mu.support_radius == 2.0
    assert kop.support_radius == 4.0


def test_discrete_measure_validation():
    with pytest.raises(ValidationError):
        DiscreteMeasure([0.0, 0.0], [1.0, 1.0])  # duplicate positions
    with pytest.raises(ValidationError):
        DiscreteMeasure([0.0, 1.0], [1.0, 0.0])  # nonpositive mass
    with pytest.raises(ValidationError):
        DiscreteMeasure(np.array([1.0, 0.0]), np.array([1.0, 1.0]))  # unsorted
    with pytest.raises(ValidationError, match="equal length"):
        DiscreteMeasure([0.0, 1.0], [1.0])


def test_kernel_operator_sorts_joint():
    kop = kernel_operator([1.0, -1.0], [0.25, 0.75], [10.0, 20.0],
                          [0.0], [1.0], [1.0], absolute_value())
    np.testing.assert_array_equal(kop.mu.positions, [-1.0, 1.0])
    np.testing.assert_array_equal(kop.phi, [20.0, 10.0])


def test_weight_shape_validation():
    mu = DiscreteMeasure([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValidationError):
        WeightedKernelOperator(mu, mu, np.ones(3), np.ones(2), absolute_value())
    with pytest.raises(ValidationError, match="one value per nu atom"):
        WeightedKernelOperator(mu, mu, np.ones(2), np.ones(3), absolute_value())


def test_norms():
    kop = kernel_operator([0.0, 1.0], [0.25, 1.0], [2.0, 1.0], [1.0], [1.0], [3.0],
                          absolute_value())
    assert kop.phi_norm == pytest.approx(np.sqrt(2.0))
    kop = kernel_operator([0.0], [4.0], [0.5], [1.0], [1.0], [3.0], absolute_value())
    assert kop.phi_norm == pytest.approx(1.0)
    assert kop.psi_norm == pytest.approx(3.0)
    assert kop.norm_product == pytest.approx(3.0)


@pytest.mark.parametrize("weights", [[1e-170, 3e-170], [1e200, 3e200], [5e-324, 0.0]])
def test_norms_at_any_weight_scale(weights):
    # The plain sum of squared weights underflows to 0 or overflows to inf here.
    kop = kernel_operator([0.0, 1.0], [1.0, 4.0], weights, [1.0], [1.0], [1.0], absolute_value())
    assert kop.phi_norm == pytest.approx(math.hypot(weights[0], 2.0 * weights[1]), rel=1e-15)
    assert kop.phi_norm > 0.0


def test_materialize_rejects_an_entry_beyond_the_float_range():
    kop = kernel_operator([0.0, 1.0], [1.0, 1.0], [1.0, 1e200], [2.0], [1.0], [1e200],
                          absolute_value())
    with pytest.raises(ValidationError, match="row 1 exceeds the float range"):
        materialize(kop)
    # weight * sqrt(mass) itself overflows; the entry would be inf * 0 = NaN.
    kop = kernel_operator([0.0], [1e300], [1e300], [0.0], [1.0], [1.0], absolute_value())
    with pytest.raises(ValidationError, match="exceeds the float range"):
        materialize(kop)


def test_materialize_evaluates_f_once_per_atom():
    # f at the MU atoms once and at the NU atoms once per call, over all row blocks.
    sizes = []
    f = LipschitzFunction("abs", lambda x: sizes.append(x.size) or np.abs(x), 1.0)
    kop = random_kernel_operator(make_rng(41), f, 400, 300)
    m = materialize(kop)
    assert len(row_blocks(400, 300)) > 1
    assert sum(sizes) == 400 + 300
    np.testing.assert_array_equal(m, materialize(dataclasses.replace(kop, f=absolute_value())))


@pytest.mark.parametrize("rows", [0, 1, 7])
@pytest.mark.parametrize("cols", [0, 1, linalg.BLOCK_ELEMENTS, linalg.BLOCK_ELEMENTS + 1])
def test_row_blocks_cover_each_row_once_in_order(rows, cols):
    assert [i for block in row_blocks(rows, cols) for i in range(rows)[block]] == list(range(rows))


def _bits_or_message(call):
    try:
        return call().tobytes()
    except ValidationError as exc:
        return str(exc)


def test_block_size_changes_no_bit_and_no_decision(monkeypatch):
    # MU atoms at +-9e307 spread beyond the float range whatever the NU atoms;
    # with one row per block, no single block shows it.
    k = 20000
    far = kernel_operator([-9e307, 9e307], [1.0, 1.0], [1e-300, 1e-300],
                          np.linspace(-1.0, 1.0, k), np.full(k, 1.0 / k), np.ones(k),
                          absolute_value())
    spread = "atoms or their abs values spread beyond the float range"
    # Row 3 is the first with an entry beyond the float range: 1e200 * 1 * 1e200.
    huge = kernel_operator(np.arange(5.0), np.ones(5), [1.0, 1.0, 1.0, 1e200, 1e200],
                           [2.0, 3.0], [1.0, 1.0], [1e200, 1.0], absolute_value())
    rng = make_rng(43)
    plain = random_kernel_operator(rng, absolute_value(), 40, 30)
    overflow = "an operator entry in row 3 exceeds the float range"
    for kop, materialized, product in ((plain, None, None), (huge, overflow, None),
                                       (far, spread, spread)):
        # eigenbasis_product takes the same atoms as the two spectra.
        x = rng.standard_normal((kop.mu.size, kop.nu.size))
        for call, message in ((lambda: materialize(kop), materialized),
                              (lambda: eigenbasis_product(kop.f, kop.mu.positions,
                                                          kop.nu.positions, x.copy(),
                                                          frobenius(x)), product)):
            outcomes = []
            for elements in (1, 17 * kop.nu.size, 1 << 30):
                monkeypatch.setattr(linalg, "BLOCK_ELEMENTS", elements)
                outcomes.append(_bits_or_message(call))
            assert outcomes == [outcomes[0]] * 3
            assert outcomes[0] == message if message else isinstance(outcomes[0], bytes)


def test_materialize_constant_function_is_zero():
    rng = make_rng(30)
    kop = random_kernel_operator(rng, constant_function(5.0), 10, 12)
    np.testing.assert_array_equal(materialize(kop), np.zeros((10, 12)))


def test_materialize_single_atoms():
    # (|0| - |1|) / (0 - 1) = 1 with unit masses and weights.
    kop = kernel_operator([0.0], [1.0], [1.0], [1.0], [1.0], [1.0], absolute_value())
    np.testing.assert_allclose(materialize(kop), [[1.0]])


def test_materialize_hs_matches_double_sum_oracle():
    rng = make_rng(31)
    kop = random_kernel_operator(rng, absolute_value(), 15, 13)
    m = materialize(kop)
    hs_sq = float(np.sum(m * m))
    oracle = 0.0
    for i in range(kop.mu.size):
        for j in range(kop.nu.size):
            x, y = kop.mu.positions[i], kop.nu.positions[j]
            dd = 0.0 if x == y else (abs(x) - abs(y)) / (x - y)
            oracle += (kop.mu.masses[i] * kop.phi[i] ** 2 *
                       dd ** 2 * kop.psi[j] ** 2 * kop.nu.masses[j])
    assert hs_sq == pytest.approx(oracle, abs=1e-10 * max(1.0, oracle))


def test_kernel_entrywise_bound():
    rng = make_rng(32)
    kop = random_kernel_operator(rng, absolute_value(), 20, 20)
    m = np.abs(materialize(kop))
    bound = (np.sqrt(kop.mu.masses) * np.abs(kop.phi))[:, None] * \
            (np.abs(kop.psi) * np.sqrt(kop.nu.masses))[None, :] * kop.f.lip
    assert np.all(m <= bound * (1 + 1e-12))


_GRID = np.linspace(-2.5, 2.5, 41)


@pytest.mark.parametrize("f, spec", [pytest.param(f, spec, id=spec["kind"]) for f, spec in [
    (absolute_value(), {"kind": "abs"}),
    (shifted_absolute(0.3), {"kind": "shifted_abs", "t": 0.3}),
    (clamp_function(), {"kind": "clamp"}),
    (piecewise_linear(_GRID, 7), {"kind": "pwl", "breakpoints": _GRID.tolist(), "seed": 7}),
    (smooth_ramp(), {"kind": "smooth_ramp", "delta": 0.1}),
    (identity_function(), {"kind": "identity"}),
    (constant_function(2.0), {"kind": "constant", "c": 2.0}),
]])
def test_operator_file_roundtrip(tmp_path, f, spec):
    # Every kind's spec is read back and rebuilt into the same function.
    rng = make_rng(33)
    kop = random_kernel_operator(rng, f, 8, 6)
    path = tmp_path / "kop.txt"
    write_operator(path, kop, spec)
    back = read_kernel_operator(path)
    np.testing.assert_array_equal(back.mu.positions, kop.mu.positions)
    np.testing.assert_array_equal(back.mu.masses, kop.mu.masses)
    np.testing.assert_array_equal(back.phi, kop.phi)
    np.testing.assert_array_equal(back.nu.positions, kop.nu.positions)
    np.testing.assert_array_equal(back.psi, kop.psi)
    assert back.f.name == kop.f.name
    np.testing.assert_array_equal(materialize(back), materialize(kop))


def test_operator_file_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("MU\n0.0 1.0 1.0\nFUNCTION\n{\"kind\": \"abs\"}\n")
    with pytest.raises(ValidationError, match="missing NU"):
        read_kernel_operator(path)
    path.write_text("MU\n0.0 1.0\nNU\n0.0 1.0 1.0\nFUNCTION\n{\"kind\": \"abs\"}\n")
    with pytest.raises(ValidationError):
        read_kernel_operator(path)
    path.write_text("stray\nMU\n")
    with pytest.raises(ValidationError, match="before any section"):
        read_kernel_operator(path)
    path.write_text("MU\n0.0 1.0 1.0\nNU\n0.0 1.0 1.0\nFUNCTION\nnot json\n")
    with pytest.raises(ValidationError, match="JSON"):
        read_kernel_operator(path)
    path.write_text("MU\n0.0 1.0 1.0\nNU\n0.0 1.0 1.0\nFUNCTION\n")
    with pytest.raises(ValidationError, match="empty FUNCTION section"):
        read_kernel_operator(path)
    path.write_text("MU\n0.0 1.0 1.0\nNU\n0.0 1.0 x\nFUNCTION\n{\"kind\": \"abs\"}\n")
    with pytest.raises(ValidationError, match="NU section: bad number in row 0"):
        read_kernel_operator(path)
    path.write_text("MU\nnan 1.0 1.0\nNU\n0.0 1.0 1.0\nFUNCTION\n{\"kind\": \"abs\"}\n")
    with pytest.raises(ValidationError, match="non-finite atoms"):
        read_kernel_operator(path)
    path.write_text("MU\n0.0 1.0 1.0\nNU\n0.0 1.0 inf\nFUNCTION\n{\"kind\": \"abs\"}\n")
    with pytest.raises(ValidationError, match="weights contain non-finite values"):
        read_kernel_operator(path)
    path.write_text("MU\n0.0 1.0 1.0\nNU\n0.0 1.0 1.0\nFUNCTION\n{\"kind\": \"abs\"}\n"
                    "{\"kind\": \"clamp\"}\n")
    with pytest.raises(ValidationError, match="FUNCTION section must be one JSON line"):
        read_kernel_operator(path)
    path.write_text("MU\n0.0 1.0 1.0\nNU\n0.0 1.0 1.0\nFUNCTION\n{\"kind\": [\"abs\"]}\n")
    with pytest.raises(ValidationError, match="function spec kind"):
        read_kernel_operator(path)
    path.write_text("MU\n0.0 1.0 1.0\nNU\n0.0 1.0 1.0\n"
                    "FUNCTION\n{\"kind\": \"smooth_ramp\", \"delat\": 0.5}\n")
    with pytest.raises(ValidationError, match="unknown fields \\['delat'\\]"):
        read_kernel_operator(path)


@pytest.mark.parametrize("repeated", ["MU", "NU", "FUNCTION"])
def test_operator_file_rejects_a_repeated_section(tmp_path, repeated):
    # A later section would silently replace the earlier one.
    later = {"MU": "MU\n0.25 1.0 1.0", "NU": "NU\n2.0 1.0 1.0",
             "FUNCTION": 'FUNCTION\n{"kind": "clamp"}'}[repeated]
    path = tmp_path / "kop.txt"
    path.write_text("MU\n0.0 1.0 1.0\n0.5 1.0 1.0\nNU\n1.0 1.0 1.0\n"
                    f'FUNCTION\n{{"kind": "abs"}}\n{later}\n')
    with pytest.raises(ValidationError, match=f"repeated {repeated} section"):
        read_kernel_operator(path)
