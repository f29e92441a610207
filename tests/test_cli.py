import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liplab import certificate, doi, measures, sweeps
from liplab.certificate import build_certificate, certify
from liplab.cli import main
from liplab.errors import ValidationError, json_text
from liplab.functions import (absolute_value, apply_function, constant_function,
                              function_from_spec, smooth_ramp)
from liplab.ideals import singular_spectrum, singular_value_at, weak_s1_quasinorm
from liplab.linalg import as_symmetric, matrix_text, read_matrix
from liplab.measures import kernel_operator, materialize
from liplab.rng import make_rng, random_kernel_operator, random_symmetric
from oracles import write_matrix, write_operator
from test_certificate import fail_svd_off_main_thread
from test_doi import asymmetric_pair
from test_sweeps import GOLDEN_DIR, GOLDEN_SWEEPS, assert_matches_golden, read_golden


@pytest.fixture
def matrices(tmp_path):
    write_matrix(tmp_path / "A.txt", np.diag([0.0, 2.0]))
    write_matrix(tmp_path / "B.txt", np.diag([1.0, 2.0]))
    write_matrix(tmp_path / "T.txt", np.array([[0.0, 1.0], [1.0, 0.0]]))
    return tmp_path


def seeded_matrices(scale: float, names: str = "AB") -> dict:
    """CI's seeded 5 x 5 matrix files (make_rng(1), drawn in the order of names), times scale."""
    rng = make_rng(1)
    return {f"{name}.txt": matrix_text(scale * random_symmetric(rng, 5)) for name in names}


def test_fdelta(matrices, capsys):
    out = matrices / "out.txt"
    code = main(["fdelta", "--function", '{"kind": "abs"}',
                 str(matrices / "A.txt"), str(matrices / "B.txt"), "--out", str(out)])
    assert code == 0
    np.testing.assert_allclose(read_matrix(out), np.diag([-1.0, 0.0]), atol=1e-12)


def test_fdelta_stdout(matrices, capsys):
    code = main(["fdelta", "--function", '{"kind": "abs"}',
                 str(matrices / "A.txt"), str(matrices / "B.txt")])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "2 2"


def test_fdelta_residual_out_of_contract_exits_3(tmp_path, capsys):
    # Each f(lambda) = lambda + 1e16 rounds to an even integer, so the two
    # spectral calculi subtract to diag(0, -2, -4), not A - B = diag(0, -1, -2).
    # The Birman-Solomyak check that bscheck runs rejects that matrix.
    write_matrix(tmp_path / "A.txt", np.eye(3))
    write_matrix(tmp_path / "B.txt", np.diag([1.0, 2.0, 3.0]))
    out = tmp_path / "D.txt"
    assert main(["fdelta", "--function", '{"kind": "shifted_abs", "t": -1e16}',
                 str(tmp_path / "A.txt"), str(tmp_path / "B.txt"), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("unsound: Birman-Solomyak residual out of contract: observed ")
    assert not out.exists()


def test_doi_command(matrices):
    out = matrices / "q.txt"
    code = main(["doi", "--function", '{"kind": "abs"}', str(matrices / "A.txt"),
                 str(matrices / "B.txt"), str(matrices / "T.txt"), "--out", str(out)])
    assert code == 0
    assert read_matrix(out).shape == (2, 2)


def test_bscheck_ok(matrices, capsys):
    code = main(["bscheck", "--function", '{"kind": "abs"}',
                 str(matrices / "A.txt"), str(matrices / "B.txt")])
    assert code == 0
    assert "OK" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["fdelta", "doi", "bscheck"])
def test_matrix_command_help_names_the_function(capsys, command):
    # The three matrix commands share one argument set, --function included.
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "--function" in capsys.readouterr().out


_2X2 = (np.array([[0.0, 1e10], [-1e10, 1.0]]), np.eye(2))


@pytest.mark.parametrize("command", ["fdelta", "doi", "bscheck"])
@pytest.mark.parametrize("pair, spec, codes", [
    # A's antisymmetric part (1e10) must not enter the contract, which on its
    # symmetric part diag(0, 1) against I2 is 2.414213562373095e-08.
    (_2X2, {"kind": "abs"}, {"fdelta": 0, "doi": 0, "bscheck": 0}),
    # ROADMAP item 2's false exit 3 (residual 2.9e-7 against 8.3e-8), reached the
    # same way from either file; the norm of A + K itself would allow 3.5e-6.
    (asymmetric_pair(), {"kind": "shifted_abs", "t": -1e8}, {"fdelta": 3, "doi": 0, "bscheck": 3}),
], ids=["2x2", "d6"])
def test_matrix_commands_read_the_symmetric_parts(tmp_path, capsys, command, pair, spec, codes):
    # A and its symmetric part give the same stdout, stderr and exit code.
    a, b = pair
    write_matrix(tmp_path / "A.txt", a)
    write_matrix(tmp_path / "S.txt", as_symmetric(a))
    write_matrix(tmp_path / "B.txt", b)
    write_matrix(tmp_path / "T.txt", np.ones_like(b))
    t = [str(tmp_path / "T.txt")] if command == "doi" else []
    results = []
    for name in ("A.txt", "S.txt"):
        code = main([command, "--function", json.dumps(spec), str(tmp_path / name),
                     str(tmp_path / "B.txt"), *t])
        results.append((code, *capsys.readouterr()))
    assert results[0] == results[1]
    code, out, err = results[0]
    assert code == codes[command]
    if command == "bscheck" and code == 0:
        assert out.splitlines()[1] == "contract 2.414213562373095e-08"
    if code == 3:
        assert out == "" and err.startswith("unsound: Birman-Solomyak residual out of contract")


# Each function with its scale parameters at scale s; clamp is left out, its +-1 is fixed.
_SCALED_SPECS = {
    "abs": lambda s: {"kind": "abs"},
    "identity": lambda s: {"kind": "identity"},
    "shifted_abs": lambda s: {"kind": "shifted_abs", "t": 0.3 * s},
    "smooth_ramp": lambda s: {"kind": "smooth_ramp", "delta": 0.1 * s},
    "pwl": lambda s: {"kind": "pwl", "breakpoints": [-s, 0.0, s], "seed": 7},
    "constant": lambda s: {"kind": "constant", "c": 2.0 * s},
}


def _printed_numbers(command: str, out: str) -> list:
    """The numbers a matrix command printed: bscheck's residual and contract, else the entries."""
    lines = out.splitlines()
    if command == "bscheck":
        assert [line.split()[0] for line in lines] == ["residual", "contract", "OK"]
        return [float(line.split()[1]) for line in lines[:2]]
    return [float(v) for line in lines[1:] for v in line.split()]


@pytest.mark.parametrize("kind", sorted(_SCALED_SPECS))
@pytest.mark.parametrize("command", ["fdelta", "doi", "bscheck"])
def test_matrix_commands_are_scale_equivariant(tmp_path, capsys, command, kind):
    # Scaling A, B, T and f's scale parameters by 2^k is exact in floats, and so
    # is every quantity the commands print, contracts included: each is 2^k
    # times its value at k = 0, with the same exit code.
    names = ["A", "B", "T"] if command == "doi" else ["A", "B"]
    results = {}
    for k in (-60, -30, 0, 30, 60):
        s = 2.0 ** k
        for name, text in seeded_matrices(s, "ABT").items():
            (tmp_path / name).write_text(text)
        code = main([command, "--function", json.dumps(_SCALED_SPECS[kind](s)),
                     *(str(tmp_path / f"{name}.txt") for name in names)])
        results[k] = code, _printed_numbers(command, capsys.readouterr().out)
    code, numbers = results[0]
    assert code == 0 and numbers
    for k, (code_k, numbers_k) in results.items():
        assert code_k == code
        assert numbers_k == [2.0 ** k * v for v in numbers], k


@pytest.mark.parametrize("scale", [1.0, 1e-12])
def test_planted_calculus_fault_exits_3_at_any_scale(tmp_path, monkeypatch, capsys, scale):
    # f(A) taken 1.5 times too large is far outside the Birman-Solomyak contract
    # at every scale, not only where ||A||_F + ||B||_F is near 1 or above.
    first = []

    def faulty(f, dec):
        first.append(not first)
        return 1.5 * apply_function(f, dec) if first[-1] else apply_function(f, dec)

    monkeypatch.setattr(doi, "apply_function", faulty)
    for name, text in seeded_matrices(scale).items():
        (tmp_path / name).write_text(text)
    for command in ("fdelta", "bscheck"):
        first.clear()
        assert main([command, "--function", '{"kind": "abs"}',
                     str(tmp_path / "A.txt"), str(tmp_path / "B.txt")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("unsound: Birman-Solomyak residual out of contract")


def test_function_spec_from_file(matrices):
    spec_path = matrices / "f.json"
    spec_path.write_text(json.dumps({"kind": "shifted_abs", "t": 0.5}))
    code = main(["bscheck", "--function", str(spec_path),
                 str(matrices / "A.txt"), str(matrices / "B.txt")])
    assert code == 0


@pytest.mark.parametrize("spec, shown", [("[1]", "[1]"), (' ["abs"]', "['abs']")])
def test_inline_function_spec_that_is_not_an_object_exits_2(matrices, capsys, spec, shown):
    # Read as inline JSON, like an object, not as a file path.
    assert main(["fdelta", "--function", spec,
                 str(matrices / "A.txt"), str(matrices / "B.txt")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: function spec has the wrong type or value: {shown}\n"


def test_validation_exit_codes(matrices, capsys):
    assert main(["fdelta", "--function", '{"kind": "wat"}',
                 str(matrices / "A.txt"), str(matrices / "B.txt")]) == 2
    assert main(["fdelta", "--function", '{"kind": "abs"}',
                 str(matrices / "missing.txt"), str(matrices / "B.txt")]) == 2
    assert main(["fdelta", "--function", "{broken",
                 str(matrices / "A.txt"), str(matrices / "B.txt")]) == 2
    # Headers claiming no rows, negative columns or a 72.8 TiB matrix.
    for text in ("0 -1\n", "1 -1\n0.5\n", "1 10000000000000\n0.5\n"):
        (matrices / "bad.txt").write_text(text)
        assert main(["fdelta", "--function", '{"kind": "abs"}',
                     str(matrices / "bad.txt"), str(matrices / "B.txt")]) == 2
    # A 1 x 1 A against a 2 x 2 B.
    write_matrix(matrices / "one.txt", np.zeros((1, 1)))
    for command in ("fdelta", "bscheck"):
        assert main([command, "--function", '{"kind": "abs"}',
                     str(matrices / "one.txt"), str(matrices / "B.txt")]) == 2
    # lip * ||T||_F, the S2 bound, is beyond the float range.
    write_matrix(matrices / "huge.txt", np.full((1, 1), 1.7976931348623157e308))
    assert main(["doi", "--function", '{"kind": "abs"}', str(matrices / "one.txt"),
                 str(matrices / "one.txt"), str(matrices / "huge.txt")]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: lip * ||T||_F exceeds the float range")


def test_certify(tmp_path, capsys):
    rng = make_rng(5, 0)
    kop = random_kernel_operator(rng, absolute_value(), 25, 25)
    op_path = tmp_path / "kop.txt"
    write_operator(op_path, kop, {"kind": "abs"})
    out = tmp_path / "certs.json"
    code = main(["certify", "--input", str(op_path), "--n", "2,4", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["certificates"]) == 2
    for record in data["certificates"]:
        assert record["verification"]["passed"]
        assert "defect_vectors" not in record


def test_certify_matches_golden(tmp_path):
    out = tmp_path / "certify.json"
    golden = read_golden("certify")
    n_values = ",".join(str(c["n"]) for c in golden["certificates"])
    assert main(["certify", "--input", str(GOLDEN_DIR / "certify_operator.txt"),
                 "--n", n_values, "--out", str(out)]) == 0
    assert any(c["heavy_x"] or c["heavy_y"] for c in golden["certificates"])
    assert_matches_golden(json.loads(out.read_text()), golden)


def test_json_text_writes_arrays_as_lists_and_nothing_else():
    assert json_text({"a": np.array([[1, 2]]), "b": np.arange(2.0)}) == json_text(
        {"a": [[1, 2]], "b": [0.0, 1.0]})
    for value in (np.int64(1), {1, 2}, object()):
        with pytest.raises(TypeError, match="not JSON serializable"):
            json_text({"x": value})


@pytest.mark.parametrize("mu, nu, spec, n", [
    # The support window [-R, R] is wider than the float range.
    ([9e307, 1e308], [9.5e307, 1.2e308], {"kind": "abs"}, "2"),
    # The normalized f values are near 1e200: their squares overflow.
    ([0.0, 1.0], [0.5, 2.0], {"kind": "shifted_abs", "t": 1e200}, "1,2"),
])
def test_certify_rejects_overflowing_intermediates(tmp_path, monkeypatch, mu, nu, spec, n):
    spectra = []
    monkeypatch.setattr(certificate, "singular_spectrum", spectra.append)
    threads = threading.active_count()
    kop = kernel_operator(mu, [0.5, 0.5], [1.0, 1.0], nu, [0.5, 0.5], [1.0, 1.0],
                          function_from_spec(spec))
    n_values = [int(k) for k in n.split(",")]
    with pytest.raises(ValidationError, match="float range"):
        certify(kop, n_values)
    with pytest.raises(ValidationError, match="float range"):
        build_certificate(kop, n_values[0])
    write_operator(tmp_path / "kop.txt", kop, spec)
    assert main(["certify", "--input", str(tmp_path / "kop.txt"), "--n", n]) == 2
    # Rejected before the SVD: its thread never started.
    assert spectra == []
    assert threading.active_count() == threads


@pytest.mark.parametrize("failure, code, prefix", [
    ("svd", 2, "error:"),  # LAPACK gives up on the helper thread
    ("verify", 3, "unsound:"),
])
def test_certify_failures_on_either_side_of_the_join(monkeypatch, capsys, failure, code,
                                                     prefix):
    if failure == "svd":
        raised = fail_svd_off_main_thread(monkeypatch)
    else:
        raised = []
        monkeypatch.setattr(certificate, "WEAK_NORM_CONSTANT", 0.0)
    threads = threading.active_count()
    argv = ["certify", "--input", str(GOLDEN_DIR / "certify_operator.txt"), "--n", "2,4"]
    assert main(argv) == code
    assert threading.active_count() == threads
    assert raised == (["certify-svd_0"] if failure == "svd" else [])
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].startswith(prefix)


def test_certify_bad_n(tmp_path, materialize_calls):
    rng = make_rng(6, 0)
    kop = random_kernel_operator(rng, absolute_value(), 10, 10)
    op_path = tmp_path / "kop.txt"
    write_operator(op_path, kop, {"kind": "abs"})
    assert main(["certify", "--input", str(op_path), "--n", "0"]) == 2
    assert main(["certify", "--input", str(op_path), "--n", ""]) == 2
    assert main(["certify", "--input", str(op_path), "--n", "a"]) == 2
    assert main(["certify", "--input", str(op_path), "--n", "4,2.5"]) == 2
    # Beyond 64 bits, as in a sweep config; past 2**1024, 1.0 / n would overflow.
    for n in ("1" + "0" * 400, str(2 ** 1030), str(2 ** 63), f"2,{2 ** 63}"):
        assert main(["certify", "--input", str(op_path), "--n", n]) == 2
    assert materialize_calls == []


@pytest.fixture
def materialize_calls(monkeypatch):
    """The operators passed to materialize, through any liplab module, in this test."""
    calls = []
    original = measures.materialize

    def counting(kop):
        calls.append(kop)
        return original(kop)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("liplab") and getattr(module, "materialize", None) is original:
            monkeypatch.setattr(module, "materialize", counting)
    return calls


def test_certify_and_certificate_sweep_materialize_once(tmp_path, monkeypatch, materialize_calls):
    calls = materialize_calls
    # One core: the sweep runs in this process, where the calls are counted.
    monkeypatch.setattr(sweeps, "_cores", lambda: 1)
    # An identically zero kernel is certified without its matrix.
    zero = random_kernel_operator(make_rng(7, 0), constant_function(2.0), 30, 30)
    assert [build_certificate(zero, n).defect_rank for n in (2, 4)] == [0, 0]
    assert [cert.defect_rank for cert, _ in certify(zero, [2, 4])[1]] == [0, 0]
    assert calls == []
    kop = random_kernel_operator(make_rng(7, 0), absolute_value(), 30, 30)
    op_path = tmp_path / "kop.txt"
    write_operator(op_path, kop, {"kind": "abs"})
    assert main(["certify", "--input", str(op_path), "--n", "2,4,8",
                 "--out", str(tmp_path / "certs.json")]) == 0
    assert len(calls) == 1
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "certificate", "dimensions": [20, 30],
                                    "ensemble": 2, "seed": 0, "function": {"kind": "abs"},
                                    "n_values": [2, 4, 8]}))
    assert main(["sweep", "--config", str(cfg_path)]) == 0
    assert len(calls) == 1 + 4  # one per operator of the 2 x 2 ensemble


def test_certify_zero_kernel_ignores_the_function(tmp_path):
    # phi = 0, so the kernel is zero whatever f is: sqrt(x^2 + delta^2), inf at
    # every atom, is never evaluated.
    kop = kernel_operator([0.5, 1.5], [1.0, 1.0], [0.0, 0.0], [-1.0, 2.0], [1.0, 1.0],
                          [1.0, 1.0], smooth_ramp(1e200))
    write_operator(tmp_path / "kop.txt", kop, {"kind": "smooth_ramp", "delta": 1e200})
    out = tmp_path / "certs.json"
    assert main(["certify", "--input", str(tmp_path / "kop.txt"), "--n", "2,4",
                 "--out", str(out)]) == 0
    records = json.loads(out.read_text())["certificates"]
    assert all(r.pop("verification")["passed"] for r in records)
    assert [r["defect_rank"] for r in records] == [0, 0]
    assert records == [json.loads(json_text(asdict(build_certificate(kop, n)))) for n in (2, 4)]


def test_certify_zero_kernel_wider_than_the_float_range(tmp_path, capsys):
    # phi = 0 at MU's atoms +-1e308: the single interval [-1e308, 1e308] has a
    # length beyond the float range, which neither the partition check nor the
    # flat bounds may evaluate (a RuntimeWarning is an error under pytest).
    kop = kernel_operator([-1e308, 1e308], [0.5, 0.5], [0.0, 0.0], [0.0, 1.0], [0.5, 0.5],
                          [1.0, 1.0], absolute_value())
    write_operator(tmp_path / "kop.txt", kop, {"kind": "abs"})
    assert main(["certify", "--input", str(tmp_path / "kop.txt"), "--n", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "n=2: s_0 <= 0.0 (observed 0.0) OK\n"
    (record,) = json.loads(captured.out)["certificates"]
    assert record["partition"]["edges"] == [-1e308, 1e308]
    assert record["defect_rank"] == 0 and record["verification"]["passed"]
    assert record["analytic_bound"] == record["empirical_bound"] == 0.0
    assert set(record["components"].values()) == {0.0}


@pytest.mark.parametrize("operator", [
    # phi = 0; psi's norm overflows (1e200 at mass 1e300).
    'MU\n0.0 1.0 0.0\n1.0 1.0 0.0\nNU\n0.5 1e300 1e200\n2.0 1.0 3.0\nFUNCTION\n{"kind": "abs"}\n',
    # lip = 0; phi's norm overflows.
    'MU\n0.0 1e300 1e200\n1.0 1.0 0.0\nNU\n0.5 1.0 1.0\n2.0 1.0 3.0\n'
    'FUNCTION\n{"kind": "constant", "c": 1.0}\n',
    # lip = 0; both norms are finite, their product is not.
    'MU\n0.0 1.0 1e200\nNU\n0.5 1.0 1e200\nFUNCTION\n{"kind": "constant", "c": 1.0}\n',
], ids=["phi_zero", "lip_zero", "finite_norms"])
def test_certify_zero_kernel_with_an_overflowing_norm_exits_2(tmp_path, capsys, operator):
    # Verification reads the norm product, 0 * inf = nan here: the operator is
    # rejected as input, not reported unsound.
    (tmp_path / "kop.txt").write_text(operator)
    assert main(["certify", "--input", str(tmp_path / "kop.txt"), "--n", "1,2"]) == 2
    assert "outside the normal float range" in capsys.readouterr().err


def test_bad_n_rejected_before_materializing(materialize_calls):
    kop = random_kernel_operator(make_rng(7, 0), absolute_value(), 30, 30)
    with pytest.raises(ValidationError):
        certify(kop, [0])
    with pytest.raises(ValidationError):
        build_certificate(kop, 0)
    assert materialize_calls == []


def test_bscheck_contract_finite_beyond_squared_range(tmp_path, capsys):
    # Squares of the entries overflow, the Frobenius norms (about 1.1e160) do not.
    write_matrix(tmp_path / "A.txt", np.array([[1e160, 3e159], [3e159, -2e159]]))
    write_matrix(tmp_path / "B.txt", np.array([[-2e159, 1e159], [1e159, 1e160]]))
    assert main(["bscheck", "--function", '{"kind": "abs"}',
                 str(tmp_path / "A.txt"), str(tmp_path / "B.txt")]) == 0
    out = capsys.readouterr().out.splitlines()
    contract = float(out[1].split()[1])
    assert out[1].startswith("contract ") and math.isfinite(contract) and contract > 0.0
    assert out[2] == "OK"


_EXTREME_A = [[8e307, 7e307], [7e307, -8e307]]
_EXTREME_B = [[-8e307, 7e307], [7e307, 8e307]]


@pytest.mark.parametrize("command, spec, mats", [
    # ||A||_F + ||B||_F is beyond the float range, so is the residual contract.
    ("bscheck", {"kind": "abs"}, [_EXTREME_A, _EXTREME_B]),
    ("bscheck", {"kind": "clamp"}, [_EXTREME_A, _EXTREME_B]),
    # ||T||_F is beyond the float range, so is the S2 bound.
    ("doi", {"kind": "abs"}, [np.diag([0.0, 2.0]), np.diag([1.0, 2.0]),
                              [[1.5e308, 1.5e308], [1.5e308, -1.5e308]]]),
    # A + A^T overflows in the symmetrization, before any eigendecomposition.
    ("doi", {"kind": "abs"}, [[[1e308, 1e308], [1e308, 0.0]], np.eye(2), np.eye(2)]),
    # The eigenvalues (about +-1.06e308) fit, but f(A) + f(A)^T and f(A) - f(B) may not.
    ("fdelta", {"kind": "abs"}, [_EXTREME_A, _EXTREME_B]),
    # f(A) is about 1e308 * I, so symmetrizing it overflows.
    ("bscheck", {"kind": "shifted_abs", "t": 1e308}, [np.diag([0.0, 2.0]), np.diag([1.0, 2.0])]),
])
def test_contract_beyond_float_range_exits_2(tmp_path, capsys, command, spec, mats):
    paths = [str(tmp_path / f"{i}.txt") for i in range(len(mats))]
    for path, m in zip(paths, mats):
        write_matrix(path, np.array(m))
    assert main([command, "--function", json.dumps(spec), *paths]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "float range" in captured.err


@pytest.mark.parametrize("spec, name", [
    ({"kind": "pwl", "breakpoints": [1e308], "seed": 1}, "pwl(seed=1)"),
    ({"kind": "smooth_ramp", "delta": 1e200}, "ramp(d=1e+200)"),
])
def test_function_overflow_at_the_spectra_exits_2_without_a_warning(tmp_path, capsys, spec,
                                                                     name):
    # f overflows at the eigenvalue -8e307; its one checked evaluation reports that
    # point instead of numpy warning first.
    for label, value in (("A", -8e307), ("B", 0.0), ("T", 0.0)):
        write_matrix(tmp_path / f"{label}.txt", np.array([[value]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["doi", "--function", json.dumps(spec),
                     *(str(tmp_path / f"{label}.txt") for label in "ABT")]) == 2
    assert capsys.readouterr().err == f"error: {name} is non-finite at an atom -8e+307\n"


@pytest.mark.parametrize("phi, psi", [([1.0, 2.0], [1e-170, 3e-170]),
                                      ([1e200, 2e200], [1e-200, 3e-200])],
                         ids=["psi-squares-underflow", "phi-squares-overflow"])
def test_certify_at_any_weight_scale(tmp_path, capsys, phi, psi):
    # Summed plainly, the squared weights underflow to 0 (a false zero-kernel
    # certificate s_0 <= 0) or overflow to inf (a NaN norm product, exit 3).
    kop = kernel_operator([0.0, 1.0], [1.0, 1.0], phi, [0.5, 2.0], [1.0, 1.0], psi,
                          absolute_value())
    write_operator(tmp_path / "kop.txt", kop, {"kind": "abs"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["certify", "--input", str(tmp_path / "kop.txt"), "--n", "1,2"]) == 0
    captured = capsys.readouterr()
    assert captured.err.count(" OK\n") == 2
    spectrum = singular_spectrum(materialize(kop))
    assert spectrum[0] > 0.0
    product = math.hypot(*phi) * math.hypot(*psi)
    for record in json.loads(captured.out)["certificates"]:
        assert record["verification"]["norm_product"] == pytest.approx(product, rel=1e-15)
        assert singular_value_at(spectrum, record["defect_rank"]) <= record["empirical_bound"]
        assert record["empirical_bound"] <= record["analytic_bound"]
        assert record["defect_rank"] <= 7 * record["n"]
        assert weak_s1_quasinorm(spectrum) <= certificate.WEAK_NORM_CONSTANT * product


@pytest.mark.parametrize("phi, psi", [(1e200, 1e200), (1e-83, 1e-265), (1.0, 1e-310)])
def test_certify_norms_outside_the_normal_float_range_exit_2(tmp_path, capsys, phi, psi):
    # M = [[0]] fits, but the scale of its bounds overflows or underflows, or
    # ||psi|| is subnormal, too coarse to normalize by.
    kop = kernel_operator([-1.0], [1.0], [phi], [1.0], [1.0], [psi], absolute_value())
    write_operator(tmp_path / "kop.txt", kop, {"kind": "abs"})
    assert main(["certify", "--input", str(tmp_path / "kop.txt"), "--n", "1"]) == 2
    assert capsys.readouterr().err.endswith("is outside the normal float range\n")


def test_certify_rejects_a_repeated_section(tmp_path, capsys):
    # A second MU once replaced the first, and the one-atom operator certified.
    path = tmp_path / "kop.txt"
    path.write_text('MU\n0.0 1.0 1.0\n0.5 1.0 1.0\nNU\n1.0 1.0 1.0\nMU\n0.25 1.0 1.0\n'
                    'FUNCTION\n{"kind": "abs"}\n')
    assert main(["certify", "--input", str(path), "--n", "1,2"]) == 2
    assert capsys.readouterr().err == f"error: operator file {path}: repeated MU section\n"


@pytest.mark.parametrize("a, b", [
    ([[1.0, 0.5], [0.5, -1.0]], [[0.0, 0.3], [0.3, 2.0]]),
    # ||A||_F + ||B||_F overflows, but no contract is formed at lip = 0.
    (np.diag([8e307, 8e307]), np.diag([8e307, 8e307])),
], ids=["small", "norms-beyond-float-range"])
def test_bscheck_applies_no_contract_at_lip_0(tmp_path, capsys, a, b):
    # f(A) - f(B) and the DOI are both 0 here; the residual is only frame rounding.
    write_matrix(tmp_path / "A.txt", np.array(a))
    write_matrix(tmp_path / "B.txt", np.array(b))
    assert main(["bscheck", "--function", '{"kind": "constant", "c": 1}',
                 str(tmp_path / "A.txt"), str(tmp_path / "B.txt")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "contract 0.0" and out[2] == "OK"


def test_certify_stdout_is_the_report(tmp_path, capsys):
    argv = ["certify", "--input", str(GOLDEN_DIR / "certify_operator.txt"), "--n", "1,2,4,8"]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    json.loads(stdout)
    out = tmp_path / "certs.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert stdout == out.read_text()


def test_unwritable_matrix_output_exits_2(matrices):
    out = str(matrices / "nodir" / "x.txt")
    assert main(["fdelta", "--function", '{"kind": "abs"}',
                 str(matrices / "A.txt"), str(matrices / "B.txt"), "--out", out]) == 2
    assert main(["doi", "--function", '{"kind": "abs"}', str(matrices / "A.txt"),
                 str(matrices / "B.txt"), str(matrices / "T.txt"), "--out", out]) == 2


@pytest.mark.parametrize("spec", [
    '{"kind": "pwl", "breakpoints": [0, 1], "seed": "abc"}',
    '{"kind": "pwl", "breakpoints": [0, 1], "seed": 1.5}',
    '{"kind": "pwl", "breakpoints": [0, "x"], "seed": 1}',
    '{"kind": "smooth_ramp", "delta": "x"}',
    '{"kind": "shifted_abs", "t": NaN}',
    '{"kind": "shifted_abs", "t": Infinity}',
    '{"kind": "constant", "c": -Infinity}',
    '{"kind": "shifted_abs", "t": null}',
    # A kind that is not a string, and a field the kind's constructor does not take.
    '{"kind": ["abs"]}',
    '{"kind": {"abs": 1}}',
    '{"kind": "smooth_ramp", "delat": 0.5}',
    '{"kind": "abs", "t": 3}',
    '{"kind": "shifted_abs", "t": 3, "seed": 1}',
    # Breakpoints that are not a list of numbers, checked inside piecewise_linear.
    '{"kind": "pwl", "breakpoints": "ab", "seed": 1}',
    '{"kind": "pwl", "breakpoints": [[0], [1, 2]], "seed": 1}',
])
def test_bad_function_parameters_exit_2(matrices, capsys, spec):
    # Inline, in a file, as an operator file's FUNCTION line and as a sweep
    # config's function: one error line naming a field or the kind, and no report.
    parsed = json.loads(spec)
    (matrices / "f.json").write_text(spec)
    (matrices / "kop.txt").write_text(f"MU\n0.0 1.0 1.0\nNU\n1.0 1.0 1.0\nFUNCTION\n{spec}\n")
    (matrices / "cfg.json").write_text(json.dumps({"experiment": "rank_one", "dimensions": [4],
                                                   "ensemble": 1, "seed": 1, "function": parsed}))
    names = [name for name in parsed if name != "kind"] + [repr(parsed["kind"])]
    pair = [str(matrices / "A.txt"), str(matrices / "B.txt")]
    for argv in (["fdelta", "--function", spec, *pair],
                 ["doi", "--function", str(matrices / "f.json"), *pair, str(matrices / "T.txt")],
                 ["certify", "--input", str(matrices / "kop.txt"), "--n", "2"],
                 ["sweep", "--config", str(matrices / "cfg.json")]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert any(name in lines[0] for name in names), lines[0]


def test_function_non_finite_at_data_exits_2(matrices, monkeypatch):
    # Two cores, so a two-instance sweep raises in a worker process.
    monkeypatch.setattr(sweeps, "_cores", lambda: 2)
    # sqrt(x^2 + delta^2) overflows to inf for every x.  On the DOI path the
    # Loewner matrix would hold inf - inf: bad input, not a NaN S2 violation.
    spec = '{"kind": "smooth_ramp", "delta": 1e200}'
    assert main(["fdelta", "--function", spec,
                 str(matrices / "A.txt"), str(matrices / "B.txt")]) == 2
    assert main(["doi", "--function", spec, str(matrices / "A.txt"),
                 str(matrices / "B.txt"), str(matrices / "T.txt")]) == 2
    op_path = matrices / "kop.txt"
    write_operator(op_path, random_kernel_operator(
        make_rng(8, 0), function_from_spec(json.loads(spec)), 10, 10), json.loads(spec))
    assert main(["certify", "--input", str(op_path), "--n", "2"]) == 2
    for experiment in sweeps.EXPERIMENTS:
        for ensemble in (1, 2):
            cfg_path = matrices / "cfg.json"
            cfg_path.write_text(json.dumps({"experiment": experiment, "dimensions": [4],
                                            "ensemble": ensemble, "seed": 0,
                                            "function": json.loads(spec), "n_values": [2],
                                            "p": 1.0, "epsilon": 0.5}))
            assert main(["sweep", "--config", str(cfg_path)]) == 2


def test_pwl_node_values_beyond_float_range_exit_2(matrices, capsys):
    # The gap between the breakpoints overflows: every command rejects the
    # spec when it reads it, without a RuntimeWarning (an error under pytest).
    spec = json.dumps({"kind": "pwl", "breakpoints": [-1e308, 1e308], "seed": 1})
    for command, names in (("fdelta", "AB"), ("doi", "ABT"), ("bscheck", "AB")):
        assert main([command, "--function", spec,
                     *(str(matrices / f"{name}.txt") for name in names)]) == 2
    op_path = matrices / "kop.txt"
    op_path.write_text(f"MU\n0.5 1.0 1.0\nNU\n-1.0 1.0 1.0\nFUNCTION\n{spec}\n")
    assert main(["certify", "--input", str(op_path), "--n", "2"]) == 2
    cfg_path = matrices / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "rank_one", "dimensions": [4], "ensemble": 1,
                                    "seed": 1, "function": json.loads(spec)}))
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.count("pwl node values exceed the float range") == 5


_NUMBERS = st.floats(min_value=-1e308, max_value=1e308, allow_nan=False)
_SPECS = st.one_of(
    st.sampled_from([{"kind": k} for k in ("abs", "clamp", "identity", "smooth_ramp",
                                           "constant")]),
    st.builds(lambda t: {"kind": "shifted_abs", "t": t}, _NUMBERS),
    st.builds(lambda d: {"kind": "smooth_ramp", "delta": d}, _NUMBERS),
    st.builds(lambda c: {"kind": "constant", "c": c}, _NUMBERS),
    st.builds(lambda b, seed: {"kind": "pwl", "breakpoints": b, "seed": seed},
              st.lists(_NUMBERS, min_size=1, max_size=5),
              st.integers(-2 ** 63 + 1, 2 ** 63 - 1)),
)
# Valid specs, and malformed ones: a kind that is not a known name, or one field too many.
_FUNCTIONS = st.one_of(
    _SPECS,
    st.builds(lambda kind: {"kind": kind},
              st.one_of(st.lists(st.just("abs"), max_size=2), st.just({"abs": 1}), _NUMBERS,
                        st.none(), st.text(max_size=5))),
    st.tuples(_SPECS, st.text(max_size=5), _NUMBERS).filter(lambda t: t[1] not in t[0]).map(
        lambda t: {**t[0], t[1]: t[2]}),
)


@st.composite
def _matrix_text(draw, dim):
    rows = [" ".join(repr(draw(_NUMBERS)) for _ in range(dim)) for _ in range(dim)]
    return f"{dim} {dim}\n" + "\n".join(rows) + "\n"


@st.composite
def _operator_text(draw):
    lines = []
    for side in ("MU", "NU"):
        positions = draw(st.lists(_NUMBERS, min_size=1, max_size=4, unique=True))
        lines.append(side)
        lines += [f"{x!r} {draw(_NUMBERS)!r} {draw(_NUMBERS)!r}" for x in positions]
    return "\n".join(lines + ["FUNCTION", json.dumps(draw(_FUNCTIONS))]) + "\n"


_N_LISTS = st.lists(st.integers(-1, 12), max_size=4).map(lambda ns: ",".join(map(str, ns)))
_SWEEPS = st.fixed_dictionaries({
    "experiment": st.sampled_from(sweeps.EXPERIMENTS),
    "dimensions": st.lists(st.integers(1, 6), min_size=1, max_size=2),
    "ensemble": st.integers(1, 2),
    "seed": st.integers(0, 2 ** 32),
    "function": _FUNCTIONS,
    "p": st.floats(0.5, 3.0), "epsilon": st.floats(-0.5, 1.0),
    "n_values": st.lists(st.integers(1, 3), min_size=1, max_size=2),
})


@st.composite
def _calls(draw):
    """A command with the files it reads: (argv with {dir} placeholders, {name: contents}).

    The function spec is inline or in a file.  Half the calls replace one file's
    text with raw bytes, mostly not UTF-8.
    """
    command = draw(st.sampled_from(["fdelta", "doi", "bscheck", "certify", "sweep"]))
    if command == "certify":
        argv = ["certify", "--input", "{dir}/kop.txt", f"--n={draw(_N_LISTS)}"]
        files = {"kop.txt": draw(_operator_text())}
    elif command == "sweep":
        argv = ["sweep", "--config", "{dir}/cfg.json"]
        files = {"cfg.json": json.dumps(draw(_SWEEPS))}
    else:
        dim = draw(st.integers(1, 4))
        names = ["A.txt", "B.txt", "T.txt"][:3 if command == "doi" else 2]
        files = {name: draw(_matrix_text(dim)) for name in names}
        spec = json.dumps(draw(_FUNCTIONS))
        if draw(st.booleans()):
            files["f.json"], spec = spec, "{dir}/f.json"
        argv = [command, "--function", spec, *(f"{{dir}}/{name}" for name in names)]
    garbled = draw(st.one_of(st.none(), st.sampled_from(sorted(files))))
    if garbled is not None:
        files[garbled] = draw(st.binary())
    return argv, files


_NOT_UTF8 = b"\xff\xfe"


def _rank_one_428(function: dict) -> str:
    """A rank_one sweep config at dimensions [6, 4], one instance, seed 428."""
    return json.dumps({"experiment": "rank_one", "dimensions": [6, 4], "ensemble": 1,
                       "seed": 428, "function": function})


@settings(max_examples=400, deadline=None)
@given(_calls())
@example((["fdelta", "--function", '{"kind": "smooth_ramp", "delta": 1e200}',
           "{dir}/A.txt", "{dir}/B.txt"], {"A.txt": "1 1\n0.5\n", "B.txt": "1 1\n2.0\n"}))
@example((["fdelta", "--function", '{"kind": "abs"}', "{dir}/A.txt", "{dir}/B.txt"],
          {"A.txt": "4 4\n" + "0 0 0 0\n" * 4,  # LAPACK's eigh fails on this B
           "B.txt": "4 4\n0 0 0 0\n4.711788499328808e+227 0 0 0\n0 0 0 0\n0 1 1 0\n"}))
@example((["certify", "--input", "{dir}/kop.txt", "--n", "2"],
          {"kop.txt": "MU\n0.5 1.0 1.0\n1.5 1.0 1.0\nNU\n-1.0 1.0 1.0\n2.0 1.0 1.0\n"
                      'FUNCTION\n{"kind": "smooth_ramp", "delta": 1e200}\n'}))
@example((["fdelta", "--function", '{"kind": "abs"}', "{dir}/A.txt", "{dir}/B.txt"],
          {"A.txt": _NOT_UTF8 + b"1 1\n0.5\n", "B.txt": "1 1\n2.0\n"}))
@example((["fdelta", "--function", "{dir}/f.json", "{dir}/A.txt", "{dir}/B.txt"],
          {"f.json": _NOT_UTF8 + b'{"kind": "abs"}', "A.txt": "1 1\n0.5\n",
           "B.txt": "1 1\n2.0\n"}))
@example((["certify", "--input", "{dir}/kop.txt", "--n", "2"],
          {"kop.txt": _NOT_UTF8 + b"MU\n0.5 1.0 1.0\nNU\n-1.0 1.0 1.0\n"
                      b'FUNCTION\n{"kind": "abs"}\n'}))
@example((["sweep", "--config", "{dir}/cfg.json"], {"cfg.json": _NOT_UTF8 + b"{}"}))
@example((["sweep", "--config", "{dir}/cfg.json"], {"cfg.json": "[" * 100_000}))  # too deep
@example((["fdelta", "--function", "[1]", "{dir}/A.txt", "{dir}/B.txt"],
          {"A.txt": "1 1\n0.5\n", "B.txt": "1 1\n2.0\n"}))
# A kind that is not a string, in each kind of file that holds a spec.
@example((["fdelta", "--function", "{dir}/f.json", "{dir}/A.txt", "{dir}/B.txt"],
          {"f.json": '{"kind": ["abs"]}', "A.txt": "1 1\n0.5\n", "B.txt": "1 1\n2.0\n"}))
@example((["certify", "--input", "{dir}/kop.txt", "--n", "2"],
          {"kop.txt": 'MU\n0.5 1.0 1.0\nNU\n-1.0 1.0 1.0\nFUNCTION\n{"kind": ["abs"]}\n'}))
@example((["sweep", "--config", "{dir}/cfg.json"],
          {"cfg.json": '{"experiment": "rank_one", "dimensions": [2], "ensemble": 1, "seed": 1, '
                       '"function": {"kind": ["abs"]}}'}))
@example((["fdelta", "--function", '{"kind": "abs"}', "{dir}/A.txt", "{dir}/B.txt"],
          {"A.txt": "1 10000000000000\n0.5\n", "B.txt": "1 1\n2.0\n"}))
@example((["doi", "--function", '{"kind": "pwl", "breakpoints": [1e308], "seed": 1}',
           "{dir}/A.txt", "{dir}/B.txt", "{dir}/T.txt"],
          {"A.txt": "1 1\n-8e307\n", "B.txt": "1 1\n0\n", "T.txt": "1 1\n0\n"}))
@example((["certify", "--input", "{dir}/kop.txt", "--n", "1,2"],
          {"kop.txt": "MU\n0.0 1.0 1.0\n1.0 1.0 2.0\nNU\n0.5 1.0 1e-170\n2.0 1.0 3e-170\n"
                      'FUNCTION\n{"kind": "abs"}\n'}))
@example((["certify", "--input", "{dir}/kop.txt", "--n", "1,2"],
          {"kop.txt": "MU\n0.0 1.0 1e200\n1.0 1.0 2e200\nNU\n0.5 1.0 1e-200\n2.0 1.0 3e-200\n"
                      'FUNCTION\n{"kind": "abs"}\n'}))
@example((["certify", "--input", "{dir}/kop.txt", "--n", "1,2,4"],
          {"kop.txt": "MU\n0.0 5e-324 1.0\n1.0 1.0 1e-160\nNU\n0.5 1.0 1.0\n"
                      'FUNCTION\n{"kind": "abs"}\n'}))
@example((["certify", "--input", "{dir}/kop.txt", "--n=1"],
          {"kop.txt": "MU\n0.0 1.0 1.33806541695829e-83\nNU\n0.0 1.0 1.2348470881346155e-265\n"
                      'FUNCTION\n{"kind": "abs"}\n'}))
# Valid rank_one sweeps that exit 3 today (ROADMAP item 2): the values of f at
# the spectra dwarf their differences, so the two spectral calculi round far
# above the Birman-Solomyak residual contract.
@example((["sweep", "--config", "{dir}/cfg.json"], {"cfg.json": _rank_one_428(
    {"kind": "smooth_ramp", "delta": 6.695e16})}))
@example((["sweep", "--config", "{dir}/cfg.json"], {"cfg.json": _rank_one_428(
    {"kind": "shifted_abs", "t": -1.05e16})}))
@example((["sweep", "--config", "{dir}/cfg.json"], {"cfg.json": _rank_one_428(
    {"kind": "shifted_abs", "t": -4.4e205})}))
@example((["sweep", "--config", "{dir}/cfg.json"], {"cfg.json": _rank_one_428(
    {"kind": "pwl", "breakpoints": [-1.05e96, 0.0], "seed": 1})}))
# Valid input below unit scale that exits 3 today (CHANGES.md FOUND 61): the
# relative contract allows 2.7e-18 against the calculi's 2.2e-15 of rounding.
@example((["fdelta", "--function", '{"kind": "shifted_abs", "t": 1.0}',
           "{dir}/A.txt", "{dir}/B.txt"], seeded_matrices(1e-10)))
def test_cli_fuzz_exits_0_2_or_3(call):
    # RuntimeWarnings are errors in this suite: extreme input is rejected by a
    # check, never after numpy warns.  An exit 3 must report finite values: a
    # NaN or inf at a guard is bad input that slipped past validation.
    argv, files = call
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
        for name, contents in files.items():
            raw = contents if isinstance(contents, bytes) else contents.encode()
            Path(tmp, name).write_bytes(raw)
        code = main([arg.replace("{dir}", tmp) for arg in argv])
    assert code in (0, 2, 3)
    if code == 3:
        found = re.search(r"^unsound: .* observed (\S+) exceeds allowed (\S+)$",
                          err.getvalue(), re.MULTILINE)
        assert found and all(math.isfinite(float(v)) for v in found.groups()), err.getvalue()


def test_sweep_command_deterministic(tmp_path):
    cfg = {"experiment": "rank_one", "dimensions": [4, 6], "ensemble": 2, "seed": 3,
           "function": {"kind": "abs"}}

    def sweep(name, **fields):
        cfg_path, out = tmp_path / f"{name}.json", tmp_path / name
        cfg_path.write_text(json.dumps({**cfg, **fields}))
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        return out.read_bytes()

    assert sweep("r1.csv") == sweep("r2.csv")
    # The config's seed sets the ensemble, and its format the encoding.
    assert sweep("r3.csv", seed=4) != sweep("r1.csv")
    assert json.loads(sweep("r.json", format="json"))["experiment"] == "rank_one"
    # Each setting has one home: the seed and the format are not flags.
    for flag in ("--seed", "--format"):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(tmp_path / "r1.csv.json"), flag, "4"])
        assert exc.value.code == 2


@pytest.mark.parametrize("experiment", GOLDEN_SWEEPS)
def test_a_json_sweep_report_reruns_from_its_config(tmp_path, experiment):
    # The golden's config gives a report; that report's config, as a file, gives its bytes.
    cfg, first, again = tmp_path / "cfg.json", tmp_path / "first.json", tmp_path / "again.json"
    cfg.write_text(json.dumps(read_golden(experiment)["config"]))
    assert main(["sweep", "--config", str(cfg), "--out", str(first)]) == 0
    cfg.write_text(json.dumps(json.loads(first.read_text())["config"]))
    assert main(["sweep", "--config", str(cfg), "--out", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()


def test_sweep_bad_config(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "rank_one"}))
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    assert main(["sweep", "--config", str(tmp_path / "nope.json")]) == 2
    cfg_path.write_text(json.dumps({"experiment": "rank_one", "dimensions": 5, "ensemble": 1,
                                    "seed": 0, "function": {"kind": "abs"}}))
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    # The output path is --out's, not a config field: "out" is an unknown field.
    cfg_path.write_text(json.dumps({"experiment": "rank_one", "dimensions": [4], "ensemble": 1,
                                    "seed": 0, "function": {"kind": "abs"}, "out": 3.5}))
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    # A size no instance could allocate is rejected before any instance runs.
    monkeypatch.setattr(sweeps, "_run_instances", lambda cfg: pytest.fail("the sweep ran"))
    for experiment in ("rank_one", "certificate"):
        cfg_path.write_text(json.dumps({"experiment": experiment, "dimensions": [10 ** 10],
                                        "ensemble": 1, "seed": 0, "function": {"kind": "abs"}}))
        assert main(["sweep", "--config", str(cfg_path)]) == 2


@pytest.mark.parametrize("experiment", ["rank_one", "certificate", "interp"])
@pytest.mark.parametrize("field,value", [("p", "abc"), ("epsilon", [1, 2])])
def test_sweep_wrong_typed_p_or_epsilon_exits_2(tmp_path, monkeypatch, capsys, experiment,
                                                field, value):
    # Every experiment checks the type of a p or epsilon it is given, not only
    # interp, which needs both.
    monkeypatch.setattr(sweeps, "_run_instances", lambda cfg: pytest.fail("the sweep ran"))
    cfg = {"experiment": experiment, "dimensions": [4], "ensemble": 1, "seed": 0,
           "function": {"kind": "abs"}, "p": 2.0, "epsilon": 0.5, field: value}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")]) == 2
    assert f"{field} has the wrong type or value" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("target,guard,value,ensemble", [
    pytest.param("trace_class", "S2_SLACK", -1.0, 1, id="trace_class-S2_SLACK--1.0"),
    # Two instances on two cores: the guard trips in a worker process.
    pytest.param("trace_class", "S2_SLACK", -1.0, 2, id="trace_class-S2_SLACK--1.0-ensemble2"),
    pytest.param("rank_one", "bs_residual_bound", lambda a, b, lip: -1.0, 1,
                 id="rank_one-bs_residual_bound-<lambda>"),
    pytest.param("doi", "S2_SLACK", -1.0, 1, id="doi-S2_SLACK--1.0"),
    pytest.param("bscheck", "bs_residual_bound", lambda a, b, lip: -1.0, 1,
                 id="bscheck-bs_residual_bound-<lambda>"),
])
def test_sweep_soundness_failure_exits_3(matrices, monkeypatch, capsys, target, guard, value,
                                         ensemble):
    # Break one guard's allowance in liplab.doi so a sound computation trips it;
    # target is a sweep experiment or a CLI command.
    monkeypatch.setattr(doi, guard, value)
    monkeypatch.setattr(sweeps, "_cores", lambda: 2)
    if target in ("doi", "bscheck"):
        names = ["A.txt", "B.txt", "T.txt"][:3 if target == "doi" else 2]
        argv = [target, "--function", '{"kind": "abs"}', *(str(matrices / n) for n in names)]
    else:
        cfg_path = matrices / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": target, "dimensions": [4],
                                        "ensemble": ensemble, "seed": 0,
                                        "function": {"kind": "abs"}}))
        argv = ["sweep", "--config", str(cfg_path)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("unsound: ")
    assert captured.out == ""


def test_sweep_summary_to_stdout(tmp_path, capsys):
    golden = read_golden("matsaev")
    (tmp_path / "cfg.json").write_text(json.dumps(golden["config"]))
    assert main(["sweep", "--config", str(tmp_path / "cfg.json")]) == 0
    assert_matches_golden(json.loads(capsys.readouterr().out), golden["summary"])


def test_importing_the_cli_loads_no_pool_or_random_module():
    # The benchmark subtracts a pass's RSS after set-up, so a module that
    # import liplab pulls in would move its peak_rss_mib with no peak lower.
    # A fresh interpreter, so modules this process has loaded cannot hide one.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(sweeps.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    code = ("import sys, liplab.cli; print(' '.join(m for m in sys.argv[1:] "
            "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code, "numpy.random", "numpy.ma",
                           "concurrent.futures", "multiprocessing"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
