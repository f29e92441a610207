import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liplab import measures, sweeps
from liplab.certificate import build_certificates, certify
from liplab.cli import main
from liplab.errors import ValidationError
from liplab.functions import absolute_value, function_from_spec
from liplab.linalg import read_matrix, write_matrix
from liplab.measures import write_kernel_operator
from liplab.rng import make_rng, random_kernel_operator


@pytest.fixture
def matrices(tmp_path):
    write_matrix(tmp_path / "A.txt", np.diag([0.0, 2.0]))
    write_matrix(tmp_path / "B.txt", np.diag([1.0, 2.0]))
    write_matrix(tmp_path / "T.txt", np.array([[0.0, 1.0], [1.0, 0.0]]))
    return tmp_path


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


def test_function_spec_from_file(matrices):
    spec_path = matrices / "f.json"
    spec_path.write_text(json.dumps({"kind": "shifted_abs", "t": 0.5}))
    code = main(["bscheck", "--function", str(spec_path),
                 str(matrices / "A.txt"), str(matrices / "B.txt")])
    assert code == 0


def test_validation_exit_codes(matrices, capsys):
    assert main(["fdelta", "--function", '{"kind": "wat"}',
                 str(matrices / "A.txt"), str(matrices / "B.txt")]) == 2
    assert main(["fdelta", "--function", '{"kind": "abs"}',
                 str(matrices / "missing.txt"), str(matrices / "B.txt")]) == 2
    assert main(["fdelta", "--function", "{broken",
                 str(matrices / "A.txt"), str(matrices / "B.txt")]) == 2


def test_certify(tmp_path, capsys):
    rng = make_rng(5, 0)
    kop = random_kernel_operator(rng, absolute_value(), 25, 25)
    op_path = tmp_path / "kop.txt"
    write_kernel_operator(op_path, kop)
    out = tmp_path / "certs.json"
    code = main(["certify", "--input", str(op_path), "--n", "2,4", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["certificates"]) == 2
    for record in data["certificates"]:
        assert record["verification"]["passed"]
        assert "defect_vectors" not in record
    code = main(["certify", "--input", str(op_path), "--n", "2", "--out", str(out),
                 "--include-vectors"])
    assert code == 0
    data = json.loads(out.read_text())
    assert "defect_vectors" in data["certificates"][0]


def test_certify_bad_n(tmp_path):
    rng = make_rng(6, 0)
    kop = random_kernel_operator(rng, absolute_value(), 10, 10)
    op_path = tmp_path / "kop.txt"
    write_kernel_operator(op_path, kop)
    assert main(["certify", "--input", str(op_path), "--n", "0"]) == 2
    assert main(["certify", "--input", str(op_path), "--n", ""]) == 2
    assert main(["certify", "--input", str(op_path), "--n", "a"]) == 2
    assert main(["certify", "--input", str(op_path), "--n", "4,2.5"]) == 2


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


def test_certify_and_certificate_sweep_materialize_once(tmp_path, materialize_calls):
    calls = materialize_calls
    kop = random_kernel_operator(make_rng(7, 0), absolute_value(), 30, 30)
    op_path = tmp_path / "kop.txt"
    write_kernel_operator(op_path, kop)
    assert main(["certify", "--input", str(op_path), "--n", "2,4,8",
                 "--out", str(tmp_path / "certs.json")]) == 0
    assert len(calls) == 1
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "certificate", "dimensions": [20, 30],
                                    "ensemble": 2, "seed": 0, "function": {"kind": "abs"},
                                    "n_values": [2, 4, 8]}))
    assert main(["sweep", "--config", str(cfg_path)]) == 0
    assert len(calls) == 1 + 4  # one per operator of the 2 x 2 ensemble


def test_bad_n_rejected_before_materializing(materialize_calls):
    kop = random_kernel_operator(make_rng(7, 0), absolute_value(), 30, 30)
    for call in (certify, build_certificates):
        with pytest.raises(ValidationError):
            call(kop, [0])
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
])
def test_bad_function_parameters_exit_2(matrices, spec):
    assert main(["fdelta", "--function", spec,
                 str(matrices / "A.txt"), str(matrices / "B.txt")]) == 2


def test_function_non_finite_at_data_exits_2(matrices):
    # sqrt(x^2 + delta^2) overflows to inf for every x.
    spec = '{"kind": "smooth_ramp", "delta": 1e200}'
    assert main(["fdelta", "--function", spec,
                 str(matrices / "A.txt"), str(matrices / "B.txt")]) == 2
    op_path = matrices / "kop.txt"
    write_kernel_operator(op_path, random_kernel_operator(
        make_rng(8, 0), function_from_spec(json.loads(spec)), 10, 10))
    assert main(["certify", "--input", str(op_path), "--n", "2"]) == 2
    for experiment in ("rank_one", "certificate"):
        cfg_path = matrices / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": experiment, "dimensions": [4],
                                        "ensemble": 1, "seed": 0,
                                        "function": json.loads(spec), "n_values": [2]}))
        assert main(["sweep", "--config", str(cfg_path)]) == 2


_NUMBERS = st.floats(min_value=-1e308, max_value=1e308, allow_nan=False)
_FUNCTIONS = st.one_of(
    st.sampled_from([{"kind": k} for k in ("abs", "clamp", "identity", "smooth_ramp",
                                           "constant")]),
    st.builds(lambda t: {"kind": "shifted_abs", "t": t}, _NUMBERS),
    st.builds(lambda d: {"kind": "smooth_ramp", "delta": d}, _NUMBERS),
    st.builds(lambda c: {"kind": "constant", "c": c}, _NUMBERS),
    st.builds(lambda b, seed: {"kind": "pwl", "breakpoints": b, "seed": seed},
              st.lists(_NUMBERS, min_size=1, max_size=5),
              st.integers(-2 ** 63 + 1, 2 ** 63 - 1)),
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # extreme inputs overflow
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
def test_cli_fuzz_exits_0_2_or_3(call):
    argv, files = call
    with tempfile.TemporaryDirectory() as tmp:
        for name, contents in files.items():
            raw = contents if isinstance(contents, bytes) else contents.encode()
            Path(tmp, name).write_bytes(raw)
        assert main([arg.replace("{dir}", tmp) for arg in argv]) in (0, 2, 3)


def test_sweep_command_deterministic(tmp_path):
    cfg = {"experiment": "rank_one", "dimensions": [4, 6], "ensemble": 2, "seed": 3,
           "function": {"kind": "abs"}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # Seed override changes the bytes.
    out3 = tmp_path / "r3.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out3), "--seed", "4"]) == 0
    assert out1.read_bytes() != out3.read_bytes()
    # JSON format override.
    out4 = tmp_path / "r.json"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out4),
                 "--format", "json"]) == 0
    json.loads(out4.read_text())


def test_sweep_bad_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "rank_one"}))
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    assert main(["sweep", "--config", str(tmp_path / "nope.json")]) == 2
    cfg_path.write_text(json.dumps({"experiment": "rank_one", "dimensions": 5, "ensemble": 1,
                                    "seed": 0, "function": {"kind": "abs"}}))
    assert main(["sweep", "--config", str(cfg_path)]) == 2


@pytest.mark.parametrize("experiment,guard,value", [
    ("trace_class", "S2_SLACK", -1.0),
    ("rank_one", "bs_residual_bound", lambda a, b, lip: -1.0),
])
def test_sweep_soundness_failure_exits_3(tmp_path, monkeypatch, capsys, experiment, guard, value):
    # Break one guard's allowance so a sound instance trips it.
    monkeypatch.setattr(sweeps, guard, value)
    cfg = {"experiment": experiment, "dimensions": [4], "ensemble": 1, "seed": 0,
           "function": {"kind": "abs"}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(cfg_path)]) == 3
    assert capsys.readouterr().err.startswith("unsound: ")


def test_sweep_summary_to_stdout(tmp_path, capsys):
    cfg = {"experiment": "matsaev", "dimensions": [4], "ensemble": 1, "seed": 0,
           "function": {"kind": "abs"}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(cfg_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "max_per_dimension" in payload
