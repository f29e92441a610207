import json
import sys

import numpy as np
import pytest

from liplab import measures, sweeps
from liplab.cli import main
from liplab.functions import absolute_value
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


def test_certify_and_certificate_sweep_materialize_once(tmp_path, monkeypatch):
    calls = []
    original = measures.materialize

    def counting(kop):
        calls.append(kop)
        return original(kop)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("liplab") and getattr(module, "materialize", None) is original:
            monkeypatch.setattr(module, "materialize", counting)
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
