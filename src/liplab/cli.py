"""Command-line interface.

Subcommands: fdelta, doi, bscheck, certify, sweep.  Exit codes: 0 success,
2 validation error (bad input, bad config, bad file, a function non-finite at
the data, a matrix no decomposition meets its contract on), 3 soundness failure
(certificate unsound, a Birman-Solomyak residual out of contract, or a sweep's
S2 Schur-multiplier bound violated).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .certificate import certificate_to_dict, certify
from .doi import bs_residual_bound, check_birman_solomyak, doi_apply, f_delta
from .errors import (ConvergenceError, EvaluationError, SoundnessError, ValidationError,
                     json_text, parse_json, read_json, write_text)
from .functions import function_from_spec
from .linalg import eigh_symmetric, matrix_text, read_matrix, write_matrix
from .measures import read_kernel_operator
from .sweeps import emit_report, load_config, run_sweep


def _load_function(arg: str):
    if arg.lstrip().startswith("{"):
        return function_from_spec(parse_json(arg, "inline function spec"))
    return function_from_spec(read_json(arg, "function spec"))


def _cmd_fdelta(args) -> int:
    f = _load_function(args.function)
    a = read_matrix(args.a)
    b = read_matrix(args.b)
    return _output_matrix(f_delta(f, a, b), args.out)


def _output_matrix(m, out) -> int:
    if out:
        write_matrix(out, m)
    else:
        print(matrix_text(m), end="")
    return 0


def _cmd_doi(args) -> int:
    f = _load_function(args.function)
    a = read_matrix(args.a)
    b = read_matrix(args.b)
    t = read_matrix(args.t)
    return _output_matrix(doi_apply(f, eigh_symmetric(a), eigh_symmetric(b), t), args.out)


def _cmd_bscheck(args) -> int:
    f = _load_function(args.function)
    a = read_matrix(args.a)
    b = read_matrix(args.b)
    residual = check_birman_solomyak(f, a, b)
    bound = bs_residual_bound(a, b, f.lip)
    print(f"residual {residual!r}")
    print(f"contract {bound!r}")
    if residual > bound:
        print("FAIL: residual exceeds contract", file=sys.stderr)
        return 3
    print("OK")
    return 0


def _cmd_certify(args) -> int:
    kop = read_kernel_operator(args.input)
    try:
        n_values = [int(x) for x in args.n.split(",") if x.strip()]
    except ValueError as exc:
        raise ValidationError(f"--n must be comma-separated integers: {args.n!r}") from exc
    records = []
    for cert, report in certify(kop, n_values)[1]:
        record = certificate_to_dict(cert, include_vectors=args.include_vectors)
        record["verification"] = {
            "passed": report.passed,
            "singular_value": report.singular_value,
            "weak_quasinorm": report.weak_quasinorm,
            "norm_product": report.norm_product,
            "weak_ratio": report.weak_ratio,
        }
        records.append(record)
        print(f"n={cert.n}: s_{cert.defect_rank} <= {cert.empirical_bound!r} "
              f"(observed {report.singular_value!r}) OK")
    payload = json_text({"certificates": records})
    if args.out:
        write_text(args.out, payload, "certificate file")
    else:
        print(payload, end="")
    return 0


def _cmd_sweep(args) -> int:
    overrides = {"seed": args.seed, "out": args.out, "format": args.format}
    cfg = replace(load_config(args.config),
                  **{name: value for name, value in overrides.items() if value is not None})
    report = run_sweep(cfg)
    if cfg.out:
        emit_report(report, cfg.out, cfg.format)
        print(f"wrote {cfg.out}")
    else:
        print(json_text(report.summary), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="liplab",
                                     description="Lipschitz perturbation laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fdelta", help="compute f(A) - f(B) from matrix files")
    p.add_argument("--function", required=True, help="function spec: inline JSON or a path")
    p.add_argument("a", help="matrix file for A")
    p.add_argument("b", help="matrix file for B")
    p.add_argument("--out", help="output matrix file (default: stdout)")
    p.set_defaults(func=_cmd_fdelta)

    p = sub.add_parser("doi", help="double operator integral of T against eigh(A), eigh(B)")
    p.add_argument("--function", required=True)
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("t")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_doi)

    p = sub.add_parser("bscheck", help="Birman-Solomyak identity residual check")
    p.add_argument("--function", required=True)
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_bscheck)

    p = sub.add_parser("certify", help="build and verify weak-decay certificates")
    p.add_argument("--input", required=True, help="kernel operator file (MU/NU/FUNCTION)")
    p.add_argument("--n", required=True, help="comma-separated n values, e.g. 4,8,16")
    p.add_argument("--out", help="output JSON path (default: stdout)")
    p.add_argument("--include-vectors", action="store_true",
                   help="include defect vectors in the certificate records")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("sweep", help="run an experiment sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", help="override the config output path")
    p.add_argument("--format", choices=("csv", "json"), help="override the config format")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, EvaluationError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SoundnessError as exc:
        print(f"unsound: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
