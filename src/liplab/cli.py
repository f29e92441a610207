"""Command-line interface.

Subcommands: fdelta, doi, bscheck, certify, sweep.  Exit codes: 0 success,
2 a ValidationError (bad input, bad config, bad file, a function non-finite at
the data, a matrix no decomposition meets its contract on, a contract beyond
the float range), 3 a SoundnessError (certificate unsound, a Birman-Solomyak
residual out of contract, or the S2 Schur-multiplier bound violated).  The
library raises; main alone maps its errors to exit codes.  Progress lines go
to stderr, so a report printed to stdout is the whole of stdout.  fdelta, doi
and bscheck read A and B as their symmetric parts (as_symmetric); fdelta
prints f(A) - f(B) only once it has passed bscheck's residual check.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

from .certificate import certify
from .doi import birman_solomyak_delta, bs_residual_bound, check_birman_solomyak, doi_apply
from .errors import SoundnessError, ValidationError, json_text, parse_json, read_json, write_text
from .functions import function_from_spec
from .linalg import as_symmetric, eigh_symmetric, matrix_text, read_matrix
from .measures import read_kernel_operator
from .sweeps import emit_report, load_config, run_sweep

# The failure exit codes; main is the only code that returns them.
EXIT_INVALID = 2
EXIT_UNSOUND = 3


def _load_function(arg: str):
    if arg.lstrip().startswith(("{", "[")):
        return function_from_spec(parse_json(arg, "inline function spec"))
    return function_from_spec(read_json(arg, "function spec"))


def _inputs(args):
    """f and the symmetric parts of A and B of a matrix subcommand, loaded in that order."""
    return (_load_function(args.function), as_symmetric(read_matrix(args.a)),
            as_symmetric(read_matrix(args.b)))


def _output(text: str, out, what: str) -> int:
    if out:
        write_text(out, text, what)
    else:
        print(text, end="")
    return 0


def _cmd_fdelta(args) -> int:
    delta = birman_solomyak_delta(*_inputs(args))[0]
    return _output(matrix_text(delta), args.out, "matrix file")


def _cmd_doi(args) -> int:
    f, a, b = _inputs(args)
    t = read_matrix(args.t)
    return _output(matrix_text(doi_apply(f, eigh_symmetric(a), eigh_symmetric(b), t)),
                   args.out, "matrix file")


def _cmd_bscheck(args) -> int:
    f, a, b = _inputs(args)
    print(f"residual {check_birman_solomyak(f, a, b)!r}")
    print(f"contract {bs_residual_bound(a, b, f.lip)!r}")
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
        records.append({**asdict(cert), "verification": asdict(report)})
        print(f"n={cert.n}: s_{cert.defect_rank} <= {cert.empirical_bound!r} "
              f"(observed {report.singular_value!r}) OK", file=sys.stderr)
    return _output(json_text({"certificates": records}), args.out, "certificate file")


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    report = run_sweep(cfg)
    if args.out:
        emit_report(report, args.out, cfg.format)
        print(f"wrote {args.out}")
    else:
        print(json_text(report.summary), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="liplab",
                                     description="Lipschitz perturbation laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    matrices = argparse.ArgumentParser(add_help=False)
    matrices.add_argument("--function", required=True, help="function spec: inline JSON or a path")
    matrices.add_argument("a", help="matrix file for A")
    matrices.add_argument("b", help="matrix file for B")

    p = sub.add_parser("fdelta", parents=[matrices],
                       help="compute and check f(A) - f(B) from matrix files")
    p.add_argument("--out", help="output matrix file (default: stdout)")
    p.set_defaults(func=_cmd_fdelta)

    p = sub.add_parser("doi", parents=[matrices],
                       help="double operator integral of T against eigh(A), eigh(B)")
    p.add_argument("t")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_doi)

    p = sub.add_parser("bscheck", parents=[matrices],
                       help="Birman-Solomyak identity residual check")
    p.set_defaults(func=_cmd_bscheck)

    p = sub.add_parser("certify", help="build and verify weak-decay certificates")
    p.add_argument("--input", required=True, help="kernel operator file (MU/NU/FUNCTION)")
    p.add_argument("--n", required=True, help="comma-separated n values, e.g. 4,8,16")
    p.add_argument("--out", help="output JSON path (default: stdout)")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("sweep", help="run an experiment sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="report path (default: the JSON summary on stdout)")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SoundnessError as exc:
        print(f"unsound: {exc}", file=sys.stderr)
        return EXIT_UNSOUND


if __name__ == "__main__":
    sys.exit(main())
