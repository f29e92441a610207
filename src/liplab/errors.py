"""Exception types shared across the package, the check of JSON input values,
and every file access: reads and writes map their failures to ValidationError.
"""

import json
import numbers
import reprlib
import sys


class ValidationError(ValueError):
    """Rejected input or parameter (bad shape, non-finite entry, out-of-range value)."""


def checked(value, kind, where: str):
    """value converted to kind, or a ValidationError naming where.

    kind is int (within 64 bits), float (any finite number), dict, or [kind]
    for a list of such values.  Booleans are not numbers here.
    """
    if isinstance(kind, list):
        if isinstance(value, (list, tuple)):
            return [checked(v, kind[0], where) for v in value]
    elif kind is dict:
        if isinstance(value, dict):
            return value
    elif (isinstance(value, numbers.Integral if kind is int else numbers.Real)
          and not isinstance(value, bool)
          and abs(value) <= (2 ** 63 - 1 if kind is int else sys.float_info.max)):
        return kind(value)
    raise ValidationError(f"{where} has the wrong type or value: {reprlib.repr(value)}")


def read_text(path, what: str) -> str:
    """The contents of the UTF-8 text file at path, or a ValidationError naming what."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc


def parse_json(text: str, where: str):
    """The JSON value in text, or a ValidationError naming where."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: deep nesting
        raise ValidationError(f"{where} is not valid JSON: {exc}") from exc


def read_json(path, what: str):
    return parse_json(read_text(path, what), f"{what} {path}")


def write_text(path, text: str, what: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {what} {path}: {exc}") from exc


def json_text(value) -> str:
    """The one JSON output form: indent 2, sorted keys, a final newline."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


class EvaluationError(ValueError):
    """A function produced a non-finite value where a finite one was required."""


class ConvergenceError(RuntimeError):
    """A decomposition failed to meet its residual contract."""


class PartitionInfeasibleError(RuntimeError):
    """Interval partition cannot satisfy its weight cap; heavy-atom masking was skipped."""


class SoundnessError(RuntimeError):
    """A computed result broke the bound that vouches for it (an implementation bug).

    Carries the observed value and the allowed bound so reports can show both.
    """

    def __init__(self, message: str, observed: float, allowed: float):
        super().__init__(f"{message}: observed {observed!r} exceeds allowed {allowed!r}")
        self.observed = observed
        self.allowed = allowed


class CertificateUnsoundError(SoundnessError):
    """A decay certificate failed verification."""
