"""Exception types, the checks of JSON input values and fields, and every file access (text
files as nonblank lines and rows of floats): reads and writes map failures to ValidationError.
"""

import inspect
import json
import numbers
import reprlib
import sys

import numpy as np


class ValidationError(ValueError):
    """Rejected input or parameter (bad shape, non-finite entry, out-of-range value)."""


def checked(value, kind, where: str):
    """value converted to kind, or a ValidationError naming where.

    kind is int (within 64 bits), float (any finite number), dict, str, bool,
    or [kind] for a list of such values.  Booleans are not numbers here.
    """
    if isinstance(kind, list):
        if isinstance(value, (list, tuple)):
            return [checked(v, kind[0], where) for v in value]
    elif kind in (dict, str, bool):
        if isinstance(value, kind):
            return value
    elif (isinstance(value, numbers.Integral if kind is int else numbers.Real)
          and not isinstance(value, bool)
          and abs(value) <= (2 ** 63 - 1 if kind is int else sys.float_info.max)):
        return kind(value)
    raise ValidationError(f"{where} has the wrong type or value: {reprlib.repr(value)}")


def constructed(build, fields: dict, where: str):
    """build(**fields); ValidationError names where, each unknown and each missing field."""
    params = inspect.signature(build).parameters
    unknown = [name for name in fields if name not in params]
    missing = [name for name, p in params.items() if p.default is p.empty and name not in fields]
    if unknown or missing:
        raise ValidationError(f"{where}: unknown fields {reprlib.repr(unknown)}, "
                              f"missing fields {reprlib.repr(missing)}")
    return build(**fields)


def checked_integers(values, least: int, where: str) -> tuple:
    """values as a nonempty tuple of 64-bit integers >= least, or a ValidationError naming where."""
    ints = tuple(checked(values, [int], where))
    if not ints or min(ints) < least:
        raise ValidationError(f"{where} must be a nonempty list of integers >= {least}, "
                              f"got {reprlib.repr(values)}")
    return ints


def read_text(path, what: str) -> str:
    """The contents of the UTF-8 text file at path, or a ValidationError naming what."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc


def read_lines(path, what: str) -> list:
    """The nonblank lines of the text file at path, stripped, or a ValidationError naming what."""
    return [line.strip() for line in read_text(path, what).split("\n") if line.strip()]


def float_rows(lines, width: int, where: str) -> np.ndarray:
    """lines of width floats each as a len(lines) x width array; ValidationError names a bad row."""
    rows = []
    for i, line in enumerate(lines):
        parts = line.split()
        if len(parts) != width:
            raise ValidationError(f"{where}: row {i} has {len(parts)} entries, expected {width}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ValidationError(f"{where}: bad number in row {i}") from exc
    return np.array(rows).reshape(len(rows), width)


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
    """The one JSON output form: indent 2, sorted keys, numpy arrays as lists, a final newline."""
    return json.dumps(value, indent=2, sort_keys=True, default=_json_array) + "\n"


def _json_array(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


class ConvergenceError(ValidationError):
    """A decomposition failed to meet its residual contract."""


class PartitionInfeasibleError(ValidationError):
    """Interval partition cannot satisfy its weight cap; heavy-atom masking was skipped."""


class SoundnessError(RuntimeError):
    """A computed result broke the bound that vouches for it (an implementation bug).

    Carries the observed value and the allowed bound so reports can show both.
    They are its exception arguments, so the default pickling rebuilds it.
    """

    def __init__(self, message: str, observed: float, allowed: float):
        super().__init__(message, observed, allowed)
        self.message, self.observed, self.allowed = message, observed, allowed

    def __str__(self):
        return f"{self.message}: observed {self.observed!r} exceeds allowed {self.allowed!r}"

    @classmethod
    def require(cls, message: str, observed: float, allowed: float) -> None:
        """The one guard form: raise cls unless observed <= allowed, so a NaN fails."""
        if not observed <= allowed:
            raise cls(message, observed, allowed)


class CertificateUnsoundError(SoundnessError):
    """A decay certificate failed verification."""
