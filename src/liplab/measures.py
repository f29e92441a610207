"""Finite atomic measures and weighted divided-difference kernel operators.

A WeightedKernelOperator realizes the kernel

    k(x, y) = phi(x) * (f(x) - f(y)) / (x - y) * psi(y)

between L2(nu) and L2(mu) for discrete measures mu, nu.  In the orthonormal
atom bases the operator is the matrix

    M[i, j] = sqrt(mu_i) phi(x_i) dd_f(x_i, y_j) psi(y_j) sqrt(nu_j).

File format (read/write_kernel_operator), each section exactly once: a MU section
with "x mass phi" lines, a NU section with "y mass psi" lines, and a FUNCTION
section holding a one-line JSON function spec.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, float_rows, parse_json, read_lines, write_text
from .functions import LipschitzFunction, function_from_spec, loewner_blocks
from .linalg import frobenius


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Finitely many point masses; positions strictly increasing, masses > 0."""

    positions: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        pos = np.atleast_1d(np.asarray(self.positions, dtype=float))
        mass = np.atleast_1d(np.asarray(self.masses, dtype=float))
        if pos.shape != mass.shape or pos.ndim != 1:
            raise ValidationError("positions and masses must be 1-D arrays of equal length")
        if pos.size and not (np.all(np.isfinite(pos)) and np.all(np.isfinite(mass))):
            raise ValidationError("measure has non-finite atoms")
        if np.any(mass <= 0):
            raise ValidationError("all masses must be positive")
        if np.any(pos[1:] <= pos[:-1]):  # no subtraction: it overflows at +-1e308
            raise ValidationError("positions must be strictly increasing after canonical sort")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "masses", mass)

    @property
    def size(self) -> int:
        return self.positions.size

    @property
    def support_radius(self) -> float:
        return float(np.max(np.abs(self.positions))) if self.size else 0.0

    def coordinates(self, values) -> np.ndarray:
        """values * sqrt(mass), the atom-basis coordinates (inf on overflow, without a warning)."""
        with np.errstate(over="ignore"):
            return np.sqrt(self.masses) * values


@dataclass(frozen=True, eq=False)
class WeightedKernelOperator:
    mu: DiscreteMeasure
    nu: DiscreteMeasure
    phi: np.ndarray
    psi: np.ndarray
    f: LipschitzFunction

    def __post_init__(self):
        phi = np.atleast_1d(np.asarray(self.phi, dtype=float))
        psi = np.atleast_1d(np.asarray(self.psi, dtype=float))
        if phi.shape != self.mu.positions.shape:
            raise ValidationError("phi must have one value per mu atom")
        if psi.shape != self.nu.positions.shape:
            raise ValidationError("psi must have one value per nu atom")
        if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(psi))):
            raise ValidationError("weights contain non-finite values")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "psi", psi)

    @property
    def phi_norm(self) -> float:
        """||phi|| in L2(mu) at any weight scale: frobenius of its coordinates."""
        return frobenius(self.mu.coordinates(self.phi))

    @property
    def psi_norm(self) -> float:
        return frobenius(self.nu.coordinates(self.psi))

    @property
    def norm_product(self) -> float:
        """||phi|| * ||psi|| * lip(f), the scale all certified bounds carry."""
        return self.phi_norm * self.psi_norm * self.f.lip

    @property
    def support_radius(self) -> float:
        return max(self.mu.support_radius, self.nu.support_radius)


def kernel_operator(x_positions, x_masses, phi, y_positions, y_masses, psi,
                    f: LipschitzFunction) -> WeightedKernelOperator:
    """Build an operator from parallel atom arrays; sorts each side by position."""
    xp = np.atleast_1d(np.asarray(x_positions, dtype=float))
    yp = np.atleast_1d(np.asarray(y_positions, dtype=float))
    xo = np.argsort(xp, kind="stable")
    yo = np.argsort(yp, kind="stable")
    mu = DiscreteMeasure(xp[xo], np.atleast_1d(np.asarray(x_masses, dtype=float))[xo])
    nu = DiscreteMeasure(yp[yo], np.atleast_1d(np.asarray(y_masses, dtype=float))[yo])
    return WeightedKernelOperator(
        mu, nu,
        np.atleast_1d(np.asarray(phi, dtype=float))[xo],
        np.atleast_1d(np.asarray(psi, dtype=float))[yo],
        f,
    )


def materialize(kop: WeightedKernelOperator) -> np.ndarray:
    """Matrix of the operator between the orthonormal atom bases.

    Built from the Loewner blocks of loewner_blocks, so the only full-size
    array is the result, and f is evaluated at each atom once.  Raises
    loewner_blocks' ValidationError where an entry could be NaN, and one
    naming the first row with an entry beyond the float range (checked, not
    warned); neither depends on the block size.
    """
    left = kop.mu.coordinates(kop.phi)
    right = kop.nu.coordinates(kop.psi)
    out = np.empty((kop.mu.size, kop.nu.size))
    for rows, dd in loewner_blocks(kop.f, kop.mu.positions, kop.nu.positions):
        with np.errstate(over="ignore", invalid="ignore"):
            out[rows] = left[rows, None] * dd * right[None, :]
        if not np.all(np.isfinite(out[rows])):
            row = rows.start + np.argwhere(~np.isfinite(out[rows]))[0, 0]
            raise ValidationError(f"an operator entry in row {row} exceeds the float range")
    return out


def write_kernel_operator(path, kop: WeightedKernelOperator) -> None:
    if not kop.f.spec:
        raise ValidationError(f"function {kop.f.name} has no serializable spec")
    lines = []
    for label, measure, weights in (("MU", kop.mu, kop.phi), ("NU", kop.nu, kop.psi)):
        lines.append(label)
        for x, m, w in zip(measure.positions, measure.masses, weights):
            lines.append(f"{float(x)!r} {float(m)!r} {float(w)!r}")
    lines += ["FUNCTION", json.dumps(kop.f.spec, sort_keys=True)]
    write_text(path, "\n".join(lines) + "\n", "operator file")


def read_kernel_operator(path) -> WeightedKernelOperator:
    sections: dict[str, list[str]] = {}
    current = None
    for line in read_lines(path, "operator file"):
        if line in ("MU", "NU", "FUNCTION"):
            if line in sections:
                raise ValidationError(f"operator file {path}: repeated {line} section")
            current = sections[line] = []
        elif current is None:
            raise ValidationError(f"operator file {path}: data before any section header")
        else:
            current.append(line)
    for needed in ("MU", "NU", "FUNCTION"):
        if needed not in sections:
            raise ValidationError(f"operator file {path}: missing {needed} section")
        if not sections[needed]:
            raise ValidationError(f"operator file {path}: empty {needed} section")
    mu, nu = (float_rows(sections[label], 3, f"operator file {path}, {label} section").T
              for label in ("MU", "NU"))
    if len(sections["FUNCTION"]) != 1:
        raise ValidationError(f"operator file {path}: FUNCTION section must be one JSON line")
    fspec = parse_json(sections["FUNCTION"][0], f"operator file {path}: FUNCTION line")
    return kernel_operator(*mu, *nu, function_from_spec(fspec))
