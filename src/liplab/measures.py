"""Finite atomic measures and weighted divided-difference kernel operators.

A WeightedKernelOperator realizes the kernel

    k(x, y) = phi(x) * (f(x) - f(y)) / (x - y) * psi(y)

between L2(nu) and L2(mu) for discrete measures mu, nu.  In the orthonormal
atom bases the operator is the matrix

    M[i, j] = sqrt(mu_i) phi(x_i) dd_f(x_i, y_j) psi(y_j) sqrt(nu_j).

File format (read/write_kernel_operator): a MU section with "x mass phi"
lines, a NU section with "y mass psi" lines, and a FUNCTION section holding a
one-line JSON function spec.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, parse_json, read_text, write_text
from .functions import LipschitzFunction, function_from_spec, loewner_matrix

# Entries per row block of the dense kernel passes: a block and its temporaries
# stay in L2 cache (2**15 ran the certificate residual 2x faster than 2**17).
BLOCK_ELEMENTS = 1 << 15


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
    def total_mass(self) -> float:
        return float(np.sum(self.masses))

    @property
    def support_radius(self) -> float:
        return float(np.max(np.abs(self.positions))) if self.size else 0.0


def discrete_measure(positions, masses) -> DiscreteMeasure:
    """Canonicalize (sort by position) and validate a discrete measure."""
    pos = np.atleast_1d(np.asarray(positions, dtype=float))
    mass = np.atleast_1d(np.asarray(masses, dtype=float))
    order = np.argsort(pos, kind="stable")
    return DiscreteMeasure(pos[order], mass[order])


def weighted_l2_norm(values, masses) -> float:
    """L2(measure) norm of a function given by its values on the atoms."""
    v = np.asarray(values, dtype=float)
    m = np.asarray(masses, dtype=float)
    return float(np.sqrt(np.sum(v * v * m)))


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
        return weighted_l2_norm(self.phi, self.mu.masses)

    @property
    def psi_norm(self) -> float:
        return weighted_l2_norm(self.psi, self.nu.masses)

    @property
    def norm_product(self) -> float:
        """||phi|| * ||psi|| * lip(f), the scale all certified bounds carry."""
        return self.phi_norm * self.psi_norm * self.f.lip

    @property
    def support_radius(self) -> float:
        return max(self.mu.support_radius, self.nu.support_radius)

    def with_weights(self, phi, psi) -> "WeightedKernelOperator":
        return WeightedKernelOperator(self.mu, self.nu, phi, psi, self.f)


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


def row_blocks(rows: int, cols: int):
    """Consecutive row slices of a rows x cols matrix, each about BLOCK_ELEMENTS entries."""
    step = max(1, BLOCK_ELEMENTS // max(1, cols))
    return [slice(start, min(start + step, rows)) for start in range(0, rows, step)]


def materialize(kop: WeightedKernelOperator) -> np.ndarray:
    """Matrix of the operator between the orthonormal atom bases.

    Built in row blocks, so the only full-size array is the result.  Raises
    ValidationError where an entry could be NaN: f non-finite at an atom, or
    x - y or f(x) - f(y) overflowing to inf / inf.
    """
    positions = np.r_[kop.mu.positions, kop.nu.positions]
    values = kop.f(positions)
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{kop.f.name} is non-finite at an atom of the operator")
    with np.errstate(over="ignore"):
        spreads = [np.ptp(v) for v in (positions, values) if v.size]
    if not np.all(np.isfinite(spreads)):
        raise ValidationError(f"atoms or their {kop.f.name} values spread beyond the float range")
    left = np.sqrt(kop.mu.masses) * kop.phi
    right = kop.psi * np.sqrt(kop.nu.masses)
    out = np.empty((kop.mu.size, kop.nu.size))
    for rows in row_blocks(*out.shape):
        dd = loewner_matrix(kop.f, kop.mu.positions[rows], kop.nu.positions)
        out[rows] = left[rows, None] * dd * right[None, :]
    return out


def write_kernel_operator(path, kop: WeightedKernelOperator) -> None:
    lines = ["MU"]
    for x, m, p in zip(kop.mu.positions, kop.mu.masses, kop.phi):
        lines.append(f"{float(x)!r} {float(m)!r} {float(p)!r}")
    lines.append("NU")
    for y, m, p in zip(kop.nu.positions, kop.nu.masses, kop.psi):
        lines.append(f"{float(y)!r} {float(m)!r} {float(p)!r}")
    lines.append("FUNCTION")
    if not kop.f.spec:
        raise ValidationError(f"function {kop.f.name} has no serializable spec")
    lines.append(json.dumps(kop.f.spec, sort_keys=True))
    write_text(path, "\n".join(lines) + "\n", "operator file")


def read_kernel_operator(path) -> WeightedKernelOperator:
    raw = [line.strip() for line in read_text(path, "operator file").split("\n") if line.strip()]
    sections: dict[str, list[str]] = {}
    current = None
    for line in raw:
        if line in ("MU", "NU", "FUNCTION"):
            current = line
            sections[current] = []
            continue
        if current is None:
            raise ValidationError(f"operator file {path}: data before any section header")
        sections[current].append(line)
    for needed in ("MU", "NU", "FUNCTION"):
        if needed not in sections:
            raise ValidationError(f"operator file {path}: missing {needed} section")

    def parse_atoms(lines, label):
        if not lines:
            raise ValidationError(f"operator file {path}: empty {label} section")
        try:
            rows = [[float(v) for v in line.split()] for line in lines]
        except ValueError as exc:
            raise ValidationError(f"operator file {path}: bad number in {label}") from exc
        if any(len(r) != 3 for r in rows):
            raise ValidationError(f"operator file {path}: {label} lines must be 'pos mass weight'")
        arr = np.asarray(rows)
        return arr[:, 0], arr[:, 1], arr[:, 2]

    xp, xm, phi = parse_atoms(sections["MU"], "MU")
    yp, ym, psi = parse_atoms(sections["NU"], "NU")
    if len(sections["FUNCTION"]) != 1:
        raise ValidationError(f"operator file {path}: FUNCTION section must be one JSON line")
    fspec = parse_json(sections["FUNCTION"][0], f"operator file {path}: FUNCTION line")
    return kernel_operator(xp, xm, phi, yp, ym, psi, function_from_spec(fspec))
