"""Dense real matrix kernels: symmetric eigendecomposition, SVD, matrix files.

Everything here is a pure function of float64 arrays.  Results are
deterministic for identical inputs (same LAPACK build), eigenvector signs are
canonicalized, and every decomposition is checked against an explicit residual
contract before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError, read_text, write_text

# Frame orthonormality tolerance, per unit of dimension.
ORTHONORMALITY_TOL = 1e-12
# Reconstruction residual tolerance for eigendecompositions, relative to 1 + ||A||_F.
EIG_RESIDUAL_TOL = 1e-10
# Reconstruction residual tolerance for SVD, relative to 1 + ||M||_F.
SVD_RESIDUAL_TOL = 1e-9


def as_matrix(a) -> np.ndarray:
    """Validate and return a 2-D float64 matrix with finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValidationError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix contains non-finite entries")
    return m


def as_symmetric(a) -> np.ndarray:
    """Validate a square matrix and enforce exact symmetry by averaging."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    return 0.5 * (m + m.T)


def frobenius(a) -> float:
    """Frobenius norm; rescaled by max |a_ij| when the plain sum of squares overflows.

    Raises ValidationError if a finite matrix has a norm beyond the float range.
    """
    m = np.asarray(a, dtype=float)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(m, "fro"))
        if norm == np.inf and np.all(np.isfinite(m)):
            top = np.abs(m).max()
            norm = float(top * np.linalg.norm(m / top, "fro"))
            if norm == np.inf:
                raise ValidationError("Frobenius norm exceeds the float range")
    return norm


def _canonical_signs(frame: np.ndarray) -> np.ndarray:
    """Flip column signs so the largest-magnitude entry of each column is positive."""
    idx = np.argmax(np.abs(frame), axis=0)
    signs = np.sign(frame[idx, np.arange(frame.shape[1])])
    signs[signs == 0] = 1.0
    return frame * signs


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (ascending) plus an orthonormal eigenvector frame.

    Finite-dimensional stand-in for a spectral measure: column i of ``frame``
    is the unit eigenvector for ``eigenvalues[i]``.
    """

    eigenvalues: np.ndarray
    frame: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=float)
        frame = np.asarray(self.frame, dtype=float)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "frame", frame)
        d = frame.shape[0]
        if frame.ndim != 2 or frame.shape != (d, d) or vals.shape != (d,):
            raise ValidationError("decomposition shapes are inconsistent")
        if np.any(np.diff(vals) < 0):
            raise ValidationError("eigenvalues must be ascending")
        gram = frame.T @ frame
        defect = np.abs(gram - np.eye(d)).max()
        if defect > ORTHONORMALITY_TOL * d:
            raise ValidationError(
                f"frame is not orthonormal: defect {defect:.3e} exceeds {ORTHONORMALITY_TOL * d:.3e}"
            )

    @property
    def dim(self) -> int:
        return self.frame.shape[0]


def eigh_symmetric(a) -> SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending.

    The returned frame satisfies frame^T frame = I to ORTHONORMALITY_TOL * dim
    and reconstructs the input to max(1e-12, floor) * (1 + ||A||_F), capped at
    EIG_RESIDUAL_TOL, where the floor 16 * dim * eps is the attainable rounding
    level at the given dimension.  Raises ConvergenceError if the contract
    cannot be met.
    """
    m = as_symmetric(a)
    try:
        vals, frame = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # LAPACK gives up on extreme dynamic ranges
        raise ConvergenceError(f"eigendecomposition failed at dim {m.shape[0]}: {exc}") from exc
    frame = _canonical_signs(frame)
    dec = SpectralDecomposition(vals, frame)
    scale = 1.0 + frobenius(m)
    floor = 16 * m.shape[0] * np.finfo(float).eps
    residual = frobenius(m - (frame * vals) @ frame.T)
    if residual > min(max(1e-12, floor), EIG_RESIDUAL_TOL) * scale:
        raise ConvergenceError(
            f"eigendecomposition residual {residual:.3e} exceeds contract at dim {m.shape[0]}"
        )
    return dec


def svd(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin singular value decomposition M = U diag(s) V^T.

    Returns (s, U, V) with s nonincreasing and nonnegative.  The reconstruction
    residual contract is SVD_RESIDUAL_TOL * (1 + ||M||_F).
    """
    mat = as_matrix(m)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    # Sign canonicalization must flip U columns and V columns together so the
    # product U diag(s) V^T is unchanged.
    colsign = np.sign(u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])])
    colsign[colsign == 0] = 1.0
    u = u * colsign
    v = vh.T * colsign
    scale = 1.0 + frobenius(mat)
    residual = frobenius(mat - (u * s) @ v.T)
    if residual > SVD_RESIDUAL_TOL * scale:
        raise ConvergenceError(f"svd residual {residual:.3e} exceeds contract")
    if np.any(np.diff(s) > 0) or np.any(s < 0):
        raise ConvergenceError("singular values are not nonincreasing and nonnegative")
    return s, u, v


def matrix_text(m) -> str:
    """A matrix in the text format: 'rows cols' header, one row per line."""
    mat = as_matrix(m)
    lines = [f"{mat.shape[0]} {mat.shape[1]}"]
    for row in mat:
        lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def write_matrix(path, m) -> None:
    """Write a matrix in the text format of matrix_text."""
    write_text(path, matrix_text(m), "matrix file")


def read_matrix(path) -> np.ndarray:
    """Read a matrix from the text format; accepts scientific notation."""
    raw = [line.strip() for line in read_text(path, "matrix file").split("\n") if line.strip()]
    if not raw:
        raise ValidationError(f"matrix file {path} is empty")
    head = raw[0].split()
    if len(head) != 2:
        raise ValidationError(f"matrix file {path}: first line must be 'rows cols'")
    try:
        rows, cols = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ValidationError(f"matrix file {path}: bad header {raw[0]!r}") from exc
    if len(raw) - 1 != rows:
        raise ValidationError(f"matrix file {path}: expected {rows} rows, got {len(raw) - 1}")
    out = np.empty((rows, cols))
    for i, line in enumerate(raw[1:]):
        parts = line.split()
        if len(parts) != cols:
            raise ValidationError(f"matrix file {path}: row {i} has {len(parts)} entries, expected {cols}")
        try:
            out[i] = [float(p) for p in parts]
        except ValueError as exc:
            raise ValidationError(f"matrix file {path}: bad number in row {i}") from exc
    return as_matrix(out)
