"""Dense real matrix kernels: symmetric eigendecomposition, SVD, row blocks, matrix files.

Everything here is a pure function of float64 arrays.  Results are
deterministic for identical inputs (same LAPACK build), and every
decomposition is checked against an explicit residual contract before it is
returned.  Frames are LAPACK's, column signs included: every output is built
from the projections u u^T, which no column sign changes, so none depends on
them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError, float_rows, read_lines, write_text

# Frame orthonormality tolerance, per unit of dimension.
ORTHONORMALITY_TOL = 1e-12
# Reconstruction residual tolerance for eigendecompositions, relative to 1 + ||A||_F.
EIG_RESIDUAL_TOL = 1e-10
# Reconstruction residual tolerance for SVD, relative to 1 + ||M||_F.
SVD_RESIDUAL_TOL = 1e-9
# Entries per row block of the dense kernel passes: a block and its temporaries
# stay in L2 cache (2**15 ran the certificate residual 2x faster than 2**17).
BLOCK_ELEMENTS = 1 << 15


def as_matrix(a) -> np.ndarray:
    """Validate and return a 2-D float64 matrix with finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValidationError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix contains non-finite entries")
    return m


def as_symmetric(a) -> np.ndarray:
    """Validate a square matrix and enforce exact symmetry by averaging.

    A matrix that is already exactly symmetric, with every entry within half
    the float range, is returned as it is (not copied): 0.5 * (M + M^T) would
    equal it bit for bit.  Callers must not write to the result.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    half = 0.5 * np.finfo(float).max
    if -half <= m.min() and m.max() <= half and np.array_equal(m, m.T):
        return m
    with np.errstate(over="ignore"):
        sym = 0.5 * (m + m.T)
    if not np.all(np.isfinite(sym)):
        raise ValidationError("symmetrizing the matrix exceeds the float range")
    return sym


def row_blocks(rows: int, cols: int):
    """Consecutive row slices of a rows x cols matrix, each about BLOCK_ELEMENTS entries."""
    step = max(1, BLOCK_ELEMENTS // max(1, cols))
    return [slice(start, min(start + step, rows)) for start in range(0, rows, step)]


def frobenius(a) -> float:
    """Frobenius norm (a vector's 2-norm), rescaled by max |a_ij| (Blue, ACM TOMS 4, 1978)
    when the plain sum of squares overflows or underflows (a norm below 2^-500).

    Raises ValidationError if a finite array has a norm beyond the float range.
    """
    m = np.asarray(a, dtype=float)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(m))
        if norm < 2.0 ** -500 or (norm == np.inf and np.all(np.isfinite(m))):
            top = np.abs(m).max(initial=0.0)
            norm = float(top * np.linalg.norm(m / top)) if top > 0.0 else 0.0
            if norm == np.inf:
                raise ValidationError("Frobenius norm exceeds the float range")
    return norm


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
        # Every check below is written to fail on NaN; comparing neighbours
        # (not np.diff) also cannot overflow.
        if not np.all(vals[1:] >= vals[:-1]):
            raise ValidationError("eigenvalues must be ascending")
        gram = frame.T @ frame
        gram[np.diag_indices(d)] -= 1.0
        defect = np.abs(gram, out=gram).max()
        if not defect <= ORTHONORMALITY_TOL * d:
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
    dec = SpectralDecomposition(vals, frame)
    scale = 1.0 + frobenius(m)
    floor = 16 * m.shape[0] * np.finfo(float).eps
    rebuilt = (frame * vals) @ frame.T
    residual = frobenius(np.subtract(m, rebuilt, out=rebuilt))
    if not residual <= min(max(1e-12, floor), EIG_RESIDUAL_TOL) * scale:
        raise ConvergenceError(
            f"eigendecomposition residual {residual:.3e} exceeds contract at dim {m.shape[0]}"
        )
    return dec


def svd(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin singular value decomposition M = U diag(s) V^T.

    Returns (s, U, V) with s nonincreasing and nonnegative.  The reconstruction
    residual contract is SVD_RESIDUAL_TOL * (1 + ||M||_F).  Raises
    ConvergenceError if LAPACK does not converge or the contract is not met.
    """
    mat = as_matrix(m)
    try:
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"svd failed at shape {mat.shape}: {exc}") from exc
    scale = 1.0 + frobenius(mat)
    residual = frobenius(mat - (u * s) @ vh)
    if not residual <= SVD_RESIDUAL_TOL * scale:
        raise ConvergenceError(f"svd residual {residual:.3e} exceeds contract")
    if not (np.all(s[1:] <= s[:-1]) and np.all(s >= 0)):
        raise ConvergenceError("singular values are not nonincreasing and nonnegative")
    return s, u, vh.T


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
    raw = read_lines(path, "matrix file")
    try:
        rows, cols = (int(v) for v in raw[0].split())
    except (IndexError, ValueError) as exc:  # an empty file, or not two integers
        raise ValidationError(f"matrix file {path}: first line must be 'rows cols'") from exc
    if rows < 1 or cols < 1:
        raise ValidationError(f"matrix file {path}: rows and cols must be >= 1: {raw[0]!r}")
    if len(raw) - 1 != rows:
        raise ValidationError(f"matrix file {path}: expected {rows} rows, got {len(raw) - 1}")
    # Built from the rows read, not allocated from the header's claim.
    return as_matrix(float_rows(raw[1:], cols, f"matrix file {path}"))
