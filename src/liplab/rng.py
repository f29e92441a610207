"""Seeded random ensembles on top of the Philox counter-based generator.

Every instance of every sweep draws from its own Philox stream keyed by
(seed, experiment tag, dimension, instance index), so runs are bit-identical
regardless of execution order and instances are independent.
"""

from __future__ import annotations

import numpy as np

from .functions import LipschitzFunction
from .measures import WeightedKernelOperator, kernel_operator

_MASK = 0xFFFFFFFFFFFFFFFF


def _mix(parts) -> int:
    """Fold integers into one 64-bit word (splitmix-style)."""
    acc = 0x9E3779B97F4A7C15
    for p in parts:
        acc ^= (int(p) & _MASK) + 0x9E3779B97F4A7C15 + ((acc << 6) & _MASK) + (acc >> 2)
        acc &= _MASK
    return acc


def make_rng(seed: int, *stream) -> np.random.Generator:
    """Philox generator keyed by the seed and an arbitrary stream identifier."""
    key = np.array([int(seed) & _MASK, _mix(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def random_symmetric(rng: np.random.Generator, dim: int, scale: float | None = None) -> np.ndarray:
    """Symmetrized i.i.d. Gaussian matrix; default scale keeps spectra O(1) in dim."""
    if scale is None:
        scale = 1.0 / np.sqrt(dim)
    g = rng.standard_normal((dim, dim))
    return 0.5 * scale * (g + g.T)


def random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    norm = np.linalg.norm(v)
    while norm == 0.0:
        v = rng.standard_normal(dim)
        norm = np.linalg.norm(v)
    return v / norm


def random_orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-like orthogonal matrix via QR with the R-diagonal sign fix."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def random_trace_spectrum(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A random nonnegative spectrum, descending, with sum 1.

    Uniform draws on [0, 1), sorted and scaled to trace 1; all-zero draws
    give the flat spectrum 1 / dim.
    """
    sigma = np.sort(rng.uniform(0.0, 1.0, dim))[::-1]
    total = float(np.sum(sigma))
    if total == 0.0:
        return np.full(dim, 1.0 / dim)
    return sigma * (1.0 / total)


def _has_ties(values: np.ndarray) -> bool:
    """Whether two values are equal: sorted neighbours, compared without subtracting.

    Not np.unique, which imports numpy.ma to ask whether values is masked.
    """
    ordered = np.sort(values)
    return bool(np.any(ordered[1:] == ordered[:-1]))


def random_kernel_operator(rng: np.random.Generator, f: LipschitzFunction,
                           mu_atoms: int, nu_atoms: int) -> WeightedKernelOperator:
    """Random atoms in [-3, 3] with occasional boosted weights.

    A 5% share of atoms gets its weight multiplied by a factor in [3, 10] so
    that heavy-atom masking is regularly exercised.
    """

    def side(count):
        pos = rng.uniform(-3.0, 3.0, count)
        while _has_ties(pos):  # measure-zero event; redraw for strictness
            pos = rng.uniform(-3.0, 3.0, count)
        masses = rng.uniform(0.5, 1.5, count) / count
        weights = rng.standard_normal(count)
        spikes = rng.random(count) < 0.05
        weights = np.where(spikes, weights * rng.uniform(3.0, 10.0, count), weights)
        return pos, masses, weights

    xp, xm, phi = side(mu_atoms)
    yp, ym, psi = side(nu_atoms)
    return kernel_operator(xp, xm, phi, yp, ym, psi, f)
