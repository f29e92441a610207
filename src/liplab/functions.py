"""Lipschitz function suite, f at the data (f.at), Loewner row blocks, f(A).

A LipschitzFunction bundles a vectorized evaluation rule with a certified
seminorm: |f(x) - f(y)| <= lip * |x - y| for all reals.  The divided
difference (f(x) - f(y)) / (x - y) is taken to be 0 on the diagonal x = y,
and computed values are clamped to [-lip, lip] (the clamp can only shrink
floating-point error, since the exact value always lies in that range).
Each kind's rule is a module-level function or a numpy callable, bound to its
parameters with functools.partial, so every LipschitzFunction built here pickles.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import ValidationError, checked, constructed
from .linalg import SpectralDecomposition, as_symmetric, row_blocks


@dataclass(frozen=True, eq=False)
class LipschitzFunction:
    """Evaluation rule plus a certified Lipschitz seminorm."""

    name: str
    eval: Callable[[np.ndarray], np.ndarray]
    lip: float

    def at(self, points, where: str) -> np.ndarray:
        """f at points; a ValidationError, not a warning, names where and the first non-finite."""
        x = np.asarray(points, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.asarray(self.eval(x), dtype=float)
        bad = ~np.isfinite(values)
        if np.any(bad):
            raise ValidationError(f"{self.name} is non-finite at {where} {float(x[bad][0])!r}")
        return values


def absolute_value() -> LipschitzFunction:
    return LipschitzFunction("abs", np.abs, 1.0)


def _shifted_abs(t, x):
    return np.abs(x - t)


def shifted_absolute(t: float) -> LipschitzFunction:
    t = checked(t, float, "shifted_abs t")
    return LipschitzFunction(f"abs(x-{t!r})", partial(_shifted_abs, t), 1.0)


def clamp_function() -> LipschitzFunction:
    return LipschitzFunction("clamp", partial(np.clip, a_min=-1.0, a_max=1.0), 1.0)


def _ramp(d, x):
    return np.sqrt(x * x + d * d)


def smooth_ramp(delta: float = 0.1) -> LipschitzFunction:
    delta = checked(delta, float, "smooth_ramp delta")
    if not delta > 0:
        raise ValidationError("smooth_ramp requires delta > 0")
    return LipschitzFunction(f"ramp(d={delta!r})", partial(_ramp, delta), 1.0)


def identity_function() -> LipschitzFunction:
    return LipschitzFunction("identity", np.positive, 1.0)


def constant_function(c: float = 0.0) -> LipschitzFunction:
    c = checked(c, float, "constant c")
    return LipschitzFunction(f"const({c!r})", partial(np.full_like, fill_value=c), 0.0)


def _pwl(nodes, values, slopes, x):
    idx = np.searchsorted(nodes, x, side="right")  # segment index in [0, len(nodes)]
    anchor = np.clip(idx - 1, 0, nodes.size - 1)
    return values[anchor] + slopes[idx] * (x - nodes[anchor])


def piecewise_linear(breakpoints, seed: int) -> LipschitzFunction:
    """Continuous piecewise-linear function with seeded +-1 slopes; lip = 1 exactly.

    The slope on each of the len(breakpoints) + 1 segments (including the two
    unbounded ones) is drawn from a Philox stream keyed by the seed, so the
    function is reproducible across runs.  f(breakpoints[0]) = 0.
    """
    if isinstance(breakpoints, np.ndarray):
        breakpoints = breakpoints.tolist()
    nodes = np.array(checked(breakpoints, [float], "pwl breakpoints"), dtype=float)  # each finite
    if nodes.size < 1:
        raise ValidationError("piecewise_linear needs at least one breakpoint")
    seed = checked(seed, int, "pwl seed")
    if not np.all(nodes[1:] > nodes[:-1]):  # no subtraction: it overflows at +-1e308
        raise ValidationError("breakpoints must be strictly increasing")
    rng = np.random.Generator(np.random.Philox(key=seed & 0xFFFFFFFFFFFFFFFF))
    slopes = rng.integers(0, 2, size=nodes.size + 1) * 2.0 - 1.0
    # Node values by accumulating interior slopes from the first node.
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.concatenate([[0.0], np.cumsum(slopes[1:-1] * np.diff(nodes))])
    if not np.all(np.isfinite(values)):
        raise ValidationError("pwl node values exceed the float range")
    return LipschitzFunction(f"pwl(seed={seed})", partial(_pwl, nodes, values, slopes), 1.0)


_KINDS = {
    "abs": absolute_value,
    "shifted_abs": shifted_absolute,
    "clamp": clamp_function,
    "pwl": piecewise_linear,
    "smooth_ramp": smooth_ramp,
    "identity": identity_function,
    "constant": constant_function,
}


def function_from_spec(spec: dict) -> LipschitzFunction:
    """f of a JSON spec: "kind" names its constructor in _KINDS, the other fields its arguments."""
    kind = checked(spec, dict, "function spec").get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValidationError(f"function spec kind {reprlib.repr(kind)} not in {sorted(_KINDS)}")
    return constructed(_KINDS[kind], {k: v for k, v in spec.items() if k != "kind"}, f"{kind} spec")


def default_suite() -> list[LipschitzFunction]:
    """The built-in test suite: abs, a shifted abs, clamp, the seed-7 pwl, smooth ramp."""
    grid = np.linspace(-2.5, 2.5, 41)
    return [
        absolute_value(),
        shifted_absolute(0.3),
        clamp_function(),
        piecewise_linear(grid, 7),
        smooth_ramp(),
    ]


def loewner_blocks(f: LipschitzFunction, xs, ys):
    """(rows, L[rows]) over row_blocks(len(xs), len(ys)); L[i, j] = f[xs[i], ys[j]].

    f is evaluated at xs, then at ys, once each, and the rule that no entry
    can be NaN is checked once over all atoms, before the first block: f is
    finite at every atom (f.at names the first bad one, xs before ys), and the
    atoms and their f values spread within the float range, so neither x - y
    nor f(x) - f(y) overflows to inf / inf.  Each block is a new array, and
    no temporary stays alive while the caller works on it.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    fx = f.at(xs, "an atom")
    fy = f.at(ys, "an atom")
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is not finite either
        spreads = [np.ptp(np.r_[xs, ys]), np.ptp(np.r_[fx, fy])] if xs.size or ys.size else []
    if not np.all(np.isfinite(spreads)):
        raise ValidationError(f"atoms or their {f.name} values spread beyond the float range")
    for rows in row_blocks(xs.size, ys.size):
        dx = xs[rows, None] - ys[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            block = fx[rows, None] - fy[None, :]
            block /= dx
        block[dx == 0.0] = 0.0
        del dx
        yield rows, np.clip(block, -f.lip, f.lip, out=block)
        del block


def apply_function(f: LipschitzFunction, dec: SpectralDecomposition) -> np.ndarray:
    """Spectral calculus f(A) = frame diag(f(lambda)) frame^T, made symmetric by as_symmetric.

    The result is a new array, which the caller may write to.
    """
    return as_symmetric((dec.frame * f.at(dec.eigenvalues, "eigenvalue")) @ dec.frame.T)
