"""Lipschitz function suite, divided differences, Loewner matrices, f(A).

A LipschitzFunction bundles a vectorized evaluation rule with a certified
seminorm: |f(x) - f(y)| <= lip * |x - y| for all reals.  The divided
difference (f(x) - f(y)) / (x - y) is taken to be 0 on the diagonal x = y,
and computed values are clamped to [-lip, lip] (the clamp can only shrink
floating-point error, since the exact value always lies in that range).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import EvaluationError, ValidationError, checked
from .linalg import SpectralDecomposition


@dataclass(frozen=True, eq=False)
class LipschitzFunction:
    """Evaluation rule plus a certified Lipschitz seminorm."""

    name: str
    eval: Callable[[np.ndarray], np.ndarray]
    lip: float
    spec: dict = field(default_factory=dict)

    def __call__(self, x):
        return self.eval(np.asarray(x, dtype=float))

    def rescaled(self, factor: float) -> "LipschitzFunction":
        """factor * f, with the seminorm scaled by |factor|."""
        base = self.eval
        return LipschitzFunction(
            name=f"{factor!r}*{self.name}",
            eval=lambda x, _b=base, _c=float(factor): _c * _b(x),
            lip=abs(float(factor)) * self.lip,
            spec={"kind": "scaled", "factor": float(factor), "base": self.spec},
        )


def absolute_value() -> LipschitzFunction:
    return LipschitzFunction("abs", np.abs, 1.0, {"kind": "abs"})


def shifted_absolute(t: float) -> LipschitzFunction:
    t = float(t)
    return LipschitzFunction(
        f"abs(x-{t!r})",
        lambda x, _t=t: np.abs(x - _t),
        1.0,
        {"kind": "shifted_abs", "t": t},
    )


def clamp_function() -> LipschitzFunction:
    return LipschitzFunction("clamp", lambda x: np.clip(x, -1.0, 1.0), 1.0, {"kind": "clamp"})


def smooth_ramp(delta: float = 0.1) -> LipschitzFunction:
    delta = float(delta)
    if delta <= 0:
        raise ValidationError("smooth_ramp requires delta > 0")
    return LipschitzFunction(
        f"ramp(d={delta!r})",
        lambda x, _d=delta: np.sqrt(x * x + _d * _d),
        1.0,
        {"kind": "smooth_ramp", "delta": delta},
    )


def identity_function() -> LipschitzFunction:
    return LipschitzFunction("identity", lambda x: x, 1.0, {"kind": "identity"})


def constant_function(c: float) -> LipschitzFunction:
    c = float(c)
    return LipschitzFunction(
        f"const({c!r})",
        lambda x, _c=c: np.full_like(np.asarray(x, dtype=float), _c),
        0.0,
        {"kind": "constant", "c": c},
    )


def piecewise_linear(breakpoints, seed: int) -> LipschitzFunction:
    """Continuous piecewise-linear function with seeded +-1 slopes; lip = 1 exactly.

    The slope on each of the len(breakpoints) + 1 segments (including the two
    unbounded ones) is drawn from a Philox stream keyed by the seed, so the
    function is reproducible across runs.  f(breakpoints[0]) = 0.
    """
    nodes = np.asarray(breakpoints, dtype=float)
    if nodes.ndim != 1 or nodes.size < 1:
        raise ValidationError("piecewise_linear needs at least one breakpoint")
    if np.any(np.diff(nodes) <= 0):
        raise ValidationError("breakpoints must be strictly increasing")
    rng = np.random.Generator(np.random.Philox(key=int(seed) & 0xFFFFFFFFFFFFFFFF))
    slopes = rng.integers(0, 2, size=nodes.size + 1) * 2.0 - 1.0
    # Node values by accumulating interior slopes from the first node.
    values = np.concatenate([[0.0], np.cumsum(slopes[1:-1] * np.diff(nodes))])

    def _eval(x, _n=nodes, _v=values, _s=slopes):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(_n, x, side="right")  # segment index in [0, len(nodes)]
        anchor = np.clip(idx - 1, 0, _n.size - 1)
        return _v[anchor] + _s[idx] * (x - _n[anchor])

    return LipschitzFunction(
        f"pwl(seed={int(seed)})",
        _eval,
        1.0,
        {"kind": "pwl", "breakpoints": [float(t) for t in nodes], "seed": int(seed)},
    )


_KINDS = {
    "abs": lambda spec: absolute_value(),
    "shifted_abs": lambda spec: shifted_absolute(checked(spec["t"], float, "shifted_abs t")),
    "clamp": lambda spec: clamp_function(),
    "pwl": lambda spec: piecewise_linear(checked(spec["breakpoints"], [float], "pwl breakpoints"),
                                         checked(spec["seed"], int, "pwl seed")),
    "smooth_ramp": lambda spec: smooth_ramp(checked(spec.get("delta", 0.1), float,
                                                    "smooth_ramp delta")),
    "identity": lambda spec: identity_function(),
    "constant": lambda spec: constant_function(checked(spec.get("c", 0.0), float, "constant c")),
}


def function_from_spec(spec: dict) -> LipschitzFunction:
    """Build a suite function from its config dictionary ({"kind": ..., ...})."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValidationError(f"function spec must be a dict with a 'kind': {spec!r}")
    kind = spec["kind"]
    if kind not in _KINDS:
        raise ValidationError(f"unknown function kind {kind!r}; known: {sorted(_KINDS)}")
    try:
        return _KINDS[kind](spec)
    except KeyError as exc:
        raise ValidationError(f"function spec {spec!r} is missing field {exc}") from exc


def default_suite() -> list[LipschitzFunction]:
    """The built-in test suite: abs, a shifted abs, clamp, the seed-7 pwl, smooth ramp."""
    grid = np.linspace(-2.5, 2.5, 41)
    return [
        absolute_value(),
        shifted_absolute(0.3),
        clamp_function(),
        piecewise_linear(grid, 7),
        smooth_ramp(0.1),
    ]


def loewner_matrix(f: LipschitzFunction, xs, ys) -> np.ndarray:
    """Matrix of divided differences of f sampled at xs (rows) and ys (columns)."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    fx = np.asarray(f(xs), dtype=float)
    fy = np.asarray(f(ys), dtype=float)
    dx = xs[:, None] - ys[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        quot = (fx[:, None] - fy[None, :]) / dx
    quot = np.where(dx == 0.0, 0.0, quot)
    return np.clip(quot, -f.lip, f.lip)


def divided_difference(f: LipschitzFunction, x: float, y: float) -> float:
    """The loewner_matrix entry at one point pair: (f(x) - f(y)) / (x - y), 0 when x == y."""
    return float(loewner_matrix(f, x, y)[0, 0])


def apply_function(f: LipschitzFunction, dec: SpectralDecomposition) -> np.ndarray:
    """Spectral calculus f(A) = frame diag(f(lambda)) frame^T, symmetrized."""
    vals = np.asarray(f(dec.eigenvalues), dtype=float)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        where = dec.eigenvalues[bad][0]
        raise EvaluationError(f"{f.name} is non-finite at eigenvalue {where!r}")
    m = (dec.frame * vals) @ dec.frame.T
    return 0.5 * (m + m.T)
