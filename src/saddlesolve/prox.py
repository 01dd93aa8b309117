"""Proximal operators and projections used by all solvers.

The catalog covers the handful of functions the benchmark problems need:
a weighted l1 norm, a shifted quadratic, the nonnegative orthant, the unit
simplex, and the zero function. All entries expose ``prox(v, t)`` and a
function-value evaluator ``value(v)``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "prox_l1",
    "prox_quad_shift",
    "proj_nonneg",
    "proj_simplex",
    "ScaledL1",
    "QuadShift",
    "IndNonneg",
    "IndSimplex",
    "Zero",
]


def prox_l1(x, t):
    """Soft thresholding: prox of t*||.||_1.

    Components with |x_i| <= t map to exactly 0.
    """
    if not t >= 0:
        raise ValueError("threshold must be nonnegative")
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def prox_quad_shift(v, s, b):
    """Prox of s * (0.5 ||. + b||^2), i.e. (v - s*b) / (1 + s)."""
    return _quad_shift_step(np.asarray(v, dtype=float), s, np.asarray(b, dtype=float))


def _quad_shift_step(v, s, b):
    """(v - s*b) / (1 + s) for float arrays ``v`` and ``b``: its operations in
    their order, so its bits, in one buffer. A step that is not positive
    (NaN included) or arrays of two shapes raise ValueError."""
    if not s > 0:
        raise ValueError("prox step must be positive")
    if v.shape != b.shape:
        raise ValueError(f"shape mismatch: v {v.shape} vs shift {b.shape}")
    out = s * b
    np.subtract(v, out, out=out)
    out /= 1.0 + s
    return out


def proj_nonneg(x):
    """Projection onto the nonnegative orthant."""
    return np.maximum(np.asarray(x, dtype=float), 0.0)


def proj_simplex(v):
    """Euclidean projection onto the standard unit simplex.

    Sort-and-threshold method: with v sorted descending, take the largest k
    such that v_(k) > (sum of the k largest - 1) / k, then shift by that
    threshold and clip at zero. Output is nonnegative and sums to one.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("proj_simplex requires a nonempty vector")
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, v.size + 1)
    # k=1 always qualifies: u[0] - (u[0] - 1) = 1 > 0
    k = np.nonzero(u - css / ks > 0.0)[0][-1] + 1
    tau = css[k - 1] / k
    return np.maximum(v - tau, 0.0)


class ScaledL1:
    """g(x) = mu * ||x||_1 with mu >= 0."""

    def __init__(self, mu):
        if not mu >= 0:
            raise ValueError("l1 weight must be nonnegative")
        self.mu = float(mu)

    def prox(self, v, t):
        # prox of t * (mu ||.||_1); the step folds into the threshold
        return prox_l1(v, t * self.mu)

    def value(self, v):
        return self.mu * float(np.abs(v).sum())

    def __repr__(self):
        return f"ScaledL1(mu={self.mu})"


class QuadShift:
    """f(v) = 0.5 * ||v + shift||^2."""

    def __init__(self, shift):
        shift = np.asarray(shift, dtype=float)
        if not np.all(np.isfinite(shift)):
            raise ValueError("shift vector must be finite")
        self.shift = shift

    def prox(self, v, t):
        # prox_quad_shift without its conversions: the shift was checked at
        # construction, and v is the solver's float vector
        return _quad_shift_step(v, t, self.shift)

    def value(self, v):
        d = np.asarray(v, dtype=float) + self.shift
        return 0.5 * float(d @ d)

    def __repr__(self):
        return f"QuadShift(dim={self.shift.size})"


class IndNonneg:
    """Indicator of the nonnegative orthant; prox is the projection."""

    feas_tol = 1e-12

    def prox(self, v, t):
        return proj_nonneg(v)

    def value(self, v):
        v = np.asarray(v, dtype=float)
        return 0.0 if v.size == 0 or v.min() >= -self.feas_tol else float("inf")

    def __repr__(self):
        return "IndNonneg()"


class IndSimplex:
    """Indicator of the unit simplex; prox is the projection."""

    entry_tol = 1e-10
    sum_tol = 1e-8

    @classmethod
    def contains(cls, v):
        """Whether the float array ``v`` is a point of the unit simplex: every
        entry at least -entry_tol and the sum within sum_tol of 1. Only good
        values pass, so a NaN entry is outside."""
        return bool(v.min() >= -cls.entry_tol and abs(v.sum() - 1.0) <= cls.sum_tol)

    def prox(self, v, t):
        return proj_simplex(v)

    def value(self, v):
        return 0.0 if self.contains(np.asarray(v, dtype=float)) else float("inf")

    def __repr__(self):
        return "IndSimplex()"


class Zero:
    """The zero function; prox is the identity."""

    def prox(self, v, t):
        return np.array(v, dtype=float)

    def value(self, v):
        return 0.0

    def __repr__(self):
        return "Zero()"
