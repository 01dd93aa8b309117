"""Proximal operators and projections used by all solvers.

The catalog covers the handful of functions the benchmark problems need:
a weighted l1 norm, a shifted quadratic, the nonnegative orthant and the
unit simplex. All entries expose ``prox(v, t)`` and a function-value
evaluator ``value(v)``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "prox_l1",
    "proj_nonneg",
    "proj_simplex",
    "ScaledL1",
    "QuadShift",
    "IndNonneg",
    "IndSimplex",
]


def prox_l1(x, t):
    """Soft thresholding: prox of t*||.||_1.

    Components with |x_i| <= t map to exactly 0.
    """
    if not t >= 0:
        raise ValueError("threshold must be nonnegative")
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def proj_nonneg(x):
    """Projection onto the nonnegative orthant."""
    return np.maximum(np.asarray(x, dtype=float), 0.0)


def proj_simplex(v):
    """Euclidean projection onto the standard unit simplex.

    Sort-and-threshold method: with v sorted descending, take the largest k
    such that v_(k) > (sum of the k largest - 1) / k, then shift by that
    threshold tau and clip at zero. Output is nonnegative and sums to one.

    The k largest lie in (tau, tau + 1], so the running sum that gives tau
    is off by at most (k - 1) u k (|tau| + 1), with u = 2**-53 the unit
    roundoff, and the subtraction of 1 and the division by k add u |tau|
    each: tau is off by at most (k + 1) u (|tau| + 1), and the sum of the
    up to n entries v_i - tau by n times that. Where its part that grows
    with tau, n (k + 1) u |tau|, exceeds ``IndSimplex.sum_tol`` (a large
    common offset in v), v - max(v) is projected instead: the projection is
    the same under a common shift, the shift is exact (Sterbenz) on every
    entry within 1 of the max once |max| >= 2, the only entries that stay
    positive, and the shifted max is 0, so its threshold lies in [-1, 0).
    Where |max| >= 2**52 the shift comes before the threshold pass: tau lies
    in [max - 1, max), so the bound is exceeded anyway, and from 2**53 on
    max - 1 can round back to max and leave no k. Where neither shift
    happens, the computation, and so every bit, is the plain method's. An
    input with a NaN or +inf entry has no projection and gives all NaN.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("proj_simplex requires a nonempty vector")
    u = np.sort(v)[::-1]
    if not abs(u[0]) < 2.0**52:
        if not u[0] < np.inf:  # a NaN (sorted first) or +inf entry
            return np.full(v.size, np.nan)
        return proj_simplex(v - u[0])
    css = np.cumsum(u)
    css -= 1.0
    ks = np.arange(1, v.size + 1)
    # u_k > css_k / k is u_k - css_k / k > 0 without its array: a rounded
    # difference of finite floats is 0 only where they are equal. k=1
    # always qualifies: below 2**52, u[0] - 1 < u[0]
    k = np.nonzero(u > css / ks)[0][-1] + 1
    tau = css[k - 1] / k
    # n (k + 1) u |tau|, with tau first: a numpy integer times a float is slow
    if abs(tau) * (k + 1) * v.size * 2.0**-53 > IndSimplex.sum_tol and u[0] != 0.0:
        return proj_simplex(v - u[0])
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
        """Prox of t * f at the float array ``v``, (v - t*shift) / (1 + t):
        its operations in their order, so its bits, in one buffer. A step
        that is not positive (NaN included) or a ``v`` of another shape than
        the shift raise ValueError."""
        if not t > 0:
            raise ValueError("prox step must be positive")
        if v.shape != self.shift.shape:
            raise ValueError(f"shape mismatch: v {v.shape} vs shift {self.shift.shape}")
        out = t * self.shift
        np.subtract(v, out, out=out)
        out /= 1.0 + t
        return out

    def value(self, v):
        d = np.asarray(v, dtype=float) + self.shift
        return 0.5 * float(d.dot(d))

    def __repr__(self):
        return f"QuadShift(dim={self.shift.size})"


class IndNonneg:
    """Indicator of the nonnegative orthant; prox is the projection."""

    feas_tol = 1e-12

    def prox(self, v, t):
        return proj_nonneg(v)

    def value(self, v):
        v = np.asarray(v, dtype=float)
        # the reduction of v.min(), without its Python wrapper
        return 0.0 if v.size == 0 or np.minimum.reduce(v) >= -self.feas_tol else float("inf")

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
