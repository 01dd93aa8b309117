"""Brute-force oracles that back the tests and the derived fixtures.

Enumeration-based projections, naive multiply checks, a characteristic-
polynomial norm oracle and candidate or grid-search proxes. Each computes
its value by a route independent of the production code it validates; the
enumeration oracles are dimension-capped.
"""

import math
from dataclasses import dataclass

import numpy as np

_ENUM_DIM_CAP = 8


@dataclass
class OracleResult:
    """Oracle output plus a residual certifying its quality."""

    value: object
    certificate: float


def naive_matvec(entries, x):
    """Double-loop matrix-vector product in plain Python floats."""
    out = []
    for row in entries:
        acc = 0.0
        for a, b in zip(row, x):
            acc += float(a) * float(b)
        out.append(acc)
    return np.array(out)


def naive_adjoint_matvec(entries, y):
    """Double-loop transpose product."""
    rows = len(entries)
    cols = len(entries[0]) if rows else 0
    out = []
    for j in range(cols):
        acc = 0.0
        for i in range(rows):
            acc += float(entries[i][j]) * float(y[i])
        out.append(acc)
    return np.array(out)


def _char_poly(G):
    # Faddeev-LeVerrier recursion for det(lam I - G)
    k = G.shape[0]
    coeffs = [1.0]
    M = np.eye(k)
    for j in range(1, k + 1):
        GM = G @ M
        c = -np.trace(GM) / j
        coeffs.append(float(c))
        M = GM + c * np.eye(k)
    return np.array(coeffs)


def gram_norm_oracle(entries):
    """Operator norm via the Gram matrix's characteristic polynomial.

    Builds K^T K, extracts its characteristic polynomial by the
    Faddeev-LeVerrier recursion, root-finds, and returns the square root of
    the largest real root. Dimension-capped; independent of the Lanczos iteration.
    """
    K = np.asarray(entries, dtype=float)
    if min(K.shape) > _ENUM_DIM_CAP:
        raise ValueError(f"gram oracle capped at dimension {_ENUM_DIM_CAP}")
    G = K.T @ K if K.shape[1] <= K.shape[0] else K @ K.T
    coeffs = _char_poly(G)
    roots = np.roots(coeffs)
    real = roots.real[np.abs(roots.imag) <= 1e-8 * (1.0 + np.abs(roots.real))]
    lam_max = float(real.max())
    cert = abs(float(np.polyval(coeffs, lam_max)))
    return OracleResult(math.sqrt(max(lam_max, 0.0)), cert)


def qp_project_simplex_oracle(v):
    """Simplex projection by enumerating all nonempty free sets.

    For each candidate free set S the equality-constrained minimizer shifts
    v_S by tau = (sum v_S - 1)/|S| and zeroes the rest; the feasible candidate
    closest to v wins. The certificate is the KKT residual at the winner.
    """
    v = np.asarray(v, dtype=float)
    d = v.size
    if d > _ENUM_DIM_CAP:
        raise ValueError(f"enumeration oracle capped at dimension {_ENUM_DIM_CAP}")
    if d == 0:
        raise ValueError("empty input")
    best = None
    best_dist = math.inf
    best_tau = 0.0
    for mask in range(1, 1 << d):
        S = [i for i in range(d) if mask >> i & 1]
        tau = (v[S].sum() - 1.0) / len(S)
        y = np.zeros(d)
        y[S] = v[S] - tau
        if y[S].min() < -1e-12:
            continue
        dist = float((y - v) @ (y - v))
        if dist < best_dist:
            best = np.maximum(y, 0.0)
            best_dist = dist
            best_tau = tau
    # KKT: y - v + tau*1 = mu, mu >= 0, mu^T y = 0, sum y = 1
    mu = best - v + best_tau
    cert = max(
        abs(float(best.sum()) - 1.0),
        max(0.0, -float(best.min())),
        max(0.0, -float(mu.min())),
        abs(float(mu @ best)),
    )
    return OracleResult(best, cert)


def qp_project_nonneg_oracle(v):
    """Orthant projection by enumerating sign patterns of the free set."""
    v = np.asarray(v, dtype=float)
    d = v.size
    if d > _ENUM_DIM_CAP:
        raise ValueError(f"enumeration oracle capped at dimension {_ENUM_DIM_CAP}")
    best = None
    best_dist = math.inf
    for mask in range(1 << d):
        S = [i for i in range(d) if mask >> i & 1]
        y = np.zeros(d)
        y[S] = v[S]
        if len(S) and y[S].min() < 0.0:
            continue
        dist = float((y - v) @ (y - v))
        if dist < best_dist:
            best = y
            best_dist = dist
    mu = best - v  # multiplier for y >= 0
    cert = max(max(0.0, -float(best.min())), abs(float(mu @ best)))
    return OracleResult(best, cert)


def prox_l1_oracle(x, t):
    """Componentwise l1 prox by candidate enumeration over {0, x-t, x+t}."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i, xi in enumerate(x):
        cands = [0.0, xi - t, xi + t]
        objs = [t * abs(y) + 0.5 * (y - xi) ** 2 for y in cands]
        out[i] = cands[int(np.argmin(objs))]
    return out


def prox_quad_shift_oracle(v, s, b, grid=2001):
    """Shifted-quadratic prox by 1-D grid search plus bisection.

    Minimizes s*0.5*(y + b_i)^2 + 0.5*(y - v_i)^2 per component without the
    closed form: two grid rounds bracket the minimizer, then bisection on the
    centered difference f(y+h) - f(y-h), whose sign equals the derivative's
    sign exactly for a quadratic. Pure function-value grid search stalls at
    sqrt(eps); the bisection finish reaches ~1e-11 absolute.
    """
    v = np.asarray(v, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.empty_like(v)
    for i in range(v.size):
        bi, vi = b[i], v[i]

        def f(y):
            return s * 0.5 * (y + bi) ** 2 + 0.5 * (y - vi) ** 2

        lo = min(vi, -bi) - 1.0
        hi = max(vi, -bi) + 1.0
        for _ in range(2):
            ys = np.linspace(lo, hi, grid)
            objs = s * 0.5 * (ys + bi) ** 2 + 0.5 * (ys - vi) ** 2
            k = int(np.argmin(objs))
            step = (hi - lo) / (grid - 1)
            lo, hi = ys[k] - 2 * step, ys[k] + 2 * step
        h = 1e-4 * (1.0 + abs(lo) + abs(hi))
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if f(mid + h) - f(mid - h) > 0.0:
                hi = mid
            else:
                lo = mid
        out[i] = 0.5 * (lo + hi)
    return out
