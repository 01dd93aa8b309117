"""Brute-force oracles and high-accuracy reference solves.

Everything here exists to back tests and reference files: enumeration-based
projections, naive multiply checks, a characteristic-polynomial norm oracle,
saddle-point residuals, and the long FISTA-plus-polish reference solver that
produces (x_bar, y_bar) and the optimal objective value. Enumeration oracles
are dimension-capped; none of this belongs on a hot path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import ReferencePoint
from .problems import primal_objective
from .prox import IndNonneg, QuadShift, ScaledL1
from .solvers import BaselineConfig, fista_iterate, init_fista

__all__ = [
    "OracleResult",
    "naive_matvec",
    "naive_adjoint_matvec",
    "gram_norm_oracle",
    "qp_project_simplex_oracle",
    "qp_project_nonneg_oracle",
    "prox_l1_oracle",
    "prox_quad_shift_oracle",
    "saddle_residual",
    "solve_reference",
]

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
    the largest real root. Dimension-capped; independent of power iteration.
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


def saddle_residual(problem, x, y, probe_lambda=1.0):
    """Max of the two prox fixed-point residuals at (x, y); zero exactly at
    saddle points."""
    if probe_lambda <= 0:
        raise ValueError("probe_lambda must be positive")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lam = probe_lambda
    rx = x - problem.g.prox(x - lam * problem.K.adjoint_apply(y), lam)
    ry = y - problem.fstar.prox(y + lam * problem.K.apply(x), lam)
    return max(float(np.linalg.norm(rx)), float(np.linalg.norm(ry)))


def _dense_columns(problem):
    backing = problem.K.backing
    if hasattr(backing, "entries"):
        return backing.entries
    return backing.to_dense()


def _polish_lasso(problem, x, threshold):
    """Refine a near-solution by solving the stationarity system on the
    detected support; returns None when the sign pattern or off-support KKT
    check fails."""
    K = _dense_columns(problem)
    mu = problem.g.mu
    b = problem.fstar.shift
    S = np.nonzero(np.abs(x) > threshold)[0]
    if S.size == 0:
        cand = np.zeros_like(x)
    else:
        Ks = K[:, S]
        signs = np.sign(x[S])
        rhs = Ks.T @ b - mu * signs
        try:
            u = np.linalg.solve(Ks.T @ Ks, rhs)
        except np.linalg.LinAlgError:
            u, *_ = np.linalg.lstsq(Ks.T @ Ks, rhs, rcond=None)
        if np.any(np.sign(u) != signs):
            return None
        cand = np.zeros_like(x)
        cand[S] = u
    grad = K.T @ (K @ cand - b)
    off = np.setdiff1d(np.arange(x.size), S)
    if off.size and np.abs(grad[off]).max() > mu * (1.0 + 1e-9) + 1e-12:
        return None
    return cand


def _polish_nnls(problem, x, threshold):
    K = _dense_columns(problem)
    b = problem.fstar.shift
    S = np.nonzero(x > threshold)[0]
    if S.size == 0:
        cand = np.zeros_like(x)
    else:
        Ks = K[:, S]
        u, *_ = np.linalg.lstsq(Ks, b, rcond=None)
        if u.min() < 0:
            return None
        cand = np.zeros_like(x)
        cand[S] = u
    grad = K.T @ (K @ cand - b)
    off = np.setdiff1d(np.arange(x.size), S)
    if off.size and grad[off].min() < -1e-9:
        return None
    return cand


_POLISH_THRESHOLDS = (0.0, 1e-10, 1e-8, 1e-6, 1e-4)

# solve_reference's stopping rules: a saddle residual target, and a stall
# when the residual has not improved by a relative 1e-6 for this many
# iterations.
_RESIDUAL_TARGET = 1e-12
_STALL_WINDOW = 5000


def _signed_support(x, threshold):
    """sign(x_i) where |x_i| > threshold and 0 elsewhere, as hashable bytes."""
    return np.where(np.abs(x) > threshold, np.sign(x), 0.0).tobytes()


def _polish(problem, x, quality, tried):
    """Best active-set candidate near ``x`` whose saddle residual beats
    ``quality``: returns (candidate, residual), or (None, quality) when none
    does.

    Polishes over the support thresholds in ``_POLISH_THRESHOLDS`` (scaled by
    max|x|); after a win the later thresholds polish the winner. A candidate
    depends only on the signed support, so ``tried`` maps each signed support
    already polished to its (candidate, residual), or to None when the KKT
    checks rejected it, and a repeated support costs no solve.
    """
    polish_support = _polish_lasso if isinstance(problem.g, ScaledL1) else _polish_nnls
    b = problem.fstar.shift
    scale = max(1.0, float(np.abs(x).max(initial=0.0)))
    best = None
    for thr in _POLISH_THRESHOLDS:
        thr *= scale
        key = _signed_support(x, thr)
        if key not in tried:
            cand = polish_support(problem, x, thr)
            tried[key] = None if cand is None else (
                cand, saddle_residual(problem, cand, problem.K.apply(cand) - b)
            )
        if tried[key] is not None and tried[key][1] < quality:
            best, quality = tried[key]
            x = best
    return best, quality


def solve_reference(problem, *, max_iter=1_000_000):
    """High-accuracy reference solve for least-squares families.

    Runs FISTA with backtracking and measures the saddle residual every 50
    iterations. A check at which the iterate's sign pattern is the same as
    at the previous check, and was not polished before, also polishes it via
    the active-set stationarity system over a few support thresholds. The
    solve stops at the first polished candidate that passes the KKT checks
    of the support (sign consistency on it, the subgradient bound off it)
    and has a smaller residual than the iterate: the candidate depends only
    on the support, so it is the point that running on would polish to.
    Without such a certificate FISTA runs until the residual reaches 1e-12,
    stalls for 5000 iterations, or the budget runs out; then the same polish
    runs on the last iterate and the best point is kept. Returns
    (ReferencePoint, phi_star, iterations); the reference dual point is
    y_bar = K x_bar - b and the quality field holds the measured saddle
    residual at probe step 1.
    """
    if not isinstance(problem.fstar, QuadShift) or not isinstance(
        problem.g, (ScaledL1, IndNonneg)
    ):
        raise ValueError("reference solves support LASSO and unswapped NNLS only")
    n = problem.K.cols
    b = problem.fstar.shift
    bcfg = BaselineConfig(fista_beta=0.7)
    state = init_fista(problem, np.zeros(n), bcfg, lam0=1.0)
    best_resid = math.inf
    since_improve = 0
    check_every = 50
    iters_done = 0
    tried = {}
    signs = None
    x_bar = None
    for k in range(max_iter):
        fista_iterate(state, problem, bcfg)
        iters_done = k + 1
        if (k + 1) % check_every == 0:
            resid = saddle_residual(problem, state.x, state.Kx - b)
            if resid <= _RESIDUAL_TARGET:
                break
            prev_signs, signs = signs, _signed_support(state.x, 0.0)
            if signs == prev_signs and signs not in tried:
                x_bar, quality = _polish(problem, state.x, resid, tried)
                if x_bar is not None:
                    break
            if resid < best_resid * (1.0 - 1e-6):
                best_resid = resid
                since_improve = 0
            else:
                since_improve += check_every
                if since_improve >= _STALL_WINDOW:
                    break
    if x_bar is None:
        x_bar = state.x
        quality = saddle_residual(problem, x_bar, state.Kx - b)
        cand, cand_quality = _polish(problem, x_bar, quality, tried)
        if cand is not None:
            x_bar, quality = cand, cand_quality
    Kx_bar = problem.K.apply(x_bar)
    y_bar = Kx_bar - b
    ref = ReferencePoint(x_bar=x_bar, y_bar=y_bar, quality=quality)
    phi_star = primal_objective(problem, x_bar, Kx_bar)
    return ref, phi_star, iters_done
