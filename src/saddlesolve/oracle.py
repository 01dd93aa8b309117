"""Saddle-point residuals and high-accuracy reference solves.

``saddle_residual`` measures how far a point is from a saddle point, and
``solve_reference`` is the long restarted-FISTA-plus-polish solver that
produces the reference point (x_bar, y_bar) and the optimal objective value
behind the gap metrics. None of this belongs on a hot path.
"""

from __future__ import annotations

import math

import numpy as np

from .diagnostics import ReferencePoint
from .problems import primal_objective
from .solvers import BaselineConfig, fista_iterate, init_fista, prox_residual

__all__ = ["saddle_residual", "solve_reference"]


def saddle_residual(problem, x, y, Kx=None):
    """``prox_residual`` at (x, y) with unit prox steps; zero exactly at
    saddle points. ``Kx``, when given, stands in for ``problem.K.apply(x)``,
    so the residual applies only K*."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    Ky = problem.K.adjoint_apply(y)
    if Kx is None:
        Kx = problem.K.apply(x)
    return prox_residual(problem, x, y, Kx, Ky, 1.0, 1.0)


def _polish_lasso(problem, x, threshold):
    """Refine a near-solution by solving the stationarity system on the
    detected support; returns None when the sign pattern, stationarity on
    the support or the off-support KKT check fails."""
    K = problem.K.backing.to_dense()
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
    # stationarity on the support: a singular K_S^T K_S sends the solve to
    # lstsq, whose point need not satisfy the system
    if S.size and np.abs(grad[S] + mu * signs).max() > mu * 1e-9 + 1e-12:
        return None
    off = np.setdiff1d(np.arange(x.size), S)
    if off.size and np.abs(grad[off]).max() > mu * (1.0 + 1e-9) + 1e-12:
        return None
    return cand


def _polish_nnls(problem, x, threshold):
    K = problem.K.backing.to_dense()
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
    polish_support = _polish_lasso if problem.family == "lasso" else _polish_nnls
    b = problem.fstar.shift
    scale = max(1.0, float(np.abs(x).max(initial=0.0)))
    best = None
    for thr in _POLISH_THRESHOLDS:
        thr *= scale
        key = _signed_support(x, thr)
        if key not in tried:
            cand = polish_support(problem, x, thr)
            if cand is None:
                tried[key] = None
            else:
                Kc = problem.K.apply(cand)
                tried[key] = (cand, saddle_residual(problem, cand, Kc - b, Kc))
        if tried[key] is not None and tried[key][1] < quality:
            best, quality = tried[key]
            x = best
    return best, quality


def _restarted_step(state, problem, bcfg):
    """One FISTA step with gradient restart (O'Donoghue and Candes 2015):
    when the step from the momentum point v to the new iterate x+ points
    against the last move x+ - x, that is (v - x+).(x+ - x) > 0, the
    momentum restarts at x+ (t = 1, v = x+). Costs one subtraction and two
    dots, no matrix application."""
    v, x = state.v, state.x
    fista_iterate(state, problem, bcfg)
    step = state.x - x
    if float(v.dot(step)) > float(state.x.dot(step)):
        state.t = 1.0
        state.v = state.x
        state.Kv = state.Kx


def solve_reference(problem, *, max_iter=1_000_000):
    """High-accuracy reference solve for least-squares families.

    Runs FISTA with backtracking and gradient restart (``_restarted_step``)
    and measures the saddle residual every 50 iterations. A check at which
    the iterate's sign pattern is the same as at the previous check, and was
    not polished before, also polishes it via the active-set stationarity
    system over a few support thresholds. The solve stops at the first
    polished candidate that passes the KKT checks of the support (sign
    consistency and stationarity on it, the subgradient bound off it) and
    has a smaller residual than the iterate: the candidate depends only
    on the support, so it is the point that running on would polish to,
    unless the iterate's own residual falls below the candidate's first.
    Without such a certificate FISTA runs until the residual reaches 1e-12,
    stalls for 5000 iterations, or the budget runs out; then the same polish
    runs on the last iterate and the best point is kept. Returns
    (ReferencePoint, phi_star, iterations); the reference dual point is
    y_bar = K x_bar - b and the quality field holds the measured saddle
    residual. A negative ``max_iter`` raises ValueError.
    """
    if problem.family not in ("lasso", "nnls"):
        raise ValueError("reference solves support LASSO and unswapped NNLS only")
    if max_iter < 0:
        raise ValueError("max_iter must be nonnegative")
    n = problem.K.cols
    b = problem.fstar.shift
    bcfg = BaselineConfig(fista_beta=0.7)
    state = init_fista(problem, np.zeros(n), bcfg)
    best_resid = math.inf
    since_improve = 0
    check_every = 50
    iters_done = 0
    tried = {}
    signs = None
    x_bar = None
    for k in range(max_iter):
        _restarted_step(state, problem, bcfg)
        iters_done = k + 1
        if (k + 1) % check_every == 0:
            resid = saddle_residual(problem, state.x, state.Kx - b, state.Kx)
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
        quality = saddle_residual(problem, x_bar, state.Kx - b, state.Kx)
        cand, cand_quality = _polish(problem, x_bar, quality, tried)
        if cand is not None:
            x_bar, quality = cand, cand_quality
    Kx_bar = problem.K.apply(x_bar)
    y_bar = Kx_bar - b
    ref = ReferencePoint(x_bar=x_bar, y_bar=y_bar, quality=quality)
    phi_star = primal_objective(problem, x_bar, Kx_bar)
    return ref, phi_star, iters_done
