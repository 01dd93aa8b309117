"""Runtime-checkable quantities from the convergence analysis.

Gap functions P and D measured against a reference saddle point, the
Lyapunov pair (a_n, b_n) whose decrease certifies convergence, the combined
gap eta_n, empirical burn-in detection, and the weighted ergodic averages
for which the O(1/N) rate statements hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "ReferencePoint",
    "ErgodicAverage",
    "LyapunovSample",
    "IterateWindow",
    "gap_P",
    "gap_D",
    "lyapunov_sample",
    "lyapunov_series",
    "find_burn_in",
    "ergodic_update",
]


@dataclass
class ReferencePoint:
    """A (near-)saddle reference (x_bar, y_bar) with its measured prox
    fixed-point residual. Lyapunov assertions require quality <= 1e-6."""

    x_bar: np.ndarray
    y_bar: np.ndarray
    quality: float
    _images: Optional[tuple] = field(default=None, repr=False)

    def images(self, problem):
        """Cached (K x_bar, K* y_bar) for the attached problem."""
        if self._images is None:
            self._images = (
                problem.K.apply(self.x_bar),
                problem.K.adjoint_apply(self.y_bar),
            )
        return self._images


def gap_P(problem, ref, x):
    """Primal gap P(x) = g(x) - g(x_bar) + <K* y_bar, x - x_bar>.

    Nonnegative for every x when the reference is a true saddle point.
    Returns +inf when an indicator g is violated at x.
    """
    gx = problem.g.value(x)
    if math.isinf(gx):
        return float("inf")
    _, kty = ref.images(problem)
    x = np.asarray(x, dtype=float)
    return gx - problem.g.value(ref.x_bar) + float(kty @ (x - ref.x_bar))


def gap_D(problem, ref, y):
    """Dual gap D(y) = fstar(y) - fstar(y_bar) - <K x_bar, y - y_bar>."""
    fy = problem.fstar.value(y)
    if math.isinf(fy):
        return float("inf")
    kx, _ = ref.images(problem)
    y = np.asarray(y, dtype=float)
    return fy - problem.fstar.value(ref.y_bar) - float(kx @ (y - ref.y_bar))


@dataclass
class LyapunovSample:
    n: int
    a_n: float
    b_n: float
    eta_n: float


@dataclass
class IterateWindow:
    """Three consecutive primal iterates, two dual iterates, and the three
    step sizes around index n, as produced by the solver loop."""

    n: int
    x_m1: np.ndarray  # x_{n-1}
    x_0: np.ndarray  # x_n
    x_p1: np.ndarray  # x_{n+1}
    y_m1: np.ndarray  # y_{n-1}
    y_0: np.ndarray  # y_n
    lam_m1: float
    lam_0: float
    lam_p1: float


def lyapunov_sample(window, ref, problem, cfg):
    """Evaluate (a_n, b_n, eta_n) on one iterate window with eps = 1/sqrt(delta).

    a_n = ||x_n - x_bar||^2 + (1/beta)||y_{n-1} - y_bar||^2
          + 2 lam_{n-1} (1 + delta) P(x_{n-1}),
    b_n collects the four squared-difference terms whose nonnegativity kicks
    in after burn-in, and eta_n = (1+delta) P(x_n) - delta P(x_{n-1}) + D(y_n).
    """
    if window is None:
        raise ValueError("insufficient history: need three iterates around n")
    if ref.quality > 1e-6:
        raise ValueError(
            f"reference quality {ref.quality:.3e} too poor for Lyapunov sampling (need <= 1e-6)"
        )
    d = cfg.delta
    eps = 1.0 / math.sqrt(d)
    beta = cfg.beta0
    P_m1 = gap_P(problem, ref, window.x_m1)
    P_0 = gap_P(problem, ref, window.x_0)
    D_0 = gap_D(problem, ref, window.y_0)
    dx_bar = window.x_0 - ref.x_bar
    dy_bar = window.y_m1 - ref.y_bar
    a_n = (
        float(dx_bar @ dx_bar)
        + float(dy_bar @ dy_bar) / beta
        + 2.0 * window.lam_m1 * (1.0 + d) * P_m1
    )
    z_0 = window.x_0 + d * (window.x_0 - window.x_m1)
    xz = window.x_p1 - z_0
    xx = window.x_p1 - window.x_0
    xm = window.x_0 - window.x_m1
    yy = window.y_0 - window.y_m1
    r = window.lam_0 / (d * window.lam_m1)
    b_n = (
        (r - cfg.alpha * eps * window.lam_0 / window.lam_p1) * float(xz @ xz)
        + (1.0 - r) * float(xx @ xx)
        + (d * window.lam_0 / window.lam_m1) * float(xm @ xm)
        + (1.0 - cfg.alpha * window.lam_0 / (eps * window.lam_p1)) * float(yy @ yy) / beta
    )
    eta_n = (1.0 + d) * P_0 - d * P_m1 + D_0
    return LyapunovSample(n=window.n, a_n=a_n, b_n=b_n, eta_n=eta_n)


def lyapunov_series(xs, ys, lams, ref, problem, cfg, every=10):
    """Samples over a recorded run history.

    ``xs``/``ys`` hold x_0..x_T and y_0..y_T; ``lams`` holds lambda_0..
    lambda_{T+1}. Valid sample indices are 1 <= n <= T-1. The default stride
    of 10 bounds overhead; pass every=1 when adjacent samples are needed
    (e.g. checking a_{n+1} <= a_n - b_n).
    """
    T = len(xs) - 1
    out = []
    for n in range(1, T, every):
        window = IterateWindow(
            n=n,
            x_m1=xs[n - 1],
            x_0=xs[n],
            x_p1=xs[n + 1],
            y_m1=ys[n - 1],
            y_0=ys[n],
            lam_m1=lams[n - 1],
            lam_0=lams[n],
            lam_p1=lams[n + 1],
        )
        out.append(lyapunov_sample(window, ref, problem, cfg))
    return out


def find_burn_in(lams, cfg, consecutive=50):
    """First index after which the three step-ratio expressions from the
    analysis stay positive for ``consecutive`` samples; None if never.

    The expressions (with eps = 1/sqrt(delta)):
    lam_n/(delta lam_{n-1}) - alpha eps lam_n / lam_{n+1} > 0,
    1 - alpha lam_n / (eps lam_{n+1}) > 0,
    1 - 1/delta + delta lam_{n+1} / lam_n > 0.
    """
    d = cfg.delta
    eps = 1.0 / math.sqrt(d)
    run_start = None
    count = 0
    for n in range(1, len(lams) - 1):
        e1 = lams[n] / (d * lams[n - 1]) - cfg.alpha * eps * lams[n] / lams[n + 1]
        e2 = 1.0 - cfg.alpha * lams[n] / (eps * lams[n + 1])
        e3 = 1.0 - 1.0 / d + d * lams[n + 1] / lams[n]
        if e1 > 0 and e2 > 0 and e3 > 0:
            if run_start is None:
                run_start = n
            count += 1
            if count >= consecutive:
                return run_start
        else:
            run_start = None
            count = 0
    return None


class ErgodicAverage:
    """Weighted running average (X_j, Y_j) of extrapolated primal points and
    dual iterates.

    The primal average carries a head term delta*w_1*x_0 so that X_j is a
    convex combination of x_0 and the z_l. ``run`` feeds weights
    lambda_l with head delta for the base solver, beta_l*lambda_l with head
    delta for the accelerated one, 1 with head 1 for the fixed-step PDA and
    tau_l with head 1 for the linesearch PDA.
    """

    def __init__(self, head_point, delta):
        self.head_point = np.asarray(head_point, dtype=float).copy()
        self.delta = float(delta)
        self.head_weight = 0.0
        self.s_j = 0.0
        self.x_num = np.zeros_like(self.head_point)
        self.y_num = None
        self.updates = 0

    def update(self, weight, z, y):
        if not weight > 0:
            raise ValueError(f"ergodic weight must be positive; got {weight}")
        z = np.asarray(z, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.updates == 0:
            self.head_weight = self.delta * weight
            self.y_num = np.zeros_like(y)
        self.s_j += weight
        self.x_num += weight * z
        self.y_num += weight * y
        self.updates += 1
        return self

    @property
    def X(self):
        if self.updates == 0:
            return self.head_point.copy()
        return (self.head_weight * self.head_point + self.x_num) / (self.head_weight + self.s_j)

    @property
    def Y(self):
        if self.updates == 0:
            raise ValueError("no dual updates accumulated yet")
        return self.y_num / self.s_j


def ergodic_update(avg, weight, z, y):
    """Accumulate one weighted (z, y) pair into the running average."""
    return avg.update(weight, z, y)
