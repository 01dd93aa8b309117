"""Primal-dual solvers with predicted/corrected step sizes, plus baselines.

The main algorithm alternates a primal prox step with step size lambda_n, an
extrapolation z = x + delta*(x_new - x), and a dual prox step with step size
beta*lambda_{n+1}; the next step size is predicted from the local inverse
Lipschitz ratio alpha*||dy|| / (sqrt(beta)*||K* dy||), so no iteration needs
the operator norm; only the default start step (``default_lambda0``) reads
it, once per matrix. For delta < 1 a correction loop shrinks lambda_n until
the primal displacement satisfies
||x_{n+1} - x_n|| <= min(nu*zeta_0, mu*zeta_n), with zeta_n the larger of
the last primal and dual displacements, a condition weak enough that it
fires only a handful of times per run. The accelerated variant grows beta
geometrically using the strong-convexity constant gamma of g.

Baselines: fixed-step PDA, the linesearch PDA, the proximal gradient method,
and FISTA with backtracking.

``SOLVERS`` names the six run kinds, pdac, apdac, pda, pdal, pgm and fista,
once: ``default_config``, ``run`` and the CLI reach every kind through it.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from functools import partial
from operator import attrgetter

import numpy as np

from .diagnostics import ErgodicAverage
from .linop import vector_norm
from .problems import FeasibilityError, pd_gap_game
from .prox import QuadShift

__all__ = [
    "DELTA_LOWER",
    "SolverConfig",
    "BaselineConfig",
    "SolverKind",
    "SOLVERS",
    "SolverState",
    "PdaState",
    "PdalState",
    "PgmState",
    "FistaState",
    "ConfigError",
    "LinesearchStallError",
    "DivergenceError",
    "IterationTrace",
    "TRACE_HEADER",
    "default_lambda0",
    "default_config",
    "init_state",
    "prox_residual",
    "phi_schedule",
    "predict_step",
    "correction_pass",
    "pdac_iterate",
    "apdac_iterate",
    "init_pda",
    "pda_iterate",
    "init_pdal",
    "pdal_iterate",
    "init_pgm",
    "pgm_iterate",
    "init_fista",
    "fista_iterate",
    "run",
]

DELTA_LOWER = (math.sqrt(5.0) - 1.0) / 2.0

_MAX_SHRINKS = 200


class ConfigError(ValueError):
    """A solver parameter violates its admissible range."""


class LinesearchStallError(RuntimeError):
    """A backtracking loop exceeded the shrink cap of 200 shrinks.

    The correction shrinks lambda_n, and its primal candidate tends to x_n
    as lambda_n goes to 0, so it ends whenever its bound min(nu zeta_0,
    mu zeta_n) is positive; it hits the cap only when that bound is tiny
    next to the first displacement. zeta_n is 0 only when neither x nor y
    moved, that is at a fixed point, so a step that leaves x alone does not
    stop x from moving later. ``trace`` may carry the partial run trace."""

    trace = None


class DivergenceError(RuntimeError):
    """``run`` found a non-finite iterate or image, or a matrix game's
    non-finite ergodic average, or a pdac or apdac iteration predicted a
    next step that is not positive (NaN, or 0 where ||K* dy|| overflowed).
    ``iteration`` records where; ``trace`` may carry the partial run
    trace."""

    trace = None

    def __init__(self, message, iteration):
        super().__init__(message)
        self.iteration = iteration


@dataclass
class SolverConfig:
    """Parameters for the corrected primal-dual solver and its acceleration.

    Admissible ranges (checked by ``validate``): finite delta >
    (sqrt(5)-1)/2, 0 < alpha < 1/sqrt(delta), 1 < nu_corr <= mu_corr < inf,
    0 < rho < 1, lambda0 and beta0 positive and finite, gamma finite and
    nonnegative, lambda_cap positive, where lambda_cap = inf means no cap,
    and n_hat <= n_zero, neither of them NaN. The accelerated variant
    additionally needs delta >= 1 and the monotone step rule. ``gamma`` is read only by the accelerated variant. ``validate``
    takes the kind the config is for, ``"pdac"`` or ``"apdac"``; any other
    kind raises ConfigError.
    """

    delta: float = 0.62
    alpha: float = 1.27
    rho: float = 0.7
    mu_corr: float = 10.0
    nu_corr: float = 1.5
    beta0: float = 1.0
    gamma: float = 0.0
    lambda0: float = 1.0
    lambda_cap: float = 1e6
    n_hat: int = 5000
    n_zero: int = 10000
    nonmonotone: bool = False

    def validate(self, kind="pdac"):
        if kind not in ("pdac", "apdac"):
            raise ConfigError(f"SolverConfig configures pdac and apdac, not {kind!r}")
        if not (self.delta > DELTA_LOWER and math.isfinite(self.delta)):
            raise ConfigError(
                f"delta must be finite and exceed (sqrt(5)-1)/2 = {DELTA_LOWER:.12f}; "
                f"got {self.delta}"
            )
        if kind == "apdac" and not self.delta >= 1.0:
            raise ConfigError(f"accelerated solver needs delta >= 1; got {self.delta}")
        if kind == "apdac" and self.nonmonotone:
            raise ConfigError("accelerated solver needs the monotone step rule (nonmonotone=False)")
        alpha_bound = 1.0 / math.sqrt(self.delta)
        if not 0.0 < self.alpha < alpha_bound:
            raise ConfigError(
                f"alpha must lie in ]0, 1/sqrt(delta)[ = ]0, {alpha_bound:.12f}[; got {self.alpha}"
            )
        if not (1.0 < self.nu_corr <= self.mu_corr and math.isfinite(self.mu_corr)):
            raise ConfigError(
                "correction bounds need 1 < nu <= mu < inf; "
                f"got nu={self.nu_corr}, mu={self.mu_corr}"
            )
        if not 0.0 < self.rho < 1.0:
            raise ConfigError(f"backtrack factor rho must lie in ]0, 1[; got {self.rho}")
        if not (self.beta0 > 0 and math.isfinite(self.beta0)):
            raise ConfigError(f"beta must be positive and finite; got {self.beta0}")
        if not (self.lambda0 > 0 and math.isfinite(self.lambda0)):
            raise ConfigError(f"lambda0 must be positive and finite; got {self.lambda0}")
        if not self.lambda_cap > 0:
            raise ConfigError(f"lambda_cap must be positive; got {self.lambda_cap}")
        if not (self.gamma >= 0 and math.isfinite(self.gamma)):
            raise ConfigError(f"gamma must be finite and nonnegative; got {self.gamma}")
        for name in ("n_hat", "n_zero"):
            if math.isnan(getattr(self, name)):
                raise ConfigError(f"{name} must be a number; got {getattr(self, name)}")
        if not self.n_hat <= self.n_zero:
            raise ConfigError(
                f"schedule needs n_hat <= n_zero; got n_hat={self.n_hat}, n_zero={self.n_zero}"
            )
        return self


@dataclass
class BaselineConfig:
    """Parameters for the baseline solvers. ``beta`` is the primal-dual step
    ratio used by the linesearch PDA and ``theta`` its first step-growth
    ratio; ``step`` the fixed gradient step. ``validate`` requires tau,
    sigma, step and beta positive and finite, alpha_ls, mu_ls and
    fista_beta in ]0, 1[, and theta finite and nonnegative."""

    tau: float = 1.0
    sigma: float = 1.0
    theta: float = 1.0
    alpha_ls: float = 0.99
    mu_ls: float = 0.7
    fista_beta: float = 0.7
    step: float = 1.0
    beta: float = 1.0

    def validate(self):
        for name in ("tau", "sigma", "mu_ls", "fista_beta", "step", "beta"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ConfigError(f"{name} must be positive and finite; got {value}")
        if not (math.isfinite(self.theta) and self.theta >= 0.0):
            raise ConfigError(f"theta must be finite and nonnegative; got {self.theta}")
        if not 0.0 < self.alpha_ls < 1.0:
            raise ConfigError(f"alpha_ls must lie in ]0, 1[; got {self.alpha_ls}")
        if not self.mu_ls < 1.0:
            raise ConfigError(f"mu_ls must lie in ]0, 1[; got {self.mu_ls}")
        if not self.fista_beta < 1.0:
            raise ConfigError(f"fista_beta must lie in ]0, 1[; got {self.fista_beta}")
        return self


@dataclass
class SolverState:
    """Evolving iterates of the corrected solver and its accelerated variant.

    Every state class names the same things alike: ``x``/``Kx`` are the
    primal iterate and its image K x, ``y``/``Ky`` the dual iterate and its
    image K*y where there is a dual, and ``lam``, ``beta`` and
    ``corrections`` are exactly the trace's ``lambda``, ``beta`` and
    ``corrections`` columns. Here ``x_prev``/``x`` hold x_{n-1} and x_n (the
    driver rebuilds the extrapolated point z_n from them); ``lam``/
    ``lam_next`` hold lambda_n and lambda_{n+1}; ``beta`` is beta_n,
    constant unless the run is accelerated; ``zeta0`` is zeta_0 and
    ``zeta_cur`` is zeta_n = max(||x_n - x_{n-1}||, ||y_n - y_{n-1}||), the
    two quantities zeta_0 measures as prox residuals at the start.
    ``zeta_cur`` belongs to the correction and is formed only where it runs,
    for delta < 1; at delta >= 1 it keeps zeta_0. ``corrections`` counts the
    correction loop's shrinks. The cached images make each outer iteration
    spend exactly one forward and one adjoint application and the objective
    none. ``scratch`` holds two vectors, of
    x's and of y's length, that each iteration forms its temporaries in;
    they never leave the iteration.
    """

    x_prev: np.ndarray
    x: np.ndarray
    y: np.ndarray
    lam: float
    lam_next: float
    beta: float
    zeta0: float
    zeta_cur: float
    iter: int
    corrections: int
    Ky: np.ndarray
    Kx: np.ndarray
    scratch: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = (np.empty(self.x.shape), np.empty(self.y.shape))


@dataclass
class PdaState:
    """Fixed-step PDA state; ``lam`` = tau and ``beta`` = sigma / tau are
    set once from the config, and ``corrections`` stays 0."""

    x: np.ndarray
    y: np.ndarray
    Kx: np.ndarray
    Kz: np.ndarray
    Ky: np.ndarray
    lam: float
    beta: float
    corrections: int = 0


@dataclass
class PdalState:
    """Linesearch PDA state; ``lam`` is the accepted primal step tau,
    ``beta`` the config's step ratio and ``corrections`` the line-search
    shrinks. When f* is a ``QuadShift`` with shift b, ``grad`` caches
    G_n = K*(K x_n - b), the image the line search builds K*y from, and
    ``Ky`` is carried by that recombination rather than applied afresh;
    for any other f* ``grad`` is None."""

    x: np.ndarray
    y: np.ndarray
    lam: float
    beta: float
    theta: float
    Kx: np.ndarray
    Ky: np.ndarray
    grad: np.ndarray | None = None
    corrections: int = 0


@dataclass
class PgmState:
    """Proximal gradient state; ``lam`` is the fixed step, ``beta`` 0 and
    ``corrections`` 0."""

    x: np.ndarray
    Kx: np.ndarray
    lam: float
    beta: float = 0.0
    corrections: int = 0


@dataclass
class FistaState:
    """FISTA state; ``lam`` is the backtracked step, ``beta`` 0 and
    ``corrections`` the backtracking shrinks."""

    x: np.ndarray
    v: np.ndarray
    t: float
    lam: float
    Kx: np.ndarray
    Kv: np.ndarray
    beta: float = 0.0
    corrections: int = 0


def default_lambda0(problem, beta):
    """The spectral start step 0.99 / (sqrt(beta) * L), with L the spectral
    norm of K (``operator_norm()``, computed once per matrix and cached), and
    1 for a zero K.

    The first dual step is then sigma = beta * lambda0, so tau sigma L^2 =
    0.99^2 < 1: the start lies inside the fixed-step bound of Chambolle and
    Pock (2011). 0.99 is the smallest alpha of any default config, so the
    start also meets the step rule's own test, lambda0 sqrt(beta) ||K* dy||
    <= alpha ||dy|| for every dy. In monotone mode lambda_{n+1} sqrt(beta_n)
    never rises above its start, so the start bounds every step a monotone
    or accelerated run takes. A ``beta`` that is not positive and finite
    raises ConfigError, and any error ``operator_norm()`` raises on a
    nonzero K propagates.
    """
    if not (beta > 0 and math.isfinite(beta)):
        raise ConfigError(f"beta must be positive and finite; got {beta}")
    try:
        L = problem.K.operator_norm()
    except ValueError:
        if problem.K.frobenius_norm() > 0.0:
            raise
        return 1.0  # a zero K bounds no step
    return 0.99 / (math.sqrt(beta) * L)


def default_config(problem, solver, **overrides):
    """The configuration of a ``solver`` run on ``problem`` at the benchmark
    settings of the problem's family, with the non-None ``overrides``
    applied; returns (config, unread).

    The ``SOLVERS`` record of ``solver`` builds the config and names the
    overrides it reads, so ``unread`` is the set of given override names the
    run never reads, any name it does not know included; a ``solver`` that
    is not in ``SOLVERS`` raises ConfigError. The family is
    ``problem.family``: "game" and "lasso" take their own settings, and
    every other problem, swapped NNLS included, takes those of NNLS.
    Overrides take the CLI's flag names, which are the ``SolverConfig``
    field names except that ``beta`` sets ``beta0`` (and pdal's ``beta``).

    pdac and apdac get a ``SolverConfig``. Both take beta0 = 1/400 on LASSO
    and 1 otherwise, lambda0 = ``default_lambda0(problem, beta0)``, the
    spectral start 0.99 / (sqrt(beta0) L), gamma = ``problem.gamma``, n_hat
    = 40000 on games and 5000 otherwise, and n_zero = 2 n_hat; rho, mu_corr,
    nu_corr and lambda_cap keep their ``SolverConfig`` defaults. The config
    is validated for its kind before L is asked for, so one that ``validate``
    rejects raises ConfigError here and spends no product, and a given
    ``lambda0`` spends none either: L is computed only for the start. pdac
    runs nonmonotone with delta = 1 on games and 0.62 otherwise, and alpha =
    1.27 where that is admissible (delta < 1/1.27^2) and 0.99 elsewhere;
    apdac runs monotone with delta = 1 and alpha = 0.99. Both read delta,
    alpha, beta, lambda0 and nonmonotone.
    Only apdac reads gamma. rho, mu_corr and nu_corr drive the correction,
    which runs only for delta < 1, and n_hat, n_zero and lambda_cap shape the
    step growth, which applies only in nonmonotone mode.

    The baselines get a ``BaselineConfig``: pda steps tau = 20/L and sigma =
    1/(20 L) on LASSO and tau = sigma = 1/L otherwise, with L the operator
    norm; pdal starts at tau = sqrt(min(m, n)) / ||K||_F with the beta above;
    pgm steps 1/L^2; fista backtracks by 0.7. pdal reads beta, and pda, pgm
    and fista read no override. A zero K raises ValueError for pda, pdal and
    pgm, and a pgm step 1/L^2 that is not positive and finite raises
    ConfigError.
    """
    kind = SOLVERS[solver]
    given = {name: value for name, value in overrides.items() if value is not None}
    cfg = kind.config(problem, given)
    return cfg, set(given) - kind.reads(cfg)


def _family_beta(problem, given):
    """The ``beta`` override, else 1/400 on LASSO and 1 otherwise."""
    return given.get("beta", 1.0 / 400.0 if problem.family == "lasso" else 1.0)


def _pd_config(problem, given, accelerated=False):
    game = problem.family == "game"
    beta = _family_beta(problem, given)
    delta = given.get("delta", 1.0 if game or accelerated else 0.62)
    # the headline alpha = 1.27 is admissible only for delta < 1/1.27^2; a
    # delta that is not positive is left for validate to name
    headline = not accelerated and delta > 0 and 1.27 < 1.0 / math.sqrt(delta)
    n_hat = given.get("n_hat", 40000 if game else 5000)
    cfg = SolverConfig(delta=delta, alpha=1.27 if headline else 0.99, beta0=beta,
                       gamma=problem.gamma, n_hat=n_hat, n_zero=2 * n_hat,
                       nonmonotone=not accelerated)
    names = {f.name for f in fields(SolverConfig)}
    cfg = replace(cfg, **{name: value for name, value in given.items() if name in names})
    cfg.validate("apdac" if accelerated else "pdac")
    if "lambda0" not in given:
        cfg.lambda0 = default_lambda0(problem, beta)
    return cfg


def _pd_reads(cfg):
    """The overrides a pdac run with ``cfg`` reads (see ``default_config``)."""
    return ({"delta", "alpha", "beta", "lambda0", "nonmonotone"}
            | ({"rho", "mu_corr", "nu_corr"} if cfg.delta < 1.0 else set())
            | ({"n_hat", "n_zero", "lambda_cap"} if cfg.nonmonotone else set()))


def _pda_config(problem, given):
    L = problem.K.operator_norm()
    scale = 20.0 if problem.family == "lasso" else 1.0
    return BaselineConfig(tau=scale / L, sigma=1.0 / (scale * L))


def _pdal_config(problem, given):
    fro = problem.K.frobenius_norm()
    if fro == 0.0:
        raise ValueError("operator_norm: zero operator")
    return BaselineConfig(tau=math.sqrt(min(problem.K.shape)) / fro,
                          beta=_family_beta(problem, given))


def _pgm_config(problem, given):
    L = problem.K.operator_norm()
    # 1/L^2 leaves the float range when L*L under- or overflows
    return BaselineConfig(step=1.0 / (L * L) if L * L > 0.0 else math.inf).validate()


def _checked_vector(v, length, name):
    """The start vector ``v`` as a float array; a length other than
    ``length``, or a non-finite entry, raises ValueError."""
    v = np.asarray(v, dtype=float)
    if v.shape != (length,):
        raise ValueError(f"{name} must have length {length}, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"the start {name} must be finite")
    return v


def _checked_start(problem, x0, y0):
    """(x0, y0) checked against the operator's column (x0) and row (y0)
    counts by ``_checked_vector``."""
    return (_checked_vector(x0, problem.K.cols, "x0"),
            _checked_vector(y0, problem.K.rows, "y0"))


def prox_residual(problem, x, y, Kx, Ky, tau, sigma):
    """The larger of the two prox fixed-point residuals at (x, y) with steps
    ``tau`` and ``sigma``, given the images ``Kx`` = K x and ``Ky`` = K* y:
    max(||x - prox_{tau g}(x - tau K*y)||, ||y - prox_{sigma f*}(y + sigma K x)||).
    It vanishes exactly at saddle points, and applies no matrix."""
    rx = x - problem.g.prox(x - tau * Ky, tau)
    ry = y - problem.fstar.prox(y + sigma * Kx, sigma)
    return max(vector_norm(rx), vector_norm(ry))


def init_state(problem, x0, y0, cfg, kind="pdac"):
    """Validate the configuration and build the initial solver state.

    zeta_0 is ``prox_residual`` at (x0, y0) with the first steps lambda0
    and beta0 lambda0; it vanishes exactly at saddle points. A start of the
    wrong length or with a non-finite entry raises ValueError.
    """
    cfg.validate(kind)
    x0, y0 = _checked_start(problem, x0, y0)
    lam = cfg.lambda0
    beta = cfg.beta0
    Ky0 = problem.K.adjoint_apply(y0)
    Kx0 = problem.K.apply(x0)
    zeta0 = prox_residual(problem, x0, y0, Kx0, Ky0, lam, beta * lam)
    return SolverState(
        x_prev=x0.copy(),
        x=x0.copy(),
        y=y0.copy(),
        lam=lam,
        lam_next=lam,
        beta=beta,
        zeta0=zeta0,
        zeta_cur=zeta0,
        iter=0,
        corrections=0,
        Ky=Ky0,
        Kx=Kx0,
    )


def phi_schedule(n, cfg):
    """Step-growth multiplier phi_n in [1, (1+delta)/delta].

    Flat at the ceiling through n_hat, then decays as
    (1 + delta + n - n_hat) / (delta + n - n_hat) until n_zero, then 1.
    Monotone mode pins phi_n = 1.
    """
    if not cfg.nonmonotone:
        return 1.0
    d = cfg.delta
    if n <= cfg.n_hat:
        return (1.0 + d) / d
    if n <= cfg.n_zero:
        k = n - cfg.n_hat
        return (1.0 + d + k) / (d + k)
    return 1.0


def predict_step(dy_norm, kdy_norm, lam_next, phi, cfg, beta):
    """Next step size from the local inverse Lipschitz ratio.

    Monotone mode: min(alpha*||dy|| / (sqrt(beta)*||K* dy||), lam_next),
    with ``beta`` the step ratio of the dual step just taken.
    Nonmonotone mode allows growth up to phi*lam_next, capped at lambda_cap.
    A zero adjoint difference carries lam_next forward (times phi when
    growth is allowed).
    """
    if kdy_norm == 0.0:
        if cfg.nonmonotone:
            return min(lam_next * phi, cfg.lambda_cap)
        return lam_next
    ratio = cfg.alpha * dy_norm / (math.sqrt(beta) * kdy_norm)
    if cfg.nonmonotone:
        return min(ratio, phi * lam_next, cfg.lambda_cap)
    return min(ratio, lam_next)


def correction_pass(state, problem, cfg, x_candidate, zeta_candidate, phi_n):
    """Shrink lambda_n until ||x_{n+1} - x_n|| <= min(nu*zeta_0, mu*zeta_n).

    zeta_n = max(||x_n - x_{n-1}||, ||y_n - y_{n-1}||) measures the last
    step in the same two quantities as zeta_0, the larger of the primal and
    dual prox residuals at the start. It vanishes only when neither iterate
    moved, so the bound is positive away from a fixed point: a primal
    displacement alone would be 0 after any step that leaves x in place,
    and the loop would then reject every later move of x. nu caps the
    primal displacement against its starting value while mu >= nu allows
    generous growth relative to the previous step, so the loop fires
    rarely. Each shrink multiplies lambda_n by rho, caps lambda_{n+1} at
    min(phi_n*lambda_n, lambda_{n+1}) (phi_n = 1 in monotone mode), and
    recomputes the primal candidate from the cached adjoint image - no new
    matrix applications. Returns the accepted candidate and its
    displacement; mutates the step sizes and the backtrack counter in
    place.
    """
    bound = min(cfg.nu_corr * state.zeta0, cfg.mu_corr * state.zeta_cur)
    shrinks = 0
    while zeta_candidate > bound:
        if shrinks >= _MAX_SHRINKS:
            raise LinesearchStallError(
                f"correction exceeded {_MAX_SHRINKS} shrinks at iteration {state.iter}; "
                f"displacement {zeta_candidate:.3e} vs bound {bound:.3e}"
            )
        state.lam *= cfg.rho
        state.lam_next = min(phi_n * state.lam, state.lam_next)
        x_candidate = problem.g.prox(state.x - state.lam * state.Ky, state.lam)
        zeta_candidate = vector_norm(x_candidate - state.x)
        shrinks += 1
    state.corrections += shrinks
    return x_candidate, zeta_candidate


def _pd_iterate(state, problem, cfg, accelerated):
    """One outer iteration of the corrected primal-dual solver.

    Primal prox with lambda_n, correction when delta < 1, extrapolation,
    dual prox with beta_{n+1}*lambda_{n+1}, then step prediction for
    lambda_{n+2} capped at sqrt(beta_n / beta_{n+1})*lambda_{n+1}. beta
    grows as beta_{n+1} = beta_n*(1 + gamma*lambda_{n+1}) with gamma =
    cfg.gamma when accelerated and 0 otherwise; at gamma = 0 the growth
    factor and the cap ratio are exactly 1.0, so the accelerated variant
    reduces bitwise to the monotone base solver. The extrapolated image is
    recombined, K z_{n+1} = K x_{n+1} + delta*(K x_{n+1} - K x_n), so K is
    applied to x_{n+1} only.

    The prox arguments x_n - lambda_n K*y_n and y_n + s K z_{n+1}, K z_{n+1}
    and the differences whose norms are taken are formed in place in
    ``state.scratch``; IEEE + and * commute, so they keep the bits of the
    expressions above, and at delta = 1 the product delta*(K x_{n+1} - K x_n)
    is skipped. A predicted lambda_{n+2} that is not positive (NaN, or 0
    where ||K* dy|| overflowed) raises DivergenceError.
    """
    n = state.iter
    K = problem.K
    gamma = cfg.gamma if accelerated else 0.0
    phi_n = phi_schedule(n, cfg)
    xs, ys = state.scratch
    np.multiply(state.Ky, state.lam, out=xs)
    np.subtract(state.x, xs, out=xs)
    x_next = problem.g.prox(xs, state.lam)
    correcting = cfg.delta < 1.0  # zeta is read by the correction alone
    if correcting:
        zeta_next = vector_norm(np.subtract(x_next, state.x, out=xs))
        x_next, zeta_next = correction_pass(state, problem, cfg, x_next, zeta_next, phi_n)
    Kx_next = K.apply(x_next)
    np.subtract(Kx_next, state.Kx, out=ys)
    if cfg.delta != 1.0:  # 1.0 * d is d bit for bit
        np.multiply(ys, cfg.delta, out=ys)
    np.add(ys, Kx_next, out=ys)  # K z_{n+1}
    beta_next = state.beta * (1.0 + gamma * state.lam_next)
    s = beta_next * state.lam_next
    np.multiply(ys, s, out=ys)
    np.add(ys, state.y, out=ys)
    y_next = problem.fstar.prox(ys, s)
    Ky_next = K.adjoint_apply(y_next)
    dy = vector_norm(np.subtract(y_next, state.y, out=ys))
    kdy = vector_norm(np.subtract(Ky_next, state.Ky, out=xs))
    cap = math.sqrt(state.beta / beta_next) * state.lam_next
    lam_after = predict_step(dy, kdy, cap, phi_n, cfg, beta_next)
    if not lam_after > 0.0:
        raise DivergenceError(
            f"non-finite or zero step {lam_after!r} predicted at iteration {n + 1}", n + 1
        )

    state.x_prev = state.x
    state.x = x_next
    state.Kx = Kx_next
    state.y = y_next
    state.Ky = Ky_next
    state.lam = state.lam_next
    state.lam_next = lam_after
    state.beta = beta_next
    if correcting:
        state.zeta_cur = max(zeta_next, dy)
    state.iter = n + 1
    return state


def pdac_iterate(state, problem, cfg):
    """One iteration of the corrected solver; beta stays at beta0."""
    return _pd_iterate(state, problem, cfg, accelerated=False)


def apdac_iterate(state, problem, cfg):
    """One iteration of the accelerated variant (delta >= 1, g strongly convex)."""
    return _pd_iterate(state, problem, cfg, accelerated=True)


def init_pda(problem, x0, y0, bcfg):
    """Check the step product tau*sigma*L^2 (L the operator norm) and build state."""
    bcfg.validate()
    x0, y0 = _checked_start(problem, x0, y0)
    L = problem.K.operator_norm()
    product = (bcfg.tau * L) * (bcfg.sigma * L)  # tau*sigma*L*L would under- or overflow
    if product > 1.0 + 1e-12:
        raise ConfigError(f"fixed-step PDA needs tau*sigma*L^2 <= 1; got {product:.6f}")
    Kx0 = problem.K.apply(x0)
    return PdaState(
        x=x0.copy(), y=y0.copy(), Kx=Kx0, Kz=Kx0, Ky=problem.K.adjoint_apply(y0),
        lam=bcfg.tau, beta=bcfg.sigma / bcfg.tau,
    )


def pda_iterate(state, problem, bcfg):
    """Fixed-step primal-dual iteration (dual ascent first, extrapolation 2x - x).

    The images K x, K z = 2 K x_{n+1} - K x_n and K* y are cached, so each
    iteration applies K and K* once.
    """
    K = problem.K
    y_next = problem.fstar.prox(state.y + bcfg.sigma * state.Kz, bcfg.sigma)
    state.Ky = K.adjoint_apply(y_next)
    x_next = problem.g.prox(state.x - bcfg.tau * state.Ky, bcfg.tau)
    Kx_next = K.apply(x_next)
    state.Kz = 2.0 * Kx_next - state.Kx
    state.x = x_next
    state.Kx = Kx_next
    state.y = y_next
    return state


def init_pdal(problem, x0, y0, bcfg):
    """Linesearch PDA state at (x0, y0); with a ``QuadShift`` f* it also
    holds G_0 = K*(K x0 - b)."""
    bcfg.validate()
    x0, y0 = _checked_start(problem, x0, y0)
    Kx0 = problem.K.apply(x0)
    fstar = problem.fstar
    return PdalState(
        x=x0.copy(),
        y=y0.copy(),
        lam=bcfg.tau,
        beta=bcfg.beta,
        theta=bcfg.theta,
        Kx=Kx0,
        Ky=problem.K.adjoint_apply(y0),
        grad=problem.K.adjoint_apply(Kx0 - fstar.shift) if isinstance(fstar, QuadShift) else None,
    )


def pdal_iterate(state, problem, bcfg):
    """One iteration of the linesearch primal-dual baseline.

    The trial step grows by sqrt(1 + theta) and shrinks by mu_ls until
    sqrt(beta)*tau*||K*(y+ - y)|| <= alpha_ls*||y+ - y||. The extrapolated
    image K z is recombined from cached K x values. When f* is a
    ``QuadShift`` with shift b, y+ = (y + s(K z - b))/(1 + s) is affine in
    the trial, so K*y+ = (K*y + s((1 + theta) G_{n+1} - theta G_n))/(1 + s)
    with G = K*(K x - b): the iteration applies K and K* once each, to get
    K x_{n+1} and G_{n+1}, and its trials apply nothing. The carried K*y
    contracts by 1/(1 + s) per iteration, so its roundoff stays bounded.
    Any other f* applies K* once per trial, and K once per iteration.
    """
    K = problem.K
    x_next = problem.g.prox(state.x - state.lam * state.Ky, state.lam)
    Kx_next = K.apply(x_next)
    grad_next = None if state.grad is None else K.adjoint_apply(Kx_next - problem.fstar.shift)
    trial = state.lam * math.sqrt(1.0 + state.theta)
    sqrt_beta = math.sqrt(bcfg.beta)
    shrinks = 0
    while True:
        theta = trial / state.lam
        Kz = (1.0 + theta) * Kx_next - theta * state.Kx
        s = bcfg.beta * trial
        y_next = problem.fstar.prox(state.y + s * Kz, s)
        if grad_next is None:
            Ky_next = K.adjoint_apply(y_next)
        else:
            Ky_next = (state.Ky + s * ((1.0 + theta) * grad_next - theta * state.grad)) / (1.0 + s)
        lhs = sqrt_beta * trial * vector_norm(Ky_next - state.Ky)
        rhs = bcfg.alpha_ls * vector_norm(y_next - state.y)
        if lhs <= rhs:
            break
        if shrinks >= _MAX_SHRINKS:
            raise LinesearchStallError(
                f"linesearch exceeded {_MAX_SHRINKS} shrinks (tau trial {trial:.3e})"
            )
        trial *= bcfg.mu_ls
        shrinks += 1
    state.corrections += shrinks
    state.x = x_next
    state.Kx = Kx_next
    state.y = y_next
    state.Ky = Ky_next
    state.grad = grad_next
    state.theta = theta
    state.lam = trial
    return state


def _smooth_start(problem, x0, bcfg):
    """``x0`` checked by ``_checked_vector``, after ``bcfg`` is validated; a
    problem that is not least squares in x raises ConfigError."""
    bcfg.validate()
    if not isinstance(problem.fstar, QuadShift):
        raise ConfigError("gradient baselines need a least-squares objective 0.5||Kx - b||^2")
    return _checked_vector(x0, problem.K.cols, "x0")


def init_pgm(problem, x0, bcfg):
    x0 = _smooth_start(problem, x0, bcfg)
    return PgmState(x=x0.copy(), Kx=problem.K.apply(x0), lam=bcfg.step)


def pgm_iterate(state, problem, bcfg):
    """Proximal gradient step with the fixed step size ``bcfg.step``; the
    image K x is cached."""
    grad = problem.K.adjoint_apply(state.Kx - problem.fstar.shift)
    state.x = problem.g.prox(state.x - bcfg.step * grad, bcfg.step)
    state.Kx = problem.K.apply(state.x)
    return state


def init_fista(problem, x0, bcfg):
    """FISTA state at x0; the first trial step is 1 and backtracks from there."""
    x0 = _smooth_start(problem, x0, bcfg)
    Kx0 = problem.K.apply(x0)
    return FistaState(x=x0.copy(), v=x0.copy(), t=1.0, lam=1.0, Kx=Kx0, Kv=Kx0)


def fista_iterate(state, problem, bcfg):
    """Accelerated proximal gradient step with backtracking.

    Backtracks on the quadratic upper bound
    h(x+) <= h(v) + <grad h(v), x+ - v> + ||x+ - v||^2 / (2 lam),
    shrinking lam by fista_beta. A small relative slack keeps long
    high-accuracy runs stable against roundoff in the comparison. The
    accepted trial's image K x+ is cached, and the momentum point's image
    K v is recombined from the cached K x+ and K x, so an iteration applies
    K once per trial and K* once.
    """
    K = problem.K
    b = problem.fstar.shift
    rv = state.Kv - b
    hv = 0.5 * float(rv.dot(rv))
    grad = K.adjoint_apply(rv)
    slack = 1e-12 * (1.0 + abs(hv))
    shrinks = 0
    while True:
        x_next = problem.g.prox(state.v - state.lam * grad, state.lam)
        d = x_next - state.v
        Kx_next = K.apply(x_next)
        rx = Kx_next - b
        hx = 0.5 * float(rx.dot(rx))
        if hx <= hv + float(grad.dot(d)) + float(d.dot(d)) / (2.0 * state.lam) + slack:
            break
        if shrinks >= _MAX_SHRINKS:
            raise LinesearchStallError(
                f"FISTA backtracking exceeded {_MAX_SHRINKS} shrinks (lam {state.lam:.3e})"
            )
        state.lam *= bcfg.fista_beta
        shrinks += 1
    state.corrections += shrinks
    t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * state.t * state.t))
    c = (state.t - 1.0) / t_next
    state.v = x_next + c * (x_next - state.x)
    state.Kv = Kx_next + c * (Kx_next - state.Kx)
    state.x = x_next
    state.Kx = Kx_next
    state.t = t_next
    return state


TRACE_HEADER = "iter,seconds,metric,lambda,beta,corrections"


@dataclass
class IterationTrace:
    """Per-iteration records of one run plus summary accessors.

    Row n holds the state after n iterations, so it pairs lambda_n with
    beta_n. The monotone step rule bounds lambda_{n+1} sqrt(beta_n), which
    pairs a row's lambda with the previous row's beta; where beta grows
    (apdac), one row's lambda sqrt(beta) can exceed the start.
    """

    rows: list = field(default_factory=list)  # (iter, seconds, metric, lam, beta, corr)

    def append(self, it, seconds, metric, lam, beta, corrections):
        self.rows.append((int(it), float(seconds), float(metric), float(lam), float(beta), int(corrections)))

    @property
    def final_metric(self):
        return self.rows[-1][2] if self.rows else float("nan")

    @property
    def total_corrections(self):
        return self.rows[-1][5] if self.rows else 0

    @property
    def wall_time(self):
        return self.rows[-1][1] if self.rows else 0.0

    def to_csv(self, path):
        with open(path, "w", encoding="ascii") as fh:
            fh.write(TRACE_HEADER + "\n")
            for it, sec, met, lam, beta, corr in self.rows:
                fh.write(f"{it},{sec!r},{met!r},{lam!r},{beta!r},{corr}\n")

    @classmethod
    def from_csv(cls, path):
        trace = cls()
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().strip()
            if header != TRACE_HEADER:
                raise ValueError(f"unexpected trace header {header!r}")
            for line in fh:
                row = line.strip().split(",")
                if len(row) != 6:
                    raise ValueError(f"trace row {line.strip()!r} does not hold 6 fields")
                trace.append(*row)
        return trace


@dataclass(frozen=True)
class SolverKind:
    """One run kind, as ``SOLVERS`` holds it.

    ``config(problem, given)`` is the kind's config at the family defaults
    with the overrides ``given`` applied, and ``reads(cfg)`` the override
    names a run with that config reads. ``init(problem, x0, y0, cfg)``
    validates the config and builds the start state. On a matrix game the
    ergodic average takes ``sample(state, cfg)`` = (weight, z, y) after
    every iteration, and its head weight is ``head(cfg)`` * w_1 on x_0;
    both are None for pgm and fista, whose init rejects a game. The iterate
    is not held here: ``run`` looks ``<kind>_iterate`` up as a module
    attribute when a run starts, so a wrapped iterate is the one that runs.
    """

    config: Callable
    init: Callable
    reads: Callable = lambda cfg: set()
    sample: Callable | None = None
    head: Callable | None = None


class _Kinds(dict):
    """A dict whose missing key raises ConfigError."""

    def __missing__(self, kind):
        raise ConfigError(f"unknown solver kind {kind!r}")


def _pd_sample(weight):
    return lambda st, cfg: (weight(st), st.x + cfg.delta * (st.x - st.x_prev), st.y)


# every run kind by name; a name not in it raises ConfigError
SOLVERS = _Kinds(
    pdac=SolverKind(config=_pd_config, init=init_state, reads=_pd_reads,
                    sample=_pd_sample(attrgetter("lam")), head=attrgetter("delta")),
    apdac=SolverKind(config=partial(_pd_config, accelerated=True),
                     init=partial(init_state, kind="apdac"),
                     reads=lambda cfg: _pd_reads(cfg) | {"gamma"},
                     sample=_pd_sample(lambda st: st.beta * st.lam), head=attrgetter("delta")),
    pda=SolverKind(config=_pda_config, init=init_pda,
                   sample=lambda st, cfg: (1.0, st.x, st.y), head=lambda cfg: 1.0),
    pdal=SolverKind(config=_pdal_config, init=init_pdal, reads=lambda cfg: {"beta"},
                    sample=lambda st, cfg: (st.lam, st.x, st.y), head=lambda cfg: 1.0),
    pgm=SolverKind(config=_pgm_config,
                   init=lambda problem, x0, y0, cfg: init_pgm(problem, x0, cfg)),
    fista=SolverKind(config=lambda problem, given: BaselineConfig(fista_beta=0.7),
                     init=lambda problem, x0, y0, cfg: init_fista(problem, x0, cfg)),
)


def run(
    solver_kind,
    problem,
    cfg,
    x0,
    y0,
    *,
    max_iter,
    max_seconds=None,
    trace_every=1,
    reference_value=None,
):
    """Drive one solver for a budget and collect an IterationTrace.

    ``solver_kind`` names a kind in ``SOLVERS`` (pdac, apdac, pda, pdal, pgm,
    fista); any other name raises ConfigError. ``cfg`` is a SolverConfig for
    the first two and a BaselineConfig otherwise; the iteration budget
    ``max_iter`` is required. The kind's record builds the start state and
    the matrix game's ergodic sample, and ``<kind>_iterate`` is looked up as
    a module attribute when the run starts. Every state is read by the
    same names: the ``lambda, beta, corrections`` columns are its ``lam``,
    ``beta`` and ``corrections``, and the objective reads its
    ``problem.objective_var`` (``x`` or ``y``) and that point's image (``Kx``
    or ``Ky``). The metric column holds
    ``problem.objective`` (minus ``reference_value`` when given), evaluated
    with the K-image the solver state caches, so an objective row applies no
    matrix, and NaN for a problem of no known form; for a matrix game
    (``problem.family == "game"``) it holds the primal-dual gap of the
    running ergodic average. A start whose lengths
    do not match ``problem.K``, or with a non-finite entry, raises
    ValueError, whatever the kind. After every iteration the point the
    objective reads and its image are checked, and a non-finite entry
    raises DivergenceError: the check takes v.v of each, which a NaN or
    infinite entry makes NaN or inf, and tests every entry only when one
    of the two is not finite, so a finite point whose squares overflow
    runs on. Numpy warns of that overflow from the check's dot, so under
    ``np.errstate(over="raise")``, or with RuntimeWarning made an error,
    the check itself raises there, and that error carries no ``.trace``.
    A matrix game's metric row that finds a non-finite entry in the ergodic
    average (its weights or sums overflowed, or it took in a non-finite
    dual iterate) raises DivergenceError too. The metric row of an
    iteration reuses the point and image that check fetched. Runs are
    deterministic for a fixed iteration budget. The last row is the last
    iteration run, whether the iteration or the time budget ended the run.
    A DivergenceError or LinesearchStallError carries the trace recorded so
    far in its ``trace`` attribute. A negative ``max_iter``, a NaN or negative ``max_seconds`` and
    a ``trace_every`` below 1 raise ValueError.
    """
    if max_iter < 0:
        raise ValueError("max_iter must be nonnegative")
    if max_seconds is not None and not max_seconds >= 0:
        raise ValueError(f"max_seconds must be nonnegative; got {max_seconds}")
    if not trace_every >= 1:
        raise ValueError(f"trace_every must be at least 1; got {trace_every}")
    x0, y0 = _checked_start(problem, x0, y0)
    kind = SOLVERS[solver_kind]
    state = kind.init(problem, x0, y0, cfg)
    step = globals()[f"{solver_kind}_iterate"]
    var = problem.objective_var
    point_of = attrgetter(var, "K" + var)
    columns = attrgetter("lam", "beta", "corrections")
    ergodic = ErgodicAverage(x0, kind.head(cfg)) if problem.family == "game" else None

    def metric(point, image):
        if ergodic is not None:
            if not ergodic.updates:
                return pd_gap_game(problem.K, x0, y0)
            X, Y = ergodic.X, ergodic.Y
            try:
                return pd_gap_game(problem.K, X, Y)
            except FeasibilityError:
                # an average whose weights or sums overflowed, or that took
                # in a NaN dual iterate, is a divergence
                if np.isfinite(X).all() and np.isfinite(Y).all():
                    raise
                n = ergodic.updates
                raise DivergenceError(f"non-finite ergodic average at iteration {n}", n) from None
        value = problem.objective(point, image)
        if reference_value is not None:
            value -= reference_value
        return value

    trace = IterationTrace()
    t0 = time.perf_counter()
    trace.append(0, 0.0, metric(*point_of(state)), *columns(state))
    for n in range(1, max_iter + 1):
        try:
            step(state, problem, cfg)
            point, image = point_of(state)
            # a NaN or infinite entry makes v.v NaN or inf, so each entry is
            # tested only then, or when finite squares overflow
            if not (math.isfinite(point.dot(point)) and math.isfinite(image.dot(image))):
                if not (np.isfinite(point).all() and np.isfinite(image).all()):
                    raise DivergenceError(f"non-finite iterate at iteration {n}", n)
            if ergodic is not None:
                ergodic.update(*kind.sample(state, cfg))
            out_of_time = max_seconds is not None and time.perf_counter() - t0 > max_seconds
            if n % trace_every == 0 or n == max_iter or out_of_time:
                trace.append(n, time.perf_counter() - t0, metric(point, image), *columns(state))
        except (DivergenceError, LinesearchStallError) as err:
            err.trace = trace
            raise
        if out_of_time:
            break
    return trace
