"""The paper's invariants on random small instances (m, n <= 12): the bitwise
reduction of the accelerated solver at gamma = 0, deterministic traces, the
correction bound on the primal displacement, a correction that does not stall
from the all-zero start, one K and one K* per iteration, an objective that
has the same bits whether it is given the point's image or applies K, a
monotone step ratio that never rises above the spectral start, and a pdac
step that stays above its floor after every dual move that is not roundoff."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from saddlesolve.linop import vector_norm
from saddlesolve.problems import ProblemSpec, build_nnls, gen_lasso, gen_matrix_game
from saddlesolve.solvers import (
    DELTA_LOWER,
    LinesearchStallError,
    SolverConfig,
    default_config,
    default_lambda0,
    init_state,
    pdac_iterate,
    run,
)

_FAMILIES = ("lasso", "nnls", "nnls-swapped", "game")
_SIZE = st.integers(1, 12)
_SEED = st.integers(0, 2**32 - 1)


def _instance(family, seed, m, n):
    if family == "lasso":
        return gen_lasso(ProblemSpec("lasso1", seed=seed, m=m, n=n, s=min(n, 3)))[0]
    if family == "game":
        return gen_matrix_game(ProblemSpec("game1", seed=seed, m=m, n=n))
    rng = np.random.default_rng(seed)
    K, b = rng.standard_normal((m, n)), rng.standard_normal(m)
    return build_nnls(K, b, swapped=family == "nnls-swapped")


def _rows(trace):
    """The trace's rows without the ``seconds`` column."""
    return [row[:1] + row[2:] for row in trace.rows]


def _ending(kind, prob, cfg):
    """The rows of a 25-iteration run without ``seconds``, and the message of
    the LinesearchStallError that ended it early (None when none did)."""
    try:
        return _rows(run(kind, prob, cfg, *prob.start, max_iter=25)), None
    except LinesearchStallError as err:
        return _rows(err.trace), str(err)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_FAMILIES), _SEED, _SIZE, _SIZE, st.floats(1.0, 3.0),
       st.floats(0.05, 0.99), st.floats(1e-3, 10.0))
def test_apdac_at_gamma_zero_is_monotone_pdac_bitwise(family, seed, m, n, delta, alpha, beta):
    prob = _instance(family, seed, m, n)
    if prob.family == "game":
        # the ergodic weights are lambda and beta*lambda: equal bits at beta = 1
        beta = 1.0
    cfg = SolverConfig(delta=delta, alpha=alpha / delta**0.5, beta0=beta, gamma=0.0,
                       lambda0=default_lambda0(prob, beta), nonmonotone=False)
    base = run("pdac", prob, cfg, *prob.start, max_iter=25)
    accelerated = run("apdac", prob, cfg, *prob.start, max_iter=25)
    assert _rows(accelerated) == _rows(base)


_KIND_FAMILIES = [(kind, family) for kind in ("pdac", "apdac", "pda", "pdal")
                  for family in _FAMILIES]
_KIND_FAMILIES += [(kind, family) for kind in ("pgm", "fista") for family in ("lasso", "nnls")]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_KIND_FAMILIES), _SEED, _SIZE, _SIZE)
def test_runs_of_one_kind_and_config_are_identical(kind_family, seed, m, n):
    kind, family = kind_family
    prob = _instance(family, seed, m, n)
    cfg, _ = default_config(prob, kind)
    assert _ending(kind, prob, cfg) == _ending(kind, prob, cfg)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_FAMILIES), _SEED, _SIZE, _SIZE,
       st.floats(DELTA_LOWER + 1e-3, 0.999), st.booleans())
def test_corrected_displacement_stays_under_nu_zeta0(family, seed, m, n, delta, nonmonotone):
    # the correction bounds the primal displacement ||x_{n+1} - x_n|| itself
    prob = _instance(family, seed, m, n)
    cfg, _ = default_config(prob, "pdac", delta=delta, nonmonotone=nonmonotone)
    st_ = init_state(prob, *prob.start, cfg)
    for _ in range(40):
        pdac_iterate(st_, prob, cfg)
        assert vector_norm(st_.x - st_.x_prev) <= cfg.nu_corr * st_.zeta0


@settings(max_examples=30, deadline=None)
@given(_SEED, _SIZE, _SIZE)
def test_default_pdac_runs_on_lasso_from_the_zero_start(seed, m, n):
    # K*y_0 = 0 there, so the first primal step leaves x = 0; the correction
    # must still let x move afterwards
    prob = _instance("lasso", seed, m, n)
    cfg, _ = default_config(prob, "pdac")
    trace = run("pdac", prob, cfg, np.zeros(n), np.zeros(m), max_iter=40)
    assert trace.rows[-1][0] == 40


_PRODUCT_KINDS = [(kind, family) for kind in ("pdac", "apdac", "pda", "pgm", "pdal")
                  for family in ("lasso", "nnls")]


def _products(kind, prob, cfg, budget):
    """(K, K*) applications of a run of ``budget`` iterations at
    trace_every=1."""
    prob.K.reset_counters()
    run(kind, prob, cfg, *prob.start, max_iter=budget)
    return prob.K.apply_calls, prob.K.adjoint_calls


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_PRODUCT_KINDS), _SEED, _SIZE, _SIZE, st.integers(1, 30))
def test_each_iteration_applies_k_and_its_adjoint_once(kind_family, seed, m, n, budget):
    # every iteration writes an objective row, which reads the cached image
    kind, family = kind_family
    prob = _instance(family, seed, m, n)
    cfg, _ = default_config(prob, kind)
    f0, a0 = _products(kind, prob, cfg, 0)
    f, a = _products(kind, prob, cfg, budget)
    assert (f - f0, a - a0) == (budget, budget)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(kind, family) for kind in ("pdac", "apdac") for family in _FAMILIES]),
       _SEED, _SIZE, _SIZE)
def test_monotone_step_ratio_stays_under_the_spectral_start(kind_family, seed, m, n):
    # monotone mode caps lambda_{k+1} at sqrt(beta_{k-1} / beta_k) lambda_k,
    # so lambda_{k+1} sqrt(beta_k) L, the ratio the step rule bounds, never
    # rises above lambda_0 sqrt(beta_0) L = 0.99; the bound allows the
    # rounding of that product, a few ulps per iteration
    kind, family = kind_family
    prob = _instance(family, seed, m, n)
    cfg, _ = default_config(prob, kind, nonmonotone=False)
    L = prob.K.operator_norm()
    rows, _ = _ending(kind, prob, cfg)
    lam, beta = np.array([row[2] for row in rows]), np.array([row[3] for row in rows])
    start = lam[0] * np.sqrt(beta[0]) * L
    assert start <= 0.99 * (1.0 + 1e-15)
    assert np.all(lam[1:] * np.sqrt(beta[:-1]) * L <= start * (1.0 + 1e-13))


def _pdac_steps(prob, cfg, iters):
    """(||y_{n+1} - y_n|| / ||y_n||, lambda_{n+2}, floor) for each of the
    first ``iters`` pdac iterations, with floor = min(alpha / (sqrt(beta) L),
    lambda_{n+1}, lambda_cap): the least step the rule can predict while the
    cached difference K*y_{n+1} - K*y_n is at most L ||y_{n+1} - y_n||. A
    move from y_n = 0 (the swapped NNLS start) is relative move inf: K*y_n
    is then exactly 0, so the difference holds no cancellation."""
    L = prob.K.operator_norm()
    state, steps = init_state(prob, *prob.start, cfg), []
    for _ in range(iters):
        y, lam_next = state.y, state.lam_next
        pdac_iterate(state, prob, cfg)
        move = vector_norm(state.y - y)
        floor = min(cfg.alpha / (math.sqrt(state.beta) * L), lam_next, cfg.lambda_cap)
        size = vector_norm(y)
        relative = move / size if size else math.inf
        steps.append((relative if move else 0.0, state.lam_next, floor))
    return steps


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(_FAMILIES), _SEED, _SIZE, _SIZE, st.floats(1.0, 3.0),
       st.floats(0.01, 0.999), st.floats(1e-3, 10.0), st.floats(1e-2, 1e2), st.booleans())
def test_pdac_step_stays_above_its_floor_after_a_dual_move(
        family, seed, m, n, delta, alpha, beta, scale, nonmonotone):
    # ||K* dy|| <= L ||dy|| bounds the ratio the rule predicts below by
    # alpha / (sqrt(beta) L), and phi >= 1 keeps the other terms of the min
    # at or above lambda_{n+1} and lambda_cap. Below a dual move of 1e-6
    # ||y_n|| the cached difference can exceed L ||dy|| by cancellation (the
    # test below), so those iterations are not checked
    prob = _instance(family, seed, m, n)
    cfg, _ = default_config(prob, "pdac", delta=delta, alpha=alpha / delta**0.5, beta=beta,
                            lambda0=scale * default_lambda0(prob, beta),
                            nonmonotone=nonmonotone)
    for move, lam, floor in _pdac_steps(prob, cfg, 25):
        if move >= 1e-6:
            assert lam >= floor * (1.0 - 1e-8)


def test_pdac_step_falls_below_its_floor_after_a_roundoff_dual_move():
    # a known breach, pinned until predict_step handles it: the first dual
    # move is 1.9e-17 of ||y_0||, so K*y_1 - K*y_0 is cancellation noise
    # larger than L ||dy||, and lambda_2 drops to 0.979 of the floor; in
    # monotone mode no later step grows it back
    rng = np.random.default_rng(1)
    K, b = rng.standard_normal((12, 2)), rng.standard_normal(12)
    prob = build_nnls(K, b)
    cfg, _ = default_config(prob, "pdac", nonmonotone=False, delta=1.0, alpha=0.99)
    steps = _pdac_steps(prob, cfg, 20)
    move, lam, floor = steps[0]
    assert 0.0 < move < 1e-16
    assert 0.978 < lam / floor < 0.98
    spectral = cfg.alpha / (math.sqrt(cfg.beta0) * prob.K.operator_norm())
    assert all(lam < 0.98 * spectral for _, lam, _ in steps)


def test_correction_moves_on_after_a_zero_displacement():
    # x is soft-thresholded to 0 at iterations 3 and 4; iteration 5 has to
    # move it, which it can because zeta_n counts the dual displacement too
    prob = gen_lasso(ProblemSpec("lasso1", seed=14, m=1, n=1, s=1))[0]
    cfg, _ = default_config(prob, "pdac", delta=0.75, nonmonotone=False)
    assert run("pdac", prob, cfg, *prob.start, max_iter=40).rows[-1][0] == 40


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(("lasso", "nnls", "nnls-swapped")), _SEED, _SIZE, _SIZE,
       st.integers(-3, 3), st.booleans())
def test_objective_of_the_cached_image_has_the_bits_of_the_objective(
        family, seed, m, n, exponent, clip):
    # run() passes the image the state caches; the swapped NNLS objective
    # gets -K y from the swapped operator's adjoint
    prob = _instance(family, seed, m, n)
    K, rng = prob.K, np.random.default_rng(seed)
    if prob.objective_var == "x":
        p, image_of = rng.standard_normal(K.cols), K.apply
    else:
        p, image_of = rng.standard_normal(K.rows), K.adjoint_apply
    p *= 10.0**exponent
    if clip:
        # a point of the orthant, where the NNLS objective is finite
        p = np.maximum(p, 0.0)
    got, want = prob.objective(p, image_of(p)), prob.objective(p)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
