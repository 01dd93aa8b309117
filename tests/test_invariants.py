"""The paper's invariants on random small instances (m, n <= 12): the bitwise
reduction of the accelerated solver at gamma = 0, deterministic traces, the
correction bound on the primal displacement, a correction that does not stall
from the all-zero start, one K and one K* per iteration, and an objective
that has the same bits whether it is given the point's image or applies K."""

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
