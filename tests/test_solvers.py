import dataclasses
import math
import re

import numpy as np
import pytest

import saddlesolve.solvers as solvers
from oracles import c12_matrix
from saddlesolve.diagnostics import ErgodicAverage
from saddlesolve.linop import LinearOperator, SparseMatrix
from saddlesolve.oracle import solve_reference
from saddlesolve.problems import (
    ProblemSpec,
    SaddleProblem,
    build_nnls,
    gen_lasso,
    gen_matrix_game,
    pd_gap_game,
)
from saddlesolve.prox import IndSimplex, QuadShift, Zero
from saddlesolve.solvers import (
    SOLVERS,
    BaselineConfig,
    ConfigError,
    DivergenceError,
    IterationTrace,
    LinesearchStallError,
    SolverConfig,
    SolverState,
    apdac_iterate,
    correction_pass,
    default_config,
    default_lambda0,
    fista_iterate,
    init_fista,
    init_pda,
    init_pdal,
    init_pgm,
    init_state,
    pda_iterate,
    pdac_iterate,
    pdal_iterate,
    pgm_iterate,
    phi_schedule,
    predict_step,
    run,
)


class _NanProx:
    """A prox that returns NaN, so no backtracking test ever accepts."""

    def prox(self, v, step):
        return np.full_like(v, np.nan)

    def value(self, x):
        return 0.0


def _bilinear_problem(k=1.0):
    return SaddleProblem(g=Zero(), fstar=Zero(), K=LinearOperator(np.array([[k]])), label="toy")


def _cfg(**kw):
    base = dict(delta=1.0, alpha=0.9, rho=0.7, beta0=1.0, lambda0=0.5, n_hat=0, n_zero=0)
    base.update(kw)
    return SolverConfig(**base)


# --- configuration gate ---------------------------------------------------


def test_config_rejects_delta_at_golden_bound():
    with pytest.raises(ConfigError, match="delta"):
        _cfg(delta=0.618).validate()
    with pytest.raises(ConfigError, match="delta"):
        _cfg(delta=0.5).validate()


def test_config_alpha_strict():
    delta = 0.62
    with pytest.raises(ConfigError, match="alpha"):
        _cfg(delta=delta, alpha=1.0 / math.sqrt(delta)).validate()
    with pytest.raises(ConfigError, match="alpha"):
        _cfg(delta=delta, alpha=1.28).validate()
    _cfg(delta=delta, alpha=1.27).validate()


def test_config_nu_and_rho():
    with pytest.raises(ConfigError, match="nu"):
        _cfg(nu_corr=1.0).validate()
    with pytest.raises(ConfigError, match="nu"):
        _cfg(nu_corr=3.0, mu_corr=2.0).validate()
    with pytest.raises(ConfigError, match="rho"):
        _cfg(rho=1.0).validate()


def test_config_apdac_needs_delta_ge_one():
    with pytest.raises(ConfigError, match="delta >= 1"):
        _cfg(delta=0.9, alpha=0.9).validate("apdac")
    with pytest.raises(ConfigError, match="monotone"):
        _cfg(delta=1.0, alpha=0.9, nonmonotone=True).validate("apdac")
    _cfg(delta=1.0, alpha=0.9).validate("apdac")


@pytest.mark.parametrize("kind", ["apdca", "PDAC", "pda", ""])
def test_config_rejects_a_kind_it_does_not_configure(kind):
    # a misspelt kind used to pass validate and build a pdac state
    cfg = _cfg(delta=0.7, alpha=0.9, nonmonotone=True)
    named = re.escape(repr(kind))
    with pytest.raises(ConfigError, match=named):
        cfg.validate(kind)
    prob = _budget_problem("lasso")
    with pytest.raises(ConfigError, match=named):
        init_state(prob, *prob.start, cfg, kind=kind)


def test_config_schedule_ordering():
    with pytest.raises(ConfigError, match="n_hat"):
        _cfg(n_hat=10, n_zero=5).validate()


@pytest.mark.parametrize("overrides, named", [
    ({"n_hat": math.nan}, "n_hat"),
    ({"n_zero": math.nan}, "n_zero"),
    ({"n_hat": math.nan, "n_zero": 10}, "n_hat"),
])
def test_config_rejects_a_nan_schedule(overrides, named):
    # n_hat > n_zero is false for NaN, so a NaN n_hat used to pass and leave
    # nonmonotone pdac without step growth
    prob = gen_lasso(ProblemSpec("lasso1", m=8, n=20, s=3))[0]
    with pytest.raises(ConfigError, match=named):
        default_config(prob, "pdac", **overrides)


@pytest.mark.parametrize(
    "field, value, named",
    [("lambda0", 0.0, "lambda0"), ("lambda0", np.nan, "lambda0"),
     ("lambda_cap", -1.0, "lambda_cap"), ("beta0", 0.0, "beta"), ("gamma", -0.1, "gamma"),
     ("lambda0", np.inf, "lambda0"), ("beta0", np.inf, "beta"), ("gamma", np.inf, "gamma"),
     ("gamma", np.nan, "gamma"), ("delta", np.inf, "delta must"), ("mu_corr", np.inf, "mu")],
)
def test_config_rejects_each_field(field, value, named):
    with pytest.raises(ConfigError, match=named):
        _cfg(**{field: value}).validate()
    with pytest.raises(ConfigError, match=named):
        _cfg(**{field: value}).validate("apdac")


def test_config_accepts_uncapped_step():
    # lambda_cap = inf means no cap on the nonmonotone step
    _cfg(lambda_cap=np.inf, nonmonotone=True).validate()


@pytest.mark.parametrize(
    "field, value, named",
    [(name, bad, name) for name in ("tau", "sigma", "mu_ls", "fista_beta", "step", "beta")
     for bad in (0.0, -1.0, np.nan, np.inf)]
    + [("alpha_ls", 0.0, "alpha_ls"), ("alpha_ls", 1.0, "alpha_ls"), ("mu_ls", 1.0, "mu_ls"),
       ("fista_beta", 1.0, "fista_beta"), ("theta", -2.0, "theta"), ("theta", np.nan, "theta"),
       ("theta", np.inf, "theta")],
)
def test_baseline_config_rejects_each_field(field, value, named):
    with pytest.raises(ConfigError, match=named):
        BaselineConfig(**{field: value}).validate()


# --- schedule and step prediction ------------------------------------------


def test_phi_schedule_values(fixtures):
    cfg = _cfg(delta=0.62, alpha=1.27, n_hat=2, n_zero=5, nonmonotone=True)
    assert phi_schedule(1, cfg) == pytest.approx(fixtures["phi_n1"]["out"], rel=1e-12)
    assert phi_schedule(4, cfg) == pytest.approx(fixtures["phi_n4"]["out"], rel=1e-12)
    assert phi_schedule(6, cfg) == 1.0
    # monotone mode pins phi to 1
    assert phi_schedule(1, _cfg(delta=0.62, alpha=1.27)) == 1.0


def test_phi_partitions_and_bounds():
    cfg = _cfg(delta=0.8, alpha=0.9, n_hat=3, n_zero=9, nonmonotone=True)
    ceiling = (1 + 0.8) / 0.8
    for n in range(0, 15):
        phi = phi_schedule(n, cfg)
        assert 1.0 <= phi <= ceiling + 1e-15


def test_predict_step_branches(fixtures):
    cfg = _cfg(delta=0.62, alpha=1.27, beta0=1.0)
    # zero adjoint difference, monotone: unchanged
    assert predict_step(1.0, 0.0, 0.8, 1.0, cfg, cfg.beta0) == 0.8
    # formula case
    assert predict_step(1.0, 2.0, 1.0, 1.0, cfg, cfg.beta0) == pytest.approx(
        fixtures["predict_basic"]["out"], rel=1e-15
    )
    # previous step clamps
    assert predict_step(10.0, 1.0, 0.5, 1.0, cfg, cfg.beta0) == 0.5
    # nonmonotone growth capped by phi and lambda_cap
    nm = _cfg(delta=0.62, alpha=1.27, nonmonotone=True, lambda_cap=2.0, n_hat=1, n_zero=2)
    assert predict_step(100.0, 1.0, 1.0, 1.5, nm, nm.beta0) == 1.5
    assert predict_step(100.0, 1.0, 5.0, 1.5, nm, nm.beta0) == 2.0
    assert predict_step(1.0, 0.0, 1.0, 1.5, nm, nm.beta0) == 1.5


# --- init -------------------------------------------------------------------


def test_init_state_lasso_zeta0():
    prob, gt = gen_lasso(ProblemSpec("lasso1", seed=2, m=8, n=12, s=2))
    x0, y0 = prob.start
    cfg = _cfg(delta=0.62, alpha=1.27, lambda0=1.0, beta0=1.0)
    st = init_state(prob, x0, y0, cfg)
    # dual residual vanishes since -b minimizes fstar; primal is the
    # soft-thresholded gradient step from zero
    ktb = prob.K.adjoint_apply(gt.b)
    expect = np.linalg.norm(np.sign(ktb) * np.maximum(np.abs(ktb) - prob.g.mu, 0.0))
    assert st.zeta0 == pytest.approx(expect, rel=1e-12)
    assert st.lam == st.lam_next == 1.0


def test_init_state_zero_saddle():
    prob = _bilinear_problem()
    st = init_state(prob, [0.0], [0.0], _cfg())
    assert st.zeta0 <= 1e-10


def test_init_state_config_error():
    prob = _bilinear_problem()
    with pytest.raises(ConfigError, match="delta"):
        init_state(prob, [0.0], [0.0], _cfg(delta=0.5))


def test_init_state_dim_error():
    prob = _bilinear_problem()
    with pytest.raises(ValueError, match="x0"):
        init_state(prob, [0.0, 1.0], [0.0], _cfg())


def test_init_state_dual_dim_error():
    prob = _bilinear_problem()
    with pytest.raises(ValueError, match="y0"):
        init_state(prob, [0.0], [0.0, 1.0], _cfg())


def test_init_state_rejects_non_finite_start():
    prob = _bilinear_problem()
    with pytest.raises(ValueError, match="finite"):
        init_state(prob, [np.nan], [0.0], _cfg())
    with pytest.raises(ValueError, match="finite"):
        init_state(prob, [0.0], [np.inf], _cfg())


# --- corrected solver -------------------------------------------------------


def test_pdac_hand_simulation(fixtures):
    rec = fixtures["pdac_1d"]
    prob = _bilinear_problem()
    st = init_state(prob, [1.0], [1.0], _cfg(lambda0=0.5))
    pdac_iterate(st, prob, _cfg(lambda0=0.5))
    assert st.x[0] == pytest.approx(rec["x1"], abs=1e-15)
    assert st.y[0] == pytest.approx(rec["y1"], abs=1e-15)
    # z1 = 0 means the dual point did not move from y0 = 1
    assert st.y[0] == 1.0


def test_pdac_fixed_at_zero_saddle():
    prob = _bilinear_problem(k=2.0)
    cfg = _cfg(delta=0.7, alpha=1.1, lambda0=0.3)
    st = init_state(prob, [0.0], [0.0], cfg)
    for _ in range(50):
        pdac_iterate(st, prob, cfg)
        assert abs(st.x[0]) <= 1e-10 and abs(st.y[0]) <= 1e-10
    assert st.corrections == 0


def test_pdac_no_correction_when_delta_ge_one():
    prob, _ = gen_lasso(ProblemSpec("lasso1", seed=7, m=10, n=20, s=3))
    x0, y0 = prob.start
    cfg = _cfg(delta=1.0, alpha=0.9, beta0=1.0, lambda0=0.1)
    st = init_state(prob, x0, y0, cfg)
    for _ in range(100):
        pdac_iterate(st, prob, cfg)
    assert st.corrections == 0


@pytest.mark.parametrize("beta", [0, -1.0, math.nan, math.inf])
def test_default_lambda0_rejects_a_bad_beta(beta):
    prob, _ = gen_lasso(ProblemSpec("lasso1", seed=7, m=10, n=20, s=3))
    with pytest.raises(ConfigError, match=rf"^beta must be positive and finite; got {beta}$"):
        default_lambda0(prob, beta)


def test_pdac_one_fresh_apply_per_iteration():
    prob, _ = gen_lasso(ProblemSpec("lasso1", seed=7, m=10, n=20, s=3))
    x0, y0 = prob.start
    cfg = _cfg(delta=0.62, alpha=1.27, beta0=1.0, lambda0=default_lambda0(prob, 1.0))
    st = init_state(prob, x0, y0, cfg)
    prob.K.reset_counters()
    for _ in range(80):
        pdac_iterate(st, prob, cfg)
    # exactly one K and one K* application per outer iteration, correction included
    assert prob.K.apply_calls == 80
    assert prob.K.adjoint_calls == 80


def test_correction_zero_shrinks_when_bound_holds():
    prob = _bilinear_problem()
    cfg = _cfg(delta=0.62, alpha=1.27, lambda0=0.5)
    st = init_state(prob, [1.0], [1.0], cfg)
    x_cand = np.array([0.9])
    zeta = 0.1  # zeta0 is about 0.5; bound = min(1.5*zeta0, 10*zeta0) > 0.1
    out, zeta_out = correction_pass(st, prob, cfg, x_cand, zeta, 1.0)
    assert st.corrections == 0
    assert out[0] == 0.9 and zeta_out == 0.1


def test_correction_shrink_count_matches_fixture(fixtures):
    rec = fixtures["correction_shrinks"]
    # g = Zero gives displacement ||x(lam) - x|| = lam * |K* y|, here lam * c
    prob = _bilinear_problem(k=1.0)
    cfg = _cfg(
        delta=0.62,
        alpha=1.27,
        rho=rec["rho"],
        mu_corr=rec["mu"],
        nu_corr=rec["nu"],
        lambda0=rec["lam"],
    )
    st = SolverState(
        x_prev=np.array([0.0]),
        x=np.array([0.0]),
        y=np.array([rec["c"]]),
        lam=rec["lam"],
        lam_next=rec["lam"],
        beta=1.0,
        zeta0=rec["zeta0"],
        zeta_cur=rec["zeta_n"],
        iter=1,
        corrections=0,
        Ky=np.array([rec["c"]]),
        Kx=np.array([0.0]),
    )
    x_cand = st.x - st.lam * st.Ky
    zeta = float(np.linalg.norm(x_cand - st.x))
    x_out, zeta_out = correction_pass(st, prob, cfg, x_cand, zeta, 1.0)
    assert st.corrections == rec["k"]
    assert st.lam == pytest.approx(rec["lam_final"], rel=1e-12)
    assert zeta_out <= min(cfg.nu_corr * st.zeta0, cfg.mu_corr * rec["zeta_n"]) + 1e-12


def test_correction_stall_error():
    # zeta0 = zeta_n = 0 with a genuinely moving iterate cannot terminate
    prob = _bilinear_problem()
    cfg = _cfg(delta=0.62, alpha=1.27)
    st = SolverState(
        x_prev=np.array([0.0]),
        x=np.array([0.0]),
        y=np.array([1.0]),
        lam=1.0,
        lam_next=1.0,
        beta=1.0,
        zeta0=0.0,
        zeta_cur=0.0,
        iter=3,
        corrections=0,
        Ky=np.array([1.0]),
        Kx=np.array([0.0]),
    )
    with pytest.raises(LinesearchStallError, match="200"):
        correction_pass(st, prob, cfg, st.x - st.Ky, 1.0, 1.0)


def test_lambda_monotone_mode_nonincreasing():
    prob, _ = gen_lasso(ProblemSpec("lasso1", seed=9, m=12, n=25, s=3))
    x0, y0 = prob.start
    cfg = _cfg(delta=0.62, alpha=1.27, beta0=0.0025, lambda0=default_lambda0(prob, 0.0025))
    st = init_state(prob, x0, y0, cfg)
    lams = [st.lam, st.lam_next]
    for _ in range(300):
        pdac_iterate(st, prob, cfg)
        lams.append(st.lam_next)
    assert all(b <= a + 1e-15 for a, b in zip(lams, lams[1:]))


@pytest.mark.parametrize("nonmonotone", [False, True])
def test_delta_lambda_ratio_invariant(nonmonotone):
    prob, _ = gen_lasso(ProblemSpec("lasso1", seed=9, m=12, n=25, s=3))
    x0, y0 = prob.start
    cfg = _cfg(
        delta=0.62,
        alpha=1.27,
        beta0=0.0025,
        lambda0=default_lambda0(prob, 0.0025),
        nonmonotone=nonmonotone,
        n_hat=100,
        n_zero=200,
    )
    st = init_state(prob, x0, y0, cfg)
    for _ in range(400):
        pdac_iterate(st, prob, cfg)
        assert cfg.delta * st.lam_next <= (1 + cfg.delta) * st.lam + 1e-12


def test_step_floor_delta_ge_one():
    game = gen_matrix_game(ProblemSpec("game1", seed=3, m=20, n=20))
    x0, y0 = game.start
    cfg = _cfg(delta=1.0, alpha=0.99, beta0=1.0, lambda0=default_lambda0(game, 1.0))
    st = init_state(game, x0, y0, cfg)
    lams = [st.lam, st.lam_next]
    for _ in range(2000):
        pdac_iterate(st, game, cfg)
        lams.append(st.lam_next)
    L = game.K.operator_norm()
    floor = min(cfg.alpha / (math.sqrt(cfg.beta0) * L), cfg.lambda0)
    assert min(lams) >= floor - 1e-12


# --- accelerated variant ----------------------------------------------------


def test_apdac_beta_growth_and_cap(fixtures):
    rec = fixtures["apdac_growth"]
    prob = _bilinear_problem()
    cfg = _cfg(delta=1.0, alpha=0.9, gamma=1.0, lambda0=1.0)
    st = init_state(prob, [1.0], [2.0], cfg, kind="apdac")
    apdac_iterate(st, prob, cfg)
    assert st.beta == pytest.approx(rec["beta_next"], rel=1e-15)
    # step cap sqrt(beta_n / beta_{n+1}) * lam
    assert st.lam_next <= rec["cap"] * st.lam + 1e-15


def test_apdac_beta_ratio_exact():
    prob, _ = gen_lasso(ProblemSpec("lasso1", seed=13, m=10, n=16, s=2))
    x0, y0 = prob.start
    cfg = _cfg(delta=1.0, alpha=0.9, gamma=0.37, beta0=2.0, lambda0=0.05)
    st = init_state(prob, x0, y0, cfg, kind="apdac")
    for _ in range(50):
        beta_prev = st.beta
        lam_next = st.lam_next
        apdac_iterate(st, prob, cfg)
        assert st.beta == beta_prev * (1.0 + cfg.gamma * lam_next)  # bitwise


def test_apdac_gamma_zero_reduces_to_pdac():
    prob, _ = gen_lasso(ProblemSpec("lasso1", seed=21, m=10, n=16, s=2))
    x0, y0 = prob.start
    cfg = _cfg(delta=1.0, alpha=0.9, gamma=0.0, beta0=0.5, lambda0=0.2)
    s1 = init_state(prob, x0, y0, cfg, kind="apdac")
    s2 = init_state(prob, x0, y0, cfg, kind="pdac")
    for _ in range(100):
        apdac_iterate(s1, prob, cfg)
        pdac_iterate(s2, prob, cfg)
        assert np.array_equal(s1.x, s2.x)
        assert np.array_equal(s1.y, s2.y)
        assert s1.lam_next == s2.lam_next
    assert s1.beta == cfg.beta0


def test_apdac_growth_bound_on_step_floor_branch():
    # whenever lam_{n+1} sits on or above the floor alpha/(sqrt(beta_n) L),
    # the multiplicative update gives beta_{n+1} >= beta_n + gamma*alpha*sqrt(beta_n)/L
    prob, _ = gen_lasso(ProblemSpec("lasso1", seed=37, m=12, n=20, s=3))
    L = prob.K.operator_norm()
    # lambda0 above alpha/(sqrt(beta0) L) so the prediction's ratio branch
    # engages and lambda rides the floor
    cfg = _cfg(delta=1.0, alpha=0.9, gamma=0.5, beta0=1.0, lambda0=1.0)
    st = init_state(prob, *prob.start, cfg, kind="apdac")
    checked = 0
    for _ in range(3000):
        beta_prev = st.beta
        lam_next = st.lam_next
        apdac_iterate(st, prob, cfg)
        if lam_next >= cfg.alpha / (math.sqrt(beta_prev) * L) - 1e-15:
            assert st.beta >= beta_prev + cfg.gamma * cfg.alpha * math.sqrt(beta_prev) / L - 1e-9
            checked += 1
    assert checked > 0


def test_zeta_bound_holds_after_each_corrected_iteration():
    prob, _ = gen_lasso(ProblemSpec("lasso1", seed=41, m=15, n=30, s=3))
    cfg = _cfg(
        delta=0.62,
        alpha=1.27,
        beta0=0.0025,
        lambda0=default_lambda0(prob, 0.0025),
        nonmonotone=True,
        n_hat=500,
        n_zero=1000,
    )
    st = init_state(prob, *prob.start, cfg)
    for _ in range(2000):
        zeta_prev = st.zeta_cur
        pdac_iterate(st, prob, cfg)
        bound = min(cfg.nu_corr * st.zeta0, cfg.mu_corr * zeta_prev)
        assert st.zeta_cur <= bound + 1e-12


def test_apdac_fixed_at_saddle_while_beta_grows():
    prob = _bilinear_problem()
    cfg = _cfg(delta=1.0, alpha=0.9, gamma=0.8, lambda0=0.5)
    st = init_state(prob, [0.0], [0.0], cfg, kind="apdac")
    for _ in range(30):
        apdac_iterate(st, prob, cfg)
        assert abs(st.x[0]) <= 1e-10 and abs(st.y[0]) <= 1e-10
    assert st.beta > 1.0


# --- baselines ----------------------------------------------------------------


def test_pda_hand_simulation(fixtures):
    rec = fixtures["pda_1d"]
    prob = _bilinear_problem()
    bcfg = BaselineConfig(tau=0.5, sigma=0.5)
    st = init_pda(prob, [1.0], [1.0], bcfg)
    pda_iterate(st, prob, bcfg)
    assert st.y[0] == pytest.approx(rec["y1"], abs=1e-15)
    assert st.x[0] == pytest.approx(rec["x1"], abs=1e-15)
    assert st.Kz[0] == pytest.approx(rec["z1"], abs=1e-15)  # K = [[1]], so K z = z


def test_pda_step_product_gate():
    prob, _ = gen_lasso(ProblemSpec("lasso1", seed=5, m=8, n=12, s=2))
    L = prob.K.operator_norm()
    # boundary product tau*sigma*L^2 = 1 is accepted within 1e-12
    init_pda(prob, *prob.start, BaselineConfig(tau=20.0 / L, sigma=1.0 / (20.0 * L)))
    with pytest.raises(ConfigError, match="tau"):
        init_pda(prob, *prob.start, BaselineConfig(tau=2.0 / L, sigma=1.0 / L))


def test_pdal_no_shrink_when_condition_holds(fixtures):
    rec = fixtures["pdal_cond"]
    assert rec["lhs"] <= rec["rhs"] and rec["holds"] == 1
    prob, _ = gen_lasso(ProblemSpec("lasso1", seed=5, m=8, n=12, s=2))
    bcfg = BaselineConfig(tau=1e-3, beta=1.0, alpha_ls=0.99, mu_ls=0.7)
    st = init_pdal(prob, *prob.start, bcfg)
    pdal_iterate(st, prob, bcfg)
    assert st.corrections == 0  # tiny step always passes


def test_pdal_fixed_at_zero_saddle():
    prob = _bilinear_problem()
    bcfg = BaselineConfig(tau=0.5, beta=1.0)
    st = init_pdal(prob, [0.0], [0.0], bcfg)
    for _ in range(20):
        pdal_iterate(st, prob, bcfg)
        assert st.x[0] == 0.0 and st.y[0] == 0.0
    # K* dy = 0 keeps the condition degenerately true, tau grows freely
    assert st.lam > 0.5


def test_pgm_unit_curvature_one_step(fixtures):
    prob = SaddleProblem(
        g=Zero(), fstar=QuadShift(np.array([1.0])), K=LinearOperator(np.array([[1.0]]))
    )
    bcfg = BaselineConfig(step=1.0)
    st = init_pgm(prob, [0.0], bcfg)
    pgm_iterate(st, prob, bcfg)
    assert st.x[0] == 1.0  # exact minimizer in one step
    pgm_iterate(st, prob, bcfg)
    assert st.x[0] == 1.0  # fixed point


def test_pgm_descent_on_lasso():
    prob, _ = gen_lasso(ProblemSpec("lasso1", seed=31, m=15, n=30, s=3))
    L = prob.K.operator_norm()
    bcfg = BaselineConfig(step=1.0 / L**2)
    st = init_pgm(prob, np.zeros(30), bcfg)
    vals = [prob.objective(st.x)]
    for _ in range(200):
        pgm_iterate(st, prob, bcfg)
        vals.append(prob.objective(st.x))
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_fista_momentum(fixtures):
    prob = SaddleProblem(
        g=Zero(), fstar=QuadShift(np.array([1.0])), K=LinearOperator(np.array([[1.0]]))
    )
    bcfg = BaselineConfig(fista_beta=0.7)
    st = init_fista(prob, [0.0], bcfg)
    fista_iterate(st, prob, bcfg)
    assert st.t == pytest.approx(fixtures["fista_t2"]["out"], rel=1e-15)


def test_fista_fixed_at_minimizer():
    prob = SaddleProblem(
        g=Zero(), fstar=QuadShift(np.array([2.0])), K=LinearOperator(np.array([[1.0]]))
    )
    bcfg = BaselineConfig(fista_beta=0.7)
    st = init_fista(prob, [2.0], bcfg)
    for _ in range(10):
        fista_iterate(st, prob, bcfg)
        assert st.x[0] == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("family", ["lasso", "nnls"])
def test_fista_cached_image_tracks_momentum_point(family):
    # K v is recombined from the cached K x+ and K x rather than applied; it
    # equals K v exactly after the first step (zero momentum) and stays
    # within roundoff of it
    if family == "lasso":
        prob, _ = gen_lasso(ProblemSpec("lasso1", seed=2, m=12, n=25, s=3))
    else:
        rng = np.random.default_rng(8)
        K = rng.standard_normal((30, 12))
        K[np.abs(K) < 0.5] = 0.0
        prob = build_nnls(SparseMatrix.from_dense(K), rng.standard_normal(30))
    bcfg = BaselineConfig(fista_beta=0.7)
    st = init_fista(prob, np.zeros(prob.K.cols), bcfg)
    fista_iterate(st, prob, bcfg)
    assert np.array_equal(st.Kv, prob.K.apply(st.v))
    for _ in range(1000):
        fista_iterate(st, prob, bcfg)
        Kv = prob.K.apply(st.v)
        assert np.linalg.norm(st.Kv - Kv) <= 1e-13 * np.linalg.norm(Kv)


def test_baselines_reject_games():
    game = gen_matrix_game(ProblemSpec("game1", seed=2, m=4, n=4))
    with pytest.raises(ConfigError):
        run("pgm", game, BaselineConfig(step=0.1), *game.start, max_iter=1)
    with pytest.raises(ConfigError):
        run("fista", game, BaselineConfig(), *game.start, max_iter=1)


# --- driver -------------------------------------------------------------------


def test_run_zero_budget():
    prob, _ = gen_lasso(ProblemSpec("lasso1", seed=2, m=8, n=12, s=2))
    cfg = _cfg(delta=0.62, alpha=1.27, lambda0=0.1, beta0=1.0)
    trace = run("pdac", prob, cfg, *prob.start, max_iter=0)
    assert len(trace.rows) == 1
    assert trace.rows[0][0] == 0


def test_run_row_count_and_final_row():
    prob, _ = gen_lasso(ProblemSpec("lasso1", seed=2, m=8, n=12, s=2))
    cfg = _cfg(delta=0.62, alpha=1.27, lambda0=0.1, beta0=1.0)
    trace = run("pdac", prob, cfg, *prob.start, max_iter=25, trace_every=10)
    assert [r[0] for r in trace.rows] == [0, 10, 20, 25]
    full = run("pdac", prob, cfg, *prob.start, max_iter=25, trace_every=1)
    assert len(full.rows) == 26


def test_run_deterministic():
    prob, _ = gen_lasso(ProblemSpec("lasso1", seed=2, m=8, n=12, s=2))
    cfg = _cfg(delta=0.62, alpha=1.27, lambda0=0.1, beta0=1.0)
    t1 = run("pdac", prob, cfg, *prob.start, max_iter=50)
    t2 = run("pdac", prob, cfg, *prob.start, max_iter=50)
    strip = lambda t: [(r[0], r[2], r[3], r[4], r[5]) for r in t.rows]
    assert strip(t1) == strip(t2)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_run_divergence_error_carries_trace():
    prob = SaddleProblem(
        g=Zero(), fstar=Zero(), K=LinearOperator(np.array([[1e200]])), label="blowup"
    )
    cfg = _cfg(delta=1.0, alpha=0.9, lambda0=1.0)
    with pytest.raises(DivergenceError) as exc:
        run("pdac", prob, cfg, [1e200], [1e200], max_iter=10)
    assert exc.value.trace is not None
    assert exc.value.iteration >= 1


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_run_pgm_divergence_error_carries_trace():
    # a gradient step of 50/L^2 makes pgm blow up geometrically
    prob, _ = gen_lasso(ProblemSpec("lasso1", seed=2, m=20, n=40, s=3))
    L = prob.K.operator_norm()
    with pytest.raises(DivergenceError) as exc:
        run("pgm", prob, BaselineConfig(step=50.0 / L**2), *prob.start, max_iter=1000)
    assert exc.value.trace is not None
    assert exc.value.trace.rows[-1][0] == exc.value.iteration - 1


@pytest.mark.parametrize("kind", list(SOLVERS))
def test_run_checks_every_kind_for_divergence(kind, monkeypatch):
    # the iterate itself checks nothing; run() raises at the first step
    # that leaves a non-finite point
    prob = _budget_problem("lasso")
    iterate = getattr(solvers, f"{kind}_iterate")
    calls = []

    def poisoned(state, problem, cfg):
        iterate(state, problem, cfg)
        if len(calls) == 2:
            for value in vars(state).values():
                if isinstance(value, np.ndarray):
                    value[0] = np.nan
        calls.append(1)
        return state

    monkeypatch.setattr(solvers, f"{kind}_iterate", poisoned)
    with pytest.raises(DivergenceError) as exc:
        run(kind, prob, _budget_config(kind, prob), *prob.start, max_iter=10)
    assert exc.value.iteration == 3
    assert [row[0] for row in exc.value.trace.rows] == [0, 1, 2]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["point", "image"])
@pytest.mark.parametrize(
    "family, kind",
    [("lasso", kind) for kind in SOLVERS]
    + [("nnls-swapped", kind) for kind in ("pdac", "apdac", "pda", "pdal")],
)
def test_run_checks_the_point_and_its_image_apart(family, kind, where, value, monkeypatch):
    # one non-finite entry, in the last place of the point the objective
    # reads or of its image only, ends the run at the step that wrote it;
    # on swapped NNLS the point is y and the image K*y
    prob = _budget_problem(family)
    var = prob.objective_var
    name = var if where == "point" else "K" + var
    iterate = getattr(solvers, f"{kind}_iterate")
    calls = []

    def poisoned(state, problem, cfg):
        iterate(state, problem, cfg)
        if len(calls) == 2:
            getattr(state, name)[-1] = value
        calls.append(1)
        return state

    monkeypatch.setattr(solvers, f"{kind}_iterate", poisoned)
    with pytest.raises(DivergenceError) as exc:
        run(kind, prob, _budget_config(kind, prob), *prob.start, max_iter=10)
    assert exc.value.iteration == 3
    assert [row[0] for row in exc.value.trace.rows] == [0, 1, 2]


def test_run_input_checks():
    prob, _ = gen_lasso(ProblemSpec("lasso1", seed=2, m=8, n=12, s=2))
    cfg = _cfg(delta=0.62, alpha=1.27, lambda0=0.1)
    with pytest.raises(ValueError, match="max_iter"):
        run("pdac", prob, cfg, *prob.start, max_iter=-1)
    for trace_every in (0, math.nan):
        with pytest.raises(ValueError, match="trace_every"):
            run("pdac", prob, cfg, *prob.start, max_iter=1, trace_every=trace_every)
    for max_seconds in (math.nan, -1.0):
        with pytest.raises(ValueError, match="max_seconds"):
            run("pdac", prob, cfg, *prob.start, max_iter=1, max_seconds=max_seconds)
    with pytest.raises(ConfigError, match="unknown solver kind"):
        run("newton", prob, cfg, *prob.start, max_iter=1)
    with pytest.raises(ConfigError, match="theta"):
        run("pdal", prob, BaselineConfig(theta=-2.0), *prob.start, max_iter=1)


def test_run_hand_built_game_is_measured_by_ergodic_gap():
    # the problem kind follows from g and fstar: two simplex indicators make
    # a matrix game, however the problem was built
    game = gen_matrix_game(ProblemSpec("game1", seed=3, m=30, n=30))
    hand = SaddleProblem(g=IndSimplex(), fstar=IndSimplex(), K=game.K, start=game.start)
    assert hand.family == "game"
    cfg = _cfg(delta=1.0, alpha=0.99, beta0=1.0, lambda0=default_lambda0(game, 1.0))
    gaps = run("pdac", hand, cfg, *hand.start, max_iter=300, trace_every=100).column("metric")
    assert gaps == run("pdac", game, cfg, *game.start, max_iter=300, trace_every=100).column(
        "metric"
    )
    assert gaps == pytest.approx([0.36048, 0.010263, 0.0053427, 0.0035687], rel=1e-4)


def test_run_pdal_linesearch_stall_carries_trace():
    prob = SaddleProblem(
        g=_NanProx(), fstar=QuadShift(np.ones(3)), K=LinearOperator(np.eye(3)), label="stall"
    )
    with pytest.raises(LinesearchStallError, match="linesearch exceeded") as exc:
        run("pdal", prob, BaselineConfig(), np.zeros(3), np.zeros(3), max_iter=5)
    assert [row[0] for row in exc.value.trace.rows] == [0]


@pytest.mark.parametrize(
    "kind, cfg",
    [("pdac", _cfg(delta=0.62, alpha=1.27, lambda0=0.1)), ("pdal", BaselineConfig()),
     ("fista", BaselineConfig())],
)
def test_run_rejects_non_finite_start(kind, cfg):
    # a NaN start is bad input, not a divergence at iteration 1
    prob, _ = gen_lasso(ProblemSpec("lasso1", seed=2, m=8, n=12, s=2))
    x0, y0 = prob.start
    x0 = x0.copy()
    x0[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        run(kind, prob, cfg, x0, y0, max_iter=5)


_KIND_CONFIGS = {
    "pdac": _cfg(delta=0.62, alpha=1.27, lambda0=0.1),
    "apdac": _cfg(lambda0=0.1),
    "pda": BaselineConfig(tau=0.01, sigma=0.01),
    "pdal": BaselineConfig(),
    "pgm": BaselineConfig(step=0.01),
    "fista": BaselineConfig(),
}


@pytest.mark.parametrize("kind", sorted(_KIND_CONFIGS))
def test_run_checks_start_lengths_for_every_kind(kind):
    prob, _ = gen_lasso(ProblemSpec("lasso1", seed=2, m=20, n=40, s=2))
    x0, y0 = prob.start
    with pytest.raises(ValueError, match="y0 must have length 20"):
        run(kind, prob, _KIND_CONFIGS[kind], x0, np.zeros(7), max_iter=1)
    with pytest.raises(ValueError, match="x0 must have length 40"):
        run(kind, prob, _KIND_CONFIGS[kind], np.zeros(39), y0, max_iter=1)


def _init_problem():
    return gen_lasso(ProblemSpec("lasso1", seed=2, m=20, n=40, s=2))[0]


def test_init_pdal_rejects_non_finite_start():
    # used to be accepted, and the first iteration stalled its line search
    prob = _init_problem()
    with pytest.raises(ValueError, match="y0 must be finite"):
        init_pdal(prob, np.zeros(40), np.full(20, np.nan), BaselineConfig())


def test_init_pda_rejects_start_of_wrong_length():
    # used to fail in the operator, naming no start
    prob = _init_problem()
    with pytest.raises(ValueError, match="y0 must have length 20"):
        init_pda(prob, np.zeros(40), np.zeros(7), BaselineConfig(tau=0.01, sigma=0.01))


def test_init_fista_and_pgm_reject_non_finite_start():
    # fista used to raise a RuntimeWarning on an inf start
    prob = _init_problem()
    x0 = np.zeros(40)
    x0[5] = np.inf
    with pytest.raises(ValueError, match="x0 must be finite"):
        init_fista(prob, x0, BaselineConfig())
    with pytest.raises(ValueError, match="x0 must be finite"):
        init_pgm(prob, x0, BaselineConfig(step=0.01))


def _budget_problem(family):
    if family == "lasso":
        prob, _ = gen_lasso(ProblemSpec("lasso1", seed=2, m=12, n=25, s=3))
        return prob
    if family == "game":
        return gen_matrix_game(ProblemSpec("game1", seed=3, m=6, n=5))
    rng = np.random.default_rng(8)
    K = rng.standard_normal((30, 12))
    K[np.abs(K) < 0.5] = 0.0
    return build_nnls(SparseMatrix.from_dense(K), rng.standard_normal(30),
                      swapped=family == "nnls-swapped")


def _budget_config(kind, prob):
    L = prob.K.operator_norm()
    beta = 0.01
    return {
        "pdac": _cfg(delta=0.62, alpha=1.27, beta0=beta, lambda0=default_lambda0(prob, beta),
                     nonmonotone=True, n_hat=50, n_zero=100),
        "apdac": _cfg(delta=1.0, alpha=0.99, gamma=prob.gamma, beta0=beta,
                      lambda0=default_lambda0(prob, beta)),
        "pda": BaselineConfig(tau=10.0 / L, sigma=1.0 / (10.0 * L)),
        "pdal": BaselineConfig(tau=1.0 / L, beta=beta),
        "pgm": BaselineConfig(step=1.0 / (L * L)),
        "fista": BaselineConfig(fista_beta=0.7),
    }[kind]


@pytest.mark.parametrize(
    "kind, family",
    [("pdac", "lasso"), ("apdac", "lasso"), ("pda", "lasso"), ("pgm", "lasso"),
     ("apdac", "nnls-swapped"), ("pdal", "lasso"), ("pdal", "nnls"), ("pdal", "game"),
     ("fista", "lasso")],
)
def test_run_matvecs_per_iteration_with_metric_rows(kind, family, matvec_count):
    # at trace_every=1 every iteration also writes an objective row; the row
    # reads the image the solver state caches and applies no matrix
    prob = _budget_problem(family)
    cfg = _budget_config(kind, prob)
    spent = []
    for budget in (20, 120):
        before = list(matvec_count)
        trace = run(kind, prob, cfg, *prob.start, max_iter=budget, trace_every=1)
        spent.append((matvec_count[0] - before[0], matvec_count[1] - before[1],
                      trace.rows[-1][5]))
    (f20, a20, c20), (f120, a120, c120) = spent
    iters, shrinks = 100, c120 - c20  # the last column: corrections or shrinks
    if kind == "pdal":
        assert shrinks > 0  # so the count below holds whatever the shrinks
    expected = {
        # pdal's trials recombine K*y+ when f* is a QuadShift; on a game each
        # line-search trial applies K* once, and each gap row (pd_gap_game)
        # applies K and K* once more
        ("pdal", "game"): (iters + iters, iters + shrinks + iters),
        ("fista", "lasso"): (iters + shrinks, iters),  # K x+ for each trial; K v is recombined
    }.get((kind, family), (iters, iters))
    assert (f120 - f20, a120 - a20) == expected


def test_pdal_carried_adjoint_image_stays_within_roundoff():
    # on a least-squares problem pdal carries K*y by recombination; the
    # 1/(1 + s) contraction per iteration keeps its drift bounded
    prob, _ = gen_lasso(ProblemSpec("lasso1", seed=1, m=100, n=500, s=5))
    cfg, _ = default_config(prob, "pdal")
    state = init_pdal(prob, *prob.start, cfg)
    for _ in range(2000):
        pdal_iterate(state, prob, cfg)
    assert state.corrections > 0
    fresh = prob.K.adjoint_apply(state.y)
    assert np.abs(state.Ky - fresh).max() <= 1e-10 * np.abs(fresh).max()


_SOLVER_FLAGS = ("delta", "alpha", "rho", "beta", "gamma", "lambda0", "lambda_cap",
                 "mu_corr", "nu_corr", "n_hat", "n_zero", "nonmonotone")
# a valid value other than the default for each field a run may leave unread
_UNREAD_CHANGES = {"rho": 0.5, "mu_corr": 20.0, "nu_corr": 2.0, "gamma": 0.3,
                   "n_hat": 1, "n_zero": 10**6, "lambda_cap": 1e-3}


@pytest.mark.parametrize("settings", [{}, {"nonmonotone": False}, {"delta": 1.0}],
                         ids=["default", "monotone", "delta1"])
@pytest.mark.parametrize("kind", ["pdac", "apdac"])
@pytest.mark.parametrize("family", ["lasso", "game", "nnls", "nnls-swapped"])
def test_default_config_unread_fields_are_unread(family, kind, settings):
    prob = _budget_problem(family)
    cfg, unread = default_config(prob, kind, **settings)
    assert unread == set()
    # every flag given at its resolved value names all the fields left unread
    flags = {name: getattr(cfg, "beta0" if name == "beta" else name) for name in _SOLVER_FLAGS}
    again, unread = default_config(prob, kind, **flags)
    assert again == cfg
    assert unread <= _UNREAD_CHANGES.keys()

    def rows(config):
        trace = run(kind, prob, config, *prob.start, max_iter=30)
        return [row[:1] + row[2:] for row in trace.rows]

    expected = rows(cfg)
    for name in unread:
        changed = dataclasses.replace(cfg, **{name: _UNREAD_CHANGES[name]})
        assert changed != cfg and rows(changed) == expected, name


def test_default_config_reports_unknown_and_unread_overrides():
    prob = _budget_problem("lasso")
    cfg, unread = default_config(prob, "pdac", gamma=0.5, tau=2.0, rho=None)
    assert unread == {"gamma", "tau"} and cfg.gamma == 0.5
    assert default_config(prob, "pdal", beta=0.5, delta=0.7)[1] == {"delta"}
    assert default_config(prob, "pda", beta=0.5)[1] == {"beta"}
    with pytest.raises(ConfigError, match="unknown solver kind"):
        default_config(prob, "newton")


# the default configs that cannot be formed at a scale of K; every other
# (scale, kind) must give a config its init accepts
_EXTREME_SCALE_REJECTIONS = {
    (0.0, "pda"): (ValueError, "zero operator"),
    (0.0, "pdal"): (ValueError, "zero operator"),
    (0.0, "pgm"): (ValueError, "zero operator"),
    (1e-200, "pgm"): (ConfigError, "step must be positive and finite"),  # 1/L^2 overflows
    (1e160, "pgm"): (ConfigError, "step must be positive and finite"),  # 1/L^2 underflows
}


@pytest.mark.parametrize("scale", [0.0, 1e-200, 1e160])
@pytest.mark.parametrize("kind", list(SOLVERS))
def test_default_config_at_extreme_scales(kind, scale):
    # the suite turns RuntimeWarnings into errors, so an over- or underflow
    # that numpy reports fails here too
    K = np.random.default_rng(6).standard_normal((6, 4)) * scale
    prob = build_nnls(K, np.ones(6))
    if (scale, kind) in _EXTREME_SCALE_REJECTIONS:
        error, message = _EXTREME_SCALE_REJECTIONS[scale, kind]
        with pytest.raises(error, match=message):
            default_config(prob, kind)
        return
    cfg, _ = default_config(prob, kind)
    cfg.validate(kind) if kind in ("pdac", "apdac") else cfg.validate()
    run(kind, prob, cfg, *prob.start, max_iter=0)  # the init accepts it


@pytest.mark.parametrize("scale", [1e-200, 1e160])
def test_default_lambda0_scales_with_k_at_extreme_scales(scale):
    K = np.random.default_rng(6).standard_normal((6, 4))
    prob = build_nnls(K * scale, np.ones(6))
    L = np.linalg.svd(K, compute_uv=False)[0]
    assert default_lambda0(prob, 1.0) == pytest.approx(0.99 / (L * scale), rel=1e-14, abs=0.0)



def test_default_config_spends_no_product_on_a_start_it_does_not_use():
    # L is asked for only to form the default start: a given lambda0, or a
    # config that validate rejects, costs no product and no Lanczos
    game = gen_matrix_game(ProblemSpec("game1", seed=3, m=30, n=30))
    for kind in ("pdac", "apdac"):
        assert default_config(game, kind, lambda0=0.5)[0].lambda0 == 0.5
    with pytest.raises(ConfigError, match="delta >= 1"):
        default_config(game, "apdac", delta=0.8)
    with pytest.raises(ConfigError, match="alpha"):
        default_config(game, "pdac", alpha=2.0)
    assert game.K.apply_calls == game.K.adjoint_calls == 0
    assert game.K.cached_norm is None


def test_default_apdac_reaches_the_c12_target_within_600_iterations():
    # the spectral start lets the accelerated run take full steps; from the
    # Frobenius start, 1 / ||K||_F, it held lambda sqrt(beta) L at 0.10 and
    # needed 11,547 iterations
    b = np.random.default_rng(1).standard_normal(1033)
    _, phi_star, _ = solve_reference(build_nnls(c12_matrix(), b))
    swapped = build_nnls(c12_matrix(), b, swapped=True)
    cfg, _ = default_config(swapped, "apdac")
    trace = run("apdac", swapped, cfg, *swapped.start, max_iter=600, reference_value=phi_star)
    assert min(trace.column("metric")) <= 1e-8


def test_init_pda_accepts_the_bound_at_extreme_scales():
    for scale in (1e-200, 1e160):
        prob = build_nnls(np.array([[3.0, 0.0], [0.0, 1.0]]) * scale, np.ones(2))
        L = prob.K.operator_norm()
        init_pda(prob, *prob.start, BaselineConfig(tau=20.0 / L, sigma=1.0 / (20.0 * L)))
        with pytest.raises(ConfigError, match="tau"):
            init_pda(prob, *prob.start, BaselineConfig(tau=2.0 / L, sigma=1.0 / L))


_BY_HAND = {
    "pdac": (lambda prob, cfg: init_state(prob, *prob.start, cfg), pdac_iterate),
    "apdac": (lambda prob, cfg: init_state(prob, *prob.start, cfg, kind="apdac"), apdac_iterate),
    "pda": (lambda prob, cfg: init_pda(prob, *prob.start, cfg), pda_iterate),
    "pdal": (lambda prob, cfg: init_pdal(prob, *prob.start, cfg), pdal_iterate),
    "pgm": (lambda prob, cfg: init_pgm(prob, prob.start[0], cfg), pgm_iterate),
    "fista": (lambda prob, cfg: init_fista(prob, prob.start[0], cfg), fista_iterate),
}


# the trace columns (3 lambda, 4 beta, 5 corrections) a kind holds fixed
_FIXED_COLUMNS = {
    "pdac": lambda cfg: {4: cfg.beta0},
    "pda": lambda cfg: {3: cfg.tau, 4: cfg.sigma / cfg.tau, 5: 0},
    "pdal": lambda cfg: {4: cfg.beta},
    "pgm": lambda cfg: {3: cfg.step, 4: 0.0, 5: 0},
    "fista": lambda cfg: {4: 0.0},
}


@pytest.mark.parametrize(
    "kind, family",
    [(kind, "lasso") for kind in _BY_HAND] + [("pdac", "nnls-swapped"), ("apdac", "nnls-swapped")],
)
def test_run_reads_every_state_by_the_trace_column_names(kind, family):
    # each row's lambda, beta, corrections are the state's lam, beta,
    # corrections, and its metric is the objective at the state's
    # objective_var and that point's image, bit for bit
    prob = _budget_problem(family)
    cfg = _budget_config(kind, prob)
    trace = run(kind, prob, cfg, *prob.start, max_iter=20, trace_every=1)
    init, iterate = _BY_HAND[kind]
    st = init(prob, cfg)
    var = prob.objective_var
    assert len(trace.rows) == 21
    for n, (it, _, metric, lam, beta, corrections) in enumerate(trace.rows):
        if n:
            iterate(st, prob, cfg)
        expected = prob.objective(getattr(st, var), getattr(st, "K" + var))
        assert it == n and corrections == st.corrections
        assert np.array([metric, lam, beta]).tobytes() == \
            np.array([expected, st.lam, st.beta], dtype=float).tobytes()
    for column, value in _FIXED_COLUMNS.get(kind, lambda cfg: {})(cfg).items():
        assert {row[column] for row in trace.rows} == {value}


def test_trace_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("iter,seconds,metric\n0,0.0,1.0\n")
    with pytest.raises(ValueError, match="header"):
        IterationTrace.from_csv(path)
    path.write_text(solvers.TRACE_HEADER + "\n0,0.0,1.0,1.0,1.0\n")
    with pytest.raises(ValueError, match="6 fields"):
        IterationTrace.from_csv(path)


def test_trace_csv_round_trip(tmp_path):
    prob, _ = gen_lasso(ProblemSpec("lasso1", seed=2, m=8, n=12, s=2))
    cfg = _cfg(delta=0.62, alpha=1.27, lambda0=0.1, beta0=1.0)
    trace = run("pdac", prob, cfg, *prob.start, max_iter=30, trace_every=7)
    path = tmp_path / "t.csv"
    trace.to_csv(path)
    back = IterationTrace.from_csv(path)
    assert back.rows == trace.rows


def test_trace_csv_reads_back_bit_for_bit(tmp_path):
    trace = IterationTrace()
    for row in [(0, 0.0, math.nan, 1.0, 1.0, 0), (1, 1e-7, -0.0, 5e-324, math.inf, 3),
                (7, 0.1 + 0.2, 1.0 / 3.0, 2.0 ** -1074, 1.7976931348623157e308, 12)]:
        trace.append(*row)
    path = tmp_path / "t.csv"
    trace.to_csv(path)
    back = IterationTrace.from_csv(path).rows
    assert [row[::5] for row in back] == [row[::5] for row in trace.rows]
    assert all(type(v) is int for row in back for v in row[::5])
    assert np.array([r[1:5] for r in back]).tobytes() == \
        np.array([r[1:5] for r in trace.rows]).tobytes()


def _game_run_pieces(kind, game):
    """Config, initial state, iterate and documented ergodic (weight, z, y,
    head) for a hand-written run of ``kind`` on a game."""
    x0, y0 = game.start
    if kind in ("pdac", "apdac"):
        gamma = 0.1 if kind == "apdac" else 0.0
        cfg = _cfg(delta=1.0, alpha=0.99, beta0=1.0, gamma=gamma,
                   lambda0=default_lambda0(game, 1.0))
        st = init_state(game, x0, y0, cfg, kind=kind)
        step = apdac_iterate if kind == "apdac" else pdac_iterate

        def sample(st):
            weight = st.beta * st.lam if kind == "apdac" else st.lam
            return weight, st.x + cfg.delta * (st.x - st.x_prev), st.y

        return cfg, st, step, sample, cfg.delta
    L = game.K.operator_norm()
    if kind == "pda":
        cfg = BaselineConfig(tau=1.0 / L, sigma=1.0 / L)
        return cfg, init_pda(game, x0, y0, cfg), pda_iterate, lambda st: (1.0, st.x, st.y), 1.0
    cfg = BaselineConfig(tau=1.0 / L, beta=1.0)
    return cfg, init_pdal(game, x0, y0, cfg), pdal_iterate, lambda st: (st.lam, st.x, st.y), 1.0


@pytest.mark.parametrize("kind", ["pdac", "apdac", "pda", "pdal"])
def test_run_game_ergodic_gap_decreases(kind):
    game = gen_matrix_game(ProblemSpec("game1", seed=3, m=30, n=30))
    cfg, st, step, sample, head = _game_run_pieces(kind, game)
    trace = run(kind, game, cfg, *game.start, max_iter=3000, trace_every=1000)
    gaps = trace.column("metric")
    assert gaps[-1] < 0.2 * gaps[0]
    # the driver's metric is the gap of the documented weighted average
    x0, y0 = game.start
    avg = ErgodicAverage(x0, head)
    expect = [pd_gap_game(game.K, x0, y0)]
    for n in range(1, 3001):
        step(st, game, cfg)
        avg.update(*sample(st))
        if n % 1000 == 0:
            expect.append(pd_gap_game(game.K, avg.X, avg.Y))
    assert gaps == expect


@pytest.mark.parametrize("kind", list(SOLVERS))
def test_run_time_budget_ends_on_final_row(kind, monkeypatch):
    # run looks the iterate up by name when it starts, so a wrapped one runs
    prob = _budget_problem("lasso")
    calls = []
    iterate = getattr(solvers, f"{kind}_iterate")

    def counted(*args):
        calls.append(1)
        return iterate(*args)

    monkeypatch.setattr(solvers, f"{kind}_iterate", counted)
    trace = run(kind, prob, _budget_config(kind, prob), *prob.start, max_iter=100,
                max_seconds=0.0, trace_every=1000)
    assert 1 <= len(calls) < 100
    assert trace.rows[-1][0] == len(calls)


def test_run_pda_on_game():
    game = gen_matrix_game(ProblemSpec("game2", seed=3, m=16, n=12))
    L = game.K.operator_norm()
    bcfg = BaselineConfig(tau=1.0 / L, sigma=1.0 / L)
    trace = run("pda", game, bcfg, *game.start, max_iter=2000, trace_every=500)
    gaps = trace.column("metric")
    assert gaps[-1] < 0.5 * gaps[0]
