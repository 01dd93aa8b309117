"""Acceptance suite: one test per criterion, each printing a PASS line.

The conftest terminal summary repeats the PASS/FAIL status of every test in
this module after the run.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from saddlesolve.cli import DATA_ENV, reference_solve_cmd, run_experiment
from saddlesolve.diagnostics import ErgodicAverage
from saddlesolve.linop import SparseMatrix, read_matrix_market
from oracles import (
    Zero,
    c12_matrix_market_text,
    lyapunov_series,
    prox_l1_oracle,
    prox_quad_shift_oracle,
    qp_project_nonneg_oracle,
    qp_project_simplex_oracle,
)
from saddlesolve.oracle import solve_reference
from saddlesolve.problems import (
    ProblemSpec,
    build_nnls,
    gen_lasso,
    gen_matrix_game,
    pd_gap_game,
)
from saddlesolve.prox import (
    IndNonneg,
    IndSimplex,
    QuadShift,
    ScaledL1,
    prox_l1,
    proj_nonneg,
    proj_simplex,
)
from saddlesolve.solvers import (
    BaselineConfig,
    ConfigError,
    SolverConfig,
    apdac_iterate,
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
)

LASSO_BETA = 1.0 / 400.0


@pytest.fixture(scope="module")
def lasso_40x100():
    prob, _ = gen_lasso(ProblemSpec("lasso1", seed=11, m=40, n=100, s=5))
    ref, phi_star, _ = solve_reference(prob, max_iter=300000)
    assert ref.quality <= 1e-8
    return prob, ref, phi_star


@pytest.fixture(scope="module")
def lasso_40x100_run(lasso_40x100):
    """One 30k-iteration corrected run; history recorded for the first 10k."""
    prob, ref, _ = lasso_40x100
    cfg, _ = default_config(prob, "pdac")
    st = init_state(prob, *prob.start, cfg)
    xs, ys, lams = [st.x.copy()], [st.y.copy()], [st.lam, st.lam_next]
    for n in range(30000):
        pdac_iterate(st, prob, cfg)
        if n < 10000:
            xs.append(st.x.copy())
            ys.append(st.y.copy())
            lams.append(st.lam_next)
    return cfg, xs, ys, lams, st.corrections


def test_c01_prox_matches_oracles(rng):
    t0 = time.perf_counter()
    for _ in range(1000):
        d = int(rng.integers(1, 7))
        x = rng.uniform(-5.0, 5.0, size=d)
        t = float(rng.uniform(0.0, 3.0))
        assert np.all(np.abs(prox_l1(x, t) - prox_l1_oracle(x, t)) <= 1e-8)
        s = float(rng.uniform(0.05, 4.0))
        b = rng.uniform(-2.0, 2.0, size=d)
        assert np.all(
            np.abs(QuadShift(b).prox(x, s) - prox_quad_shift_oracle(x, s, b)) <= 1e-8
        )
        assert np.all(np.abs(proj_nonneg(x) - qp_project_nonneg_oracle(x).value) <= 1e-8)
        assert np.all(np.abs(proj_simplex(x) - qp_project_simplex_oracle(x).value) <= 1e-8)
    catalog = [
        ScaledL1(0.4),
        QuadShift(rng.uniform(-1, 1, size=4)),
        IndNonneg(),
        IndSimplex(),
        Zero(),
    ]
    for fn in catalog:
        for _ in range(500):
            u = rng.uniform(-4, 4, size=4)
            v = rng.uniform(-4, 4, size=4)
            pu, pv = fn.prox(u, 0.7), fn.prox(v, 0.7)
            d_ = pu - pv
            assert float(d_ @ d_) <= float(d_ @ (u - v)) + 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"C1 prox correctness vs oracles (1000 inputs, firm nonexpansiveness): PASS [{elapsed:.1f}s]")


def test_c02_fixed_point_sanity():
    prob, _ = gen_lasso(ProblemSpec("lasso1", seed=42, m=20, n=40, s=4))
    ref, _, _ = solve_reference(prob, max_iter=300000)
    assert ref.quality <= 1e-8
    xb, yb = ref.x_bar, ref.y_bar
    moves = {}

    cfg = SolverConfig(
        delta=0.62, alpha=1.27, rho=0.7, beta0=LASSO_BETA,
        lambda0=default_lambda0(prob, LASSO_BETA),
    )
    st = init_state(prob, xb, yb, cfg)
    worst = 0.0
    for _ in range(100):
        xp, yp = st.x.copy(), st.y.copy()
        pdac_iterate(st, prob, cfg)
        worst = max(worst, float(np.linalg.norm(st.x - xp) + np.linalg.norm(st.y - yp)))
    moves["pdac"] = worst

    acfg, _ = default_config(prob, "apdac")
    st = init_state(prob, xb, yb, acfg, kind="apdac")
    worst = 0.0
    for _ in range(100):
        xp, yp = st.x.copy(), st.y.copy()
        apdac_iterate(st, prob, acfg)
        worst = max(worst, float(np.linalg.norm(st.x - xp) + np.linalg.norm(st.y - yp)))
    moves["apdac"] = worst

    bcfg, _ = default_config(prob, "pda")
    stp = init_pda(prob, xb, yb, bcfg)
    worst = 0.0
    for _ in range(100):
        xp, yp = stp.x.copy(), stp.y.copy()
        pda_iterate(stp, prob, bcfg)
        worst = max(worst, float(np.linalg.norm(stp.x - xp) + np.linalg.norm(stp.y - yp)))
    moves["pda"] = worst

    lcfg, _ = default_config(prob, "pdal")
    stl = init_pdal(prob, xb, yb, lcfg)
    worst = 0.0
    for _ in range(100):
        xp, yp = stl.x.copy(), stl.y.copy()
        pdal_iterate(stl, prob, lcfg)
        worst = max(worst, float(np.linalg.norm(stl.x - xp) + np.linalg.norm(stl.y - yp)))
    moves["pdal"] = worst

    assert all(v <= 1e-9 for v in moves.values()), moves
    print(f"C2 fixed-point sanity at certified saddle (max move {max(moves.values()):.2e}): PASS")


def test_c03_config_gate():
    def cfg(**kw):
        base = dict(delta=0.62, alpha=1.27, rho=0.7, mu_corr=10.0, nu_corr=1.5, lambda0=1.0)
        base.update(kw)
        return SolverConfig(**base)

    with pytest.raises(ConfigError, match="delta"):
        cfg(delta=0.618).validate()
    with pytest.raises(ConfigError, match="delta"):
        cfg(delta=0.5).validate()
    with pytest.raises(ConfigError, match="alpha"):
        cfg(alpha=1.0 / math.sqrt(0.62)).validate()
    with pytest.raises(ConfigError, match="nu"):
        cfg(nu_corr=1.0).validate()
    with pytest.raises(ConfigError, match="rho"):
        cfg(rho=1.0).validate()
    cfg(delta=0.62, alpha=1.27).validate()
    with pytest.raises(ConfigError, match="alpha"):
        cfg(alpha=1.28).validate()
    print("C3 config gate (named-bound rejections, strict alpha check): PASS")


def test_c04_step_size_floor():
    t0 = time.perf_counter()
    game = gen_matrix_game(ProblemSpec("game1", seed=100, m=50, n=50))
    cfg = SolverConfig(delta=1.0, alpha=0.99, beta0=1.0, lambda0=1.0)
    st = init_state(game, *game.start, cfg)
    lams = [st.lam, st.lam_next]
    for _ in range(20000):
        pdac_iterate(st, game, cfg)
        lams.append(st.lam_next)
    assert st.corrections == 0
    L = game.K.operator_norm()
    floor = min(cfg.alpha / (math.sqrt(cfg.beta0) * L), lams[1])
    assert min(lams) >= floor - 1e-12
    assert min(lams) < cfg.lambda0  # the ratio branch actually engaged
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"C4 step floor min lam {min(lams):.6f} >= {floor:.6f} - 1e-12: PASS [{elapsed:.1f}s]"
    )


def test_c05_lyapunov_decrease(lasso_40x100, lasso_40x100_run):
    t0 = time.perf_counter()
    prob, ref, _ = lasso_40x100
    cfg, xs, ys, lams, _ = lasso_40x100_run
    samples = lyapunov_series(xs, ys, lams, ref, prob, cfg, every=1)
    a = {s.n: s.a_n for s in samples}
    b = {s.n: s.b_n for s in samples}
    top = len(xs) - 2
    violations = [
        n for n in range(1, top) if not a[n + 1] <= a[n] - b[n] + 1e-7 * max(1.0, a[n])
    ]
    n_star = (max(violations) + 1) if violations else 1
    assert n_star <= 200
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"C5 Lyapunov decrease a_(n+1) <= a_n - b_n, burn-in N* = {n_star} <= 200: PASS")


def test_c06_correction_frequency(lasso_40x100_run):
    _, _, _, _, corrections = lasso_40x100_run
    assert corrections <= 50
    print(f"C6 correction backtracks over 30k iterations = {corrections} <= 50: PASS")


def test_c07_ergodic_rate_trend():
    t0 = time.perf_counter()
    game = gen_matrix_game(ProblemSpec("game1", seed=100, m=50, n=50))
    cfg = SolverConfig(delta=1.0, alpha=0.99, beta0=1.0, lambda0=default_lambda0(game, 1.0))
    st = init_state(game, *game.start, cfg)
    x0, y0 = game.start
    avg = ErgodicAverage(head_point=x0, delta=cfg.delta)
    initial = pd_gap_game(game.K, x0, y0)
    checkpoints = {2000, 4000, 8000, 16000, 50000}
    gaps = {}
    for n in range(50000):
        pdac_iterate(st, game, cfg)
        z = st.x + cfg.delta * (st.x - st.x_prev)
        avg.update(st.lam, z, st.y)
        if n + 1 in checkpoints:
            gaps[n + 1] = pd_gap_game(game.K, avg.X, avg.Y)
    for j in (2000, 4000, 8000):
        assert gaps[2 * j] / gaps[j] <= 0.8, (j, gaps)
    assert gaps[50000] <= 1e-3 * initial
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    ratios = ", ".join(f"{gaps[2 * j] / gaps[j]:.2f}" for j in (2000, 4000, 8000))
    print(
        f"C7 ergodic gap halving ratios [{ratios}] <= 0.8, final/initial "
        f"{gaps[50000] / initial:.1e} <= 1e-3: PASS [{elapsed:.1f}s]"
    )


def test_c08_accelerated_growth():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    K = rng.standard_normal((60, 40))
    K[np.abs(K) < 0.7] = 0.0
    sp = SparseMatrix.from_dense(K)
    b = rng.standard_normal(60)
    prob = build_nnls(sp, b, swapped=True)
    assert prob.gamma == 0.5
    cfg, _ = default_config(prob, "apdac")
    st = init_state(prob, *prob.start, cfg, kind="apdac")
    betas = [st.beta]
    sigmas = [math.sqrt(st.beta) * st.lam_next]
    for _ in range(10000):
        apdac_iterate(st, prob, cfg)
        betas.append(st.beta)
        sigmas.append(math.sqrt(st.beta) * st.lam_next)
    betas = np.array(betas)
    sigmas = np.array(sigmas)
    assert np.all(np.diff(betas) > 0.0)
    assert np.all(np.diff(sigmas) <= 1e-12)
    growth = betas[10000] / betas[1000]
    assert growth >= 25.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"C8 accelerated structure: beta strictly up, sigma down, "
        f"beta_10000/beta_1000 = {growth:.1f} >= 25: PASS [{elapsed:.1f}s]"
    )


def test_c09_gamma_zero_reduction():
    prob, _ = gen_lasso(ProblemSpec("lasso1", seed=33, m=20, n=30, s=3))
    cfg = SolverConfig(
        delta=1.0, alpha=0.99, beta0=1.0, gamma=0.0, lambda0=default_lambda0(prob, 1.0)
    )
    s_acc = init_state(prob, *prob.start, cfg, kind="apdac")
    s_base = init_state(prob, *prob.start, cfg, kind="pdac")
    for _ in range(500):
        apdac_iterate(s_acc, prob, cfg)
        pdac_iterate(s_base, prob, cfg)
        assert np.array_equal(s_acc.x, s_base.x)
        assert np.array_equal(s_acc.y, s_base.y)
        assert s_acc.lam_next == s_base.lam_next
    print("C9 gamma = 0 reduction: 500 iterations bit-identical to the base solver: PASS")


def test_c10_baseline_parity(lasso_40x100):
    prob, _, phi_star = lasso_40x100
    L = prob.K.operator_norm()
    n = prob.K.cols

    bg, _ = default_config(prob, "pgm")
    st = init_pgm(prob, np.zeros(n), bg)
    pgm_iters = None
    for k in range(500000):
        pgm_iterate(st, prob, bg)
        if prob.objective(st.x) - phi_star <= 1e-6:
            pgm_iters = k + 1
            break
    bf, _ = default_config(prob, "fista")
    stf = init_fista(prob, np.zeros(n), bf)
    fista_iters = None
    for k in range(500000):
        fista_iterate(stf, prob, bf)
        if prob.objective(stf.x) - phi_star <= 1e-6:
            fista_iters = k + 1
            break
    assert fista_iters is not None and pgm_iters is not None
    assert fista_iters < pgm_iters

    bp = BaselineConfig(tau=20.0 / L, sigma=0.999 / (20.0 * L))
    stp = init_pda(prob, *prob.start, bp)
    windows = []
    for k in range(30000):
        pda_iterate(stp, prob, bp)
        if (k + 1) % 1000 == 0:
            windows.append(prob.objective(stp.x) - phi_star)
    slack = 1e-12
    burn = None
    for start in range(len(windows)):
        if all(b <= a + slack for a, b in zip(windows[start:], windows[start + 1 :])):
            burn = start
            break
    assert burn is not None and burn <= len(windows) // 2
    print(
        f"C10 baseline parity: FISTA {fista_iters} < PGM {pgm_iters} iterations to 1e-6; "
        f"PDA windows decreasing from window {burn}: PASS"
    )


def test_c11_cli_end_to_end(tmp_path):
    t0 = time.perf_counter()
    ref_path = tmp_path / "lasso1_ref.json"
    assert (
        reference_solve_cmd(
            ["--problem", "lasso1", "--seed", "1", "--max-iters", "300000",
             "--output", str(ref_path)]
        )
        == 0
    )
    assert json.loads(ref_path.read_text())["residual"] <= 1e-8

    pdac_out = tmp_path / "lasso1_pdac.csv"
    assert (
        run_experiment(
            ["--problem", "lasso1", "--solver", "pdac", "--max-iters", "30000",
             "--beta", "0.0025", "--delta", "0.62", "--alpha", "1.27", "--rho", "0.7",
             "--n-hat", "5000", "--trace-every", "100",
             "--reference", str(ref_path), "--output", str(pdac_out)]
        )
        == 0
    )
    pda_out = tmp_path / "lasso1_pda.csv"
    assert (
        run_experiment(
            ["--problem", "lasso1", "--solver", "pda", "--max-iters", "30000",
             "--trace-every", "100", "--reference", str(ref_path),
             "--output", str(pda_out)]
        )
        == 0
    )

    def final_metric(path):
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,seconds,metric,lambda,beta,corrections"
        return float(lines[-1].split(",")[2])

    pdac_final = final_metric(pdac_out)
    pda_final = final_metric(pda_out)
    # qualitative ordering with 10x failure margin; differences below the
    # objective-evaluation roundoff floor (phi* ~ 4.2) count as a tie
    assert pdac_final <= max(10.0 * pda_final, 1e-10), (pdac_final, pda_final)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(
        f"C11 CLI full-scale LASSO: PDA-C final gap {pdac_final:.2e} vs PDA "
        f"{pda_final:.2e}: PASS [{elapsed:.0f}s]"
    )


def _naive_dense_parse(path):
    with open(path) as fh:
        banner = fh.readline().split()
        symmetry = banner[4].lower()
        rows = cols = None
        dense = None
        for line in fh:
            s = line.strip()
            if not s or s.startswith("%"):
                continue
            toks = s.split()
            if rows is None:
                rows, cols = int(toks[0]), int(toks[1])
                dense = np.zeros((rows, cols))
                continue
            i, j, v = int(toks[0]) - 1, int(toks[1]) - 1, float(toks[2])
            dense[i, j] += v
            if symmetry == "symmetric" and i != j:
                dense[j, i] += v
    return dense


def test_c12_matrix_market_round_trip(tmp_path):
    data_dir = os.environ.get(DATA_ENV)
    reports = []
    for name in ("well1033.mtx", "illc1033.mtx"):
        real = os.path.join(data_dir, name) if data_dir else None
        if real and os.path.exists(real):
            path, source = real, "real"
        else:
            path = tmp_path / name
            path.write_text(c12_matrix_market_text())
            path, source = str(path), "synthetic"
        sp = read_matrix_market(path)
        assert (sp.rows, sp.cols) == (1033, 320)
        assert np.array_equal(sp.to_dense(), _naive_dense_parse(path))
        reports.append(f"{name}[{source}]")
    print(f"C12 Matrix Market load + entry-exact round trip ({', '.join(reports)}): PASS")
