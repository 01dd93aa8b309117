import numpy as np
import pytest

from oracles import (
    IterateWindow,
    Zero,
    find_burn_in,
    gap_D,
    gap_P,
    lyapunov_sample,
    lyapunov_series,
)
from saddlesolve.diagnostics import ErgodicAverage, ReferencePoint
from saddlesolve.linop import LinearOperator
from saddlesolve.problems import ProblemSpec, SaddleProblem, gen_lasso
from saddlesolve.prox import IndSimplex, QuadShift, ScaledL1
from saddlesolve.solvers import SolverConfig, default_lambda0, init_state, pdac_iterate
from saddlesolve.oracle import solve_reference


def _zero_ref(xdim=1, ydim=1):
    return ReferencePoint(x_bar=np.zeros(xdim), y_bar=np.zeros(ydim), quality=0.0)


def _degenerate_problem():
    # K = 0-free toy with mu = 0: P vanishes identically
    return SaddleProblem(
        g=ScaledL1(0.0), fstar=QuadShift(np.array([0.0])), K=LinearOperator(np.array([[1.0]]))
    )


def test_gap_p_zero_at_reference():
    prob = _degenerate_problem()
    ref = _zero_ref()
    assert gap_P(prob, ref, np.zeros(1)) == 0.0
    for x in (-2.0, 0.5, 3.0):
        assert gap_P(prob, ref, np.array([x])) == 0.0  # mu = 0, y_bar = 0


def test_gap_d_zero_at_reference():
    prob = _degenerate_problem()
    ref = _zero_ref()
    assert gap_D(prob, ref, np.zeros(1)) == 0.0


def test_gap_indicator_sentinel():
    prob = SaddleProblem(g=Zero(), fstar=IndSimplex(), K=LinearOperator(np.eye(2)))
    ref = ReferencePoint(
        x_bar=np.array([0.5, 0.5]), y_bar=np.array([0.5, 0.5]), quality=0.0
    )
    assert gap_D(prob, ref, np.array([0.9, 0.4])) == np.inf
    assert np.isfinite(gap_D(prob, ref, np.array([0.25, 0.75])))


def test_gaps_nonnegative_and_convex_on_solved_instance(rng):
    prob, _ = gen_lasso(ProblemSpec("lasso1", seed=17, m=12, n=30, s=3))
    ref, _, _ = solve_reference(prob, max_iter=100000)
    assert ref.quality <= 1e-8
    xs = [rng.uniform(-1, 1, 30) for _ in range(20)]
    ys = [rng.uniform(-1, 1, 12) for _ in range(20)]
    for x in xs:
        assert gap_P(prob, ref, x) >= -1e-8
    for y in ys:
        assert gap_D(prob, ref, y) >= -1e-8
    # convexity along segments
    for x1, x2 in zip(xs[:10], xs[10:]):
        for t in (0.25, 0.5, 0.75):
            mid = gap_P(prob, ref, t * x1 + (1 - t) * x2)
            assert mid <= t * gap_P(prob, ref, x1) + (1 - t) * gap_P(prob, ref, x2) + 1e-9
    for y1, y2 in zip(ys[:10], ys[10:]):
        for t in (0.25, 0.5, 0.75):
            mid = gap_D(prob, ref, t * y1 + (1 - t) * y2)
            assert mid <= t * gap_D(prob, ref, y1) + (1 - t) * gap_D(prob, ref, y2) + 1e-9


def _window(rec=None):
    if rec is None:
        return IterateWindow(
            n=1,
            x_m1=np.array([0.9]),
            x_0=np.array([0.5]),
            x_p1=np.array([0.3]),
            y_m1=np.array([0.2]),
            y_0=np.array([0.1]),
            lam_m1=0.8,
            lam_0=0.7,
            lam_p1=0.6,
        )
    return rec


def test_lyapunov_all_zero_at_saddle():
    prob = _degenerate_problem()
    ref = _zero_ref()
    cfg = SolverConfig(delta=1.0, alpha=0.9, beta0=1.0)
    w = IterateWindow(
        n=3,
        x_m1=np.zeros(1),
        x_0=np.zeros(1),
        x_p1=np.zeros(1),
        y_m1=np.zeros(1),
        y_0=np.zeros(1),
        lam_m1=0.5,
        lam_0=0.5,
        lam_p1=0.5,
    )
    s = lyapunov_sample(w, ref, prob, cfg)
    assert s.a_n == 0.0 and s.b_n == 0.0 and s.eta_n == 0.0


def test_lyapunov_matches_term_by_term_fixture(fixtures):
    rec = fixtures["lyapunov_1d"]
    prob = SaddleProblem(
        g=ScaledL1(0.3), fstar=QuadShift(np.array([0.1])), K=LinearOperator(np.array([[2.0]]))
    )
    ref = ReferencePoint(x_bar=np.array([0.2]), y_bar=np.array([0.4]), quality=0.0)
    cfg = SolverConfig(delta=0.62, alpha=1.27, beta0=1.0)
    s = lyapunov_sample(_window(), ref, prob, cfg)
    assert s.a_n == pytest.approx(rec["a_n"], rel=1e-12)
    assert s.b_n == pytest.approx(rec["b_n"], rel=1e-12)
    assert s.eta_n == pytest.approx(rec["eta_n"], rel=1e-12)


def test_lyapunov_a_dominates_distance():
    prob, _ = gen_lasso(ProblemSpec("lasso1", seed=23, m=10, n=20, s=2))
    ref, _, _ = solve_reference(prob, max_iter=50000)
    cfg = SolverConfig(
        delta=0.62, alpha=1.27, beta0=1.0, lambda0=default_lambda0(prob, 1.0)
    )
    st = init_state(prob, *prob.start, cfg)
    xs, ys, lams = [st.x.copy()], [st.y.copy()], [st.lam, st.lam_next]
    for _ in range(60):
        pdac_iterate(st, prob, cfg)
        xs.append(st.x.copy())
        ys.append(st.y.copy())
        lams.append(st.lam_next)
    for s in lyapunov_series(xs, ys, lams, ref, prob, cfg, every=1):
        d = xs[s.n] - ref.x_bar
        assert s.a_n >= float(d @ d) - 1e-10


def test_lyapunov_b_nonnegative_after_burn_in_delta_ge_one():
    prob, _ = gen_lasso(ProblemSpec("lasso1", seed=29, m=12, n=25, s=3))
    ref, _, _ = solve_reference(prob, max_iter=100000)
    cfg = SolverConfig(
        delta=1.0, alpha=0.99, beta0=1.0, lambda0=default_lambda0(prob, 1.0)
    )
    st = init_state(prob, *prob.start, cfg)
    xs, ys, lams = [st.x.copy()], [st.y.copy()], [st.lam, st.lam_next]
    for _ in range(2000):
        pdac_iterate(st, prob, cfg)
        xs.append(st.x.copy())
        ys.append(st.y.copy())
        lams.append(st.lam_next)
    n_star = find_burn_in(lams, cfg, consecutive=50)
    assert n_star is not None
    for s in lyapunov_series(xs, ys, lams, ref, prob, cfg):
        if s.n > n_star:
            assert s.b_n >= -1e-9


def test_lyapunov_rejects_poor_reference():
    prob = _degenerate_problem()
    cfg = SolverConfig(delta=1.0, alpha=0.9)
    bad_ref = ReferencePoint(x_bar=np.zeros(1), y_bar=np.zeros(1), quality=1e-3)
    with pytest.raises(ValueError, match="quality"):
        lyapunov_sample(_window(), bad_ref, prob, cfg)


def test_lyapunov_missing_window():
    prob = _degenerate_problem()
    cfg = SolverConfig(delta=1.0, alpha=0.9)
    with pytest.raises(ValueError, match="insufficient history"):
        lyapunov_sample(None, _zero_ref(), prob, cfg)


def test_find_burn_in():
    cfg = SolverConfig(delta=0.62, alpha=1.27)
    lams = [1.0] * 200  # constant steps satisfy all three expressions
    assert find_burn_in(lams, cfg, consecutive=50) == 1
    # collapsing ratio lam_{n+1}/lam_n breaks expression 2 everywhere
    bad = [2.0**-n for n in range(200)]
    assert find_burn_in(bad, cfg, consecutive=50) is None


def test_ergodic_single_update(fixtures):
    rec = fixtures["ergodic_single"]
    avg = ErgodicAverage(head_point=np.array([2.0]), delta=0.62)
    avg.update(0.7, np.array([5.0]), np.array([3.0]))
    assert avg.X[0] == pytest.approx(rec["X"], rel=1e-12)
    assert avg.Y[0] == pytest.approx(rec["Y"], rel=1e-12)


def test_ergodic_idempotent_on_constant():
    avg = ErgodicAverage(head_point=np.array([4.0, -1.0]), delta=0.8)
    for w in (0.5, 1.2, 0.01, 3.0):
        avg.update(w, np.array([4.0, -1.0]), np.array([7.0]))
        assert np.allclose(avg.X, [4.0, -1.0])
        assert np.allclose(avg.Y, [7.0])


def test_ergodic_weights_normalize(rng):
    avg = ErgodicAverage(head_point=np.array([1.0]), delta=0.62)
    total = 0.0
    head = None
    for _ in range(10000):
        w = float(rng.uniform(0.1, 2.0))
        avg.update(w, np.array([1.0]), np.array([1.0]))
        total += w
        if head is None:
            head = avg.head_weight
    # weights of the X combination sum to 1
    assert (head + total) / (avg.head_weight + avg.s_j) == pytest.approx(1.0, abs=1e-12)
    assert avg.X[0] == pytest.approx(1.0, abs=1e-12)


def test_ergodic_dual_average_needs_an_update():
    avg = ErgodicAverage(np.zeros(2), 1.0)
    assert avg.X.tolist() == [0.0, 0.0]
    with pytest.raises(ValueError, match="no dual updates"):
        avg.Y


def test_ergodic_rejects_nonpositive_weight():
    avg = ErgodicAverage(head_point=np.zeros(1), delta=1.0)
    with pytest.raises(ValueError, match="positive"):
        avg.update(0.0, np.zeros(1), np.zeros(1))
