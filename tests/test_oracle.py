import json
import math
from pathlib import Path

import numpy as np
import pytest

from saddlesolve.linop import LinearOperator
from saddlesolve.oracle import (
    _polish_lasso,
    _polish_nnls,
    _restarted_step,
    saddle_residual,
    solve_reference,
)
from saddlesolve.problems import ProblemSpec, SaddleProblem, build_nnls, gen_lasso
from saddlesolve.prox import QuadShift, ScaledL1, proj_simplex
from saddlesolve.solvers import BaselineConfig, init_fista
from make_fixtures import build_records, FIXTURE_PATH
from oracles import (
    Zero,
    c12_matrix,
    gram_norm_oracle,
    naive_matvec,
    prox_l1_oracle,
    qp_project_nonneg_oracle,
    qp_project_simplex_oracle,
)

BENCH_REFS = Path(__file__).resolve().parent.parent / "bench" / "refs"


def test_fixtures_file_fresh():
    # the committed fixtures equal a fresh oracle regeneration
    with open(FIXTURE_PATH) as fh:
        on_disk = fh.read().strip().splitlines()
    assert build_records() == on_disk


def test_simplex_oracle_cases():
    res = qp_project_simplex_oracle(np.array([0.5, 0.5]))
    assert np.allclose(res.value, [0.5, 0.5]) and res.certificate <= 1e-12
    res = qp_project_simplex_oracle(np.array([2.0, 0.0]))
    assert np.allclose(res.value, [1.0, 0.0])


def test_simplex_oracle_size_cap():
    with pytest.raises(ValueError, match="capped"):
        qp_project_simplex_oracle(np.zeros(9))
    with pytest.raises(ValueError, match="capped"):
        qp_project_nonneg_oracle(np.zeros(9))


def test_simplex_oracle_agrees_with_projection(rng):
    for _ in range(1000):
        v = rng.uniform(-4.0, 4.0, size=5)
        res = qp_project_simplex_oracle(v)
        assert np.allclose(res.value, proj_simplex(v), atol=1e-8)
        assert res.certificate <= 1e-10


def test_naive_matvec_small():
    out = naive_matvec([[1.0, 2.0], [3.0, 4.0]], [1.0, 1.0])
    assert out.tolist() == [3.0, 7.0]


def test_gram_norm_oracle_cap_and_diagonal():
    # distinct singular values keep the characteristic polynomial well
    # conditioned (multiple roots would not be)
    res = gram_norm_oracle(np.diag([3.0, 1.0, 0.5, 2.0]))
    assert res.value == pytest.approx(3.0, rel=1e-10)
    with pytest.raises(ValueError, match="capped"):
        gram_norm_oracle(np.ones((9, 9)))


def test_prox_l1_oracle_boundary():
    assert prox_l1_oracle(np.array([0.5]), 0.5)[0] == 0.0


def test_saddle_residual_zero_problem():
    zero = SaddleProblem(g=Zero(), fstar=Zero(), K=LinearOperator(np.zeros((1, 1)) + 0.0))
    # K = 0: every point is a saddle of the zero problem
    assert saddle_residual(zero, np.array([3.0]), np.array([-2.0])) == 0.0
    prob = SaddleProblem(g=Zero(), fstar=Zero(), K=LinearOperator(np.array([[1.0]])))
    assert saddle_residual(prob, np.zeros(1), np.zeros(1)) == 0.0


def test_saddle_residual_with_passed_image(matvec_count):
    # the caller's K x stands in for the forward product: same bits, K* only
    prob, _ = gen_lasso(ProblemSpec("lasso1", seed=3, m=12, n=25, s=3))
    rng = np.random.default_rng(5)
    x, y = rng.standard_normal(25), rng.standard_normal(12)
    Kx = prob.K.apply(x)
    plain = saddle_residual(prob, x, y)
    before = list(matvec_count)
    passed = saddle_residual(prob, x, y, Kx=Kx)
    assert (matvec_count[0] - before[0], matvec_count[1] - before[1]) == (0, 1)
    assert passed == plain


def test_reference_quality_and_sensitivity():
    prob, _ = gen_lasso(ProblemSpec("lasso1", seed=26, m=14, n=30, s=3))
    ref, phi_star, iters = solve_reference(prob, max_iter=100000)
    assert ref.quality <= 1e-6
    assert saddle_residual(prob, ref.x_bar, ref.y_bar) == ref.quality
    # perturbing one coordinate raises the residual well above 1e-3
    x = ref.x_bar.copy()
    x[0] += 0.1
    assert saddle_residual(prob, x, prob.K.apply(x) - prob.fstar.shift) > 1e-3


def test_reference_rejects_games():
    from saddlesolve.problems import gen_matrix_game

    game = gen_matrix_game(ProblemSpec("game1", seed=2, m=4, n=4))
    with pytest.raises(ValueError, match="LASSO"):
        solve_reference(game, max_iter=10)


def test_reference_zero_problem():
    prob = SaddleProblem(
        g=ScaledL1(0.0),
        fstar=QuadShift(np.zeros(2)),
        K=LinearOperator(np.zeros((2, 3)) + 1e-30),
        label="degenerate",
    )
    ref, phi_star, _ = solve_reference(prob, max_iter=100)
    assert phi_star == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(ref.x_bar, 0.0)


def test_reference_phi_star_is_the_problems_own_objective():
    # phi_star is problem.objective at x_bar, so an objective set on the
    # instance shadows the method for phi_star as for run's metric column
    prob, _ = gen_lasso(ProblemSpec("lasso1", seed=26, m=14, n=30, s=3))
    base = prob.objective
    prob.objective = lambda x, image=None: base(x, image) + 1.0
    ref, phi_star, _ = solve_reference(prob)
    assert phi_star == prob.objective(ref.x_bar)


def _reference_to_stall(problem, stall_window=5000):
    """solve_reference without the certified stop: restarted FISTA with a
    residual check every 50 iterations until the residual target or the
    stall, then the active-set polish over the support thresholds of the last
    iterate."""
    b = problem.fstar.shift
    bcfg = BaselineConfig(fista_beta=0.7)
    state = init_fista(problem, np.zeros(problem.K.cols), bcfg)
    best_resid, since_improve, iters = math.inf, 0, 0
    while since_improve < stall_window:
        for _ in range(50):
            _restarted_step(state, problem, bcfg)
        iters += 50
        resid = saddle_residual(problem, state.x, problem.K.apply(state.x) - b)
        if resid <= 1e-12:
            break
        if resid < best_resid * (1.0 - 1e-6):
            best_resid, since_improve = resid, 0
        else:
            since_improve += 50
    x_bar = state.x
    quality = saddle_residual(problem, x_bar, problem.K.apply(x_bar) - b)
    polish = _polish_lasso if isinstance(problem.g, ScaledL1) else _polish_nnls
    scale = max(1.0, float(np.abs(x_bar).max()))
    for thr in (0.0, 1e-10 * scale, 1e-8 * scale, 1e-6 * scale, 1e-4 * scale):
        cand = polish(problem, x_bar, thr)
        if cand is None:
            continue
        cand_quality = saddle_residual(problem, cand, problem.K.apply(cand) - b)
        if cand_quality < quality:
            x_bar, quality = cand, cand_quality
    return x_bar, quality, iters


def _small_nnls():
    rng = np.random.default_rng(7)
    K = rng.standard_normal((30, 12)) * (rng.uniform(size=(30, 12)) < 0.4)
    return build_nnls(K, rng.standard_normal(30))


def _c12_nnls():
    """The benchmark's nnls-sparse instance: the synthetic matrix of
    acceptance criterion C12, with b from seed 1."""
    return build_nnls(c12_matrix(), np.random.default_rng(1).standard_normal(1033))


@pytest.mark.parametrize(
    "make, sooner",
    [
        (lambda: gen_lasso(ProblemSpec("lasso1", seed=26, m=14, n=30, s=3))[0], True),
        (lambda: gen_lasso(ProblemSpec("lasso1", seed=6, m=15, n=40, s=4))[0], True),
        (lambda: gen_lasso(ProblemSpec("lasso1", seed=28, m=12, n=28, s=3))[0], True),
        # singular K_S^T K_S on a support wider than m: needs the stationarity
        # check on the support
        (lambda: gen_lasso(ProblemSpec("lasso1", seed=47, m=8, n=50, s=2))[0], True),
        # the iterate meets the residual target at the second check, before
        # two checks can agree on a support, so both solves stop there
        (_small_nnls, False),
        (_c12_nnls, True),
    ],
    ids=["lasso-14x30", "lasso-15x40", "lasso-12x28", "lasso-8x50", "nnls-30x12", "nnls-c12"],
)
def test_reference_certified_stop_matches_stalled_polish(make, sooner):
    # stopping at the first KKT-certified polish returns bitwise the point
    # that running FISTA to its stall and polishing then gives, sooner
    problem = make()
    x_stall, quality_stall, iters_stall = _reference_to_stall(problem)
    ref, phi_star, iters = solve_reference(problem)
    assert ref.x_bar.tobytes() == x_stall.tobytes()
    assert ref.y_bar.tobytes() == (problem.K.apply(x_stall) - problem.fstar.shift).tobytes()
    assert ref.quality == quality_stall
    assert phi_star == problem.objective(x_stall)
    if sooner:
        assert iters < iters_stall
    else:
        assert iters == iters_stall and ref.quality <= 1e-12


@pytest.mark.parametrize(
    "name, make",
    [
        ("lasso-dense-seed1.json", lambda: gen_lasso(ProblemSpec("lasso1", seed=1))[0]),
        ("nnls-sparse-seed1.json", _c12_nnls),
    ],
    ids=["lasso-dense", "nnls-sparse"],
)
def test_reference_matches_the_committed_benchmark_refs(name, make):
    # the stored refs the benchmark verifies are what solve_reference returns;
    # the tolerances cover the last-bit drift of another BLAS thread count
    stored = json.loads((BENCH_REFS / name).read_text())
    ref, phi_star, _ = solve_reference(make())
    assert phi_star == pytest.approx(stored["phi_star"], rel=1e-12, abs=0.0)
    assert np.abs(ref.x_bar - np.array(stored["x_bar"])).max() <= 1e-12
