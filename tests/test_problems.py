import gc
import weakref

import numpy as np
import pytest

from oracles import Zero
from saddlesolve.linop import LinearOperator, SparseMatrix
from saddlesolve.problems import (
    FeasibilityError,
    ProblemSpec,
    SaddleProblem,
    UnsupportedMetricError,
    build_nnls,
    gen_lasso,
    gen_matrix_game,
    load_nnls,
    pd_gap_game,
    primal_objective,
)
from saddlesolve.prox import IndNonneg, IndSimplex, QuadShift, ScaledL1
from saddlesolve.oracle import solve_reference


def test_lasso_way1_shapes():
    prob, gt = gen_lasso(ProblemSpec("lasso1", seed=1))
    assert prob.K.shape == (200, 1000)
    assert np.count_nonzero(gt.w) == 10
    assert prob.g.mu == 0.1
    assert prob.gamma == 0.0
    x0, y0 = prob.start
    assert np.all(x0 == 0.0) and np.allclose(y0, -gt.b)


def test_lasso_way2_shapes():
    prob, gt = gen_lasso(ProblemSpec("lasso2", seed=1))
    assert prob.K.shape == (1000, 2000)
    assert np.count_nonzero(gt.w) == 100
    assert prob.g.mu == 0.1


def test_lasso_deterministic():
    a1, g1 = gen_lasso(ProblemSpec("lasso1", seed=4, m=20, n=30, s=3))
    a2, g2 = gen_lasso(ProblemSpec("lasso1", seed=4, m=20, n=30, s=3))
    assert np.array_equal(a1.K.backing.entries, a2.K.backing.entries)
    assert np.array_equal(g1.w, g2.w)
    assert np.array_equal(g1.b, g2.b)
    b1, _ = gen_lasso(ProblemSpec("lasso1", seed=5, m=20, n=30, s=3))
    assert not np.array_equal(a1.K.backing.entries, b1.K.backing.entries)


def test_lasso_invalid_family():
    with pytest.raises(ValueError, match="not a LASSO family"):
        gen_lasso(ProblemSpec("game1"))
    with pytest.raises(ValueError, match="sparsity"):
        gen_lasso(ProblemSpec("lasso1", m=5, n=5, s=9))


def _nnls_file(tmp_path):
    path = tmp_path / "toy.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n")
    return str(path)


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda tmp: gen_lasso(ProblemSpec("lasso1", m=0)), "dimensions must be positive"),
        (lambda tmp: gen_lasso(ProblemSpec("lasso1", n=-3, s=0)), "dimensions must be positive"),
        (lambda tmp: gen_matrix_game(ProblemSpec("lasso1")), "not a matrix-game family"),
        (lambda tmp: gen_matrix_game(ProblemSpec("game1", n=0)), "dimensions must be positive"),
        (lambda tmp: build_nnls(np.eye(2), np.ones(3)), "observation must have length 2"),
        (lambda tmp: load_nnls(ProblemSpec("game1", data_path=_nnls_file(tmp))),
         "not an NNLS family"),
        (lambda tmp: load_nnls(ProblemSpec("nnls-well")), "data_path"),
    ],
)
def test_generator_input_checks(tmp_path, build, match):
    with pytest.raises(ValueError, match=match):
        build(tmp_path)


def test_problem_kind_follows_from_g_and_fstar():
    game = gen_matrix_game(ProblemSpec("game1", seed=1, m=4, n=3))
    lasso, _ = gen_lasso(ProblemSpec("lasso1", seed=1, m=4, n=6, s=2))
    sp, b = _toy_sparse()
    problems = [
        game,
        lasso,
        build_nnls(sp, b),
        build_nnls(sp, b, swapped=True),
        SaddleProblem(g=IndSimplex(), fstar=IndSimplex(), K=game.K, start=game.start),
        SaddleProblem(g=Zero(), fstar=Zero(), K=game.K),
    ]
    assert [p.family for p in problems] == ["game", "lasso", "nnls", None, "game", None]


def test_game_instances():
    g3 = gen_matrix_game(ProblemSpec("game3", seed=100))
    assert g3.K.shape == (500, 100)
    g1 = gen_matrix_game(ProblemSpec("game1", seed=100))
    entries = g1.K.backing.entries
    assert entries.min() >= -1.0 and entries.max() <= 1.0
    again = gen_matrix_game(ProblemSpec("game1", seed=100))
    assert np.array_equal(entries, again.K.backing.entries)
    g4 = gen_matrix_game(ProblemSpec("game4", seed=100))
    assert g4.K.shape == (100, 200)
    assert g4.K.backing.entries.min() >= 0.0
    x0, y0 = g1.start
    assert np.allclose(x0.sum(), 1.0) and np.allclose(y0.sum(), 1.0)


def _toy_sparse(m=6, n=4, seed=2):
    rng = np.random.default_rng(seed)
    K = rng.standard_normal((m, n))
    K[np.abs(K) < 0.4] = 0.0
    return SparseMatrix.from_dense(K), rng.standard_normal(m)


def test_nnls_unswapped_structure():
    sp, b = _toy_sparse()
    prob = build_nnls(sp, b)
    assert isinstance(prob.g, IndNonneg) and isinstance(prob.fstar, QuadShift)
    assert prob.gamma == 0.0
    assert prob.K.shape == (6, 4)
    x0, y0 = prob.start
    assert np.allclose(y0, -b)


def test_nnls_swapped_structure():
    sp, b = _toy_sparse()
    prob = build_nnls(sp, b, swapped=True)
    assert isinstance(prob.g, QuadShift) and isinstance(prob.fstar, IndNonneg)
    assert prob.gamma == 0.5
    # coupling operator is the negated adjoint of the original
    assert prob.K.shape == (4, 6)
    assert np.array_equal(prob.K.backing.to_dense(), -sp.to_dense().T)
    assert prob.objective_var == "y"


@pytest.mark.parametrize(
    "build",
    [
        lambda tmp: gen_lasso(ProblemSpec("lasso1", seed=1, m=4, n=6, s=2))[0],
        lambda tmp: gen_matrix_game(ProblemSpec("game1", seed=1, m=3, n=2)),
        lambda tmp: build_nnls(*_toy_sparse()),
        lambda tmp: build_nnls(*_toy_sparse(), swapped=True),
        lambda tmp: load_nnls(ProblemSpec("nnls-well", data_path=_nnls_file(tmp))),
        lambda tmp: load_nnls(ProblemSpec("nnls-well", data_path=_nnls_file(tmp)), swapped=True),
    ],
    ids=["lasso", "game", "nnls", "nnls-swapped", "load-nnls", "load-nnls-swapped"],
)
def test_every_builder_makes_one_operator_and_no_other_problem(tmp_path, monkeypatch, build):
    made, init = [], LinearOperator.__init__

    def counted(op, backing):
        made.append(op)
        init(op, backing)

    monkeypatch.setattr(LinearOperator, "__init__", counted)
    prob = build(tmp_path)
    assert made == [prob.K]
    # no problem refers to itself, so the last reference frees it without
    # the cyclic collector
    gc.disable()
    try:
        ref = weakref.ref(prob)
        del prob
        assert ref() is None
    finally:
        gc.enable()


def test_swapped_objective_without_image_applies_its_own_adjoint_once(matvec_count):
    sp, b = _toy_sparse()
    swapped = build_nnls(sp, b, swapped=True)
    rng = np.random.default_rng(5)
    for v in (np.abs(rng.standard_normal(4)), rng.standard_normal(4)):
        image = swapped.K.adjoint_apply(v)
        before = list(matvec_count)
        value = swapped.objective(v)
        assert (matvec_count[0] - before[0], matvec_count[1] - before[1]) == (0, 1)
        assert np.float64(value).tobytes() == np.float64(swapped.objective(v, image)).tobytes()


def test_nnls_swapped_objective_evaluates_original():
    sp, b = _toy_sparse()
    swapped = build_nnls(sp, b, swapped=True)
    unswapped = build_nnls(sp, b)
    v = np.array([0.5, 0.0, 1.2, 0.3])
    assert swapped.objective(v) == pytest.approx(primal_objective(unswapped, v))
    assert swapped.objective(np.array([-1.0, 0, 0, 0])) == np.inf


def test_objective_with_cached_image_is_bitwise_uncached():
    # run() hands the objective the K-image its solver state caches; the
    # result must be the very bits of the objective applying K itself
    rng = np.random.default_rng(17)
    m, n, count = 40, 15, 150
    sp = SparseMatrix.from_coo(
        m, n, rng.integers(0, m, count), rng.integers(0, n, count), rng.standard_normal(count)
    )
    b = rng.standard_normal(m)
    lasso, _ = gen_lasso(ProblemSpec("lasso1", seed=3, m=m, n=n, s=4))
    nnls = build_nnls(sp, b)
    swapped = build_nnls(sp, b, swapped=True)
    for _ in range(20):
        x = rng.standard_normal(n)
        v = np.abs(x)  # inside the orthant, so the NNLS objective is finite
        assert lasso.objective(x, lasso.K.apply(x)) == lasso.objective(x)
        assert nnls.objective(v, nnls.K.apply(v)) == nnls.objective(v)
        assert nnls.objective(x, nnls.K.apply(x)) == nnls.objective(x)
        # the swapped problem's dual iterate is the original primal point,
        # and its image under the swapped operator is K_sw* y = -K y
        image = swapped.K.adjoint_apply(v)
        assert np.isfinite(swapped.objective(v, image))
        assert swapped.objective(v, image) == swapped.objective(v)
        assert swapped.objective(v, image) == nnls.objective(v)


def test_load_nnls_file(tmp_path):
    text = "%%MatrixMarket matrix coordinate real general\n3 2 3\n1 1 1.0\n2 2 2.0\n3 1 -1.5\n"
    path = tmp_path / "toy.mtx"
    path.write_text(text)
    spec = ProblemSpec("nnls-well", seed=9, data_path=str(path))
    p1 = load_nnls(spec)
    p2 = load_nnls(spec)
    assert p1.K.shape == (3, 2)
    assert np.array_equal(p1.fstar.shift, p2.fstar.shift)
    swapped = load_nnls(spec, swapped=True)
    assert swapped.gamma == 0.5


def test_primal_objective_lasso_formula(fixtures):
    op = LinearOperator(np.array([[1.0]]))
    from saddlesolve.problems import SaddleProblem

    prob = SaddleProblem(g=ScaledL1(0.1), fstar=QuadShift(np.array([1.0])), K=op)
    assert primal_objective(prob, np.array([0.0])) == pytest.approx(
        fixtures["lasso_obj_1d"]["out"]
    )


def test_primal_objective_zero_noise_ground_truth():
    # with zero noise, phi(w) = mu*||w||_1 at the planted signal
    rng = np.random.default_rng(3)
    K = rng.standard_normal((10, 20))
    w = np.zeros(20)
    w[[2, 7]] = [1.5, -2.0]
    from saddlesolve.problems import SaddleProblem

    prob = SaddleProblem(g=ScaledL1(0.1), fstar=QuadShift(K @ w), K=LinearOperator(K))
    assert primal_objective(prob, w) == pytest.approx(0.1 * 3.5)


def test_primal_objective_nnls_sentinel():
    sp, b = _toy_sparse()
    prob = build_nnls(sp, b)
    assert primal_objective(prob, np.array([0.0, 0.0, -1.0, 0.0])) == np.inf


def test_primal_objective_unsupported_on_games():
    game = gen_matrix_game(ProblemSpec("game1", seed=1, m=4, n=4))
    with pytest.raises(UnsupportedMetricError):
        primal_objective(game, np.full(4, 0.25))


def test_pd_gap_cases(fixtures):
    op = LinearOperator(np.eye(2))
    assert pd_gap_game(op, [0.5, 0.5], [0.5, 0.5]) == pytest.approx(
        fixtures["gap_game_identity"]["out"]
    )
    op2 = LinearOperator(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert pd_gap_game(op2, [1.0, 0.0], [1.0, 0.0]) == pytest.approx(
        fixtures["gap_game_1234"]["out"]
    )


def test_pd_gap_feasibility_errors():
    op = LinearOperator(np.eye(2))
    with pytest.raises(FeasibilityError, match="component 0"):
        pd_gap_game(op, [-0.1, 1.1], [0.5, 0.5])
    with pytest.raises(FeasibilityError, match="sum"):
        pd_gap_game(op, [0.7, 0.7], [0.5, 0.5])


@pytest.mark.parametrize(
    "x, y, error, match",
    [
        ([0.5, 0.5, 0.0], [0.5, 0.5], ValueError, "x must have length 2"),
        ([0.5, 0.5], [1.0], ValueError, "y must have length 2"),
        ([0.5, 0.5], [1.2, -0.2], FeasibilityError, "y infeasible: component 1"),
        ([0.5, 0.5], [0.5, 0.6], FeasibilityError, "y infeasible: sum"),
        ([0.5, np.nan], [0.5, 0.5], FeasibilityError, "x infeasible: component 1"),
        ([0.5, 0.5], [np.nan, 0.5], FeasibilityError, "y infeasible: component 0"),
    ],
)
def test_pd_gap_input_checks(x, y, error, match):
    with pytest.raises(error, match=match):
        pd_gap_game(LinearOperator(np.eye(2)), x, y)


@pytest.mark.parametrize(
    "v",
    [[0.5, 0.5], [1.0, 0.0], [-1e-11, 1.0], [-1e-9, 1.0], [0.5, 0.5 + 1e-9], [0.5, 0.6],
     [np.nan, 0.5], [np.nan, np.nan], [np.inf, 0.0], [-np.inf, np.inf]],
)
def test_pd_gap_and_simplex_indicator_share_one_membership(v):
    # the gap accepts exactly the points whose simplex indicator is 0
    op = LinearOperator(np.eye(2))
    inside = IndSimplex().value(np.array(v)) == 0.0
    for x, y in ((v, [0.5, 0.5]), ([0.5, 0.5], v)):
        if inside:
            assert np.isfinite(pd_gap_game(op, x, y))
        else:
            with pytest.raises(FeasibilityError):
                pd_gap_game(op, x, y)


def test_pd_gap_nonnegative_on_random_feasible(rng):
    game = gen_matrix_game(ProblemSpec("game2", seed=8, m=6, n=5))
    from saddlesolve.prox import proj_simplex

    # gap dominates the brute-force vertex gap and stays nonnegative
    K = game.K.backing.entries
    for _ in range(100):
        x = proj_simplex(rng.uniform(-1, 1, 5))
        y = proj_simplex(rng.uniform(-1, 1, 6))
        gap = pd_gap_game(game.K, x, y)
        assert gap >= -1e-9
        vertex_gap = (K @ x).max() - (K.T @ y).min()
        assert gap == pytest.approx(vertex_gap)


def test_lasso_saddle_inclusion():
    # dual image y = Kx - b of a high-accuracy solution satisfies the
    # prox fixed-point inclusion at lambda = 1
    prob, _ = gen_lasso(ProblemSpec("lasso1", seed=6, m=15, n=40, s=4))
    ref, _, _ = solve_reference(prob, max_iter=100000)
    x, y = ref.x_bar, ref.y_bar
    res = x - prob.g.prox(x - prob.K.adjoint_apply(y), 1.0)
    assert np.linalg.norm(res) <= 1e-6
