"""First-order primal-dual saddle-point solvers with predicted and corrected
step sizes, the accelerated variant for strongly convex terms, comparison
baselines, and a benchmark harness for LASSO, matrix-game, and nonnegative
least-squares experiments."""

from .linop import (
    DenseMatrix,
    LinearOperator,
    MatrixMarketError,
    SparseMatrix,
    read_matrix_market,
)
from .prox import (
    IndNonneg,
    IndSimplex,
    QuadShift,
    ScaledL1,
    prox_l1,
    proj_nonneg,
    proj_simplex,
)
from .problems import (
    FeasibilityError,
    GroundTruth,
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
from .solvers import (
    BaselineConfig,
    ConfigError,
    DivergenceError,
    IterationTrace,
    LinesearchStallError,
    SolverConfig,
    SolverState,
    apdac_iterate,
    default_config,
    default_lambda0,
    init_state,
    pdac_iterate,
    phi_schedule,
    predict_step,
    run,
)
from .diagnostics import ErgodicAverage, ReferencePoint
from .oracle import saddle_residual, solve_reference

__version__ = "0.1.0"
