"""Builders for the benchmark problem families.

Three families: sparse-recovery LASSO instances with Gaussian data, min-max
matrix games over simplices, and nonnegative least squares on Matrix Market
data. Every generator is a pure function of its ProblemSpec: same spec, same
bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .linop import DenseMatrix, LinearOperator, SparseMatrix, read_matrix_market
from .prox import IndNonneg, IndSimplex, QuadShift, ScaledL1

__all__ = [
    "ProblemSpec",
    "GroundTruth",
    "SaddleProblem",
    "FeasibilityError",
    "UnsupportedMetricError",
    "gen_lasso",
    "gen_matrix_game",
    "build_nnls",
    "load_nnls",
    "primal_objective",
    "pd_gap_game",
    "LASSO_FAMILIES",
    "GAME_FAMILIES",
    "NNLS_FAMILIES",
]

LASSO_FAMILIES = {
    "lasso1": dict(m=200, n=1000, s=10, mu=0.1, signal="uniform"),
    "lasso2": dict(m=1000, n=2000, s=100, mu=0.1, signal="normal"),
}

GAME_FAMILIES = {
    "game1": dict(m=100, n=100, dist="uniform", a=-1.0, b=1.0),
    "game2": dict(m=100, n=100, dist="normal", mean=0.0, sd=1.0),
    "game3": dict(m=500, n=100, dist="normal", mean=0.0, sd=10.0),
    "game4": dict(m=100, n=200, dist="uniform", a=0.0, b=1.0),
}

NNLS_FAMILIES = {
    "nnls-well": "well1033.mtx",
    "nnls-illc": "illc1033.mtx",
}


class FeasibilityError(ValueError):
    """An input violates a feasibility requirement (named in the message)."""


class UnsupportedMetricError(ValueError):
    """The requested metric is undefined for this problem family."""


@dataclass(frozen=True)
class ProblemSpec:
    """Recipe for one problem instance. ``m``/``n`` override a generated
    family's dimensions and ``s`` the LASSO sparsity, for desk-scale reruns;
    the LASSO weight mu is always the family's. ``data_path`` names the
    Matrix Market file of an NNLS family."""

    family: str
    seed: int = 1
    m: Optional[int] = None
    n: Optional[int] = None
    s: Optional[int] = None
    data_path: Optional[str] = None


@dataclass
class GroundTruth:
    """Planted signal and the observation built from it."""

    w: np.ndarray
    b: np.ndarray


@dataclass
class SaddleProblem:
    """One saddle-point instance: min_x max_y g(x) + <Kx, y> - fstar(y).

    ``gamma`` is the known strong-convexity constant of g (0 if none).
    ``objective`` and ``objective_var`` follow from the types of g and
    fstar, as ``family`` does. A problem owns exactly one operator, ``K``:
    every builder makes one, and no objective reaches another operator or
    problem, so ``K``'s counters see every product the problem spends; and
    no problem refers to itself, so a dropped one is freed at once. An
    objective set by hand on the instance (``problem.objective = fn``)
    shadows the method; ``run`` always passes the image, so such an ``fn``
    must accept it as a second argument. ``start`` is the conventional
    initial point pair for the family. The ``prox`` of g and of fstar must
    return a new array, not its input or a view of it: the corrected solver
    hands them scratch vectors that it overwrites.

    ``family`` names the kind of problem, worked out from the types of g
    and fstar alone, however the problem was built; the solvers' defaults,
    ``run``'s metric, ``primal_objective`` and ``solve_reference`` read it.
    """

    g: object
    fstar: object
    K: LinearOperator
    gamma: float = 0.0
    label: str = ""
    start: Optional[tuple] = field(default=None, repr=False)

    @property
    def family(self):
        """The kind of problem: "lasso" or "nnls" for min 0.5||Kx - b||^2 +
        g(x), that is fstar a ``QuadShift`` and g a ``ScaledL1`` or an
        ``IndNonneg``, the form of ``primal_objective`` and
        ``solve_reference``; "game" when g and fstar are both
        ``IndSimplex``, the only case in which ``pd_gap_game`` is the saddle
        gap and ``run`` measures it on the ergodic average; None for
        anything else, swapped NNLS included."""
        if isinstance(self.fstar, QuadShift):
            if isinstance(self.g, ScaledL1):
                return "lasso"
            if isinstance(self.g, IndNonneg):
                return "nnls"
        elif isinstance(self.g, IndSimplex) and isinstance(self.fstar, IndSimplex):
            return "game"
        return None

    @property
    def objective_var(self):
        """The iterate the objective reads: "y" for the swapped NNLS form, g a
        ``QuadShift`` and fstar an ``IndNonneg``, whose dual iterate is the
        original primal variable; "x" otherwise."""
        return "y" if isinstance(self.g, QuadShift) and isinstance(self.fstar, IndNonneg) else "x"

    def objective(self, point, image=None):
        """The underlying minimization objective at ``point``, the iterate
        ``objective_var`` names. ``image`` is the point's image under this
        problem's operator, K x for "x" and K* y for "y"; given, it spares
        the objective its matrix application, and left out, the objective
        applies this problem's own K (or K*) itself.

        "lasso" and "nnls": ``primal_objective``. Swapped NNLS: the unswapped
        objective 0.5||K y - b||^2 + [y >= 0], as g(image) + fstar(y): its
        image K_sw* y = -K y plus the shift b has the bits of -(K y - b), so
        no negated copy of the image is made. NaN for any other problem."""
        if self.objective_var == "y":
            if image is None:
                image = self.K.adjoint_apply(point)
            return self.g.value(image) + self.fstar.value(point)
        try:
            return primal_objective(self, point, image)
        except UnsupportedMetricError:
            return float("nan")


def gen_lasso(spec):
    """Generate a LASSO instance: K Gaussian, sparse planted w, b = Kw + noise.

    Returns (SaddleProblem, GroundTruth). Way 1 draws the s signal entries
    uniformly from [-10, 10]; way 2 draws them standard normal. Noise entries
    are N(0, 0.1) with 0.1 the standard deviation.
    """
    if spec.family not in LASSO_FAMILIES:
        raise ValueError(f"not a LASSO family: {spec.family!r}")
    fam = LASSO_FAMILIES[spec.family]
    m = spec.m if spec.m is not None else fam["m"]
    n = spec.n if spec.n is not None else fam["n"]
    s = spec.s if spec.s is not None else fam["s"]
    if m <= 0 or n <= 0:
        raise ValueError("dimensions must be positive")
    if not 0 <= s <= n:
        raise ValueError("sparsity s must satisfy 0 <= s <= n")
    rng = np.random.default_rng(spec.seed)
    K = rng.standard_normal((m, n))
    support = np.sort(rng.choice(n, size=s, replace=False))
    if fam["signal"] == "uniform":
        vals = rng.uniform(-10.0, 10.0, size=s)
    else:
        vals = rng.standard_normal(s)
    noise = rng.normal(0.0, 0.1, size=m)
    w = np.zeros(n)
    w[support] = vals
    b = K @ w + noise
    op = LinearOperator(DenseMatrix(K))
    prob = SaddleProblem(
        g=ScaledL1(fam["mu"]),
        fstar=QuadShift(b),
        K=op,
        gamma=0.0,
        label=spec.family,
        start=(np.zeros(n), -b.copy()),
    )
    return prob, GroundTruth(w=w, b=b)


def gen_matrix_game(spec):
    """Generate a min-max matrix game over unit simplices."""
    if spec.family not in GAME_FAMILIES:
        raise ValueError(f"not a matrix-game family: {spec.family!r}")
    fam = GAME_FAMILIES[spec.family]
    m = spec.m if spec.m is not None else fam["m"]
    n = spec.n if spec.n is not None else fam["n"]
    if m <= 0 or n <= 0:
        raise ValueError("dimensions must be positive")
    rng = np.random.default_rng(spec.seed)
    if fam["dist"] == "uniform":
        K = rng.uniform(fam["a"], fam["b"], size=(m, n))
    else:
        K = rng.normal(fam["mean"], fam["sd"], size=(m, n))
    op = LinearOperator(DenseMatrix(K))
    return SaddleProblem(
        g=IndSimplex(),
        fstar=IndSimplex(),
        K=op,
        gamma=0.0,
        label=spec.family,
        start=(np.full(n, 1.0 / n), np.full(m, 1.0 / m)),
    )


def build_nnls(sparse, b, swapped=False, label="nnls"):
    """Assemble a nonnegative-least-squares saddle problem from CSR data.

    Unswapped: min over x >= 0 of 0.5||Kx - b||^2 with g the nonnegativity
    indicator and fstar the shifted quadratic. Swapped (for the accelerated
    solver, exploiting primal/dual symmetry): the roles trade places, the
    coupling operator becomes the negated adjoint, and g picks up strong
    convexity gamma = 1/2. Either way the problem holds one operator and no
    other problem: the swapped one builds only -K^T. Its dual iterate is the
    original primal variable, so its ``objective``, which follows from the
    swapped form and reads "y", is the unswapped problem's.
    """
    if not isinstance(sparse, SparseMatrix):
        sparse = SparseMatrix.from_dense(np.asarray(sparse, dtype=float))
    m, n = sparse.rows, sparse.cols
    b = np.asarray(b, dtype=float)
    if b.shape != (m,):
        raise ValueError(f"observation must have length {m}, got {b.shape}")
    if not swapped:
        return SaddleProblem(g=IndNonneg(), fstar=QuadShift(b), K=LinearOperator(sparse),
                             label=label, start=(np.zeros(n), -b.copy()))
    return SaddleProblem(g=QuadShift(b), fstar=IndNonneg(),
                         K=LinearOperator(sparse.negated_transpose()), gamma=0.5,
                         label=f"{label}-swapped", start=(np.zeros(m), np.zeros(n)))


def load_nnls(spec, swapped=False):
    """Load an NNLS instance from a Matrix Market file named by the spec."""
    if spec.family not in NNLS_FAMILIES:
        raise ValueError(f"not an NNLS family: {spec.family!r}")
    if spec.data_path is None:
        raise ValueError("NNLS problems need a data_path to the Matrix Market file")
    sparse = read_matrix_market(spec.data_path)
    rng = np.random.default_rng(spec.seed)
    b = rng.standard_normal(sparse.rows)
    return build_nnls(sparse, b, swapped=swapped, label=spec.family)


def primal_objective(problem, x, Kx=None):
    """Objective of the underlying minimization at a primal point:
    0.5||Kx - b||^2 + g(x) for the least-squares families.

    LASSO: g = mu ||x||_1. NNLS: g is 0 for x within -1e-12 of the orthant
    and +inf otherwise. Matrix games have no primal objective here. ``Kx``,
    when given, stands in for ``problem.K.apply(x)``, so the objective
    applies no matrix.
    """
    _check_least_squares(problem)
    if Kx is None:
        x = np.asarray(x, dtype=float)
        Kx = problem.K.apply(x)
    r = Kx - problem.fstar.shift
    return 0.5 * float(r.dot(r)) + problem.g.value(x)


def _check_least_squares(problem):
    if problem.family not in ("lasso", "nnls"):
        raise UnsupportedMetricError(
            f"problem {problem.label!r} has no primal objective in this form"
        )


def _check_simplex_point(name, v, n):
    """``v`` as a float array, checked by ``IndSimplex.contains`` to be a
    point of the unit simplex of dimension ``n``; a NaN entry is infeasible."""
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"{name} must have length {n}, got shape {v.shape}")
    if IndSimplex.contains(v):
        return v
    tol = IndSimplex.entry_tol
    if not v.min() >= -tol:
        raise FeasibilityError(
            f"{name} infeasible: component {int(np.argmin(v))} is {v.min():.3e} < {-tol:g}"
        )
    raise FeasibilityError(
        f"{name} infeasible: sum is {v.sum():.12f}, not 1 within {IndSimplex.sum_tol:g}"
    )


def pd_gap_game(K, x, y):
    """Primal-dual gap of a feasible matrix-game pair:
    max_i (Kx)_i - min_j (K*y)_j."""
    x = _check_simplex_point("x", x, K.cols)
    y = _check_simplex_point("y", y, K.rows)
    return float(K.apply(x).max() - K.adjoint_apply(y).min())
