"""The benchmark's four workloads: instances, solver settings, iteration
budgets and targets.

Solver settings restate the CLI's benchmark defaults for each family through
the public config classes. The benchmark checks on every run that
``run_experiment`` at those settings produces the same trace, so a silent
change to a CLI default fails the run instead of drifting the numbers.
Budgets leave 10-15% headroom over the iterations each solver needs on the
default instance (more for the cheap NNLS baselines), so passes stay short
and a run fits more of them. Other instance seeds may need larger budgets.
Why each workload exists is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import json
import math
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from saddlesolve import (
    BaselineConfig,
    ProblemSpec,
    SolverConfig,
    build_nnls,
    default_lambda0,
    gen_lasso,
    gen_matrix_game,
    read_matrix_market,
)

REFS = Path(__file__).resolve().parent / "refs"


@dataclass(frozen=True)
class Solve:
    kind: str
    budget: int
    swapped: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    cli_problem: str  # the name the CLI knows the instance by
    default_seed: int  # the CLI's default seed for the family
    target: float  # gap (or, for ``reference``, residual) to reach
    solves: tuple


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lasso-dense",
            "lasso1",
            1,
            1e-8,
            (Solve("pdac", 2300), Solve("pda", 4400), Solve("pdal", 2700), Solve("fista", 4200)),
        ),
        Workload(
            "game-simplex",
            "game1",
            100,
            1e-4,
            (Solve("pdac", 5500), Solve("pda", 11000), Solve("pdal", 7000)),
        ),
        Workload(
            "nnls-sparse",
            "nnls-well",
            1,
            1e-8,
            (Solve("apdac", 13000, swapped=True), Solve("pdac", 500), Solve("pgm", 1000),
             Solve("fista", 500)),
        ),
        Workload(
            "reference",
            "lasso1",
            1,
            1e-8,
            (),
        ),
    )
}

LASSO_BETA = 1.0 / 400.0


def write_c12_matrix(path):
    """Write the synthetic 1033x320 Matrix Market instance of acceptance
    criterion C12 (generator seed 1033, 4500 draws, 4475 nonzeros once
    duplicates merge)."""
    rng = np.random.default_rng(1033)
    m, n, count = 1033, 320, 4500
    ii = rng.integers(1, m + 1, size=count)
    jj = rng.integers(1, n + 1, size=count)
    vv = rng.standard_normal(count)
    lines = ["%%MatrixMarket matrix coordinate real general", f"{m} {n} {count}"]
    lines += [f"{int(i)} {int(j)} {float(v)!r}" for i, j, v in zip(ii, jj, vv)]
    Path(path).write_text("\n".join(lines) + "\n")


def _pd_config(problem, *, delta, alpha, beta, n_hat, nonmonotone):
    return SolverConfig(
        delta=delta,
        alpha=alpha,
        rho=0.7,
        beta0=beta,
        gamma=problem.gamma,
        lambda0=default_lambda0(problem, beta),
        n_hat=n_hat,
        n_zero=2 * n_hat,
        nonmonotone=nonmonotone,
    )


def _pdal_config(problem, beta):
    m, n = problem.K.shape
    tau0 = math.sqrt(min(m, n)) / problem.K.frobenius_norm()
    return BaselineConfig(tau=tau0, beta=beta, alpha_ls=0.99, mu_ls=0.7, theta=1.0)


@dataclass
class Setup:
    problems: dict  # "plain" / "swapped" -> SaddleProblem
    configs: dict  # solver kind -> SolverConfig or BaselineConfig

    def problem(self, solve):
        return self.problems["swapped" if solve.swapped else "plain"]


def build_setup(workload, seed, mtx_path, span=None):
    """Build the workload's problems and solver configs: what ``setup_s``
    times. ``span(name)`` brackets the calls into the problems and linop
    layers when tracing."""
    span = span or (lambda name: nullcontext())
    name = workload.name
    if name in ("lasso-dense", "reference"):
        with span("problems.build"):
            prob, _ = gen_lasso(ProblemSpec("lasso1", seed=seed))
        if name == "reference":
            return Setup({"plain": prob}, {})
        L = prob.K.operator_norm()
        configs = {
            "pdac": _pd_config(prob, delta=0.62, alpha=1.27, beta=LASSO_BETA, n_hat=5000,
                               nonmonotone=True),
            "pda": BaselineConfig(tau=20.0 / L, sigma=1.0 / (20.0 * L), beta=LASSO_BETA),
            "pdal": _pdal_config(prob, LASSO_BETA),
            "fista": BaselineConfig(fista_beta=0.7),
        }
        return Setup({"plain": prob}, configs)
    if name == "game-simplex":
        with span("problems.build"):
            prob = gen_matrix_game(ProblemSpec("game1", seed=seed))
        L = prob.K.operator_norm()
        configs = {
            "pdac": _pd_config(prob, delta=1.0, alpha=0.99, beta=1.0, n_hat=40000,
                               nonmonotone=True),
            "pda": BaselineConfig(tau=1.0 / L, sigma=1.0 / L, beta=1.0),
            "pdal": _pdal_config(prob, 1.0),
        }
        return Setup({"plain": prob}, configs)
    with span("linop.read_matrix_market"):
        sparse = read_matrix_market(mtx_path)
    b = np.random.default_rng(seed).standard_normal(sparse.rows)
    with span("problems.build"):
        plain = build_nnls(sparse, b, label=workload.cli_problem)
        swapped = build_nnls(sparse, b, swapped=True, label=workload.cli_problem)
    L = plain.K.operator_norm()
    configs = {
        "apdac": _pd_config(swapped, delta=1.0, alpha=0.99, beta=1.0, n_hat=5000,
                            nonmonotone=False),
        "pdac": _pd_config(plain, delta=0.62, alpha=1.27, beta=1.0, n_hat=5000,
                           nonmonotone=True),
        "pgm": BaselineConfig(step=1.0 / (L * L)),
        "fista": BaselineConfig(fista_beta=0.7),
    }
    return Setup({"plain": plain, "swapped": swapped}, configs)


def stored_reference(workload, seed):
    """The stored (x_bar, phi_star) for this workload and seed, or None."""
    path = REFS / f"{workload.name}-seed{seed}.json"
    if not path.exists():
        return None
    data = json.loads(path.read_text())
    return np.array(data["x_bar"], dtype=float), float(data["phi_star"])


def cli_args(workload, solve, seed, max_iters, output, reference_path, mtx_path):
    """``saddle-solve run`` arguments for one solve, leaving every solver
    setting at its CLI default."""
    args = [
        "--problem", workload.cli_problem, "--solver", solve.kind, "--seed", str(seed),
        "--max-iters", str(max_iters), "--trace-every", "1", "--output", str(output),
    ]
    if reference_path is not None:
        args += ["--reference", str(reference_path)]
    if mtx_path is not None:
        args += ["--matrix-file", str(mtx_path)]
    if solve.swapped:
        args.append("--swapped")
    return args
