"""Command-line experiment runner.

``saddle-solve run`` executes one solver on one problem family and writes a
CSV trace (header ``iter,seconds,metric,lambda,beta,corrections``);
``saddle-solve reference`` produces a high-accuracy reference file with the
optimal objective value for gap plots. Flags default to the benchmark
settings of each problem family. The environment variable SADDLE_SOLVE_DATA
names the directory holding the Matrix Market files for the NNLS families.
A ``--reference`` file is a JSON object with the key ``phi_star`` (the
optimal objective value), as ``saddle-solve reference`` writes it.

Exit codes of the installed ``saddle-solve`` command (``console_main``), of
``run_experiment`` and of ``reference_solve_cmd``: 0 ok; 1 usage,
configuration or bad input (unknown flag, a solver flag the chosen solver does
not read, inadmissible parameter, missing data, a reference file without
``phi_star``); 2 diverged (non-finite iterate); 3 stalled (a backtracking loop
hit its shrink cap). On 2 and 3 the trace recorded so far is still written to
the output file.
"""

from __future__ import annotations

import json
import math
import os
import sys

import click

from .problems import (
    GAME_FAMILIES,
    LASSO_FAMILIES,
    NNLS_FAMILIES,
    ProblemSpec,
    gen_lasso,
    gen_matrix_game,
    load_nnls,
)
from .oracle import solve_reference
from .solvers import (
    BaselineConfig,
    ConfigError,
    DivergenceError,
    LinesearchStallError,
    SolverConfig,
    default_lambda0,
    run,
)

__all__ = ["main", "console_main", "run_experiment", "reference_solve_cmd"]

PROBLEM_NAMES = sorted(list(LASSO_FAMILIES) + list(GAME_FAMILIES) + list(NNLS_FAMILIES))
SOLVER_NAMES = ["pdac", "apdac", "pda", "pdal", "pgm", "fista"]

DATA_ENV = "SADDLE_SOLVE_DATA"

EXIT_DIVERGED = 2
EXIT_STALLED = 3


def _family_kind(name):
    if name in LASSO_FAMILIES:
        return "lasso"
    if name in GAME_FAMILIES:
        return "game"
    return "nnls"


def _default_seed(kind):
    return 100 if kind == "game" else 1


def _default_beta(kind):
    return 1.0 / 400.0 if kind == "lasso" else 1.0


def _default_n_hat(kind):
    return 40000 if kind == "game" else 5000


def _resolve_matrix_path(problem_name, matrix_file):
    if matrix_file:
        return matrix_file
    data_dir = os.environ.get(DATA_ENV)
    if not data_dir:
        raise ConfigError(
            f"NNLS problems need --matrix-file or ${DATA_ENV} pointing at the data directory"
        )
    return os.path.join(data_dir, NNLS_FAMILIES[problem_name])


def _read_phi_star(path):
    """The optimal value ``phi_star`` from a reference JSON file."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "phi_star" not in data:
        raise click.BadParameter(f"{path} has no 'phi_star' key", param_hint="--reference")
    return data["phi_star"]


def _build_problem(problem_name, seed, swapped, matrix_file):
    kind = _family_kind(problem_name)
    if seed is None:
        seed = _default_seed(kind)
    if kind == "lasso":
        prob, _ = gen_lasso(ProblemSpec(family=problem_name, seed=seed))
        return prob
    if kind == "game":
        return gen_matrix_game(ProblemSpec(family=problem_name, seed=seed))
    path = _resolve_matrix_path(problem_name, matrix_file)
    spec = ProblemSpec(family=problem_name, seed=seed, data_path=path)
    return load_nnls(spec, swapped=swapped)


# The solver flags each solver reads; any other one given is refused. The
# accelerated solver runs monotone at delta >= 1, so it never corrects and
# never reads the nonmonotone schedule; only it reads gamma.
_SOLVER_FLAGS = {
    "pdac": {"delta", "alpha", "rho", "beta", "lambda0", "lambda_cap", "mu_corr", "nu_corr",
             "n_hat", "n_zero", "nonmonotone"},
    "apdac": {"delta", "alpha", "beta", "gamma", "lambda0", "nonmonotone"},
    "pda": set(),
    "pdal": {"beta"},
    "pgm": set(),
    "fista": set(),
}


def _reject_unread_flags(solver, flags):
    unread = sorted(k for k, v in flags.items() if v is not None and k not in _SOLVER_FLAGS[solver])
    if unread:
        names = ", ".join("--" + name.replace("_", "-") for name in unread)
        raise click.UsageError(f"--solver {solver} does not read {names}")


def _solver_config(problem, kind, solver, flags):
    """SolverConfig from the given flags over the family's benchmark settings;
    every other field keeps its SolverConfig default."""

    def given(name, default):
        return default if flags[name] is None else flags[name]

    beta = given("beta", _default_beta(kind))
    if solver == "apdac":
        delta, alpha = given("delta", 1.0), given("alpha", 0.99)
        nonmonotone = given("nonmonotone", False)
    else:
        delta = given("delta", 1.0 if kind == "game" else 0.62)
        # the headline alpha = 1.27 is only admissible for delta < 1/1.27^2
        alpha = given("alpha", 1.27 if 1.27 < 1.0 / math.sqrt(delta) else 0.99)
        nonmonotone = given("nonmonotone", True)
    n_hat = given("n_hat", _default_n_hat(kind))
    optional = ("rho", "mu_corr", "nu_corr", "lambda_cap")
    return SolverConfig(
        delta=delta,
        alpha=alpha,
        beta0=beta,
        gamma=given("gamma", problem.gamma),
        lambda0=given("lambda0", default_lambda0(problem, beta)),
        n_hat=n_hat,
        n_zero=given("n_zero", 2 * n_hat),
        nonmonotone=nonmonotone,
        **{name: flags[name] for name in optional if flags[name] is not None},
    )


def _baseline_config(problem, kind, solver, flags):
    beta = flags["beta"] if flags["beta"] is not None else _default_beta(kind)
    if solver == "pda":
        L = problem.K.operator_norm()
        if kind == "lasso":
            tau, sigma = 20.0 / L, 1.0 / (20.0 * L)
        else:
            tau = sigma = 1.0 / L
        return BaselineConfig(tau=tau, sigma=sigma, beta=beta)
    if solver == "pdal":
        m, n = problem.K.shape
        tau0 = math.sqrt(min(m, n)) / problem.K.frobenius_norm()
        return BaselineConfig(tau=tau0, beta=beta, alpha_ls=0.99, mu_ls=0.7, theta=1.0)
    if solver == "pgm":
        L = problem.K.operator_norm()
        return BaselineConfig(step=1.0 / (L * L))
    return BaselineConfig(fista_beta=0.7)


@click.group()
def main():
    """Saddle-point solver benchmark harness."""


_run_options = [
    click.option("--problem", "problem_name", required=True, type=click.Choice(PROBLEM_NAMES)),
    click.option("--solver", required=True, type=click.Choice(SOLVER_NAMES)),
    click.option("--seed", type=int, default=None),
    click.option("--max-iters", type=int, default=1000),
    click.option("--max-seconds", type=float, default=None),
    click.option("--trace-every", type=int, default=1),
    click.option("--output", type=click.Path(), default=None),
    click.option("--reference", "reference_path", type=click.Path(exists=True), default=None),
    click.option("--delta", type=float, default=None),
    click.option("--alpha", type=float, default=None),
    click.option("--rho", type=float, default=None),
    click.option("--beta", type=float, default=None),
    click.option("--gamma", type=float, default=None),
    click.option("--lambda0", type=float, default=None),
    click.option("--lambda-cap", "lambda_cap", type=float, default=None),
    click.option("--mu-corr", "mu_corr", type=float, default=None),
    click.option("--nu-corr", "nu_corr", type=float, default=None),
    click.option("--n-hat", "n_hat", type=int, default=None),
    click.option("--n-zero", "n_zero", type=int, default=None),
    click.option("--nonmonotone/--monotone", "nonmonotone", default=None),
    click.option("--swapped", is_flag=True, default=False),
    click.option("--matrix-file", type=click.Path(), default=None),
]


def _apply_options(options):
    def deco(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn

    return deco


@main.command("run")
@_apply_options(_run_options)
def cli_run(
    problem_name,
    solver,
    seed,
    max_iters,
    max_seconds,
    trace_every,
    output,
    reference_path,
    swapped,
    matrix_file,
    **flags,
):
    """Run one solver on one problem and write a CSV trace."""
    if max_iters < 0:
        raise click.UsageError("--max-iters must be nonnegative")
    _reject_unread_flags(solver, flags)
    kind = _family_kind(problem_name)
    problem = _build_problem(problem_name, seed, swapped, matrix_file)
    if solver in ("pdac", "apdac"):
        cfg = _solver_config(problem, kind, solver, flags)
    else:
        cfg = _baseline_config(problem, kind, solver, flags)
    reference_value = _read_phi_star(reference_path) if reference_path else None
    x0, y0 = problem.start
    if output is None:
        output = f"trace_{problem_name}_{solver}.csv"
    try:
        trace = run(
            solver,
            problem,
            cfg,
            x0,
            y0,
            max_iter=max_iters,
            max_seconds=max_seconds,
            trace_every=trace_every,
            reference_value=reference_value,
        )
    except (DivergenceError, LinesearchStallError) as err:
        if err.trace is not None:
            err.trace.to_csv(output)
        click.echo(f"error: {err}", err=True)
        sys.exit(EXIT_DIVERGED if isinstance(err, DivergenceError) else EXIT_STALLED)
    trace.to_csv(output)
    click.echo(
        f"summary problem={problem_name} solver={solver} iters={trace.rows[-1][0]} "
        f"final_metric={trace.final_metric!r} corrections={trace.total_corrections} "
        f"seconds={trace.wall_time:.3f} output={output}"
    )


@main.command("reference")
@click.option("--problem", "problem_name", required=True, type=click.Choice(PROBLEM_NAMES))
@click.option("--seed", type=int, default=None)
@click.option("--max-iters", type=int, default=1_000_000)
@click.option("--output", type=click.Path(), required=True)
@click.option("--matrix-file", type=click.Path(), default=None)
@click.option("--residual-target", type=float, default=1e-8)
def cli_reference(problem_name, seed, max_iters, output, matrix_file, residual_target):
    """Long high-accuracy solve; writes x_bar, y_bar, phi_star, and residual."""
    kind = _family_kind(problem_name)
    if kind == "game":
        raise click.UsageError("matrix games have a reference-free gap; no reference file needed")
    problem = _build_problem(problem_name, seed, False, matrix_file)
    ref, phi_star, iters = solve_reference(problem, max_iter=max_iters)
    if ref.quality > residual_target:
        click.echo(
            f"warning: reference residual {ref.quality:.3e} above target {residual_target:.1e}",
            err=True,
        )
    payload = {
        "problem": problem_name,
        "seed": seed if seed is not None else _default_seed(kind),
        "phi_star": phi_star,
        "residual": ref.quality,
        "iterations": iters,
        "x_bar": ref.x_bar.tolist(),
        "y_bar": ref.y_bar.tolist(),
    }
    with open(output, "w") as fh:
        json.dump(payload, fh)
    click.echo(
        f"reference problem={problem_name} phi_star={phi_star!r} "
        f"residual={ref.quality:.3e} iterations={iters} output={output}"
    )


def _invoke(args):
    try:
        main.main(args=args, standalone_mode=False)
        return 0
    except SystemExit as exc:  # raised by divergence handling
        return int(exc.code or 0)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except (ConfigError, ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1


def console_main():
    """The installed ``saddle-solve`` command; returns the documented exit code."""
    return _invoke(sys.argv[1:])


def run_experiment(argv):
    """Programmatic entry for ``saddle-solve run``; returns the exit code."""
    return _invoke(["run", *argv])


def reference_solve_cmd(argv):
    """Programmatic entry for ``saddle-solve reference``; returns the exit code."""
    return _invoke(["reference", *argv])
