"""Command-line experiment runner.

``saddle-solve run`` executes one solver on one problem family and writes a
CSV trace (header ``iter,seconds,metric,lambda,beta,corrections``);
``saddle-solve reference`` produces a high-accuracy reference file with the
optimal objective value for gap plots. The solver flags are overrides
passed to ``solvers.default_config``, which resolves the benchmark settings
of the problem's family and names the overrides the run does not read. The
environment variable SADDLE_SOLVE_DATA names the directory holding the
Matrix Market files for the NNLS families. A ``--reference`` file is a JSON
object whose key ``phi_star`` holds the optimal objective value as a finite
number, as ``saddle-solve reference`` writes it.

Exit codes of the installed ``saddle-solve`` command (``console_main``), of
``run_experiment`` and of ``reference_solve_cmd``: 0 ok; 1 usage,
configuration or bad input (unknown flag, a solver flag the run does not read
at the chosen solver and settings, ``--swapped`` or ``--matrix-file`` on a
LASSO or game problem, inadmissible parameter, a negative or NaN budget,
an ``--output`` that cannot be written, found before the problem is built,
missing data, a reference file without a finite ``phi_star``, a reference
solve of a matrix game, an operator norm that cannot be computed); 2
diverged (a non-finite iterate, a non-finite ergodic average or a step rule
that predicts a step that is not positive); 3 stalled (a backtracking loop
hit its shrink cap). On 2 and 3 the trace recorded so far is still written
to the output file. The ``run`` command returns 2 and 3 as its value, and
``main.main(standalone_mode=False)`` passes that value back; click's
standalone mode drops a command's return value, so call ``main`` through
these three entry points, not on its own.
"""

from __future__ import annotations

import json
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
    SOLVERS,
    ConfigError,
    DivergenceError,
    LinesearchStallError,
    default_config,
    run,
)

__all__ = ["main", "console_main", "run_experiment", "reference_solve_cmd"]

PROBLEM_NAMES = sorted(list(LASSO_FAMILIES) + list(GAME_FAMILIES) + list(NNLS_FAMILIES))

DATA_ENV = "SADDLE_SOLVE_DATA"

EXIT_DIVERGED = 2
EXIT_STALLED = 3

# ``saddle-solve reference`` warns when the reference's saddle residual
# exceeds this.
_RESIDUAL_TARGET = 1e-8


def _family_kind(name):
    if name in LASSO_FAMILIES:
        return "lasso"
    if name in GAME_FAMILIES:
        return "game"
    return "nnls"


def _default_seed(kind):
    return 100 if kind == "game" else 1


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
    """The optimal value ``phi_star`` from a reference JSON file; a missing
    key, or anything but a real number within the float range (a bool is
    none), raises BadParameter."""
    with open(path) as fh:
        data = json.load(fh)
    value = data.get("phi_star") if isinstance(data, dict) else None
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise click.BadParameter(
            f"{path} has no finite number under 'phi_star'", param_hint="--reference"
        )
    return float(value)


def _check_output(path):
    """Raise BadParameter unless the file ``path`` can be written: it is no
    directory, and it, or its directory where it does not exist yet, is
    writable (a missing directory is not). The commands call this before
    they build the problem, so a bad path costs no solve."""
    folder = os.path.dirname(path) or os.curdir
    if os.path.isdir(path) or not os.access(path if os.path.exists(path) else folder, os.W_OK):
        raise click.BadParameter(f"cannot write {path}", param_hint="--output")


def _build_problem(problem_name, seed, swapped, matrix_file):
    kind = _family_kind(problem_name)
    if kind != "nnls" and (swapped or matrix_file):
        raise click.UsageError("--swapped and --matrix-file apply to NNLS problems only")
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


@click.group()
def main():
    """Saddle-point solver benchmark harness."""


@main.command("run")
@click.option("--problem", "problem_name", required=True, type=click.Choice(PROBLEM_NAMES))
@click.option("--solver", required=True, type=click.Choice(list(SOLVERS)))
@click.option("--seed", type=int, default=None)
@click.option("--max-iters", type=int, default=1000)
@click.option("--max-seconds", type=float, default=None)
@click.option("--trace-every", type=int, default=1)
@click.option("--output", type=click.Path(), default=None)
@click.option("--reference", "reference_path", type=click.Path(exists=True), default=None)
@click.option("--delta", type=float, default=None)
@click.option("--alpha", type=float, default=None)
@click.option("--rho", type=float, default=None)
@click.option("--beta", type=float, default=None)
@click.option("--gamma", type=float, default=None)
@click.option("--lambda0", type=float, default=None)
@click.option("--lambda-cap", "lambda_cap", type=float, default=None)
@click.option("--mu-corr", "mu_corr", type=float, default=None)
@click.option("--nu-corr", "nu_corr", type=float, default=None)
@click.option("--n-hat", "n_hat", type=int, default=None)
@click.option("--n-zero", "n_zero", type=int, default=None)
@click.option("--nonmonotone/--monotone", "nonmonotone", default=None)
@click.option("--swapped", is_flag=True, default=False)
@click.option("--matrix-file", type=click.Path(), default=None)
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
    if output is None:
        output = f"trace_{problem_name}_{solver}.csv"
    _check_output(output)
    problem = _build_problem(problem_name, seed, swapped, matrix_file)
    cfg, unread = default_config(problem, solver, **flags)
    if unread:
        names = ", ".join("--" + name.replace("_", "-") for name in sorted(unread))
        raise click.UsageError(f"--solver {solver} does not read {names}")
    reference_value = _read_phi_star(reference_path) if reference_path else None
    x0, y0 = problem.start
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
        return EXIT_DIVERGED if isinstance(err, DivergenceError) else EXIT_STALLED
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
def cli_reference(problem_name, seed, max_iters, output, matrix_file):
    """Long high-accuracy solve; writes x_bar, y_bar, phi_star, and residual."""
    _check_output(output)
    problem = _build_problem(problem_name, seed, False, matrix_file)
    ref, phi_star, iters = solve_reference(problem, max_iter=max_iters)
    if ref.quality > _RESIDUAL_TARGET:
        click.echo(
            f"warning: reference residual {ref.quality:.3e} above target "
            f"{_RESIDUAL_TARGET:.1e}",
            err=True,
        )
    payload = {
        "problem": problem_name,
        "seed": seed if seed is not None else _default_seed(_family_kind(problem_name)),
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
        return main.main(args=args, standalone_mode=False) or 0
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
