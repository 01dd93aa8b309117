import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import saddlesolve.cli as cli
import saddlesolve.linop as linop
from saddlesolve.cli import reference_solve_cmd, run_experiment
from saddlesolve.linop import LinearOperator, SparseMatrix
from saddlesolve.problems import (
    ProblemSpec,
    SaddleProblem,
    build_nnls,
    gen_lasso,
    gen_matrix_game,
)
from saddlesolve.prox import QuadShift
from saddlesolve.solvers import (
    DivergenceError,
    IterationTrace,
    TRACE_HEADER,
    default_config,
    default_lambda0,
)


def _read_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


def test_run_zero_budget_csv(tmp_path):
    out = tmp_path / "t.csv"
    code = run_experiment(
        ["--problem", "lasso1", "--solver", "pdac", "--max-iters", "0", "--output", str(out)]
    )
    assert code == 0
    lines = _read_lines(out)
    assert lines[0] == TRACE_HEADER
    assert len(lines) == 2  # header plus initial row


def test_run_row_count_small(tmp_path):
    out = tmp_path / "t.csv"
    code = run_experiment(
        [
            "--problem",
            "lasso1",
            "--solver",
            "pdac",
            "--max-iters",
            "25",
            "--trace-every",
            "1",
            "--output",
            str(out),
            "--beta",
            "0.0025",
            "--delta",
            "0.62",
            "--alpha",
            "1.27",
            "--rho",
            "0.7",
            "--n-hat",
            "5000",
        ]
    )
    assert code == 0
    assert len(_read_lines(out)) == 27  # header + 26 metric rows


def test_run_traces_identical_apart_from_seconds(tmp_path):
    args = [
        "--problem",
        "lasso1",
        "--solver",
        "pdal",
        "--max-iters",
        "40",
        "--seed",
        "3",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_experiment(args + ["--output", str(out1)]) == 0
    assert run_experiment(args + ["--output", str(out2)]) == 0

    def strip_seconds(lines):
        rows = []
        for line in lines[1:]:
            toks = line.split(",")
            rows.append(",".join(toks[:1] + toks[2:]))
        return rows

    l1, l2 = _read_lines(out1), _read_lines(out2)
    assert l1[0] == l2[0]
    assert strip_seconds(l1) == strip_seconds(l2)


def test_bad_flag_usage_error(tmp_path, capsys):
    assert run_experiment(["--problem", "nosuch", "--solver", "pdac"]) == 1
    assert run_experiment(["--problem", "lasso1", "--no-such-flag"]) == 1
    err = capsys.readouterr().err
    assert "error" in err


def _script_exit_code(monkeypatch, argv):
    """Exit code of the ``saddle-solve`` script that pyproject.toml installs."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["saddle-solve"]
    module, attr = target.split(":")
    monkeypatch.setattr(sys, "argv", ["saddle-solve", *argv])
    try:  # console scripts end in sys.exit(entry())
        code = getattr(importlib.import_module(module), attr)()
    except SystemExit as exc:
        code = exc.code
    return 0 if code is None else code


def test_installed_script_exit_codes(tmp_path, monkeypatch, capsys):
    out = tmp_path / "t.csv"
    run = ["run", "--problem", "lasso1", "--solver", "pdac", "--output", str(out)]
    assert _script_exit_code(monkeypatch, ["run", "--problem", "nosuch", "--solver", "pdac"]) == 1
    assert _script_exit_code(monkeypatch, [*run, "--delta", "0.5", "--max-iters", "1"]) == 1
    assert "delta" in capsys.readouterr().err and not out.exists()
    assert _script_exit_code(monkeypatch, [*run, "--max-iters", "1"]) == 0
    assert len(_read_lines(out)) == 3


@pytest.mark.parametrize(
    "solver, flags, named",
    [
        ("apdac", ["--nonmonotone"], "monotone"),
        ("fista", ["--rho", "5"], "--rho"),
        ("pdac", ["--gamma", "0.1"], "--gamma"),
        ("pda", ["--beta", "0.5", "--n-hat", "10"], "--beta, --n-hat"),
        ("apdac", ["--n-hat", "10"], "--n-hat"),
        # pdac reads the nonmonotone schedule only in nonmonotone mode
        ("pdac", ["--monotone", "--n-hat", "100", "--lambda-cap", "5"], "--lambda-cap, --n-hat"),
        # and the correction only for delta < 1, as on games by default
        ("pdac", ["--problem", "game1", "--rho", "0.5", "--mu-corr", "20"], "--mu-corr, --rho"),
        ("pdac", ["--delta", "1.0", "--alpha", "0.99", "--nu-corr", "2"], "--nu-corr"),
    ],
)
def test_flags_the_solver_does_not_read_are_rejected(tmp_path, capsys, solver, flags, named):
    out = tmp_path / "t.csv"
    problem = [] if "--problem" in flags else ["--problem", "lasso1"]
    argv = [*problem, "--solver", solver, "--max-iters", "1", "--output", str(out)]
    assert run_experiment(argv + flags) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_negative_iteration_budget_is_usage_error(tmp_path, capsys):
    out = tmp_path / "t.csv"
    argv = ["--problem", "lasso1", "--solver", "pdac", "--max-iters", "-1", "--output", str(out)]
    assert run_experiment(argv) == 1
    assert "--max-iters" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--max-seconds", "nan"], ["--max-seconds", "-1"]])
def test_time_budget_that_is_nan_or_negative_is_rejected(tmp_path, capsys, flags):
    out = tmp_path / "t.csv"
    argv = ["--problem", "lasso1", "--solver", "pdac", "--max-iters", "3", "--output", str(out)]
    assert run_experiment(argv + flags) == 1
    assert "max_seconds" in capsys.readouterr().err
    assert not out.exists()


def test_reference_negative_iteration_budget_is_rejected(tmp_path, capsys):
    out = tmp_path / "r.json"
    argv = ["--problem", "lasso1", "--max-iters", "-5", "--output", str(out)]
    assert reference_solve_cmd(argv) == 1
    assert "max_iter" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "solver, flag, named",
    [("pdac", "--delta", "delta"), ("pdac", "--beta", "beta"), ("apdac", "--beta", "beta")],
)
def test_zero_delta_or_beta_names_the_field(tmp_path, capsys, solver, flag, named):
    out = tmp_path / "t.csv"
    argv = ["--problem", "lasso1", "--solver", solver, "--max-iters", "3", "--output", str(out)]
    assert run_experiment(argv + [flag, "0"]) == 1
    assert f"error: {named} must" in capsys.readouterr().err
    assert not out.exists()


_HUGE = "1" + "0" * 400  # past the float range, which phi_schedule computes in


@pytest.mark.parametrize(
    "flags, named",
    [(["--n-hat", _HUGE], "n_hat"), (["--n-zero", _HUGE], "n_zero"),
     (["--n-hat", "-" + _HUGE, "--n-zero", "10000"], "n_hat")],
)
def test_a_schedule_length_past_the_float_range_exits_with_a_named_error(
        tmp_path, monkeypatch, capsys, flags, named):
    out = tmp_path / "t.csv"
    argv = ["run", "--problem", "lasso1", "--solver", "pdac", "--max-iters", "3",
            "--output", str(out), *flags]
    assert _script_exit_code(monkeypatch, argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named} must be a number in the float range")
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("where", ["missing directory", "directory"])
@pytest.mark.parametrize("command", ["run", "reference"])
def test_an_output_that_cannot_be_written_is_found_before_the_solve(
        tmp_path, monkeypatch, capsys, command, where):
    products = []

    def counted(name):
        real = getattr(LinearOperator, name)

        def product(op, v):
            products.append(name)
            return real(op, v)

        return product

    for name in ("apply", "adjoint_apply"):
        monkeypatch.setattr(LinearOperator, name, counted(name))
    out = tmp_path / "missing" / "t.csv" if where == "missing directory" else tmp_path
    argv = [command, "--problem", "lasso1", "--max-iters", "20000", "--output", str(out)]
    if command == "run":
        argv += ["--solver", "pdac"]
    assert _script_exit_code(monkeypatch, argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: Invalid value for --output: cannot write {out}\n"
    assert products == []


def test_invalid_config_rejected(tmp_path):
    out = tmp_path / "t.csv"
    code = run_experiment(
        [
            "--problem",
            "lasso1",
            "--solver",
            "pdac",
            "--delta",
            "0.5",
            "--max-iters",
            "1",
            "--output",
            str(out),
        ]
    )
    assert code == 1
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_step_is_usage_error(tmp_path, value):
    out = tmp_path / "t.csv"
    code = run_experiment(
        ["--problem", "lasso1", "--solver", "pdac", "--lambda0", value, "--max-iters", "3",
         "--output", str(out)]
    )
    assert code == 1
    assert not out.exists()


def test_divergence_exit_code_flushes_trace(tmp_path, monkeypatch):
    out = tmp_path / "t.csv"

    def boom(*args, **kwargs):
        err = DivergenceError("non-finite iterate at iteration 3", 3)
        trace = IterationTrace()
        trace.append(0, 0.0, 1.0, 0.5, 1.0, 0)
        err.trace = trace
        raise err

    monkeypatch.setattr(cli, "run", boom)
    code = run_experiment(
        ["--problem", "lasso1", "--solver", "pdac", "--max-iters", "5", "--output", str(out)]
    )
    assert code == 2
    assert out.exists() and len(_read_lines(out)) == 2


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("flags", [["--solver", "pdac", "--lambda0", "1e308"],
                                   ["--solver", "apdac", "--lambda0", "1e300", "--beta", "1e300"]])
def test_game_steps_past_the_float_range_end_in_a_divergence(tmp_path, capsys, flags):
    # pdac's steps make a dual iterate non-finite; apdac's ergodic weight
    # beta * lambda overflows, so the ergodic average is not finite
    out = tmp_path / "t.csv"
    code = run_experiment(["--problem", "game1", *flags, "--max-iters", "50",
                           "--output", str(out)])
    assert code == 2
    assert "error: non-finite" in capsys.readouterr().err
    assert _read_lines(out)[1].startswith("0,")


def _matrix_near_the_largest_float(tmp_path):
    """A Matrix Market file of the 10x10 matrix of entries 1e307, whose
    ||K|| = 1e308 is finite but whose products overflow."""
    path = tmp_path / "big.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n10 10 100\n"
                    + "".join(f"{i} {j} 1e307\n" for i in range(1, 11) for j in range(1, 11)))
    return str(path)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("solver", [["pdac"], ["pda"], ["pgm"], ["apdac", "--swapped"]])
def test_a_matrix_near_the_largest_float_exits_with_a_named_error(tmp_path, capsys, solver):
    # a product of its Lanczos overflows
    code = run_experiment(["--problem", "nnls-well",
                           "--matrix-file", _matrix_near_the_largest_float(tmp_path),
                           "--solver", *solver, "--max-iters", "5",
                           "--output", str(tmp_path / "t.csv")])
    assert code == 1
    assert "error: operator_norm: ||K||^2/max|K| leaves the float range" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("solver", [["pdac"], ["apdac", "--swapped"]])
def test_an_overflowed_step_rule_is_a_divergence(tmp_path, capsys, solver):
    # a given lambda0 skips the Lanczos; ||K* dy|| then overflows, so the
    # step rule predicts 0, which the next prox would reject as a bad step
    out = tmp_path / "t.csv"
    code = run_experiment(["--problem", "nnls-well",
                           "--matrix-file", _matrix_near_the_largest_float(tmp_path),
                           "--solver", *solver, "--lambda0", "9.9e-309", "--max-iters", "5",
                           "--output", str(out)])
    assert code == 2
    assert "error: non-finite or zero step 0.0 predicted at iteration 1" in capsys.readouterr().err
    assert _read_lines(out)[1].startswith("0,")


def test_a_lanczos_that_runs_out_of_steps_exits_with_a_named_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(linop, "_LANCZOS_MAX_ITER", 1)
    code = run_experiment(["--problem", "game1", "--solver", "pda", "--max-iters", "5",
                           "--output", str(tmp_path / "t.csv")])
    assert code == 1
    assert "error: operator_norm: Lanczos did not converge" in capsys.readouterr().err


class _NanProx:
    """A prox that returns NaN, so no backtracking test ever accepts."""

    def prox(self, v, step):
        return np.full_like(v, np.nan)

    def value(self, x):
        return 0.0


def test_stall_exit_code_flushes_trace(tmp_path, monkeypatch, capsys):
    stalls = SaddleProblem(
        g=_NanProx(), fstar=QuadShift(np.ones(3)), K=LinearOperator(np.eye(3)),
        label="stall", start=(np.zeros(3), np.zeros(3)),
    )
    monkeypatch.setattr(cli, "_build_problem", lambda *args: stalls)
    out = tmp_path / "t.csv"
    code = run_experiment(
        ["--problem", "lasso1", "--solver", "fista", "--max-iters", "5", "--output", str(out)]
    )
    assert code == 3
    assert "FISTA backtracking exceeded" in capsys.readouterr().err
    lines = _read_lines(out)
    assert lines[0] == TRACE_HEADER and len(lines) == 2  # header plus initial row


def test_reference_without_phi_star_is_usage_error(tmp_path, capsys):
    ref_path = tmp_path / "ref.json"
    ref_path.write_text(json.dumps({"problem": "lasso1", "residual": 1e-12}))
    out = tmp_path / "t.csv"
    code = run_experiment(
        [
            "--problem", "lasso1", "--solver", "pdac", "--max-iters", "1",
            "--reference", str(ref_path), "--output", str(out),
        ]
    )
    assert code == 1
    assert "phi_star" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "value",
    ["null", '"abc"', "[1]", "NaN", "true", "1" + "0" * 400],
    ids=["null", "string", "list", "nan", "bool", "beyond-float-range"],
)
def test_reference_value_must_be_a_finite_number(tmp_path, capsys, value):
    ref_path = tmp_path / "ref.json"
    ref_path.write_text('{"phi_star": %s}' % value)
    out = tmp_path / "t.csv"
    code = run_experiment(
        [
            "--problem", "lasso1", "--solver", "pdac", "--max-iters", "3",
            "--reference", str(ref_path), "--output", str(out),
        ]
    )
    assert code == 1
    assert "no finite number under 'phi_star'" in capsys.readouterr().err
    assert not out.exists()


def test_reference_cmd_and_gap_metric(tmp_path):
    ref_path = tmp_path / "ref.json"
    code = reference_solve_cmd(
        [
            "--problem",
            "lasso1",
            "--seed",
            "1",
            "--max-iters",
            "60000",
            "--output",
            str(ref_path),
        ]
    )
    assert code == 0
    payload = json.loads(ref_path.read_text())
    assert payload["residual"] <= 1e-8
    assert len(payload["x_bar"]) == 1000 and len(payload["y_bar"]) == 200

    out = tmp_path / "t.csv"
    code = run_experiment(
        [
            "--problem",
            "lasso1",
            "--solver",
            "fista",
            "--max-iters",
            "200",
            "--trace-every",
            "50",
            "--reference",
            str(ref_path),
            "--output",
            str(out),
        ]
    )
    assert code == 0
    rows = _read_lines(out)[1:]
    metrics = [float(r.split(",")[2]) for r in rows]
    # gap against phi_star decreases and stays nonnegative-ish
    assert metrics[-1] < metrics[0]
    assert metrics[-1] >= -1e-9


@pytest.mark.parametrize(
    "command, argv",
    [
        (run_experiment, ["--problem", "lasso1", "--solver", "pdac", "--swapped"]),
        (run_experiment, ["--problem", "game1", "--solver", "pdac", "--matrix-file",
                          "/nonexistent.mtx"]),
        (reference_solve_cmd, ["--problem", "lasso1", "--matrix-file", "/nonexistent.mtx"]),
    ],
)
def test_nnls_flags_on_generated_problems_are_usage_errors(tmp_path, capsys, command, argv):
    # a LASSO or game run would ignore them and solve another problem than asked
    out = tmp_path / "out"
    assert command(argv + ["--max-iters", "3", "--output", str(out)]) == 1
    assert "apply to NNLS problems only" in capsys.readouterr().err
    assert not out.exists()


def test_reference_rejects_games(tmp_path):
    code = reference_solve_cmd(
        ["--problem", "game1", "--output", str(tmp_path / "r.json")]
    )
    assert code == 1


def test_run_game_with_benchmark_flags(tmp_path):
    out = tmp_path / "g.csv"
    code = run_experiment(
        [
            "--problem", "game1", "--solver", "pdac", "--delta", "1.0",
            "--beta", "1.0", "--n-hat", "40000", "--max-iters", "300",
            "--trace-every", "100", "--output", str(out),
        ]
    )
    assert code == 0
    rows = _read_lines(out)[1:]
    gaps = [float(r.split(",")[2]) for r in rows]
    assert gaps[-1] < gaps[0]  # ergodic PD gap metric shrinks


def test_max_seconds_budget(tmp_path):
    out = tmp_path / "t.csv"
    code = run_experiment(
        [
            "--problem", "lasso1", "--solver", "pdac", "--max-iters", "1000000",
            "--max-seconds", "0.3", "--trace-every", "500", "--output", str(out),
        ]
    )
    assert code == 0
    rows = _read_lines(out)[1:]
    assert int(rows[-1].split(",")[0]) < 1000000  # budget cut the run short


def test_family_defaults_match_benchmark_settings():
    # paper-stated settings are the flag defaults for each family
    lasso, _ = gen_lasso(ProblemSpec("lasso1", seed=1, m=10, n=20, s=2))
    cfg, unread = default_config(lasso, "pdac")
    assert unread == set()
    assert (cfg.delta, cfg.alpha, cfg.rho) == (0.62, 1.27, 0.7)
    assert cfg.beta0 == 1.0 / 400.0
    assert cfg.lambda0 == default_lambda0(lasso, 1.0 / 400.0)
    assert cfg.n_hat == 5000 and cfg.n_zero == 10000 and cfg.nonmonotone
    assert (cfg.mu_corr, cfg.nu_corr, cfg.lambda_cap) == (10.0, 1.5, 1e6)

    game = gen_matrix_game(ProblemSpec("game1", seed=100, m=10, n=10))
    gcfg, _ = default_config(game, "pdac")
    assert gcfg.delta == 1.0 and gcfg.beta0 == 1.0 and gcfg.n_hat == 40000
    assert gcfg.alpha == 0.99  # 1.27 is inadmissible at delta = 1

    acfg, _ = default_config(lasso, "apdac")
    assert acfg.delta == 1.0 and acfg.alpha == 0.99 and not acfg.nonmonotone

    sparse = SparseMatrix.from_dense(np.random.default_rng(5).standard_normal((12, 6)))
    b = np.random.default_rng(6).standard_normal(12)
    nnls = build_nnls(sparse, b)
    ncfg, _ = default_config(nnls, "pdac")
    assert (ncfg.beta0, ncfg.delta, ncfg.alpha, ncfg.n_hat) == (1.0, 0.62, 1.27, 5000)
    swapped = build_nnls(sparse, b, swapped=True)
    scfg, _ = default_config(swapped, "apdac")
    assert scfg.gamma == 0.5 and not scfg.nonmonotone
    assert (scfg.delta, scfg.alpha, scfg.beta0) == (1.0, 0.99, 1.0)

    bl, _ = default_config(lasso, "pda")
    L = lasso.K.operator_norm()
    assert bl.tau == pytest.approx(20.0 / L) and bl.sigma == pytest.approx(1.0 / (20.0 * L))
    bl, _ = default_config(game, "pda")
    assert bl.tau == bl.sigma == pytest.approx(1.0 / game.K.operator_norm())
    bl, _ = default_config(lasso, "pdal")
    assert bl.alpha_ls == 0.99 and bl.mu_ls == 0.7 and bl.beta == 1.0 / 400.0
    assert bl.tau == pytest.approx(np.sqrt(10) / lasso.K.frobenius_norm())
    bl, _ = default_config(lasso, "pgm")
    assert bl.step == pytest.approx(1.0 / L**2)
    bl, _ = default_config(lasso, "fista")
    assert bl.fista_beta == 0.7


def _toy_mtx(path, m=5, n=3, seed=4):
    rng = np.random.default_rng(seed)
    entries = []
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if rng.uniform() < 0.5:
                entries.append((i, j, float(rng.standard_normal())))
    lines = ["%%MatrixMarket matrix coordinate real general", f"{m} {n} {len(entries)}"]
    lines += [f"{i} {j} {v!r}" for i, j, v in entries]
    path.write_text("\n".join(lines) + "\n")


def test_nnls_env_var_resolution(tmp_path, monkeypatch):
    _toy_mtx(tmp_path / "well1033.mtx")
    monkeypatch.setenv(cli.DATA_ENV, str(tmp_path))
    out = tmp_path / "t.csv"
    code = run_experiment(
        ["--problem", "nnls-well", "--solver", "pgm", "--max-iters", "20", "--output", str(out)]
    )
    assert code == 0
    assert len(_read_lines(out)) == 22


def test_nnls_missing_data_errors(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.DATA_ENV, raising=False)
    code = run_experiment(
        ["--problem", "nnls-well", "--solver", "pgm", "--max-iters", "1"]
    )
    assert code == 1


def test_malformed_matrix_file_names_its_line(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.mtx"
    bad.write_text("%%MatrixMarket matrix coordinate real general\n% c\n2 2 1\n1 1 5.0 % note\n")
    argv = ["run", "--problem", "nnls-well", "--solver", "pgm", "--matrix-file", str(bad)]
    assert _script_exit_code(monkeypatch, argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: entry line must be 'row col value' (line 4)")
    assert "Traceback" not in err


def test_matrix_too_large_to_build_names_its_size_line(tmp_path, monkeypatch, capsys):
    def out_of_memory(*args):
        raise MemoryError  # what scipy raises for 3e9 rows; nothing is allocated here

    monkeypatch.setattr(SparseMatrix, "from_coo", out_of_memory)
    big = tmp_path / "big.mtx"
    big.write_text("%%MatrixMarket matrix coordinate real general\n3000000000 2 1\n1 1 5.0\n")
    argv = ["run", "--problem", "nnls-well", "--solver", "pgm", "--matrix-file", str(big)]
    assert _script_exit_code(monkeypatch, argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(
        "error: not enough memory to build the declared 3000000000x2 matrix (line 2)")
    assert "Traceback" not in err


def test_nnls_swapped_apdac(tmp_path):
    mtx = tmp_path / "k.mtx"
    _toy_mtx(mtx)
    out = tmp_path / "t.csv"
    code = run_experiment(
        [
            "--problem",
            "nnls-well",
            "--solver",
            "apdac",
            "--swapped",
            "--matrix-file",
            str(mtx),
            "--max-iters",
            "50",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    rows = _read_lines(out)[1:]
    betas = [float(r.split(",")[4]) for r in rows]
    assert betas[-1] > betas[0]  # strong convexity drives beta growth
