"""Hash the parsed C12 matrix, the traces of a fixed set of ``saddle-solve
run`` calls, the operator norms of their problems and the results of a fixed
set of ``saddle-solve reference`` solves.

Runs every kind in ``solvers.SOLVERS`` on lasso1, lasso2, game1, game3,
nnls-well and nnls-well ``--swapped`` at the default settings, and on lasso1
``--monotone``, game1 ``--delta 0.8`` and lasso1 ``--beta 0.01``, at
ITERS = 400 iterations through ``run_experiment`` (a solver that does not
read a given flag exits 1 and writes no trace, which is hashed too), and
the reference solve on lasso1 seeds 1-4 and nnls-well seed 1 through
``reference_solve_cmd``, with OpenBLAS pinned to one thread (results depend
on the BLAS thread count). The NNLS problems use the synthetic 1033x320
matrix of ``bench/workloads.py`` (``write_c12_matrix``). Prints one line
with the first 16 hex digits of the sha256 of the bits of that matrix as
``read_matrix_market`` parses it (its shape, ``row_offsets``,
``col_indices`` and ``values``); for each of the six problems, one line
with the bits of ``operator_norm()`` (the L that pda and pgm step by, and
that pdac and apdac take their spectral start step from) as 16 hex digits
and its relative distance to ``np.linalg.svd``'s top singular value; one
line per solver run: its exit code, the first 16 hex digits of
the sha256 of its CSV trace without the ``seconds`` column ("-" when it
wrote none), its forward (K) and adjoint (K*) application counts, setup,
start and metric rows included, and its final metric; one line per
reference solve: its exit code, the first 16 hex digits of the sha256 of
the bits of x_bar, y_bar and phi_star, and its iteration count; then the
hash of the whole listing.

    python3 tools/tracehash.py [--out RUNS.json] [--compare OTHER.json]

``--out`` writes the matrix hash, every run's rows (``seconds`` dropped)
and application counts, every operator norm and every reference result to
a JSON file. ``--compare`` reads such a file, made by another version of
the code, and prints whether the parsed matrix kept its bits; for each
operator norm the relative change of L and its distance to the SVD on
either side; for each solver run the largest relative difference of the
metric, lambda and beta columns over all rows, how many rows differ at all
and any change of its application counts; for each reference solve the
largest absolute difference in x_bar and the relative difference in
phi_star; then the count of entries that differ. The parsed matrix or an
operator norm differs when its bits changed or it is missing from either
side. A solver run differs when a row differs, its iterations, its
application counts or its exit code changed, or it is missing from either
side. A reference solve differs when the bits of x_bar, y_bar or phi_star
or its exit code changed, or it is missing from either side; a changed
iteration count alone is reported but is no difference. With
``--compare`` the script exits 1 when any entry differs and 0 otherwise.
The package and the bench helpers are imported from the tree this script
sits in. Applications are counted by ``Operators``, which registers every
``LinearOperator`` at construction, as the bench's class of that name does,
so counting costs nothing per product.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from saddlesolve.cli import _build_problem, reference_solve_cmd, run_experiment  # noqa: E402
from saddlesolve.linop import LinearOperator, read_matrix_market  # noqa: E402
from saddlesolve.solvers import SOLVERS  # noqa: E402
from workloads import write_c12_matrix  # noqa: E402

PROBLEMS = (
    ("lasso1", []),
    ("lasso2", []),
    ("game1", []),
    ("game3", []),
    ("nnls-well", []),
    ("nnls-well --swapped", ["--swapped"]),
    # the override paths: each flag is read by some solvers and rejected by the others
    ("lasso1 --monotone", ["--monotone"]),
    ("game1 --delta 0.8", ["--delta", "0.8"]),
    ("lasso1 --beta 0.01", ["--beta", "0.01"]),
)
ITERS = 400  # the recorded hashes are comparable only at this budget
REFERENCES = (("lasso1", 1), ("lasso1", 2), ("lasso1", 3), ("lasso1", 4), ("nnls-well", 1))
COLUMNS = ("metric", "lambda", "beta")  # compared as floats; corrections as counts


class Operators:
    """The LinearOperators built since the last ``take``. Hooks construction
    only, so no product pays for the count. They are held, not weakly
    referenced as in the bench, because a run's problem can be freed by the
    time the run returns (a game's has no reference cycle)."""

    def __init__(self):
        self.built = []
        init, built = LinearOperator.__init__, self.built

        def register(op, *args, **kwargs):
            init(op, *args, **kwargs)
            built.append(op)

        LinearOperator.__init__ = register

    def take(self):
        """[K, K*] applications of the operators built since the last call."""
        counts = [sum(op.apply_calls for op in self.built),
                  sum(op.adjoint_calls for op in self.built)]
        self.built.clear()
        return counts


def matrix_entry(matrix):
    """{"matrix": sha256}: the bits of the CSR matrix that
    ``read_matrix_market`` parses from ``matrix``, shape included."""
    sp = read_matrix_market(str(matrix))
    bits = struct.pack(">qq", sp.rows, sp.cols) + b"".join(
        arr.tobytes() for arr in (sp.row_offsets, sp.col_indices, sp.values))
    return {"matrix": hashlib.sha256(bits).hexdigest()}


def operator_norm_entry(family, swapped, matrix):
    """{"L", "svd"}: ``operator_norm()`` of the problem a run builds and the
    top singular value of its matrix. The matrix file is passed, as a run
    passes it, only to an NNLS family."""
    matrix_file = str(matrix) if family.startswith("nnls") else None
    K = _build_problem(family, None, swapped, matrix_file).K
    svd = np.linalg.svd(K.backing.to_dense(), compute_uv=False)[0]
    return {"L": K.operator_norm(), "svd": float(svd)}


def run_all(tmp, matrix):
    """{run name: {"exit", "sha256", "final_metric", "rows", "products"}} for
    every run, with ``products`` its [K, K*] application counts, each
    problem's operator norm entry before its first run."""
    runs, normed, ops = {}, set(), Operators()
    for problem, extra in PROBLEMS:
        family = problem.split()[0]
        swapped = "--swapped" in extra
        if (family, swapped) not in normed:
            normed.add((family, swapped))
            runs[f"{problem} L"] = operator_norm_entry(family, swapped, matrix)
        if family.startswith("nnls"):
            extra = extra + ["--matrix-file", str(matrix)]
        for solver in SOLVERS:
            out = tmp / "trace.csv"
            out.unlink(missing_ok=True)
            argv = ["--problem", family, "--solver", solver, "--max-iters", str(ITERS),
                    "--output", str(out), *extra]
            ops.take()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = run_experiment(argv)
            products = ops.take()
            lines = out.read_text(encoding="ascii").splitlines() if out.exists() else []
            fields = [line.split(",") for line in lines]
            kept = "".join(",".join(f[:1] + f[2:]) + "\n" for f in fields)
            rows = [[int(f[0]), float(f[2]), float(f[3]), float(f[4]), int(f[5])]
                    for f in fields[1:]]
            runs[f"{problem} {solver}"] = {
                "exit": code,
                "sha256": hashlib.sha256(kept.encode("ascii")).hexdigest() if lines else None,
                "final_metric": rows[-1][1] if rows else None,
                "rows": rows,
                "products": products,
            }
    return runs


def reference_all(tmp, matrix):
    """{entry name: {"exit", "sha256", "iterations", "phi_star", "x_bar",
    "y_bar"}} for every reference solve; all but the exit code are None when
    the solve wrote no file."""
    refs = {}
    for problem, seed in REFERENCES:
        out = tmp / "reference.json"
        out.unlink(missing_ok=True)
        argv = ["--problem", problem, "--seed", str(seed), "--output", str(out)]
        if problem.startswith("nnls"):
            argv += ["--matrix-file", str(matrix)]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = reference_solve_cmd(argv)
        rec = {"exit": code, "sha256": None, "iterations": None, "phi_star": None,
               "x_bar": None, "y_bar": None}
        if out.exists():
            data = json.loads(out.read_text())
            bits = b"".join(np.asarray(data[k], dtype=float).tobytes()
                            for k in ("x_bar", "y_bar", "phi_star"))
            rec.update(sha256=hashlib.sha256(bits).hexdigest(),
                       **{k: data[k] for k in ("iterations", "phi_star", "x_bar", "y_bar")})
        refs[f"reference {problem} seed {seed}"] = rec
    return refs


def reference_drift(rec, old):
    """(status text, differs) of a reference solve against another version's."""
    differs = rec["sha256"] != old["sha256"]
    if rec["sha256"] is None or old["sha256"] is None:
        status = "no result at either" if not differs else "no result at one side"
    elif not differs:
        status = "same bits"
    else:
        dx = np.abs(np.subtract(rec["x_bar"], old["x_bar"])).max()
        status = f"x_bar {dx:.2e} abs, phi_star {_rel(rec['phi_star'], old['phi_star']):.2e} rel"
    if rec["iterations"] != old["iterations"]:
        status += f"  iterations {old['iterations']} -> {rec['iterations']}"
    return status, differs


def _svd_distance(rec):
    return (rec["L"] - rec["svd"]) / rec["svd"]


def _rel(a, b):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    scale = max(abs(a), abs(b))
    return math.inf if math.isinf(scale) else abs(a - b) / scale


def drift(rows, other):
    """(largest relative difference per column, rows that differ), or None
    when the two traces do not have the same iterations."""
    if [r[0] for r in rows] != [r[0] for r in other]:
        return None
    worst = [0.0] * len(COLUMNS)
    differ = 0
    for r, s in zip(rows, other):
        diffs = [_rel(a, b) for a, b in zip(r[1:4], s[1:4])]
        worst = [max(w, d) for w, d in zip(worst, diffs)]
        differ += any(diffs) or r[4] != s[4]
    return worst, differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--compare", type=Path, default=None)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        matrix = Path(tmp) / "c12.mtx"
        write_c12_matrix(matrix)
        runs = {"c12 matrix": matrix_entry(matrix)}
        runs.update(run_all(Path(tmp), matrix))
        runs.update(reference_all(Path(tmp), matrix))
    listing = ""
    for name, rec in runs.items():
        if "matrix" in rec:
            line = f"{name:28s} matrix {rec['matrix'][:16]}"
            listing += line + "\n"
            print(line)
            continue
        if "L" in rec:
            bits = struct.pack(">d", rec["L"]).hex()
            line = f"{name:28s} L {bits}  {_svd_distance(rec):+.2e} vs svd"
            listing += line + "\n"
            print(line)
            continue
        digest = (rec["sha256"] or "-")[:16]
        if "x_bar" in rec:
            last = f"{rec['iterations']} iterations"
        else:
            last = "K {} K* {}  {!r}".format(*rec["products"], rec["final_metric"])
        line = f"{name:28s} exit {rec['exit']}  {digest:16s}  {last}"
        listing += line + "\n"
        print(line)
    print(f"listing {hashlib.sha256(listing.encode()).hexdigest()[:16]}")
    if args.out is not None:
        args.out.write_text(json.dumps(runs))
    if args.compare is None:
        return 0
    other = json.loads(args.compare.read_text())
    print(f"\ndrift against {args.compare}: max relative difference per column "
          f"({', '.join(COLUMNS)}), rows that differ")
    names = [*runs, *(name for name in other if name not in runs)]
    differing = 0
    for name in names:
        if name not in runs or name not in other:
            print(f"{name:28s} missing in {'this tree' if name not in runs else args.compare}")
            differing += 1
            continue
        rec, old = runs[name], other[name]
        if "matrix" in rec:
            differs = rec["matrix"] != old["matrix"]
            print(f"{name:28s} {'bits differ' if differs else 'same bits'}")
            differing += differs
            continue
        if "L" in rec:
            differs = rec["L"] != old["L"]
            status = "same bits" if not differs else (
                f"L {_rel(rec['L'], old['L']):.2e} rel  svd distance "
                f"{_svd_distance(old):+.2e} -> {_svd_distance(rec):+.2e}")
            print(f"{name:28s} {status}")
            differing += differs
            continue
        differs = rec["exit"] != old["exit"]
        note = f"  exit {old['exit']} -> {rec['exit']}" if differs else ""
        if "products" in rec and rec["products"] != old.get("products"):
            differs = True
            note += "  K, K* {} -> {}".format(old.get("products"), rec["products"])
        if "x_bar" in rec:
            status, bits_differ = reference_drift(rec, old)
            differs = differs or bits_differ
        elif not rec["rows"] and not old["rows"]:
            status = "no trace at either"
        elif (result := drift(rec["rows"], old["rows"])) is None:
            status = "iterations differ"
            differs = True
        else:
            worst, rows_differ = result
            differs = differs or rows_differ > 0
            status = "  ".join(f"{w:.2e}" for w in worst)
            status += f"  {rows_differ}/{len(rec['rows'])} rows"
        print(f"{name:28s} {status}{note}")
        differing += differs
    print(f"{differing}/{len(names)} entries differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
