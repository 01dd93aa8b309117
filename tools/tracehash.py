"""Hash the traces of a fixed set of ``saddle-solve run`` calls and the
results of a fixed set of ``saddle-solve reference`` solves.

Runs the six solvers on lasso1, lasso2, game1, game3, nnls-well and
nnls-well ``--swapped`` at the default settings, and on lasso1
``--monotone``, game1 ``--delta 0.8`` and lasso1 ``--beta 0.01``, at
ITERS = 400 iterations through ``run_experiment`` (a solver that does not
read a given flag exits 1 and writes no trace, which is hashed too), and
the reference solve on lasso1 seeds 1-4 and nnls-well seed 1 through
``reference_solve_cmd``, with OpenBLAS pinned to one thread (results depend
on the BLAS thread count). The NNLS problems use
the synthetic 1033x320 matrix of ``bench/workloads.py``
(``write_c12_matrix``). Prints one line per solver run: its exit code, the
first 16 hex digits of the sha256 of its CSV trace without the ``seconds``
column ("-" when it wrote none), and its final metric; one line per
reference solve: its exit code, the first 16 hex digits of the sha256 of
the bits of x_bar, y_bar and phi_star, and its iteration count; then the
hash of the whole listing.

    python3 tools/tracehash.py [--out RUNS.json] [--compare OTHER.json]

``--out`` writes every run's rows (``seconds`` dropped) and every reference
result to a JSON file. ``--compare`` reads such a file, made by another
version of the code, and prints for each solver run the largest relative
difference of the metric, lambda and beta columns over all rows, and how
many rows differ at all; for each reference solve the largest absolute
difference in x_bar and the relative difference in phi_star; then the count
of entries that differ. A solver run differs when a row differs, its
iterations or its exit code changed, or it is missing from either side. A
reference solve differs when the bits of x_bar, y_bar or phi_star or its
exit code changed, or it is missing from either side; a changed iteration
count alone is reported but is no difference. With ``--compare`` the script
exits 1 when any entry differs and 0 otherwise. The package and the bench
helpers are imported from the tree this script sits in.
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
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from saddlesolve.cli import SOLVER_NAMES, reference_solve_cmd, run_experiment  # noqa: E402
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


def run_all(tmp, matrix):
    """{run name: {"exit", "sha256", "final_metric", "rows"}} for every run."""
    runs = {}
    for problem, extra in PROBLEMS:
        family = problem.split()[0]
        if family.startswith("nnls"):
            extra = extra + ["--matrix-file", str(matrix)]
        for solver in SOLVER_NAMES:
            out = tmp / "trace.csv"
            out.unlink(missing_ok=True)
            argv = ["--problem", family, "--solver", solver, "--max-iters", str(ITERS),
                    "--output", str(out), *extra]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = run_experiment(argv)
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
        runs = run_all(Path(tmp), matrix)
        runs.update(reference_all(Path(tmp), matrix))
    listing = ""
    for name, rec in runs.items():
        digest = (rec["sha256"] or "-")[:16]
        last = f"{rec['iterations']} iterations" if "x_bar" in rec else repr(rec["final_metric"])
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
        differs = rec["exit"] != old["exit"]
        note = f"  exit {old['exit']} -> {rec['exit']}" if differs else ""
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
    print(f"{differing}/{len(names)} runs differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
