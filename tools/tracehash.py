"""Hash the traces of a fixed set of ``saddle-solve run`` calls.

Runs the six solvers on lasso1, lasso2, game1, game3, nnls-well and
nnls-well ``--swapped`` at ITERS = 400 iterations through
``run_experiment``, with OpenBLAS pinned to one thread (traces depend on the
BLAS thread count). The
NNLS runs use the synthetic 1033x320 matrix of ``bench/workloads.py``
(``write_c12_matrix``). Prints one line per run: its exit code, the first 16
hex digits of the sha256 of its CSV trace without the ``seconds`` column
("-" when it wrote none), and its final metric, then the hash of the whole
listing.

    python3 tools/tracehash.py [--out RUNS.json] [--compare OTHER.json]

``--out`` writes every run's rows (``seconds`` dropped) to a JSON file.
``--compare`` reads such a file, made by another version of the code, and
prints for each run the largest relative difference of the metric, lambda
and beta columns over all rows, and how many rows differ at all, then the
count of runs that differ. A run differs when a row differs, its iterations
or its exit code changed, or it is missing from either side; with
``--compare`` the script exits 1 when any run differs and 0 otherwise. The
package and the bench helpers are imported from the tree this script sits
in.
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

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from saddlesolve.cli import SOLVER_NAMES, run_experiment  # noqa: E402
from workloads import write_c12_matrix  # noqa: E402

PROBLEMS = (
    ("lasso1", []),
    ("lasso2", []),
    ("game1", []),
    ("game3", []),
    ("nnls-well", []),
    ("nnls-well --swapped", ["--swapped"]),
)
ITERS = 400  # the recorded hashes are comparable only at this budget
COLUMNS = ("metric", "lambda", "beta")  # compared as floats; corrections as counts


def run_all(tmp):
    """{run name: {"exit", "sha256", "final_metric", "rows"}} for every run."""
    matrix = tmp / "c12.mtx"
    write_c12_matrix(matrix)
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
        runs = run_all(Path(tmp))
    listing = ""
    for name, rec in runs.items():
        digest = (rec["sha256"] or "-")[:16]
        line = f"{name:28s} exit {rec['exit']}  {digest:16s}  {rec['final_metric']!r}"
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
        if not rec["rows"] and not old["rows"]:
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
