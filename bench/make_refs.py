"""Regenerate the stored reference points in ``refs/``.

Run from the repository root: ``python3 bench/make_refs.py``. Each file
holds x_bar and phi_star of the default instance of a workload that measures
gaps against phi_star, from ``solve_reference`` (FISTA plus active-set polish).
The benchmark verifies them on every run instead of re-solving.
"""

import os

# The same single BLAS thread as run.py, so the stored bits match its arithmetic.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from saddlesolve import solve_reference  # noqa: E402

from workloads import REFS, WORKLOADS, build_setup, write_c12_matrix  # noqa: E402


def main():
    REFS.mkdir(exist_ok=True)
    for name in ("lasso-dense", "nnls-sparse"):
        workload = WORKLOADS[name]
        seed = workload.default_seed
        with tempfile.TemporaryDirectory() as tmp:
            mtx = Path(tmp) / "c12.mtx"
            write_c12_matrix(mtx)
            setup = build_setup(workload, seed, mtx)
        ref, phi_star, iters = solve_reference(setup.problems["plain"])
        path = REFS / f"{name}-seed{seed}.json"
        path.write_text(json.dumps({
            "workload": name,
            "seed": seed,
            "phi_star": phi_star,
            "residual": ref.quality,
            "iterations": iters,
            "x_bar": ref.x_bar.tolist(),
        }) + "\n")
        print(f"{path.name}: phi_star={phi_star!r} residual={ref.quality:.3e} iterations={iters}")


if __name__ == "__main__":
    main()
