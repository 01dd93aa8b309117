"""The benchmark under ``bench/`` imports and wraps names of ``saddlesolve``;
a change that renames or drops one of them fails here, in the test suite,
not first in a benchmark run."""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_imports_and_its_tracer_patches_and_restores(monkeypatch):
    # bench/run.py pins the BLAS thread variables at import; setting them
    # here first makes monkeypatch restore them afterwards
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("run", "workloads", "layers"):
        importlib.import_module(name)
    tracer = sys.modules["tracer"]
    t = tracer.Tracer()
    try:
        # install looks up every name the per-layer metrics read, so a name
        # that is gone raises here
        tracer.install(t)
        patched = list(t._patches)
        for owner, attr, original in patched:
            assert getattr(owner, attr).__wrapped__ is original
    finally:
        t.unpatch()
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original
