"""In-process span tracer for the benchmark's traced runs.

Spans are recorded from outside the library: the tracer replaces public names
of ``saddlesolve`` with timing wrappers, in the module or class where the
library looks them up, and restores them afterwards. Spans stay in memory as
(name, start, end, parent, solve id) and are written out once at the end.
"""

from __future__ import annotations

import gzip
import time
from array import array
from contextlib import contextmanager

# Solve ids of spans recorded outside any timed solve.
SETUP = -1
CLI = -2

LINOP_APPLY = "linop.apply"
LINOP_ADJOINT = "linop.adjoint"


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.solve = array("i")
        self.op = array("i")  # index into ``ops`` for linop spans, else -1
        self.solve_id = SETUP
        self._stack = [-1]
        self.ops = []  # operators seen by linop spans, in order of first sight
        self._op_index = {}
        self._op_base = []  # (apply_calls, adjoint_calls) at first sight
        self._patches = []

    def _open(self, name, op=-1):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.solve.append(self.solve_id)
        self.op.append(op)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        return traced

    def _op_slot(self, op):
        slot = self._op_index.get(id(op))
        if slot is None:
            slot = self._op_index[id(op)] = len(self.ops)
            self.ops.append(op)  # keeps the operator alive, so its id stays unique
            self._op_base.append((op.apply_calls, op.adjoint_calls))
        return slot

    def wrap_linop(self, name, fn):
        def traced(op, *args, **kwargs):
            idx = self._open(name, self._op_slot(op))
            try:
                return fn(op, *args, **kwargs)
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, linop=False):
        original = getattr(owner, attr)
        wrapped = self.wrap_linop(name, original) if linop else self.wrap(name, original)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def unpatch(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def counter_mismatches(self):
        """Operators whose linop span counts differ from their own
        apply_calls/adjoint_calls counters since the tracer first saw them.
        A call that bypassed the wrapped names shows up here."""
        apply_id = self._name_ids.get(LINOP_APPLY, -1)
        adjoint_id = self._name_ids.get(LINOP_ADJOINT, -1)
        counts = [[0, 0] for _ in self.ops]
        for nid, op in zip(self.name, self.op):
            if nid == apply_id:
                counts[op][0] += 1
            elif nid == adjoint_id:
                counts[op][1] += 1
        out = []
        for op, (base_f, base_a), (spans_f, spans_a) in zip(self.ops, self._op_base, counts):
            calls_f = op.apply_calls - base_f
            calls_a = op.adjoint_calls - base_a
            if (calls_f, calls_a) != (spans_f, spans_a):
                out.append(
                    f"operator {op.shape}: counters {calls_f}+{calls_a}, spans {spans_f}+{spans_a}"
                )
        return out

    def write_csv(self, path):
        """Write every span as gzip-compressed CSV."""
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("index,name,start,end,parent,solve\n")
            for i, (nid, s, e, p, sid) in enumerate(
                zip(self.name, self.start, self.end, self.parent, self.solve)
            ):
                fh.write(f"{i},{self.names[nid]},{s!r},{e!r},{p},{sid}\n")


def install(tracer):
    """Wrap every layer boundary the per-layer metrics read.

    Names are wrapped where they are looked up: methods on their classes,
    and module globals in the module that binds them (``solvers`` binds
    ``pd_gap_game`` at import; ``oracle`` binds ``fista_iterate`` and
    ``saddle_residual``; ``cli`` binds ``run``). Instance attributes such as
    ``SaddleProblem.objective`` are wrapped by the caller on each instance.
    """
    from saddlesolve import cli, diagnostics, linop, oracle, prox, solvers

    tracer.patch(linop.LinearOperator, "apply", LINOP_APPLY, linop=True)
    tracer.patch(linop.LinearOperator, "adjoint_apply", LINOP_ADJOINT, linop=True)
    tracer.patch(linop.LinearOperator, "operator_norm", "linop.operator_norm")
    tracer.patch(prox.ScaledL1, "prox", "prox.l1")
    tracer.patch(prox.QuadShift, "prox", "prox.quad_shift")
    tracer.patch(prox.IndNonneg, "prox", "prox.nonneg")
    tracer.patch(prox.IndSimplex, "prox", "prox.simplex")
    for kind in ("pdac", "apdac", "pda", "pdal", "pgm", "fista"):
        tracer.patch(solvers, f"{kind}_iterate", "solvers.iterate")
    tracer.patch(solvers, "pd_gap_game", "problems.metric")
    tracer.patch(diagnostics.ErgodicAverage, "update", "diagnostics.ergodic_update")
    tracer.patch(oracle, "fista_iterate", "oracle.fista_iterate")
    tracer.patch(oracle, "saddle_residual", "oracle.saddle_residual")
    tracer.patch(cli, "run", "solvers.run")
    tracer.patch(solvers.IterationTrace, "to_csv", "cli.trace_write")
