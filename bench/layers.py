"""Per-layer metrics of a traced run, computed from the tracer's spans.

Counts and times are per traced pass over the workload. Solve-phase spans
are those recorded inside a timed solve; setup spans come from one traced
build of the workload, CLI spans from the ``run_experiment`` check.
"""

from __future__ import annotations

from collections import defaultdict

from helpers import self_times
from saddlesolve import DenseMatrix
from tracer import CLI, LINOP_ADJOINT, LINOP_APPLY

SOLVER_KINDS = ("pdac", "apdac", "pda", "pdal", "pgm", "fista")
PROX_LAYERS = ("l1", "quad_shift", "nonneg", "simplex")
LINESEARCH_KINDS = ("pdal", "fista")
CORRECTED_KINDS = ("pdac", "apdac")


def computed_bytes(op):
    """Bytes one application reads and writes if each stored array and
    vector crosses memory once. Computed, not measured: every K here fits in
    cache."""
    m, n = op.shape
    b = op.backing
    if isinstance(b, DenseMatrix):
        stored = b.entries.nbytes
    else:
        stored = b.values.nbytes + b.col_indices.nbytes + b.row_offsets.nbytes
    return stored + 8 * (m + n)


class SpanStats:
    """Span totals by phase and name, and by (phase, parent name, name)."""

    def __init__(self, tracer):
        own = self_times(tracer.start, tracer.end, tracer.parent)
        names = tracer.names
        op_bytes = [computed_bytes(op) for op in tracer.ops]
        self.by_name = defaultdict(lambda: [0, 0.0, 0.0])  # count, total, self
        self.by_edge = defaultdict(lambda: [0, 0.0])  # count, total
        self.solve_bytes = 0
        for i in range(len(tracer.name)):
            sid = tracer.solve[i]
            phase = "solve" if sid >= 0 else ("cli" if sid == CLI else "setup")
            name = names[tracer.name[i]]
            dur = tracer.end[i] - tracer.start[i]
            st = self.by_name[(phase, name)]
            st[0] += 1
            st[1] += dur
            st[2] += own[i]
            p = tracer.parent[i]
            if p >= 0:
                edge = self.by_edge[(phase, names[tracer.name[p]], name)]
                edge[0] += 1
                edge[1] += dur
            if phase == "solve" and tracer.op[i] >= 0:
                self.solve_bytes += op_bytes[tracer.op[i]]

    def count(self, name, phase="solve"):
        return self.by_name[(phase, name)][0]

    def total(self, name, phase="solve"):
        return self.by_name[(phase, name)][1]

    def own(self, name, phase="solve"):
        return self.by_name[(phase, name)][2]

    def per_call_us(self, name):
        n = self.count(name)
        return self.total(name) / n * 1e6 if n else 0.0

    def linop_under(self, parent):
        return sum(self.by_edge[("solve", parent, c)][0] for c in (LINOP_APPLY, LINOP_ADJOINT))


def solver_figures(kind, budget, passes, fastest):
    """Time and iterations to target and us/iter of one solver kind over
    untraced passes, timed as the end-to-end metrics are
    (``FastestSteps``); zeros when the workload does not run it."""
    results = [p[kind][1] for p in passes if kind in p]
    crossed = [r.crossing for r in results if r.crossing is not None]
    ttt = fastest.to_target(kind, crossed[0][0]) if crossed else 0.0
    return ttt, crossed[0][0] if crossed else 0, fastest.wall(kind) / budget * 1e6


def layer_metrics(stats, *, workload, passes_plain, passes_traced, fastest, traced_wall,
                  plain_wall, oracle_iters):
    """All per-layer metrics, keyed by name."""
    P = max(len(passes_traced), 1)
    linop_s = stats.total(LINOP_APPLY) + stats.total(LINOP_ADJOINT)
    wall = traced_wall if traced_wall > 0 else 1.0
    m = {
        "linop.apply.calls": stats.count(LINOP_APPLY) / P,
        "linop.adjoint.calls": stats.count(LINOP_ADJOINT) / P,
        "linop.apply.us_per_call": stats.per_call_us(LINOP_APPLY),
        "linop.adjoint.us_per_call": stats.per_call_us(LINOP_ADJOINT),
        "linop.matvec.share": linop_s / wall,
        "linop.matvec.bytes_computed": stats.solve_bytes / P,
        "linop.matvec.gbps_computed": stats.solve_bytes / linop_s / 1e9 if linop_s else 0.0,
        "linop.read_matrix_market_s": stats.total("linop.read_matrix_market", "setup"),
        "linop.operator_norm_s": stats.total("linop.operator_norm", "setup"),
    }
    prox_s = 0.0
    for layer in PROX_LAYERS:
        name = f"prox.{layer}"
        m[f"{name}.calls"] = stats.count(name) / P
        m[f"{name}.us_per_call"] = stats.per_call_us(name)
        prox_s += stats.total(name)
    m["prox.share"] = prox_s / wall

    metric_calls = stats.count("problems.metric")
    m.update({
        "problems.build_s": stats.total("problems.build", "setup"),
        "problems.metric.calls": metric_calls / P,
        "problems.metric.self_us_per_call":
            stats.own("problems.metric") / metric_calls * 1e6 if metric_calls else 0.0,
        "problems.metric.matvecs": stats.linop_under("problems.metric") / P,
        "problems.metric.share": stats.total("problems.metric") / wall,
    })

    iterate_calls = stats.count("solvers.iterate")
    iterations = sum(
        r.iterations for p in passes_traced for k, (_, r) in p.items() if k in SOLVER_KINDS
    )
    plain_first = {
        k: r for k, (_, r) in (passes_plain[0] if passes_plain else {}).items() if k in SOLVER_KINDS
    }
    backtracks = {k: r.backtracks for k, r in plain_first.items()}
    plain_iters = sum(r.iterations for r in plain_first.values())
    all_backtracks = sum(backtracks.values())
    m.update({
        "solvers.iterate.calls": iterate_calls / P,
        "solvers.iterate.self_us_per_call":
            stats.own("solvers.iterate") / iterate_calls * 1e6 if iterate_calls else 0.0,
        "solvers.driver.self_us_per_iter":
            stats.own("solvers.run") / iterations * 1e6 if iterations else 0.0,
        "solvers.matvecs_per_iter":
            stats.linop_under("solvers.iterate") / iterate_calls if iterate_calls else 0.0,
        "solvers.corrections": sum(backtracks.get(k, 0) for k in CORRECTED_KINDS),
        "solvers.linesearch_shrinks": sum(backtracks.get(k, 0) for k in LINESEARCH_KINDS),
        "solvers.accept_ratio":
            plain_iters / (plain_iters + all_backtracks) if plain_iters else 0.0,
    })
    budgets = {s.kind: s.budget for s in workload.solves}
    for kind in SOLVER_KINDS:
        ttt, itt, us = solver_figures(kind, budgets.get(kind, 1), passes_plain, fastest)
        m[f"solvers.{kind}.time_to_target_s"] = ttt
        m[f"solvers.{kind}.iters_to_target"] = itt
        m[f"solvers.{kind}.us_per_iter"] = us

    m["diagnostics.ergodic_update.calls"] = stats.count("diagnostics.ergodic_update") / P
    m["diagnostics.ergodic_update.self_us"] = stats.own("diagnostics.ergodic_update") / P * 1e6

    residual_calls = stats.count("oracle.saddle_residual")
    m.update({
        "oracle.solve_reference_s": stats.total("oracle.solve_reference") / P,
        "oracle.fista_iters": oracle_iters,
        "oracle.saddle_residual.calls": residual_calls / P,
        "oracle.saddle_residual.us_per_call": stats.per_call_us("oracle.saddle_residual"),
        "oracle.solve_reference.self_s": stats.own("oracle.solve_reference") / P,
    })

    m["cli.overhead_s"] = (
        stats.total("cli.run_experiment", "cli")
        - stats.by_edge[("cli", "cli.run_experiment", "solvers.run")][1]
    )
    m["cli.trace_write_s"] = stats.total("cli.trace_write", "cli")
    m["trace.overhead"] = traced_wall / plain_wall if plain_wall else 0.0
    return m
