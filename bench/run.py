"""Solver benchmark for saddlesolve: time and matvecs to a stated gap.

Run from the repository root::

    python3 bench/run.py --workload lasso-dense --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` alternates untraced and traced passes over the workload and
reports the per-layer metrics from spans recorded around public names of
``saddlesolve`` (see ``tracer.py``). Metric names and units come from
``BENCHMARK.json``. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give the
same metrics by name and unit, the failure share and the environment.

``--seed`` shuffles the order in which each pass runs the workload's solves.
The problem instance comes from ``--workload-seed`` (default: the CLI's seed
for the family), because the work to reach a target is a property of the
instance: ``solve_reference`` needs 21k to 60k iterations on lasso1 seeds 1-4.
"""

import os

# One BLAS thread, set before numpy loads: one process and one solve at a time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import weakref  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if not (ROOT / "src" / "saddlesolve").is_dir():
    sys.exit(f"bench: no src/saddlesolve under {ROOT}; run from a checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

from saddlesolve import (  # noqa: E402
    DivergenceError,
    FeasibilityError,
    IterationTrace,
    LinearOperator,
    LinesearchStallError,
    run,
    saddle_residual,
    solve_reference,
)
from saddlesolve import oracle  # noqa: E402
from saddlesolve.cli import run_experiment  # noqa: E402

import envinfo  # noqa: E402
from helpers import FailureTally, FastestSteps, first_crossing  # noqa: E402
from layers import SpanStats, layer_metrics  # noqa: E402
from tracer import CLI, SETUP, Tracer, install  # noqa: E402
from workloads import WORKLOADS, build_setup, cli_args, stored_reference, write_c12_matrix  # noqa: E402

SETUP_FIRST = 5  # builds before the first pass; setup_s is the fastest build,
SETUP_BETWEEN = 3  # with this many more after every pass to spread them over the run
MIN_PASSES = 2  # determinism across passes needs at least two
CLI_ITERS = 300  # prefix of each trace compared against run_experiment
PROBE_ITERS = (20, 120)  # budgets whose matvec difference gives the per-iteration count
ONE_PAIR = ("pdac", "apdac", "pda")  # kinds that spend one K and one K* per iteration
LS_GAP_FLOOR = -1e-9  # no solver may beat phi_star by more than roundoff
REFERENCE_RESIDUAL = 1e-8
PHI_RTOL = 1e-12
WORK = BENCH / "_work"
OUT = BENCH / "_out"


class Operators:
    """Every LinearOperator built in this process, so matvec counts include
    operators a problem keeps out of reach (the swapped NNLS objective applies
    its own copy of K). Hooks construction only; no per-call cost."""

    def __init__(self):
        self.live = weakref.WeakSet()
        init = LinearOperator.__init__
        live = self.live

        def register(op, *args, **kwargs):
            init(op, *args, **kwargs)
            live.add(op)

        LinearOperator.__init__ = register

    def counts(self):
        return {op: (op.apply_calls, op.adjoint_calls) for op in list(self.live)}

    def delta(self, before):
        fwd = adj = 0
        for op, (f, a) in self.counts().items():
            f0, a0 = before.get(op, (0, 0))
            fwd += f - f0
            adj += a - a0
        return fwd, adj


@dataclass
class SolveResult:
    """What later checks and metrics need from one solve. Full traces are not
    kept, so memory does not grow with the number of passes."""

    wall: float
    matvecs: int
    crossing: object  # (iteration, seconds) or None
    iterations: int
    backtracks: int  # the trace's last column: corrections or line-search shrinks
    digest: int  # hash of the trace apart from ``seconds``
    head: list  # its first CLI_ITERS + 1 rows apart from ``seconds``


@dataclass
class ReferenceResult:
    wall: float
    iterations: int
    phi_star: float
    residual: float
    matvecs: int


def _no_seconds(row):
    return row[:1] + row[2:]


def check_trace(workload, solve, rows, crossing):
    """Failed output checks of one solve's trace."""
    out = []
    if rows[-1][0] != solve.budget:
        out.append(f"stopped at iteration {rows[-1][0]} of {solve.budget}")
    if crossing is None:
        out.append(f"missed target {workload.target:g} within {solve.budget} iterations "
                   f"(final {rows[-1][2]:.3e})")
    lowest = min(r[2] for r in rows)
    floor = 0.0 if workload.name == "game-simplex" else LS_GAP_FLOOR
    if lowest < floor:
        out.append(f"gap {lowest:.3e} below {floor:g}")
    return out


def solve_pass(workload, setup, phi_star, tally, ops, order, tracer=None, fastest=None):
    """Run every solve of the workload once, in the given order, adding each
    trace's iteration times to ``fastest`` when given."""
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    results = {}
    for solve in order:
        prob = setup.problem(solve)
        key = tally.attempt(solve.kind)
        before = ops.counts()
        if tracer is not None:
            tracer.solve_id = key
        t0 = time.perf_counter()
        try:
            with span("solvers.run"):
                trace = run(solve.kind, prob, setup.configs[solve.kind], *prob.start,
                            max_iter=solve.budget, trace_every=1, reference_value=phi_star)
        except (DivergenceError, LinesearchStallError, FeasibilityError) as err:
            tally.fail(key, f"raised {type(err).__name__}: {err}")
            continue
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.solve_id = SETUP
        rows = trace.rows
        stripped = [_no_seconds(r) for r in rows]
        res = SolveResult(wall, sum(ops.delta(before)), first_crossing(rows, workload.target),
                          rows[-1][0], trace.total_corrections, hash(tuple(stripped)),
                          stripped[: CLI_ITERS + 1])
        if fastest is not None:
            fastest.add(solve.kind, [r[1] for r in rows], wall - rows[-1][1])
        for reason in check_trace(workload, solve, rows, res.crossing):
            tally.fail(key, reason)
        results[solve.kind] = (key, res)
    return results


@contextlib.contextmanager
def residual_stamps():
    """Times at which ``solve_reference`` calls ``saddle_residual`` (every 50
    FISTA iterations, then around the polish): they cut the solve into steps
    that are the same work in every pass. Costs one clock read per call."""
    stamps = []
    residual = oracle.saddle_residual

    def stamped(*args, **kwargs):
        stamps.append(time.perf_counter())
        return residual(*args, **kwargs)

    oracle.saddle_residual = stamped
    try:
        yield stamps
    finally:
        oracle.saddle_residual = residual


def reference_pass(problem, tally, ops, tracer=None, fastest=None):
    """One ``solve_reference``, adding its step times to ``fastest`` when
    given (untraced passes)."""
    key = tally.attempt("reference")
    before = ops.counts()
    if tracer is not None:
        tracer.solve_id = key
    stamping = residual_stamps() if fastest is not None else contextlib.nullcontext([])
    with stamping as stamps:
        t0 = time.perf_counter()
        try:
            with tracer.span("oracle.solve_reference") if tracer is not None else contextlib.nullcontext():
                ref, phi_star, iters = solve_reference(problem)
        except LinesearchStallError as err:
            tally.fail(key, f"raised LinesearchStallError: {err}")
            return {}
        finally:
            t1 = time.perf_counter()
            wall = t1 - t0
            if tracer is not None:
                tracer.solve_id = SETUP
    if fastest is not None:
        fastest.add("reference", [t - t0 for t in (t0, *stamps, t1)], 0.0)
    res = ReferenceResult(wall, iters, phi_star, ref.quality, sum(ops.delta(before)))
    if not res.residual <= REFERENCE_RESIDUAL:
        tally.fail(key, f"residual {res.residual:.3e} above {REFERENCE_RESIDUAL:g}")
    return {"reference": (key, res)}


def check_determinism(passes, tally):
    """Every pass must repeat the first: same trace apart from ``seconds``
    (so the same iterations to target), or the same reference solve."""
    first = passes[0]
    for p in passes[1:]:
        for kind, (key, res) in p.items():
            if kind not in first:
                continue
            base = first[kind][1]
            if isinstance(res, ReferenceResult):
                same = (res.iterations, res.phi_star) == (base.iterations, base.phi_star)
            else:
                same = res.digest == base.digest
            if not same:
                tally.fail(key, "differs from the first pass")


def prepare_reference(workload, seed, setup):
    """phi_star for the gap metric, and any failed reference checks. Stored
    points are verified; other seeds get an untimed reference solve."""
    if workload.name not in ("lasso-dense", "nnls-sparse"):
        return None, []
    prob = setup.problems["plain"]
    stored = stored_reference(workload, seed)
    if stored is None:
        ref, phi_star, _ = solve_reference(prob)
        if not ref.quality <= REFERENCE_RESIDUAL:
            return phi_star, [f"computed reference residual {ref.quality:.3e}"]
        return phi_star, []
    x_bar, phi_star = stored
    errors = []
    resid = saddle_residual(prob, x_bar, prob.K.apply(x_bar) - prob.fstar.shift)
    if not resid <= REFERENCE_RESIDUAL:
        errors.append(f"stored reference residual {resid:.3e} above {REFERENCE_RESIDUAL:g}")
    phi = prob.objective(x_bar)
    if not abs(phi - phi_star) <= PHI_RTOL * abs(phi_star):
        errors.append(f"objective at stored x_bar {phi!r} differs from phi_star {phi_star!r}")
    return phi_star, errors


def check_matvec_pairs(workload, setup, ops, tally):
    """pdac/apdac/pda spend exactly one K and one K* per iteration, metric
    excluded: the difference of two probe runs that evaluate the metric the
    same number of times."""
    for solve in workload.solves:
        if solve.kind not in ONE_PAIR:
            continue
        prob = setup.problem(solve)
        counts = []
        for n in PROBE_ITERS:
            before = ops.counts()
            run(solve.kind, prob, setup.configs[solve.kind], *prob.start, max_iter=n,
                trace_every=n)
            counts.append(ops.delta(before))
        span = PROBE_ITERS[1] - PROBE_ITERS[0]
        per_iter = tuple((b - a) / span for a, b in zip(*counts))
        if per_iter != (1.0, 1.0):
            tally.fail_kind(solve.kind, f"{per_iter[0]:g} K and {per_iter[1]:g} K* per iteration")


def check_cli(workload, seed, first_pass, phi_star, mtx_path, tmp, tally, tracer=None):
    """``run_experiment`` with CLI defaults must reproduce the library trace
    in every column except ``seconds`` (compared over its first iterations)."""
    ref_path = None
    if phi_star is not None:
        ref_path = tmp / "reference.json"
        ref_path.write_text(json.dumps({"phi_star": phi_star}))
    for solve in workload.solves:
        if solve.kind not in first_pass:
            continue
        out = tmp / f"cli-{solve.kind}.csv"
        argv = cli_args(workload, solve, seed, CLI_ITERS, out, ref_path, mtx_path)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            if tracer is not None:
                tracer.solve_id = CLI
                with tracer.span("cli.run_experiment"):
                    code = run_experiment(argv)
                tracer.solve_id = SETUP
            else:
                code = run_experiment(argv)
        if code != 0:
            tally.fail_kind(solve.kind, f"run_experiment exited with {code}")
            continue
        got = [_no_seconds(r) for r in IterationTrace.from_csv(out).rows]
        want = first_pass[solve.kind][1].head
        if got != want:
            row = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                       min(len(got), len(want)))
            tally.fail_kind(solve.kind, f"run_experiment trace differs from row {row}")


def end_to_end(workload, passes, fastest, setup_s):
    """The end-to-end metrics from untraced passes: times sum each step's
    fastest pass (``FastestSteps``); counts come from the first pass, as they
    are deterministic."""
    if workload.name == "reference":
        results = [p["reference"][1] for p in passes if "reference" in p]
        iters = results[0].iterations if results else 1
        wall = fastest.wall("reference")
        return {
            "setup_s": setup_s,
            "time_to_target_s": wall,
            "us_per_iter": wall / iters * 1e6,
            "iters_to_target": iters,
            "matvecs_per_iter": results[0].matvecs / iters if results else 0.0,
        }
    ttt = wall = 0.0
    iters_to_target = budget = matvecs = iterations = 0
    for solve in workload.solves:
        results = [p[solve.kind][1] for p in passes if solve.kind in p]
        if not results:
            continue
        crossed = [r.crossing for r in results if r.crossing is not None]
        iters_to_target += crossed[0][0] if crossed else 0
        ttt += fastest.to_target(solve.kind, crossed[0][0]) if crossed else 0.0
        wall += fastest.wall(solve.kind)
        budget += solve.budget
        matvecs += results[0].matvecs
        iterations += results[0].iterations
    return {
        "setup_s": setup_s,
        "time_to_target_s": ttt,
        "us_per_iter": wall / budget * 1e6 if budget else 0.0,
        "iters_to_target": iters_to_target,
        "matvecs_per_iter": matvecs / iterations if iterations else 0.0,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Session:
    """One benchmark run of one workload."""

    def __init__(self, workload, seed, run_seed, seconds, tmp):
        self.workload = workload
        self.seed = seed
        self.order_rng = random.Random(run_seed)
        self.seconds = seconds
        self.tmp = tmp
        self.tally = FailureTally()
        self.ops = Operators()
        self.fastest = FastestSteps()  # filled by untraced passes only
        self.mtx_path = None
        if workload.name == "nnls-sparse":
            self.mtx_path = tmp / "c12-1033x320.mtx"
            write_c12_matrix(self.mtx_path)

    def setup(self, tracer=None):
        return build_setup(self.workload, self.seed, self.mtx_path,
                           span=tracer.span if tracer is not None else None)

    def one_pass(self, setup, phi_star, tracer=None):
        if self.workload.name == "reference":
            return reference_pass(setup.problems["plain"], self.tally, self.ops, tracer,
                                  self.fastest if tracer is None else None)
        order = list(self.workload.solves)
        self.order_rng.shuffle(order)
        return solve_pass(self.workload, setup, phi_star, self.tally, self.ops, order, tracer,
                          self.fastest if tracer is None else None)

    def checks(self, setup, phi_star, passes, run_errors):
        check_determinism(passes, self.tally)
        if self.workload.solves:
            check_matvec_pairs(self.workload, setup, self.ops, self.tally)
        for err in run_errors:
            self.tally.fail_all(err)

    def timed_setups(self, count, times):
        """Build the workload ``count`` times, appending each build's time;
        returns the last build."""
        setup = None
        for _ in range(count):
            setup = None
            # Problems hold reference cycles (objective closures), so free the
            # previous build now rather than whenever the collector runs:
            # peak memory must not depend on collector timing.
            gc.collect()
            t0 = time.perf_counter()
            setup = self.setup()
            times.append(time.perf_counter() - t0)
        return setup

    def measure(self):
        """End-to-end metrics, tracing off."""
        times = []
        setup = self.timed_setups(SETUP_FIRST, times)
        phi_star, run_errors = prepare_reference(self.workload, self.seed, setup)
        passes = []
        t_start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(self.one_pass(setup, phi_star))
            last = time.perf_counter() - t0
            self.timed_setups(SETUP_BETWEEN, times)
            elapsed = time.perf_counter() - t_start
            if len(passes) >= MIN_PASSES and elapsed + last > self.seconds:
                break
        self.checks(setup, phi_star, passes, run_errors)
        if self.workload.solves:
            check_cli(self.workload, self.seed, passes[0], phi_star, self.mtx_path, self.tmp,
                      self.tally)
        metrics = end_to_end(self.workload, passes, self.fastest, min(times))
        metrics["peak_rss_mb"] = peak_rss_mb()
        pass_walls = [sum(res.wall for _, res in p.values()) for p in passes]
        return metrics, {"passes": len(passes), "setups": len(times), "pass_walls": pass_walls}

    def trace(self):
        """Per-layer metrics: untraced and traced passes alternate."""
        setup = self.setup()
        phi_star, run_errors = prepare_reference(self.workload, self.seed, setup)
        tracer = Tracer()
        install(tracer)
        try:
            traced_setup = self.setup(tracer)
        finally:
            tracer.unpatch()
        for prob in traced_setup.problems.values():
            if prob.objective is not None:
                prob.objective = tracer.wrap("problems.metric", prob.objective)
        plain, traced = [], []
        t_start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            plain.append(self.one_pass(setup, phi_star))
            install(tracer)
            try:
                traced.append(self.one_pass(traced_setup, phi_star, tracer))
            finally:
                tracer.unpatch()
            last = time.perf_counter() - t0
            if time.perf_counter() - t_start + last > self.seconds:
                break
        self.checks(setup, phi_star, plain + traced, run_errors)
        if self.workload.solves:
            install(tracer)
            try:
                check_cli(self.workload, self.seed, plain[0], phi_star, self.mtx_path,
                          self.tmp, self.tally, tracer)
            finally:
                tracer.unpatch()
        mismatches = tracer.counter_mismatches()
        for msg in mismatches:
            self.tally.fail_all(f"linop spans disagree with counters: {msg}")

        def wall(passes):
            return sum(res.wall for p in passes for _, res in p.values())

        ref = plain[0].get("reference")
        metrics = layer_metrics(
            SpanStats(tracer),
            workload=self.workload,
            passes_plain=plain,
            passes_traced=traced,
            fastest=self.fastest,
            traced_wall=wall(traced),
            plain_wall=wall(plain),
            oracle_iters=ref[1].iterations if ref else 0,
        )
        OUT.mkdir(exist_ok=True)
        tracer.write_csv(OUT / f"spans-{self.workload.name}.csv.gz")
        return metrics, {"passes": len(traced), "spans": len(tracer.name),
                         "counter_mismatches": len(mismatches)}


def declared(manifest, trace):
    return manifest["per_layer" if trace else "end_to_end"]


def run_workload(args, manifest):
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.workload_seed is None else args.workload_seed
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        session = Session(workload, seed, args.seed, args.seconds, Path(tmp))
        metrics, info = session.trace() if args.trace else session.measure()
    specs = declared(manifest, args.trace)
    if set(metrics) != {m["name"] for m in specs}:
        raise SystemExit(f"computed metrics {sorted(metrics)} differ from BENCHMARK.json")
    tally = session.tally
    env = envinfo.record()
    print(f"workload {workload.name}: instance seed {seed}, run seed {args.seed}, "
          f"trace {args.trace}, {info}")
    for m in specs:
        print(f"  {m['name']:<36} {metrics[m['name']]:.6g} {m['unit']}")
    print(f"  {'failed_share':<36} {tally.share:g} ({tally.failed} of {tally.attempted} "
          f"solves attempted)")
    for msg in tally.messages():
        print(f"  FAILED {msg}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in specs},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload.name}-trace{args.trace}.json").write_text(
        json.dumps({**result, "workload": workload.name, "instance_seed": seed,
                    "run_seed": args.seed, "info": info, "env": env,
                    "failures": tally.messages()}, indent=1)
    )
    print(json.dumps(result))


def run_all(args, manifest):
    """Each workload in its own process (peak RSS is per process), then one table."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=900)
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(WORKLOADS)
    print(f"{'metric':<36} {'unit':<8}" + "".join(f"{n:>16}" for n in names))
    for m in declared(manifest, args.trace):
        row = "".join(f"{results[n]['metrics'][m['name']]['value']:>16.6g}" for n in names)
        print(f"{m['name']:<36} {m['unit']:<8}{row}")
    share = "".join(
        f"{results[n]['failed'] / results[n]['attempted']:g} "
        f"({results[n]['failed']}/{results[n]['attempted']})".rjust(16)
        for n in names
    )
    print(f"{'failed_share (failed/attempted)':<36} {'1':<8}{share}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="run seed: order of solves")
    parser.add_argument("--workload-seed", type=int, default=None,
                        help="problem instance seed (default: the CLI's seed for the family)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = manifest["run_seconds"]
    if args.workload == "all":
        run_all(args, manifest)
    else:
        run_workload(args, manifest)


if __name__ == "__main__":
    main()
