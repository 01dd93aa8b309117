"""Pure helpers of the benchmark: target-crossing detection, fastest
step times, span self time and failure accounting. They touch no solver
and are unit-tested on their own (``test_helpers.py``)."""

from __future__ import annotations

import math

import numpy as np


def first_crossing(rows, target):
    """(iteration, seconds) of the first trace row whose metric is at most
    ``target``, or None when no row reaches it.

    ``rows`` are IterationTrace rows ``(iter, seconds, metric, ...)``. A NaN
    metric never counts as reaching the target.
    """
    for row in rows:
        if row[2] <= target:
            return row[0], row[1]
    return None


class FastestSteps:
    """Per solve kind, the fastest time any pass took for each step of the
    solve, and for the part of the solve outside its steps.

    A step is a piece of work that is the same in every pass: an iteration
    of a trace (traces are deterministic), or the stretch of
    ``solve_reference`` between two of its residual checks. A slowdown of the
    host that lasts seconds hits some passes of a step but rarely all of
    them, while a slower program is slower in every pass: sums of these
    minima follow the program, not the host. Memory stays one array per kind
    however many passes run.
    """

    def __init__(self):
        self.step = {}  # kind -> seconds of each step, fastest pass
        self.outside = {}  # kind -> seconds outside the steps, fastest pass

    def add(self, kind, seconds, outside):
        """One pass of a solve: ``seconds`` is cumulative, one entry at the
        start and one at the end of each step, as a trace's ``seconds``
        column at ``trace_every=1`` is."""
        step = np.diff(np.asarray(seconds, dtype=float))
        best = self.step.get(kind)
        if best is not None:
            n = min(len(best), len(step))
            step = np.minimum(best[:n], step[:n])
        self.step[kind] = step
        self.outside[kind] = min(self.outside.get(kind, math.inf), outside)

    def to_target(self, kind, steps):
        """Seconds of the first ``steps`` steps (to trace row ``steps``);
        0.0 for a kind never added."""
        best = self.step.get(kind)
        return float(best[:steps].sum()) if best is not None else 0.0

    def wall(self, kind):
        """Seconds of the whole solve; 0.0 for a kind never added."""
        best = self.step.get(kind)
        return float(best.sum()) + self.outside[kind] if best is not None else 0.0


def self_times(start, end, parent):
    """Self time of every span: its duration minus the durations of its
    direct children. ``parent[i]`` is the index of span i's parent, or a
    negative number for a root span. Spans of one thread nest, so children
    never overlap and their durations can simply be subtracted."""
    dur = [e - s for s, e in zip(start, end)]
    own = list(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= dur[i]
    return own


class FailureTally:
    """Solves attempted and the checks each one failed.

    A solve counts as failed once, however many of its checks fail. Checks
    made once per run for a solver kind (the CLI comparison, the matvec
    probe) fail every solve of that kind; run-wide checks fail every solve.
    """

    def __init__(self):
        self.kinds = []  # solver kind of each attempted solve
        self.reasons = {}  # solve index -> failed checks

    @property
    def attempted(self):
        return len(self.kinds)

    @property
    def failed(self):
        return len(self.reasons)

    @property
    def share(self):
        return self.failed / self.attempted if self.attempted else 0.0

    def attempt(self, kind):
        self.kinds.append(kind)
        return len(self.kinds) - 1

    def fail(self, key, reason):
        self.reasons.setdefault(key, []).append(reason)

    def fail_kind(self, kind, reason):
        for key, k in enumerate(self.kinds):
            if k == kind:
                self.fail(key, reason)

    def fail_all(self, reason):
        for key in range(self.attempted):
            self.fail(key, reason)

    def messages(self):
        return [f"solve {key} ({self.kinds[key]}): {r}" for key, rs in sorted(self.reasons.items()) for r in rs]
