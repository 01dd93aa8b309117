"""Tests of the benchmark's own helpers. Run: python3 -m pytest bench/test_helpers.py"""

import pytest

from helpers import FailureTally, FastestSteps, first_crossing, self_times


def _rows(metrics):
    return [(i, 0.5 * i, m, 1.0, 1.0, 0) for i, m in enumerate(metrics)]


def test_first_crossing_returns_first_row_at_or_below_target():
    rows = _rows([1.0, 1e-3, 1e-8, 1e-9, 1e-7])
    assert first_crossing(rows, 1e-8) == (2, 1.0)


def test_first_crossing_keeps_the_first_crossing_after_a_rebound():
    rows = _rows([1.0, 1e-9, 1e-3, 1e-10])
    assert first_crossing(rows, 1e-8) == (1, 0.5)


def test_first_crossing_none_when_target_missed_or_metric_nan():
    assert first_crossing(_rows([1.0, 1e-3, float("nan")]), 1e-8) is None
    assert first_crossing([], 1e-8) is None


def test_fastest_steps_take_each_step_from_its_fastest_pass():
    fastest = FastestSteps()
    fastest.add("pdac", [0.0, 1.0, 6.0, 8.0], outside=0.5)
    fastest.add("pdac", [0.0, 3.0, 7.0, 16.0], outside=0.2)
    # step times (1, 5, 2) and (3, 4, 9): fastest (1, 4, 2)
    assert fastest.to_target("pdac", 2) == pytest.approx(5.0)
    assert fastest.to_target("pdac", 0) == 0.0
    assert fastest.wall("pdac") == pytest.approx(7.2)


def test_fastest_steps_of_an_unseen_kind_are_zero():
    fastest = FastestSteps()
    fastest.add("pda", [0.0, 1.0], outside=0.1)
    assert fastest.to_target("pdal", 1) == 0.0
    assert fastest.wall("pdal") == 0.0


def test_fastest_steps_keep_the_common_prefix_of_a_short_pass():
    fastest = FastestSteps()
    fastest.add("fista", [0.0, 2.0, 4.0, 6.0], outside=0.0)
    fastest.add("fista", [0.0, 1.0], outside=0.0)
    assert fastest.wall("fista") == pytest.approx(1.0)


def test_self_times_subtract_direct_children_only():
    # root [0, 10] with children [2, 5] and [6, 7]; grandchild [3, 4]
    start = [0.0, 2.0, 3.0, 6.0]
    end = [10.0, 5.0, 4.0, 7.0]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_times_of_leaf_and_root_spans_are_their_durations():
    assert self_times([1.0, 5.0], [2.0, 9.0], [-1, -2]) == pytest.approx([1.0, 4.0])


def test_failure_tally_counts_each_solve_once():
    tally = FailureTally()
    a = tally.attempt("pdac")
    tally.attempt("pda")
    tally.fail(a, "missed target")
    tally.fail(a, "differs from the first pass")
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.share == 0.5
    assert len(tally.messages()) == 2


def test_failure_tally_kind_and_run_wide_failures():
    tally = FailureTally()
    for kind in ("pdac", "pda", "pdac", "pda"):
        tally.attempt(kind)
    tally.fail_kind("pdac", "run_experiment trace differs")
    assert tally.failed == 2
    tally.fail_all("linop spans disagree with counters")
    assert tally.failed == 4 and tally.share == 1.0


def test_failure_tally_share_is_zero_without_attempts():
    assert FailureTally().share == 0.0
