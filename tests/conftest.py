import numpy as np
import pytest

from make_fixtures import FIXTURE_PATH, load_fixtures
from saddlesolve.linop import LinearOperator

_ACCEPTANCE_RESULTS = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when == "call" and "test_acceptance" in item.nodeid:
        _ACCEPTANCE_RESULTS.append((item.name, rep.passed))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, passed in _ACCEPTANCE_RESULTS:
        terminalreporter.write_line(f"{'PASS' if passed else 'FAIL'}  {name}")


@pytest.fixture(scope="session")
def fixtures():
    return load_fixtures(FIXTURE_PATH)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def matvec_count(monkeypatch):
    """[K, K*] applications made through any LinearOperator in the process.
    Every problem owns exactly one operator, its ``K``, so its counters
    would do; counting on the class stays as the process-wide guard that
    catches a product spent through any other operator."""
    count = [0, 0]
    apply, adjoint_apply = LinearOperator.apply, LinearOperator.adjoint_apply

    def counted_apply(op, x):
        count[0] += 1
        return apply(op, x)

    def counted_adjoint(op, y):
        count[1] += 1
        return adjoint_apply(op, y)

    monkeypatch.setattr(LinearOperator, "apply", counted_apply)
    monkeypatch.setattr(LinearOperator, "adjoint_apply", counted_adjoint)
    return count
