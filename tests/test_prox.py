import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import Zero, prox_l1_oracle, qp_project_nonneg_oracle, qp_project_simplex_oracle
from saddlesolve.prox import (
    IndNonneg,
    IndSimplex,
    QuadShift,
    ScaledL1,
    prox_l1,
    proj_nonneg,
    proj_simplex,
)

finite_floats = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def test_prox_l1_closed_forms():
    assert prox_l1(np.array([0.0]), 0.3)[0] == 0.0
    assert prox_l1(np.array([2.0]), 0.5)[0] == 1.5
    assert prox_l1(np.array([-0.2]), 0.5)[0] == 0.0
    # exact zero at the boundary |x| = t
    assert prox_l1(np.array([0.5, -0.5]), 0.5).tolist() == [0.0, 0.0]


@settings(max_examples=60, deadline=None)
@given(st.lists(finite_floats, min_size=1, max_size=6), st.floats(min_value=0.0, max_value=10.0))
def test_prox_l1_matches_candidate_oracle(xs, t):
    x = np.array(xs)
    assert np.allclose(prox_l1(x, t), prox_l1_oracle(x, t), atol=1e-12)


def test_prox_quad_shift_fixed_point():
    b = np.array([1.5, -2.0])
    assert np.allclose(QuadShift(b).prox(-b, 3.7), -b)


def test_prox_quad_shift_shrink():
    assert QuadShift(np.array([0.0])).prox(np.array([1.0]), 1.0)[0] == 0.5


def test_prox_quad_shift_matches_grid_oracle(fixtures):
    rec = fixtures["quadshift_grid"]
    got = QuadShift(np.array([rec["b"]])).prox(np.array([rec["v"]]), rec["s"])[0]
    assert got == pytest.approx(rec["out"], abs=rec["tol"])
    assert got == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_prox_quad_shift_bits_of_the_closed_form(rng):
    for n in (1, 7, 1000):
        v, b = rng.standard_normal(n), rng.standard_normal(n)
        for s in (1e-3, 0.37, 1.0, 250.0):
            closed_form = ((v - s * b) / (1.0 + s)).tobytes()
            assert QuadShift(b).prox(v, s).tobytes() == closed_form


def test_prox_quad_shift_dim_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        QuadShift(np.zeros(3)).prox(np.zeros(2), 1.0)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: prox_l1(np.ones(2), -0.1), "nonnegative"),
        (lambda: QuadShift(np.zeros(2)).prox(np.ones(2), 0.0), "positive"),
        (lambda: QuadShift(np.zeros(2)).prox(np.ones(2), -1.0), "positive"),
        (lambda: ScaledL1(-0.5), "nonnegative"),
        # each check accepts only good values, so NaN fails it
        (lambda: prox_l1(np.ones(2), np.nan), "nonnegative"),
        (lambda: ScaledL1(np.nan), "nonnegative"),
        (lambda: QuadShift(np.zeros(2)).prox(np.ones(2), np.nan), "positive"),
        (lambda: QuadShift(np.array([1.0, np.nan])), "finite"),
        (lambda: QuadShift(np.array([np.inf])), "finite"),
    ],
)
def test_prox_input_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_proj_nonneg_cases(fixtures):
    assert proj_nonneg([1.0, 2.0]).tolist() == [1.0, 2.0]
    assert proj_nonneg([-1.0, 2.0]).tolist() == [0.0, 2.0]
    rec = fixtures["projnn_4"]
    assert np.allclose(proj_nonneg(rec["v"]), rec["out"], atol=rec["tol"])


def test_proj_simplex_cases(fixtures):
    assert np.allclose(proj_simplex([0.5, 0.5]), [0.5, 0.5])
    assert np.allclose(proj_simplex([2.0, 0.0]), fixtures["simplex_2_0"]["out"], atol=1e-12)
    assert np.allclose(proj_simplex([0.3, 0.1]), fixtures["simplex_03_01"]["out"], atol=1e-12)


def test_proj_simplex_empty():
    with pytest.raises(ValueError, match="nonempty"):
        proj_simplex(np.array([]))


@settings(max_examples=80, deadline=None)
@given(st.lists(finite_floats, min_size=1, max_size=6))
# near-tied free sets: an oracle choosing by distance returned 2e-8 off here
@example([-1.0, -1.0, -1.0, -5.960464477539063e-08])
def test_proj_simplex_feasible_and_optimal(xs):
    v = np.array(xs)
    y = proj_simplex(v)
    assert abs(y.sum() - 1.0) <= 1e-12
    assert y.min() >= 0.0
    oracle = qp_project_simplex_oracle(v).value
    assert np.allclose(y, oracle, atol=1e-8)


@settings(max_examples=150, deadline=None)
@given(st.floats(min_value=-12.0, max_value=300.0), st.sampled_from([-1.0, 1.0]),
       st.floats(min_value=-12.0, max_value=12.0),
       st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=49))
# the plain threshold at this offset left the sum 1.2e-4 off
@example(12.0, 1.0, 0.0, [0.1, 0.5, 0.9])
# from 2**53 on, u[0] - 1 rounds back to u[0] and the plain threshold keeps no entry
@example(17.0, 1.0, 0.0, [0.0, 0.0])
@example(16.0, -1.0, 0.0, [0.0, 0.0])
def test_proj_simplex_is_feasible_under_a_large_common_offset(offset_exp, sign, spread_exp,
                                                               unit):
    # entries of order 1e-12 to 1e300 around a common offset: the result is a
    # point of the simplex, and the projection of v - max(v)
    v = sign * 10.0**offset_exp + 10.0**spread_exp * np.array(unit)
    y = proj_simplex(v)
    assert IndSimplex.contains(y), abs(y.sum() - 1.0)
    assert y.min() >= 0.0
    assert np.allclose(y, proj_simplex(v - v.max()), rtol=0.0, atol=IndSimplex.sum_tol)


def test_proj_simplex_of_a_nan_or_plus_inf_entry_is_all_nan():
    # no threshold qualifies on such an input; -inf projects as usual
    for v in ([np.nan, 1.0], [np.inf, 1.0], [1.0, np.nan, -2.0], [np.inf, np.nan]):
        y = proj_simplex(v)
        assert y.shape == (len(v),) and np.isnan(y).all()
    assert np.array_equal(proj_simplex([-np.inf, 1.0]), [0.0, 1.0])


def test_proj_matches_enumeration_bulk(rng):
    for _ in range(200):
        d = int(rng.integers(1, 7))
        v = rng.uniform(-3, 3, size=d)
        assert np.allclose(proj_simplex(v), qp_project_simplex_oracle(v).value, atol=1e-8)
        assert np.allclose(proj_nonneg(v), qp_project_nonneg_oracle(v).value, atol=1e-12)


_CATALOG = [
    ScaledL1(0.7),
    QuadShift(np.array([0.3, -1.2, 0.8])),
    IndNonneg(),
    IndSimplex(),
    Zero(),
]


@pytest.mark.parametrize("fn", _CATALOG, ids=lambda f: repr(f))
def test_firm_nonexpansiveness(fn, rng):
    # ||P(u) - P(v)||^2 <= <P(u) - P(v), u - v> for prox operators
    for _ in range(500):
        u = rng.uniform(-5, 5, size=3)
        v = rng.uniform(-5, 5, size=3)
        pu = fn.prox(u, 0.9)
        pv = fn.prox(v, 0.9)
        d = pu - pv
        assert float(d @ d) <= float(d @ (u - v)) + 1e-10


@pytest.mark.parametrize("fn", _CATALOG, ids=lambda f: repr(f))
def test_prox_variational_characterization(fn, rng):
    # p = Prox_{t g}(x) iff <p - x, y - p> >= t*(g(p) - g(y)) for all y
    t = 0.8
    for _ in range(20):
        x = rng.uniform(-2, 2, size=3)
        p = fn.prox(x, t)
        for _ in range(20):
            if isinstance(fn, IndSimplex):
                y = proj_simplex(rng.uniform(-1, 2, size=3))
            elif isinstance(fn, IndNonneg):
                y = proj_nonneg(rng.uniform(-1, 2, size=3))
            else:
                y = rng.uniform(-2, 2, size=3)
            lhs = float((p - x) @ (y - p))
            rhs = t * (fn.value(p) - fn.value(y))
            assert lhs >= rhs - 1e-9


@pytest.mark.parametrize("fn", _CATALOG, ids=lambda f: repr(f))
def test_prox_returns_a_new_array(fn, rng):
    # SaddleProblem's contract: the corrected solver overwrites the vectors
    # it hands to a prox, so the result may share no memory with its input
    wide = rng.uniform(-2, 2, size=6)
    for v in (wide[:3].copy(), wide[::2]):
        before = v.copy()
        p = fn.prox(v, 0.8)
        assert not np.shares_memory(p, v)
        assert not np.shares_memory(p, wide)
        assert v.tobytes() == before.tobytes()


def test_prox_eval_dispatch():
    v = np.array([2.0])
    assert Zero().prox(v, 3.0)[0] == 2.0
    # weight folding: prox of t*(mu |.|) thresholds at t*mu
    assert ScaledL1(0.1).prox(v, 5.0)[0] == pytest.approx(1.5)
    out = IndSimplex().prox(np.array([2.0, 0.0]), 7.0)
    assert np.allclose(out, [1.0, 0.0])


def test_values():
    assert ScaledL1(0.5).value(np.array([1.0, -2.0])) == pytest.approx(1.5)
    assert QuadShift(np.array([1.0])).value(np.array([-1.0])) == 0.0
    assert IndNonneg().value(np.array([0.0, 1.0])) == 0.0
    assert IndNonneg().value(np.array([-1.0, 1.0])) == np.inf
    assert IndSimplex().value(np.array([0.5, 0.5])) == 0.0
    assert IndSimplex().value(np.array([0.5, 0.2])) == np.inf
    assert IndSimplex().value(np.array([0.5, np.nan, 0.5])) == np.inf
    assert Zero().value(np.array([9.0])) == 0.0
