import json
import mmap
import os
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import saddlesolve.linop as linop
from oracles import c12_matrix, c12_matrix_market_text, read_matrix_market_oracle
from saddlesolve.linop import (
    DenseMatrix,
    LinearOperator,
    MatrixMarketError,
    SparseMatrix,
    read_matrix_market,
    vector_norm,
)
from saddlesolve.problems import ProblemSpec, build_nnls, gen_lasso, gen_matrix_game
from saddlesolve.solvers import default_config


def _identity_op(n):
    return LinearOperator(np.eye(n))


def test_apply_identity():
    op = _identity_op(2)
    assert np.allclose(op.apply([3.0, 4.0]), [3.0, 4.0])


def test_apply_diagonal():
    op = LinearOperator(np.diag([3.0, 1.0]))
    assert np.allclose(op.apply([1.0, 1.0]), [3.0, 1.0])


def test_apply_matches_naive_oracle(fixtures):
    rec = fixtures["apply_dense_3x2"]
    K = rec["K"].reshape(3, 2)
    op = LinearOperator(K)
    got = op.apply(rec["x"])
    assert np.all(np.abs(got - rec["out"]) <= rec["tol"] * (1.0 + np.abs(rec["out"])))


def test_apply_dimension_mismatch():
    op = _identity_op(2)
    with pytest.raises(ValueError, match="length 2"):
        op.apply([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="length 2"):
        op.adjoint_apply([1.0])


def _c12_operator():
    return LinearOperator(c12_matrix())


def _lasso1_operator():
    return gen_lasso(ProblemSpec("lasso1"))[0].K


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _scipy_csr(sparse):
    """The scipy CSR matrix over the arrays of the SparseMatrix ``sparse``:
    the reference its products and ``to_dense`` are checked against."""
    from scipy.sparse import csr_matrix

    return csr_matrix((sparse.values, sparse.col_indices, sparse.row_offsets),
                      shape=(sparse.rows, sparse.cols))


def test_products_have_the_bits_of_scipy_and_numpy(rng):
    # apply/adjoint_apply call the kernels that csr @ x and entries @ x run
    sparse, dense = _c12_operator(), _lasso1_operator()
    csr, entries = _scipy_csr(sparse.backing), dense.backing.entries
    for _ in range(3):
        x, y = rng.standard_normal(320), rng.standard_normal(1033)
        assert _same_bits(sparse.apply(x), csr @ x)
        assert _same_bits(sparse.adjoint_apply(y), csr.T @ y)
        x, y = rng.standard_normal(1000), rng.standard_normal(200)
        assert _same_bits(dense.apply(x), entries @ x)
        assert _same_bits(dense.adjoint_apply(y), entries.T @ y)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
@example(1, 40, 0.5, 0)
@example(40, 1, 0.5, 1)
@example(1, 1, 1.0, 2)
@example(30, 25, 0.0, 3)
def test_sparse_products_have_the_bits_of_scipy_on_random_matrices(rows, cols, density, seed):
    # the adjoint runs the stored transpose, which must sum each entry in the
    # order csr.T @ y does, empty rows and columns included; to_dense must
    # place the entries as toarray() does
    rng = np.random.default_rng(seed)
    K = rng.standard_normal((rows, cols)) * 10.0 ** rng.uniform(-3, 3, (rows, cols))
    K[rng.random((rows, cols)) >= density] = 0.0
    if rows > 1:
        K[rng.integers(rows)] = 0.0
    if cols > 1:
        K[:, rng.integers(cols)] = 0.0
    op = LinearOperator(SparseMatrix.from_dense(K))
    csr = _scipy_csr(op.backing)
    assert _same_bits(op.backing.to_dense(), csr.toarray())
    for _ in range(3):
        x = rng.standard_normal(cols) * 10.0 ** rng.uniform(-3, 3, cols)
        y = rng.standard_normal(rows) * 10.0 ** rng.uniform(-3, 3, rows)
        assert _same_bits(op.adjoint_apply(y), csr.T @ y)
        assert _same_bits(op.apply(x), csr @ x)


@pytest.mark.parametrize("sparse", [False, True])
def test_products_convert_inputs_to_contiguous_floats(rng, sparse):
    K = rng.standard_normal((6, 9))
    K[np.abs(K) < 0.6] = 0.0
    op = LinearOperator(SparseMatrix.from_dense(K) if sparse else K)
    for product, n in ((op.apply, 9), (op.adjoint_apply, 6)):
        wide = rng.standard_normal(2 * n)
        ints = rng.integers(-5, 6, size=n)
        for given, plain in (
            (wide[::2], np.ascontiguousarray(wide[::2])),
            (list(wide[:n]), wide[:n].copy()),
            (ints, ints.astype(float)),
            (ints.tolist(), ints.astype(float)),
        ):
            assert _same_bits(product(given), product(plain))


def test_sparse_products_run_no_import(rng, monkeypatch):
    # the kernel is bound at construction: with scipy.sparse made
    # unimportable, both products still run and keep their bits
    K = rng.standard_normal((6, 9))
    K[np.abs(K) < 0.6] = 0.0
    op = LinearOperator(SparseMatrix.from_dense(K))
    x, y = rng.standard_normal(9), rng.standard_normal(6)
    Kx, Kty = op.apply(x), op.adjoint_apply(y)
    for name in ("scipy.sparse", "scipy.sparse._sparsetools"):
        monkeypatch.setitem(sys.modules, name, None)
    assert _same_bits(op.apply(x), Kx)
    assert _same_bits(op.adjoint_apply(y), Kty)


def _pickled_copy(op, entries_nbytes):
    """An unpickled copy of ``op``, after checking that the pickle holds the
    entries once and that the copy keeps the norm and the counters."""
    op.operator_norm()
    op.apply(np.zeros(op.cols))
    blob = pickle.dumps(op)
    assert len(blob) <= entries_nbytes + 2048
    copy = pickle.loads(blob)
    assert copy.backing.norm_cache.value == op.backing.norm_cache.value
    assert (copy.apply_calls, copy.adjoint_calls) == (op.apply_calls, op.adjoint_calls)
    if isinstance(copy.backing, DenseMatrix):
        # both products run on the copy's own entries, not on a second copy
        assert copy.backing.product.__self__ is copy.backing.entries
        assert np.shares_memory(copy.backing.adjoint_product.__self__, copy.backing.entries)
    else:
        own = (copy.backing.row_offsets, copy.backing.col_indices, copy.backing.values)
        assert all(a is b for a, b in zip(copy.backing.product.args[3:], own, strict=True))
    return copy


@pytest.mark.parametrize("sparse", [False, True])
def test_operator_pickles_with_its_products(rng, sparse):
    K = rng.standard_normal((6, 9))
    K[np.abs(K) < 0.6] = 0.0
    op = LinearOperator(SparseMatrix.from_dense(K) if sparse else K)
    copy = _pickled_copy(op, K.nbytes)
    x, y = rng.standard_normal(9), rng.standard_normal(6)
    assert _same_bits(copy.apply(x), op.apply(x))
    assert _same_bits(copy.adjoint_apply(y), op.adjoint_apply(y))


def test_sparse_matrix_pickles_without_its_transpose(rng):
    sp = c12_matrix()
    blob = pickle.dumps(sp)
    assert len(blob) <= sp.row_offsets.nbytes + sp.col_indices.nbytes + sp.values.nbytes + 2048
    copy = pickle.loads(blob)
    for _ in range(2):
        x, y = rng.standard_normal(320), rng.standard_normal(1033)
        assert _same_bits(copy.product(x), sp.product(x))
        assert _same_bits(copy.adjoint_product(y), sp.adjoint_product(y))



def test_swapped_nnls_reuses_the_transpose_it_holds(rng, monkeypatch, tmp_path):
    # parsing runs the csr_tocsc kernel once, for the adjoint; the swapped
    # problem's -K^T is made of those arrays, and its own transpose is -K
    # over the parsed arrays
    sparsetools = linop._sparsetools()

    path = tmp_path / "c12.mtx"
    path.write_text(c12_matrix_market_text())
    calls, kernel = [], sparsetools.csr_tocsc

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(sparsetools, "csr_tocsc", counted)
    sparse = read_matrix_market(path)
    swapped = build_nnls(sparse, rng.standard_normal(1033), swapped=True)
    back = swapped.K.backing.negated_transpose()
    assert len(calls) == 1
    assert back.row_offsets is sparse.row_offsets and back.col_indices is sparse.col_indices
    assert _same_bits(back.values, sparse.values)
    neg = -_scipy_csr(sparse)
    for op in (swapped.K, pickle.loads(pickle.dumps(swapped.K))):
        assert _same_bits(op.backing.to_dense(), neg.T.toarray())
        for _ in range(2):
            x, y = rng.standard_normal(1033), rng.standard_normal(320)
            assert _same_bits(op.apply(x), neg.T @ x)
            assert _same_bits(op.adjoint_apply(y), neg @ y)


@pytest.mark.parametrize("first", ["plain", "swapped"])
def test_a_matrix_and_its_negated_transpose_share_one_lanczos(first):
    # ||-K^T|| = ||K||: whichever operator asks first runs the Lanczos, and
    # the other finds its bits in the shared cache without a product
    sparse = c12_matrix()
    ops = {"plain": LinearOperator(sparse),
           "swapped": LinearOperator(sparse.negated_transpose())}
    other = ops["swapped" if first == "plain" else "plain"]
    L = ops[first].operator_norm()
    assert other.backing.norm_cache.value == L and other.operator_norm() == L
    assert other.apply_calls == other.adjoint_calls == 0
    assert L == _c12_operator().operator_norm()  # the same bits in either order
    copy = pickle.loads(pickle.dumps(other))
    assert copy.backing.norm_cache.value == L


# shapes on both sides of the placement threshold (1 MiB = 131072 floats)
_PLACEMENT_SHAPES = [(6, 9), (127, 1024), (128, 1024), (200, 1000)]


def _dense_inputs(rng, shape):
    """The same matrix as C-ordered, F-ordered, integer and list input, each
    with its plain ``np.array(given, dtype=float, order="C")`` copy."""
    K = rng.standard_normal(shape)
    ints = rng.integers(-5, 6, size=shape)
    for given in (K, np.asfortranarray(K), ints, K.tolist()):
        yield given, np.array(given, dtype=float, order="C")


def _assert_products_of(op, plain, rng):
    assert _same_bits(op.backing.entries, plain)
    for _ in range(2):
        x, y = rng.standard_normal(plain.shape[1]), rng.standard_normal(plain.shape[0])
        assert _same_bits(op.apply(x), plain @ x)
        assert _same_bits(op.adjoint_apply(y), plain.T @ y)


@pytest.mark.parametrize("shape", _PLACEMENT_SHAPES)
def test_dense_products_keep_their_bits_across_the_placement_threshold(rng, shape):
    for given, plain in _dense_inputs(rng, shape):
        _assert_products_of(LinearOperator(DenseMatrix(given)), plain, rng)


@pytest.mark.skipif(not hasattr(mmap, "MADV_HUGEPAGE"), reason="no MADV_HUGEPAGE here")
def test_large_dense_entries_start_at_a_huge_page_boundary(rng):
    for shape in _PLACEMENT_SHAPES:
        entries = DenseMatrix(rng.standard_normal(shape)).entries
        placed = entries.nbytes >= 1 << 20
        assert entries.flags.owndata is not placed
        assert entries.flags.c_contiguous and entries.flags.writeable
        if placed:
            assert entries.ctypes.data % (2 << 20) == 0


@pytest.mark.parametrize("shape", [(6, 9), (200, 1000)])
def test_dense_to_dense_is_a_read_only_view_of_the_entries(rng, shape):
    dense = DenseMatrix(rng.standard_normal(shape))
    view = dense.to_dense()
    assert np.shares_memory(view, dense.entries) and _same_bits(view, dense.entries)
    with pytest.raises(ValueError, match="read-only"):
        view[0, 0] = 1.0
    assert dense.entries.flags.writeable


class _RefusedAdvice(mmap.mmap):
    def madvise(self, *args):
        raise OSError("madvise refused")


@pytest.mark.parametrize("fault", ["madvise", "no-advice"])
def test_dense_matrix_without_huge_pages_keeps_the_plain_copy(rng, monkeypatch, fault):
    if fault == "madvise":
        monkeypatch.setattr(mmap, "mmap", _RefusedAdvice)
    else:
        monkeypatch.delattr(mmap, "MADV_HUGEPAGE", raising=False)
    for given, plain in _dense_inputs(rng, (200, 1000)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            op = LinearOperator(DenseMatrix(given))
        assert op.backing.entries.flags.owndata
        _assert_products_of(op, plain, rng)


def test_placed_operator_pickles_with_its_products(rng):
    op = LinearOperator(rng.standard_normal((200, 1000)))
    copy = _pickled_copy(op, op.backing.entries.nbytes)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        assert copy.backing.entries.ctypes.data % (2 << 20) == 0
    for _ in range(2):
        x, y = rng.standard_normal(1000), rng.standard_normal(200)
        assert _same_bits(copy.apply(x), op.apply(x))
        assert _same_bits(copy.adjoint_apply(y), op.adjoint_apply(y))


def _no_mapping(*args, **kwargs):
    raise AssertionError("a mapping was made for input that fails the checks")


@pytest.mark.parametrize(
    "make, match",
    [
        (lambda: np.ones(200_000), "2-D"),
        (lambda: np.ones((2, 100, 1000)), "2-D"),
        (lambda: np.full((200, 1000), np.nan), "finite"),
        (lambda: np.pad(np.ones((200, 999)), ((0, 0), (0, 1)), constant_values=np.inf), "finite"),
    ],
)
def test_large_dense_matrix_validation(monkeypatch, make, match):
    entries = make()
    if match == "2-D":
        monkeypatch.setattr(mmap, "mmap", _no_mapping)
    with pytest.raises(ValueError, match=match):
        DenseMatrix(entries)


def test_vector_norm_is_numpy_norm_bitwise(rng):
    cases = [rng.standard_normal(n) * scale for n in (1, 2, 7, 320, 1033, 4096)
             for scale in (1e-200, 1.0, 1e150)]
    cases += [np.zeros(0), np.zeros(5), np.array([np.inf, 1.0]), np.array([-np.inf, 0.0]),
              np.array([np.nan, 1.0]), np.array([np.inf, np.nan])]
    for v in cases:
        got, want = vector_norm(v), float(np.linalg.norm(v))
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_adjoint_identity_case():
    op = _identity_op(2)
    assert np.allclose(op.adjoint_apply([3.0, 4.0]), [3.0, 4.0])


def test_adjoint_hand_computed(fixtures):
    op = LinearOperator(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.allclose(op.adjoint_apply([1.0, 0.0]), fixtures["adjoint_2x2"]["out"])


@pytest.mark.parametrize("sparse", [False, True])
def test_adjoint_identity_probes(rng, sparse):
    # <Kx, y> == <x, K*y> across 100 random probes
    K = rng.standard_normal((7, 5))
    if sparse:
        K[np.abs(K) < 0.6] = 0.0
        op = LinearOperator(SparseMatrix.from_dense(K))
    else:
        op = LinearOperator(K)
    for _ in range(100):
        x = rng.standard_normal(5)
        y = rng.standard_normal(7)
        lhs = op.apply(x) @ y
        rhs = x @ op.adjoint_apply(y)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_operator_norm_identity():
    assert _identity_op(4).operator_norm() == pytest.approx(1.0, abs=1e-10)


def test_operator_norm_diagonal():
    op = LinearOperator(np.diag([3.0, 1.0]))
    assert op.operator_norm() == pytest.approx(3.0, abs=1e-10)


def test_operator_norm_matches_gram_oracle(fixtures):
    rec = fixtures["opnorm_5x4"]
    op = LinearOperator(rec["K"].reshape(5, 4))
    assert op.operator_norm() == pytest.approx(rec["out"], rel=rec["tol"])


def test_operator_norm_dominates_rayleigh(rng):
    K = rng.standard_normal((6, 9))
    op = LinearOperator(K)
    L = op.operator_norm()
    for _ in range(50):
        x = rng.standard_normal(9)
        x /= np.linalg.norm(x)
        assert L >= np.linalg.norm(op.apply(x)) - 1e-6


def test_operator_norm_zero_matrix_rejected():
    op = LinearOperator(SparseMatrix.from_dense(np.eye(3)))
    assert op.operator_norm() == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError, match="zero"):
        LinearOperator(np.zeros((2, 2))).operator_norm()


def test_operator_norm_budget_error(monkeypatch):
    monkeypatch.setattr(linop, "_LANCZOS_MAX_ITER", 1)
    op = LinearOperator(np.array([[2.0, 1.0], [1.0, 3.0]]))
    # the type of the zero-K and overflow failures, which the CLI maps to exit 1
    with pytest.raises(ValueError, match="^operator_norm: Lanczos did not converge within 1 "):
        op.operator_norm()
    assert op.backing.norm_cache.value is None


def _svd_norm(entries):
    return np.linalg.svd(entries, compute_uv=False)[0]


def _assert_norm_is_svd(op):
    L, top = op.operator_norm(), _svd_norm(op.backing.to_dense())
    assert type(L) is float
    assert abs(L - top) <= 1e-12 * top, (L, top)


def _rank_one():
    u, v = np.random.default_rng(5).standard_normal((2, 30))
    return np.outer(u, v[:20])


def _repeated_top():
    # two equal top singular values (7, 7) above 3, 1, 0.5
    Q1, _ = np.linalg.qr(np.random.default_rng(6).standard_normal((12, 12)))
    Q2, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((9, 9)))
    return Q1[:, :5] @ np.diag([7.0, 7.0, 3.0, 1.0, 0.5]) @ Q2[:5, :]


@pytest.mark.parametrize(
    "build",
    [
        _lasso1_operator,
        lambda: gen_matrix_game(ProblemSpec("game1", seed=100)).K,
        lambda: gen_matrix_game(ProblemSpec("game3", seed=100)).K,
        _c12_operator,
        lambda: LinearOperator(_c12_operator().backing.negated_transpose()),
        lambda: LinearOperator(np.arange(1.0, 8.0).reshape(1, 7)),
        lambda: LinearOperator(np.arange(1.0, 8.0).reshape(7, 1)),
        lambda: LinearOperator(np.eye(4)),
        lambda: LinearOperator(SparseMatrix.from_dense(np.eye(4))),
        lambda: LinearOperator(np.diag([3.0, 1.0])),
        lambda: LinearOperator(_rank_one()),
        lambda: LinearOperator(_repeated_top()),
    ],
    ids=["lasso1", "game1", "game3", "c12", "c12-swapped", "1xn", "nx1", "eye4",
         "eye4-sparse", "diag31", "rank1", "repeated-top"],
)
def test_operator_norm_matches_svd(build):
    _assert_norm_is_svd(build())


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(
        float,
        st.tuples(st.integers(1, 9), st.integers(1, 9)),
        elements=st.floats(-100.0, 100.0, allow_subnormal=False),
    ),
    st.booleans(),
)
def test_operator_norm_matches_svd_on_random_shapes(K, sparse):
    assume(np.any(K != 0.0))
    _assert_norm_is_svd(LinearOperator(SparseMatrix.from_dense(K) if sparse else K))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("sparse", [False, True])
def test_operator_norm_names_a_gram_product_that_overflows(sparse):
    # ||K|| = 1e308 is finite, but a product with K of a vector of K / max|K|
    # nears ||K||^2 / max|K| = 1e309, past the largest float
    K = np.full((10, 10), 1e307)
    op = LinearOperator(SparseMatrix.from_dense(K) if sparse else K)
    with pytest.raises(ValueError, match="leaves the float range"):
        op.operator_norm()
    assert op.backing.norm_cache.value is None


@pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e160, 1e200])
def test_operator_norm_holds_at_extreme_scales(rng, scale):
    # K*K of these matrices under- or overflows; the iteration runs on K
    # divided by its largest entry
    K = rng.standard_normal((5, 4)) * scale
    _assert_norm_is_svd(LinearOperator(K))
    _assert_norm_is_svd(LinearOperator(SparseMatrix.from_dense(K.T)))


def test_operator_norm_is_deterministic():
    a, b = _lasso1_operator().operator_norm(), _lasso1_operator().operator_norm()
    assert np.float64(a).tobytes() == np.float64(b).tobytes()
    a, b = _c12_operator().operator_norm(), _c12_operator().operator_norm()
    assert np.float64(a).tobytes() == np.float64(b).tobytes()


@pytest.mark.parametrize(
    "build",
    [
        lambda: gen_lasso(ProblemSpec("lasso1"))[0],
        lambda: gen_matrix_game(ProblemSpec("game1", seed=100)),
        lambda: build_nnls(_c12_operator().backing, np.ones(1033)),
    ],
    ids=["lasso1", "game1", "c12"],
)
def test_default_pda_steps_hold_against_the_svd_norm(build):
    # Chambolle-Pock needs tau*sigma*||K||^2 <= 1; the power iteration this
    # replaced stopped 9.3e-10 below ||K|| on lasso1, which gave 1 + 1.9e-9
    prob = build()
    cfg, _ = default_config(prob, "pda")
    top = _svd_norm(prob.K.backing.to_dense())
    assert cfg.tau * cfg.sigma * top * top <= 1.0 + 1e-12


def test_operator_norm_product_budget_on_lasso1():
    # the power iteration this replaced took 330 of each on this operator
    op = _lasso1_operator()
    op.operator_norm()
    calls = op.apply_calls, op.adjoint_calls
    assert max(calls) <= 80
    op.operator_norm()  # cached: no further products
    assert (op.apply_calls, op.adjoint_calls) == calls


def test_operator_norm_redraws_a_start_in_the_null_space(monkeypatch):
    class Draws:
        def __init__(self, seed):
            self.left = [np.array([0.0, 1.0]), np.array([1.0, 1.0])]

        def standard_normal(self, n):
            return self.left.pop(0)

    monkeypatch.setattr(np.random, "default_rng", Draws)
    op = LinearOperator(np.diag([2.0, 0.0]))
    assert op.operator_norm() == pytest.approx(2.0, rel=1e-15)
    # one product on the first start, then the two steps the second needs
    assert op.apply_calls == 3


_LOADS_SCRIPT = """
import json, sys
import numpy as np
import saddlesolve
from saddlesolve import cli
from saddlesolve.linop import read_matrix_market
from saddlesolve.oracle import solve_reference
from saddlesolve.problems import ProblemSpec, build_nnls, gen_lasso, gen_matrix_game
from saddlesolve.solvers import default_config, run

def loaded(*names):
    return sorted(m for m in sys.modules for name in names
                  if m == name or m.startswith(name + "."))

def solve(problem, kind):
    cfg, _ = default_config(problem, kind)
    run(kind, problem, cfg, *problem.start, max_iter=20)

steps, codes = [], []
finders = list(sys.meta_path)
def step(name):
    steps.append([name, loaded("scipy.sparse"),
                  loaded("scipy.linalg", "scipy.sparse.linalg"), sys.meta_path == finders])

step("import")
lasso = gen_lasso(ProblemSpec("lasso1"))[0]
for kind in ("pdac", "pda", "pdal", "fista"):
    solve(lasso, kind)
step("lasso")
solve_reference(gen_lasso(ProblemSpec("lasso1", m=20, n=50, s=3))[0])
step("reference")
solve(gen_matrix_game(ProblemSpec("game1")), "pdac")
step("game")
codes.append(cli.run_experiment(["--problem", "lasso1", "--solver", "pdac",
                                 "--max-iters", "20", "--output", sys.argv[2]]))
step("cli")
sparse = read_matrix_market(sys.argv[1])
K = build_nnls(sparse, np.ones(sparse.rows), swapped=True).K
K.operator_norm()
step("nnls")
codes.append(cli.run_experiment(["--problem", "nnls-well", "--solver", "apdac", "--swapped",
                                 "--matrix-file", sys.argv[1], "--max-iters", "20",
                                 "--output", sys.argv[2]]))
step("nnls-cli")
from scipy.sparse import csr_matrix
b = K.backing
csr = csr_matrix((b.values, b.col_indices, b.row_offsets), shape=(b.rows, b.cols))
rng = np.random.default_rng(0)
x, y = rng.standard_normal(K.cols), rng.standard_normal(K.rows)
same = [K.apply(x).tobytes() == (csr @ x).tobytes(),
        K.adjoint_apply(y).tobytes() == (csr.T @ y).tobytes()]
print(json.dumps({"steps": steps, "codes": codes, "same_bits": same}))
"""


def test_dense_paths_load_no_scipy_sparse_and_no_path_loads_scipy_linalg(tmp_path):
    # one interpreter for every path, so the suite pays for one start; the
    # NNLS paths load the compiled CSR kernels under saddlesolve's name, so
    # no path loads a scipy.sparse module or changes sys.meta_path
    mtx = tmp_path / "k.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate real general\n"
                   "3 4 5\n1 1 2.0\n1 3 -1.5\n2 2 0.5\n3 1 4.0\n3 4 -3.0\n")
    src = str(Path(linop.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", _LOADS_SCRIPT, str(mtx), str(tmp_path / "trace.csv")],
        env=env, capture_output=True, text=True, check=True,
    )
    report = json.loads(out.stdout.strip().splitlines()[-1])
    steps = report["steps"]
    assert [name for name, *_ in steps] == ["import", "lasso", "reference", "game", "cli",
                                              "nnls", "nnls-cli"]
    for name, sparse, linalg, finders in steps:
        assert linalg == [], name
        assert sparse == [], (name, sparse)
        assert finders, name
    assert report["codes"] == [0, 0]
    assert report["same_bits"] == [True, True]


def test_frobenius(fixtures):
    assert LinearOperator(np.eye(2)).frobenius_norm() == pytest.approx(np.sqrt(2.0))
    zero_free = SparseMatrix.from_dense(np.zeros((2, 2)))
    assert LinearOperator(zero_free).frobenius_norm() == 0.0
    op = LinearOperator(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert op.frobenius_norm() == pytest.approx(fixtures["frob_2x2"]["out"], rel=1e-15)


@pytest.mark.parametrize("scale", [1e-200, 1e-320, 1e160, 1e200])
def test_frobenius_norm_holds_at_extreme_scales(rng, scale):
    # the plain sum of squares under- or overflows here (numpy warns on the
    # overflow, an error in this suite); the norm of K / max|K| is scaled back
    K = rng.standard_normal((6, 4))
    expected = float(np.linalg.norm(K)) * scale
    for backing in (K * scale, SparseMatrix.from_dense(K.T * scale)):
        got = LinearOperator(backing).frobenius_norm()
        assert got == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_frobenius_norm_keeps_the_bits_of_the_plain_norm(rng):
    K = rng.standard_normal((7, 5))
    K[K < 0.3] = 0.0
    for backing in (K, SparseMatrix.from_dense(K)):
        plain = np.linalg.norm(K)
        assert np.float64(LinearOperator(backing).frobenius_norm()).tobytes() == plain.tobytes()


def test_dense_matrix_validation():
    with pytest.raises(ValueError, match="finite"):
        DenseMatrix([[np.inf, 1.0]])
    with pytest.raises(ValueError, match="2-D"):
        DenseMatrix([1.0, 2.0])


def test_sparse_invariants():
    with pytest.raises(ValueError, match="nonzero"):
        SparseMatrix(1, 2, [0, 1], [0], [0.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        SparseMatrix(1, 3, [0, 2], [1, 1], [1.0, 2.0])
    with pytest.raises(ValueError, match="out of range"):
        SparseMatrix(1, 2, [0, 1], [5], [1.0])
    # row 1 holds the columns [2, 1]
    with pytest.raises(ValueError, match="not strictly increasing in row 1$"):
        SparseMatrix(3, 3, [0, 1, 3, 3], [0, 2, 1], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="dimensions must be positive"):
        SparseMatrix(0, 2, [0], [], [])
    with pytest.raises(ValueError, match="length rows \\+ 1"):
        SparseMatrix(2, 2, [0, 1], [0], [1.0])
    with pytest.raises(ValueError, match="start at 0 and end at nnz"):
        SparseMatrix(1, 2, [1, 1], [0], [1.0])
    with pytest.raises(ValueError, match="start at 0 and end at nnz"):
        SparseMatrix(1, 2, [0, 2], [0], [1.0])
    with pytest.raises(ValueError, match="nondecreasing"):
        SparseMatrix(2, 2, [0, 2, 1], [0], [1.0])
    with pytest.raises(ValueError, match="equal length"):
        SparseMatrix(1, 2, [0, 1], [0, 1], [1.0])
    with pytest.raises(ValueError, match="finite"):
        SparseMatrix(1, 2, [0, 1], [0], [np.inf])
    with pytest.raises(ValueError, match="one length"):
        SparseMatrix.from_coo(2, 2, [0, 1], [0, 1], [1.0])
    with pytest.raises(ValueError, match="one length"):
        SparseMatrix.from_coo(2, 2, [0, 1], [0], [1.0, 2.0])


def test_sparse_matrix_copies_its_arrays():
    # the caller's arrays may change after construction; the matrix may not
    offsets, cols, values = np.array([0, 1, 2]), np.array([0, 1]), np.array([2.0, 3.0])
    op = LinearOperator(SparseMatrix(2, 2, offsets, cols, values))
    values[:] = [np.nan, 0.0]
    cols[:] = [1, 0]
    offsets[1] = 0
    assert op.apply(np.ones(2)).tolist() == [2.0, 3.0]
    assert op.backing.values.tolist() == [2.0, 3.0]
    assert op.backing.col_indices.tolist() == [0, 1]
    assert op.backing.row_offsets.tolist() == [0, 1, 2]


def test_linear_operator_rejects_non_matrix_backing():
    with pytest.raises(TypeError, match="backing"):
        LinearOperator([[1.0, 2.0]])


def test_from_coo_sums_duplicates_in_input_order():
    # (0, 1) appears four times among other entries; the bits of its sum
    # depend on the order of the terms, and the CSR holds numpy's sum of
    # them in input order
    dup = np.array([1e16, 1.0, 1.0, -1e16])
    expected = np.add.reduceat(dup, [0])[0]
    assert expected != np.add.reduceat(dup[[0, 1, 3, 2]], [0])[0]
    sp = SparseMatrix.from_coo(
        2, 2, [0, 1, 0, 0, 0, 0], [1, 0, 1, 0, 1, 1], [dup[0], 5.0, dup[1], 2.0, dup[2], dup[3]]
    )
    assert sp.row_offsets.tolist() == [0, 2, 3]
    assert sp.col_indices.tolist() == [0, 1, 0]
    assert sp.values.tobytes() == np.array([2.0, expected, 5.0]).tobytes()


def test_from_coo_drops_duplicates_that_cancel():
    sp = SparseMatrix.from_coo(2, 2, [0, 1, 0], [1, 0, 1], [0.5, 3.0, -0.5])
    assert sp.nnz == 1
    assert np.array_equal(sp.to_dense(), [[0.0, 0.0], [3.0, 0.0]])


@st.composite
def _coo_triplets(draw):
    """(rows, cols, row_idx, col_idx, values) on at most 3x3 cells, so
    coordinates repeat, often 8 or more times, with values that cancel and
    signed zeros; in about half the draws one index is out of range."""
    rows, cols, n = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 40))
    ri = draw(st.lists(st.integers(0, rows - 1), min_size=n, max_size=n))
    ci = draw(st.lists(st.integers(0, cols - 1), min_size=n, max_size=n))
    values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 1e16, -1e16]),
                       st.floats(-1e100, 1e100))
    vv = draw(st.lists(values, min_size=n, max_size=n))
    if n and draw(st.booleans()):
        idx, dim = draw(st.sampled_from([(ri, rows), (ci, cols)]))
        idx[draw(st.integers(0, n - 1))] = draw(st.sampled_from([-1, dim, -(2**40), 2**40]))
    return rows, cols, ri, ci, vv


@settings(max_examples=40, deadline=None)
@given(_coo_triplets())
@example((1, 1, [0] * 9, [0] * 9, [1e16] + [1.0] * 7 + [-1e16]))
@example((2, 3, [1] * 12 + [0], [2] * 12 + [0], [0.1] * 12 + [-0.0]))
@example((2, 2, [0, 1, 1], [1, 0, 0], [0.5, 3.0, -3.0]))
@example((3, 3, [], [], []))
@example((3, 2, [0, 2], [1, -1], [1.0, 2.0]))
@example((3, 2, [0, 3], [1, 0], [1.0, 2.0]))
def test_from_coo_has_the_bits_of_scipy(triplets):
    # scipy's coo_matrix is the oracle: a run of 8 or more duplicates takes
    # reduceat's pairwise sum, which the CSR must repeat bit for bit; an
    # index out of range raises ValueError on both
    from scipy.sparse import coo_matrix

    rows, cols, ri, ci, vv = triplets
    try:
        coo = coo_matrix((np.array(vv, dtype=float), (ri, ci)), shape=(rows, cols))
    except ValueError:
        with pytest.raises(ValueError, match="index out of range"):
            SparseMatrix.from_coo(rows, cols, ri, ci, vv)
        return
    coo.sum_duplicates()
    coo.eliminate_zeros()
    csr = coo.tocsr()
    sp = SparseMatrix.from_coo(rows, cols, ri, ci, vv)
    assert sp.row_offsets.tobytes() == csr.indptr.astype(np.int64).tobytes()
    assert sp.col_indices.tobytes() == csr.indices.astype(np.int64).tobytes()
    assert sp.values.tobytes() == csr.data.tobytes()


_ATTRIBUTE_SCRIPT = """
import importlib.util, json, sys
import numpy as np
from saddlesolve.linop import LinearOperator, SparseMatrix, _sparsetools

K = np.arange(1.0, 13.0).reshape(3, 4)
K[1, 2] = K[2, 0] = 0.0
op = LinearOperator(SparseMatrix.from_dense(K))
x, y = np.linspace(-1.0, 1.5, 4), np.linspace(2.0, -3.0, 3)
bits = [op.apply(x).tobytes(), op.adjoint_apply(y).tobytes()]
alone = sorted(m for m in sys.modules if m.startswith("scipy.sparse"))
ours = _sparsetools()
found = importlib.util.find_spec("scipy.sparse") is not None
import scipy.sparse
kernel = scipy.sparse._sparsetools.csr_matvec
new = LinearOperator(SparseMatrix.from_dense(K))
csr = scipy.sparse.csr_matrix(K)
same = [[op.apply(x).tobytes(), op.adjoint_apply(y).tobytes()] == bits,
        [new.apply(x).tobytes(), new.adjoint_apply(y).tobytes()] == bits,
        [(csr @ x).tobytes(), (csr.T @ y).tobytes()] == bits]
print(json.dumps({"alone": alone, "found": found, "kept": _sparsetools() is ours,
                  "kernel": kernel.__name__,
                  "own": scipy.sparse._sparsetools is sys.modules["scipy.sparse._sparsetools"],
                  "shared": _sparsetools() is scipy.sparse._sparsetools, "same_bits": same}))
"""


def _run_script(script):
    src = str(Path(linop.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_scipy_sparse_imported_after_the_kernels_has_them_as_its_attribute():
    # the kernels load under saddlesolve's own name and no scipy.sparse
    # module; a later lookup and import of the package leave them in place,
    # the package loads the extension as its own attribute, and every
    # product keeps its bits
    report = _run_script(_ATTRIBUTE_SCRIPT)
    assert report == {"alone": [], "found": True, "kept": True, "kernel": "csr_matvec",
                      "own": True, "shared": False, "same_bits": [True, True, True]}


def _kernel_test_matrix(rng):
    K = rng.standard_normal((6, 9))
    K[np.abs(K) < 0.6] = 0.0
    return K


def test_kernels_load_through_the_plain_import_when_the_file_is_not_found(rng, monkeypatch):
    # with the finder made to miss, the loader imports the extension through
    # scipy.sparse: the same kernels, so the same bits
    K = _kernel_test_matrix(rng)
    before = LinearOperator(SparseMatrix.from_dense(K))
    asked = []

    class Missing:
        def __init__(self, path, *loaders):
            self.path = path

        def find_spec(self, name):
            asked.append((os.path.basename(self.path), name))
            return None

    monkeypatch.setattr(linop, "FileFinder", Missing)
    monkeypatch.delitem(sys.modules, "saddlesolve._sparsetools")
    op = LinearOperator(SparseMatrix.from_dense(K))
    assert asked == [("sparse", "saddlesolve._sparsetools")]
    assert "scipy.sparse" in sys.modules
    assert linop._sparsetools() is sys.modules["saddlesolve._sparsetools"]
    for _ in range(2):
        x, y = rng.standard_normal(9), rng.standard_normal(6)
        assert _same_bits(op.apply(x), before.apply(x))
        assert _same_bits(op.adjoint_apply(y), before.adjoint_apply(y))


def test_sparse_round_trip(rng):
    K = rng.standard_normal((5, 4))
    K[np.abs(K) < 0.5] = 0.0
    sp = SparseMatrix.from_dense(K)
    assert np.array_equal(sp.to_dense(), K)
    sptn = sp.negated_transpose()
    assert np.array_equal(sptn.to_dense(), -K.T)


def _write(tmp_path, text, name="m.mtx"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_mm_minimal(tmp_path):
    path = _write(tmp_path, "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 5.0\n")
    sp = read_matrix_market(path)
    assert (sp.rows, sp.cols) == (2, 2)
    dense = sp.to_dense()
    assert dense[0, 0] == 5.0
    assert np.count_nonzero(dense) == 1


def test_mm_duplicates_summed(tmp_path, fixtures):
    path = _write(
        tmp_path,
        "%%MatrixMarket matrix coordinate real general\n% comment\n2 2 2\n1 1 2.0\n1 1 3.0\n",
    )
    sp = read_matrix_market(path)
    assert sp.to_dense()[0, 0] == fixtures["mm_dup_sum"]["out"]
    assert sp.nnz == 1


def test_mm_symmetric_expansion(tmp_path):
    path = _write(
        tmp_path,
        "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 4.0\n3 3 1.5\n",
    )
    dense = read_matrix_market(path).to_dense()
    assert dense[1, 0] == 4.0 and dense[0, 1] == 4.0 and dense[2, 2] == 1.5


def test_mm_matches_reference_dense_parse(tmp_path, rng):
    # dense expansion of the CSR parse equals an entry-by-entry dense parse
    m, n, nnz = 6, 5, 12
    lines = ["%%MatrixMarket matrix coordinate real general", f"{m} {n} {nnz}"]
    dense = np.zeros((m, n))
    for _ in range(nnz):
        i = int(rng.integers(1, m + 1))
        j = int(rng.integers(1, n + 1))
        v = float(rng.standard_normal())
        dense[i - 1, j - 1] += v
        lines.append(f"{i} {j} {v!r}")
    path = _write(tmp_path, "\n".join(lines) + "\n")
    assert np.array_equal(read_matrix_market(path).to_dense(), dense)


@pytest.mark.parametrize(
    "text,match",
    [
        ("2 2 1\n1 1 5.0\n", "banner"),
        ("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 2.0\n", "field"),
        ("%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 1\n1 1 2.0\n", "symmetry"),
        ("%%MatrixMarket matrix array real general\n1 1\n2.0\n", "format"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 5.0\n", "line 3"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 5.0\n", "line 3"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n", "line 3"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 5.0\n", "expected 3"),
        ("", "empty file"),
        ("%%MatrixMarket vector coordinate real general\n1 1 1\n1 1 2.0\n", "object"),
        ("%%MatrixMarket matrix coordinate real general\n2 2\n1 1 5.0\n", "three integers"),
        ("%%MatrixMarket matrix coordinate real general\n2 x 1\n1 1 5.0\n", "size line"),
        ("%%MatrixMarket matrix coordinate real general\n0 2 1\n1 1 5.0\n", "dimensions"),
        ("%%MatrixMarket matrix coordinate real general\n% no size line\n", "missing size"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n", "row col value"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 inf\n", "non-finite"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 nan\n", "non-finite"),
        # comment and blank lines count; \v and \f end no line
        (
            "%%MatrixMarket matrix coordinate real general\n% a\vb\fc\n2 2 2\n1 1 5.0\n"
            "% interior\n\n  \t\n2 x 1.0\n",
            r"non-numeric index token in '2 x 1.0' \(line 8\)",
        ),
        # a comment may not follow an entry
        (
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 5.0 % note\n",
            r"'row col value' \(line 3\)",
        ),
        (
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 5.0%note\n",
            r"value token '5.0%note' \(line 3\)",
        ),
        # of two faults the earlier line is named, whichever check finds it
        (
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n3 1 5.0\n1 x 5.0\n",
            r"out of range for 2x2 \(line 3\)",
        ),
        (
            "%%MatrixMarket matrix coordinate real general\n2 2 9\n1 1 inf\n1 1 x\n",
            r"non-finite value \(line 3\)",
        ),
        (
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n99999999999999999999 1 5.0\n",
            r"index \(99999999999999999999, 1\) out of range for 2x2 \(line 3\)",
        ),
        # Python's int and float read 1_0; the reader does not
        (
            "%%MatrixMarket matrix coordinate real general\n20 20 1\n1_0 1 5.0\n",
            r"non-numeric index token in '1_0 1 5.0' \(line 3\)",
        ),
        (
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1_0.5\n",
            r"non-numeric value token '1_0.5' \(line 3\)",
        ),
        (
            "%%MatrixMarket matrix coordinate real general\n99999999999999999999 2 1\n1 1 5.0\n",
            r"dimensions \(line 2\)",
        ),
        (
            "%%MatrixMarket matrix coordinate real general\r\n2 2 3\r\n1 1 5.0\r\n\r\n",
            r"expected 3 entries, found 1 \(line 4\)",
        ),
        # mirroring 1 3 5.0 would put an entry in row 3 of 2
        (
            "%%MatrixMarket matrix coordinate real symmetric\n% c\n2 3 1\n1 3 5.0\n",
            r"symmetric matrix must be square; got 2x3 \(line 3\)",
        ),
    ],
)
def test_mm_errors(tmp_path, text, match):
    path = _write(tmp_path, text)
    with pytest.raises(MatrixMarketError, match=match):
        read_matrix_market(path)


# values that cancel in one summation order and not in another
_MM_VALUES = st.one_of(st.sampled_from([1e16, 1.0, -1e16, 0.0]), st.floats(-1e3, 1e3))
_MM_FORMATS = (repr, "{:.3e}".format, "{:+g}".format)
_MM_FILLER = st.lists(st.sampled_from(["", "% note", "  %", "\t", " \t % indented"]), max_size=2)


@st.composite
def _mm_files(draw):
    """A small valid Matrix Market file, as (lines, line ending, indices of
    the size and entry lines)."""
    symmetric = draw(st.booleans())
    m = draw(st.integers(1, 4))
    n = m if symmetric else draw(st.integers(1, 4))
    count = draw(st.integers(0, 8))
    sep = draw(st.sampled_from([" ", "\t", "  ", " \t "]))
    lines = [f"%%MatrixMarket matrix coordinate real {'symmetric' if symmetric else 'general'}"]
    lines += draw(_MM_FILLER)
    content = [len(lines)]
    lines.append(sep.join(map(str, (m, n, count))))
    for _ in range(count):
        lines += draw(_MM_FILLER)
        content.append(len(lines))
        fmt = draw(st.sampled_from(_MM_FORMATS))
        lines.append(sep.join([str(draw(st.integers(1, m))), str(draw(st.integers(1, n))),
                               fmt(draw(_MM_VALUES))]))
    lines += draw(_MM_FILLER)
    return lines, draw(st.sampled_from(["\n", "\r\n"])), content


def _mm_outcome(read, path):
    """The CSR arrays ``read`` returns, or its error's line number and text."""
    try:
        sp = read(path)
    except MatrixMarketError as err:
        return err.line_no, str(err)
    return [arr.tobytes() for arr in (sp.row_offsets, sp.col_indices, sp.values)]


# one token of a content line made wrong, in a way the line-by-line reader
# rejects too
_MM_CORRUPTIONS = (
    ("index", "x"), ("index", "0"), ("index", "-1"), ("index", "1.5"), ("index", "5"),
    ("index", "99999999999999999999"), ("value", "nan"), ("value", "-inf"), ("value", "1e400"),
    ("value", "1.0.0"), ("value", "%"), ("append", "% note"), ("append", "7"), ("drop", None),
)


@settings(max_examples=120, deadline=None)
@given(_mm_files(), st.data())
@example(
    (["%%MatrixMarket matrix coordinate real symmetric", "2 2 3", "2 1 1e16", "1 2 1.0",
      "2 1 -1e16"], "\n", [1, 2, 3, 4]),
    None,
).via("symmetric mirrors that cancel in file order only")
def test_mm_matches_line_by_line_oracle(tmp_path_factory, file, data):
    lines, eol, content = file
    path = tmp_path_factory.mktemp("mm") / "m.mtx"
    path.write_bytes(eol.join(lines).encode() + b"\n")
    expect = _mm_outcome(read_matrix_market_oracle, path)
    assert isinstance(expect, list)
    assert _mm_outcome(read_matrix_market, path) == expect
    if data is None:
        return
    at = data.draw(st.sampled_from(content))
    kind, token = data.draw(st.sampled_from(_MM_CORRUPTIONS))
    toks = lines[at].split()
    if at == content[0]:
        toks[2] = str(int(toks[2]) + 1)  # the size line: a count that does not match
    elif kind == "index":
        toks[data.draw(st.integers(0, 1))] = token
    elif kind == "value":
        toks[2] = token
    elif kind == "append":
        toks.append(token)
    else:
        toks.pop()
    lines = [*lines[:at], " ".join(toks), *lines[at + 1:]]
    path.write_bytes(eol.join(lines).encode())
    expect = _mm_outcome(read_matrix_market_oracle, path)
    assert isinstance(expect, tuple) and expect[0] is not None
    assert _mm_outcome(read_matrix_market, path) == expect


def test_counters(rng):
    op = LinearOperator(rng.standard_normal((3, 3)))
    op.apply(np.ones(3))
    op.adjoint_apply(np.ones(3))
    op.apply(np.ones(3))
    assert (op.apply_calls, op.adjoint_calls) == (2, 1)
