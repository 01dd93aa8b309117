import numpy as np
import pytest

import saddlesolve.linop as linop
from saddlesolve.linop import (
    DenseMatrix,
    LinearOperator,
    MatrixMarketError,
    PowerIterationError,
    SparseMatrix,
    read_matrix_market,
)


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
    monkeypatch.setattr(linop, "_POWER_MAX_ITER", 1)
    op = LinearOperator(np.array([[2.0, 1.0], [1.0, 3.0]]))
    with pytest.raises(PowerIterationError) as exc:
        op.operator_norm()
    assert exc.value.estimate > 0.0


def test_frobenius(fixtures):
    assert LinearOperator(np.eye(2)).frobenius_norm() == pytest.approx(np.sqrt(2.0))
    zero_free = SparseMatrix.from_dense(np.zeros((2, 2)))
    assert LinearOperator(zero_free).frobenius_norm() == 0.0
    op = LinearOperator(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert op.frobenius_norm() == pytest.approx(fixtures["frob_2x2"]["out"], rel=1e-15)


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


def test_sparse_round_trip(rng):
    K = rng.standard_normal((5, 4))
    K[np.abs(K) < 0.5] = 0.0
    sp = SparseMatrix.from_dense(K)
    assert np.array_equal(sp.to_dense(), K)
    spt = sp.transposed()
    assert np.array_equal(spt.to_dense(), K.T)
    sptn = sp.transposed(negate=True)
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
    ],
)
def test_mm_errors(tmp_path, text, match):
    path = _write(tmp_path, text)
    with pytest.raises(MatrixMarketError, match=match):
        read_matrix_market(path)


def test_counters(rng):
    op = LinearOperator(rng.standard_normal((3, 3)))
    op.apply(np.ones(3))
    op.adjoint_apply(np.ones(3))
    op.apply(np.ones(3))
    assert (op.apply_calls, op.adjoint_calls) == (2, 1)
    op.reset_counters()
    assert (op.apply_calls, op.adjoint_calls) == (0, 0)
