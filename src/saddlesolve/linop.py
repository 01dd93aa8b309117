"""Linear operators over dense and CSR-sparse matrices.

Provides forward/adjoint application, power-iteration operator-norm
estimation, Frobenius norms, and a Matrix Market coordinate-file reader.
Operators are immutable after construction and safe to share.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

__all__ = [
    "DenseMatrix",
    "SparseMatrix",
    "LinearOperator",
    "MatrixMarketError",
    "PowerIterationError",
    "read_matrix_market",
]

# Fixed seed for the power-iteration start vector: norm estimates must be
# reproducible across runs. The iteration stops when the eigenvalue estimate
# of K*K changes by at most _POWER_TOL relative, and gives up after
# _POWER_MAX_ITER products.
_POWER_SEED = 0x5EED
_POWER_TOL = 1e-10
_POWER_MAX_ITER = 10000


class MatrixMarketError(ValueError):
    """Malformed Matrix Market input; carries the offending line number."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"{message} (line {line_no})"
        super().__init__(message)
        self.line_no = line_no


class PowerIterationError(RuntimeError):
    """Power iteration exhausted its budget; ``estimate`` holds the last value."""

    def __init__(self, message, estimate):
        super().__init__(message)
        self.estimate = estimate


class DenseMatrix:
    """Row-major dense matrix backing."""

    def __init__(self, entries):
        arr = np.array(entries, dtype=float, order="C")
        if arr.ndim != 2:
            raise ValueError(f"dense matrix must be 2-D, got ndim={arr.ndim}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("dense matrix entries must all be finite")
        self.entries = arr

    @property
    def rows(self):
        return self.entries.shape[0]

    @property
    def cols(self):
        return self.entries.shape[1]

    def to_dense(self):
        return self.entries.copy()


class SparseMatrix:
    """CSR-format sparse matrix over one ``scipy.sparse`` CSR matrix.

    ``row_offsets``, ``col_indices`` (both int64) and ``values`` are the
    arrays of that matrix, and ``LinearOperator`` multiplies with it.
    Invariants enforced at construction: nondecreasing row offsets, strictly
    increasing column indices within each row, finite nonzero values.
    """

    def __init__(self, rows, cols, row_offsets, col_indices, values):
        rows = int(rows)
        cols = int(cols)
        if rows <= 0 or cols <= 0:
            raise ValueError("sparse matrix dimensions must be positive")
        # copies, so the caller cannot change the matrix past the checks
        row_offsets = np.array(row_offsets, dtype=np.int64)
        col_indices = np.array(col_indices, dtype=np.int64)
        values = np.array(values, dtype=float)
        if row_offsets.shape != (rows + 1,):
            raise ValueError("row_offsets must have length rows + 1")
        if row_offsets[0] != 0 or row_offsets[-1] != len(values):
            raise ValueError("row_offsets must start at 0 and end at nnz")
        if np.any(np.diff(row_offsets) < 0):
            raise ValueError("row_offsets must be nondecreasing")
        if len(col_indices) != len(values):
            raise ValueError("col_indices and values must have equal length")
        if len(col_indices) and (col_indices.min() < 0 or col_indices.max() >= cols):
            raise ValueError("column index out of range")
        csr = sp.csr_matrix((values, col_indices, row_offsets), shape=(rows, cols))
        # scipy narrows small index arrays to int32; keep the int64 ones
        csr.indptr, csr.indices = row_offsets, col_indices
        if not csr.has_canonical_format:
            row_of = np.repeat(np.arange(rows), np.diff(row_offsets))
            bad = (np.diff(col_indices) <= 0) & (np.diff(row_of) == 0)
            raise ValueError(
                f"column indices not strictly increasing in row {row_of[np.argmax(bad)]}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("sparse values must be finite")
        if np.any(values == 0.0):
            raise ValueError("sparse values must be nonzero (drop explicit zeros)")
        self._csr = csr
        self.row_offsets = row_offsets
        self.col_indices = col_indices
        self.values = csr.data

    @property
    def rows(self):
        return self._csr.shape[0]

    @property
    def cols(self):
        return self._csr.shape[1]

    @property
    def nnz(self):
        return len(self.values)

    @classmethod
    def from_coo(cls, rows, cols, row_idx, col_idx, values):
        """Build CSR from coordinate triplets; duplicates are summed in input
        order and entries whose sum is exactly zero are dropped."""
        coo = sp.coo_matrix(
            (np.asarray(values, dtype=float), (row_idx, col_idx)), shape=(rows, cols)
        )
        coo.sum_duplicates()
        coo.eliminate_zeros()
        csr = coo.tocsr()
        return cls(rows, cols, csr.indptr, csr.indices, csr.data)

    @classmethod
    def from_dense(cls, entries):
        arr = np.asarray(entries, dtype=float)
        rr, cc = np.nonzero(arr)
        return cls.from_coo(arr.shape[0], arr.shape[1], rr, cc, arr[rr, cc])

    def to_dense(self):
        return self._csr.toarray()

    def transposed(self, negate=False):
        """CSR matrix of the (optionally negated) transpose."""
        t = self._csr.T.tocsr()
        values = -t.data if negate else t.data
        return SparseMatrix(self.cols, self.rows, t.indptr, t.indices, values)


class LinearOperator:
    """Matrix-backed linear operator with forward and adjoint application.

    The adjoint of CSR storage is applied by a transposed traversal of the
    backing's CSR matrix (no stored transpose). ``apply_calls`` and
    ``adjoint_calls`` count matrix applications so tests can pin
    per-iteration budgets.
    """

    def __init__(self, backing):
        if isinstance(backing, np.ndarray):
            backing = DenseMatrix(backing)
        if isinstance(backing, DenseMatrix):
            self._mat = backing.entries
            self._mat_t = backing.entries.T
        elif isinstance(backing, SparseMatrix):
            self._mat = backing._csr
            self._mat_t = backing._csr.T  # CSC view over the same values
        else:
            raise TypeError("backing must be a DenseMatrix or SparseMatrix")
        self.backing = backing
        self.cached_norm = None
        self.apply_calls = 0
        self.adjoint_calls = 0

    @property
    def rows(self):
        return self.backing.rows

    @property
    def cols(self):
        return self.backing.cols

    @property
    def shape(self):
        return (self.backing.rows, self.backing.cols)

    def apply(self, x):
        """Forward product K x."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.cols,):
            raise ValueError(f"apply: expected vector of length {self.cols}, got shape {x.shape}")
        self.apply_calls += 1
        return self._mat @ x

    def adjoint_apply(self, y):
        """Adjoint product K* y."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.rows,):
            raise ValueError(
                f"adjoint_apply: expected vector of length {self.rows}, got shape {y.shape}"
            )
        self.adjoint_calls += 1
        return self._mat_t @ y

    def reset_counters(self):
        self.apply_calls = 0
        self.adjoint_calls = 0

    def frobenius_norm(self):
        if isinstance(self.backing, DenseMatrix):
            return float(np.linalg.norm(self.backing.entries))
        return float(np.linalg.norm(self.backing.values))

    def operator_norm(self):
        """Spectral norm via power iteration on K*K, computed once and cached.

        Starts from a deterministic seeded vector; converges when the
        successive eigenvalue estimate changes by at most 1e-10 relative.
        """
        if self.cached_norm is not None:
            return self.cached_norm
        if self.frobenius_norm() == 0.0:
            raise ValueError("operator_norm: zero operator")
        rng = np.random.default_rng(_POWER_SEED)
        v = rng.standard_normal(self.cols)
        v /= np.linalg.norm(v)
        prev = None
        eig = 0.0
        for _ in range(_POWER_MAX_ITER):
            u = self.adjoint_apply(self.apply(v))
            eig = float(np.linalg.norm(u))
            if eig == 0.0:
                # start vector fell in the null space; re-draw
                v = rng.standard_normal(self.cols)
                v /= np.linalg.norm(v)
                prev = None
                continue
            if prev is not None and abs(eig - prev) <= _POWER_TOL * eig:
                self.cached_norm = math.sqrt(eig)
                return self.cached_norm
            prev = eig
            v = u / eig
        raise PowerIterationError(
            f"power iteration did not converge within {_POWER_MAX_ITER} iterations",
            math.sqrt(eig) if eig > 0 else 0.0,
        )


def read_matrix_market(path):
    """Parse a coordinate-format real Matrix Market file into a SparseMatrix.

    Accepts the ``general`` and ``symmetric`` qualifiers; symmetric input is
    expanded to full storage at load time. 1-based indices are converted to
    0-based and duplicate coordinates are summed.
    """
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        first = fh.readline()
        if not first:
            raise MatrixMarketError("empty file", 1)
        banner = first.strip().split()
        if len(banner) < 5 or banner[0].lower() != "%%matrixmarket":
            raise MatrixMarketError("missing MatrixMarket banner", 1)
        obj, fmt, field, symmetry = (tok.lower() for tok in banner[1:5])
        if obj != "matrix":
            raise MatrixMarketError(f"unsupported object {obj!r}", 1)
        if fmt != "coordinate":
            raise MatrixMarketError(f"unsupported format {fmt!r}", 1)
        if field != "real":
            raise MatrixMarketError(f"unsupported field qualifier {field!r}", 1)
        if symmetry not in ("general", "symmetric"):
            raise MatrixMarketError(f"unsupported symmetry qualifier {symmetry!r}", 1)

        line_no = 1
        rows = cols = declared = None
        ri, ci, vv = [], [], []
        seen = 0
        for raw in fh:
            line_no += 1
            s = raw.strip()
            if not s or s.startswith("%"):
                continue
            toks = s.split()
            if rows is None:
                if len(toks) != 3:
                    raise MatrixMarketError("size line must hold three integers", line_no)
                try:
                    rows, cols, declared = (int(t) for t in toks)
                except ValueError:
                    raise MatrixMarketError("non-numeric token in size line", line_no) from None
                if rows <= 0 or cols <= 0 or declared < 0:
                    raise MatrixMarketError("invalid matrix dimensions", line_no)
                continue
            if len(toks) != 3:
                raise MatrixMarketError("entry line must be 'row col value'", line_no)
            try:
                i = int(toks[0])
                j = int(toks[1])
            except ValueError:
                raise MatrixMarketError(f"non-numeric index token in {s!r}", line_no) from None
            try:
                v = float(toks[2])
            except ValueError:
                raise MatrixMarketError(f"non-numeric value token {toks[2]!r}", line_no) from None
            if not (1 <= i <= rows) or not (1 <= j <= cols):
                raise MatrixMarketError(
                    f"index ({i}, {j}) out of range for {rows}x{cols}", line_no
                )
            if not math.isfinite(v):
                raise MatrixMarketError("non-finite value", line_no)
            seen += 1
            ri.append(i - 1)
            ci.append(j - 1)
            vv.append(v)
            if symmetry == "symmetric" and i != j:
                ri.append(j - 1)
                ci.append(i - 1)
                vv.append(v)
        if rows is None:
            raise MatrixMarketError("missing size line", line_no)
        if seen != declared:
            raise MatrixMarketError(f"expected {declared} entries, found {seen}", line_no)
    return SparseMatrix.from_coo(rows, cols, ri, ci, vv)
