"""Linear operators over dense and CSR-sparse matrices.

Provides forward/adjoint application, the Lanczos operator norm,
Frobenius norms, the Euclidean norm ``vector_norm`` that the
solvers use, and a Matrix Market coordinate-file reader. Operators are
immutable after construction and safe to share.

Each backing binds its own ``product`` and ``adjoint_product`` once, at
construction, and ``LinearOperator`` calls them without asking which
backing it holds: a dense backing multiplies with its entries and their
transposed view, and a CSR backing calls scipy's ``csr_matvec`` kernel, the
code ``csr @ x`` runs after its dispatch, on its own arrays and on those of
a stored CSR copy of its transpose. That kernel sums each entry of K* y
over ascending row index from 0.0, as the ``csc_matvec`` of ``csr.T @ y``
does, so the adjoint has the bits of ``csr.T @ y``. Both backings hold
their stored entries in ``values``, which the norms read, and the cache of
their spectral norm in ``norm_cache``, which a CSR matrix K shares with the
-K^T that ``negated_transpose`` makes of it, so the two take one Lanczos
between them. The input checks and the application counters stay in
``LinearOperator.apply`` and ``adjoint_apply``, the names that a tracer
wraps.

A CSR matrix is stored only as its arrays; no ``scipy.sparse`` matrix
object is kept. scipy serves as a kernel library: ``from_coo`` builds the
arrays in numpy with the steps and bits of ``coo_matrix``, and a
``SparseMatrix`` is constructed with the ``csr_tocsc`` kernel and binds
the ``csr_matvec`` kernel into its products once, so no product runs an
import. Both kernels come from the compiled ``scipy.sparse._sparsetools``
extension alone (``_sparsetools``), loaded where the first CSR matrix is
built; the ``scipy.sparse`` package is imported only where that file is
not found. With scipy 1.17 and numpy 2.4, ``import saddlesolve`` peaks at
30 MB of RSS instead of 51 MB with the package, and a 300-iteration
swapped apdac run on the 1033x320 C12 matrix through ``run_experiment``
at 38.4 MB instead of 53.6.

Dense entries of 1 MiB or more live at the start of a 2 MiB-aligned
anonymous mapping advised ``MADV_HUGEPAGE`` (``DenseMatrix``), so a K that
fits a 2 MiB L2 is not spread over scattered 4 KiB frames that evict each
other. Only where the entries live changes, never a bit of a product.
"""

from __future__ import annotations

import importlib.util
import math
import mmap
import os
import re
import sys
from functools import partial
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

__all__ = [
    "DenseMatrix",
    "SparseMatrix",
    "LinearOperator",
    "MatrixMarketError",
    "PowerIterationError",
    "read_matrix_market",
    "vector_norm",
]

# Fixed seed for the Lanczos start vector: norm estimates must be
# reproducible across runs. The iteration checks its Ritz residual against
# _LANCZOS_TOL every _LANCZOS_CHECK steps at first, and gives up after
# _LANCZOS_MAX_ITER Gram products.
_LANCZOS_SEED = 0x5EED
_LANCZOS_TOL = 1e-13
_LANCZOS_CHECK = 4
_LANCZOS_MAX_ITER = 1000

# An entry line as np.loadtxt reads it, and the index tokens its int64
# parser accepts (an optional sign and ASCII digits). Dimensions are capped
# at the int64 maximum, so every index in range fits the entry array.
_MM_ENTRY = np.dtype([("row", np.int64), ("col", np.int64), ("value", np.float64)])
_MM_INDEX = re.compile(r"[+-]?[0-9]+")
# A line whose first non-blank character is not % but which holds a %: an
# entry with a trailing comment, which loadtxt(comments="%") would drop.
_MM_TRAILING_COMMENT = re.compile(r"^[^\S\n]*[^\s%][^\n%]*%", re.MULTILINE)
_INDEX_MAX = np.iinfo(np.int64).max

# Dense entries of at least _PLACE_MIN_BYTES are placed on huge pages (see
# DenseMatrix); below that, a resident 2 MiB page would cost more memory
# than twice the entries.
_HUGE_PAGE = 2 << 20
_PLACE_MIN_BYTES = 1 << 20

# scipy's compiled module of CSR kernels (see _sparsetools)
_SPARSETOOLS = "scipy.sparse._sparsetools"


def vector_norm(v):
    """Euclidean norm of a 1-D float array as a Python float.

    The computation of ``np.linalg.norm`` for such arrays, sqrt(v . v), and
    bitwise its result, without its argument handling.
    """
    return math.sqrt(v.dot(v))


def _sparsetools():
    """scipy's compiled ``_sparsetools`` extension, which holds the CSR
    kernels, loaded from its file without running ``scipy/sparse/__init__.py``
    and the whole package it imports.

    A module already in ``sys.modules`` (``scipy.sparse`` imported it, or an
    earlier call loaded it) is reused and never replaced: the extension
    initializes in single phase and so registers itself there when loaded.
    Where the file is not found in scipy's ``sparse`` directory, the plain
    import loads the same kernels."""
    if _SPARSETOOLS not in sys.modules:
        scipy = importlib.util.find_spec("scipy")
        for location in (scipy and scipy.submodule_search_locations) or ():
            finder = FileFinder(os.path.join(location, "sparse"),
                                (ExtensionFileLoader, EXTENSION_SUFFIXES))
            spec = finder.find_spec(_SPARSETOOLS)
            if spec is not None:
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                sys.modules.setdefault(_SPARSETOOLS, module)
                break
    return importlib.import_module(_SPARSETOOLS)


def _matvec(kernel, rows, cols, indptr, indices, data, x):
    """A @ x for the rows x cols CSR matrix A with these arrays, through
    ``kernel``, the sparsetools ``csr_matvec`` that ``csr @ x`` calls."""
    out = np.zeros(rows)
    kernel(rows, cols, indptr, indices, data, x, out)
    return out


class MatrixMarketError(ValueError):
    """Malformed Matrix Market input; carries the offending line number."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"{message} (line {line_no})"
        super().__init__(message)
        self.line_no = line_no


class PowerIterationError(RuntimeError):
    """The operator-norm iteration exhausted its budget; ``estimate`` holds
    its last value."""

    def __init__(self, message, estimate):
        super().__init__(message)
        self.estimate = estimate


def _placed_copy(arr):
    """A C-ordered float copy of the 2-D array ``arr``. When it holds at least
    ``_PLACE_MIN_BYTES``, the copy starts at a 2 MiB boundary of an anonymous
    mapping advised ``MADV_HUGEPAGE``; where that advice is missing or fails,
    it is the plain ``np.array`` copy. Both hold the same bits."""
    advice = getattr(mmap, "MADV_HUGEPAGE", None)
    if arr.nbytes < _PLACE_MIN_BYTES or advice is None:
        return np.array(arr, dtype=float, order="C")
    length = -(-arr.nbytes // _HUGE_PAGE) * _HUGE_PAGE
    try:
        buf = mmap.mmap(-1, length + _HUGE_PAGE, flags=mmap.MAP_PRIVATE)
        raw = np.frombuffer(buf, dtype=np.uint8)
        start = -raw.ctypes.data % _HUGE_PAGE
        buf.madvise(advice, start, length)
    except OSError:
        return np.array(arr, dtype=float, order="C")
    placed = raw[start:start + arr.nbytes].view(float).reshape(arr.shape)
    placed[...] = arr
    return placed


class DenseMatrix:
    """Row-major dense matrix backing.

    ``entries`` is a C-ordered float copy of the input. A copy of 1 MiB or
    more (``_PLACE_MIN_BYTES``) starts at a 2 MiB boundary of an anonymous
    mapping advised ``MADV_HUGEPAGE``, so the kernel can back it with huge
    pages; lasso1's 1.6 MB K then lies in one 2 MiB page that a 2 MiB L2
    holds, and its pair of products took 37-44 us against 67-75 us. Such a
    copy keeps a whole 2 MiB page resident (lasso1: about 0.4 MB more than
    its entries). Smaller inputs, and every input where ``MADV_HUGEPAGE`` is
    missing or ``madvise`` fails, get the plain ``np.array`` copy.

    ``product`` and ``adjoint_product`` are numpy's matmul of the entries and
    of their ``.T`` view, so the placement never changes a bit. ``values``
    is ``entries`` itself, and ``to_dense()`` a read-only view of it. A copy
    unpickles through the constructor, so its entries are placed again, and
    keeps the ``norm_cache``.
    """

    def __init__(self, entries):
        arr = np.asarray(entries, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"dense matrix must be 2-D, got ndim={arr.ndim}")
        arr = _placed_copy(arr)
        if not np.all(np.isfinite(arr)):
            raise ValueError("dense matrix entries must all be finite")
        self.entries = self.values = arr
        self.norm_cache = _NormCache()
        self.product = arr.__matmul__
        self.adjoint_product = arr.T.__matmul__

    def __reduce__(self):
        # through the constructor, so large entries are placed again
        return (type(self), (self.entries,), {"norm_cache": self.norm_cache})

    @property
    def rows(self):
        return self.entries.shape[0]

    @property
    def cols(self):
        return self.entries.shape[1]

    def to_dense(self):
        view = self.entries.view()
        view.flags.writeable = False
        return view


class SparseMatrix:
    """CSR-format sparse matrix, stored as its three CSR arrays.

    ``row_offsets``, ``col_indices`` (both int64) and ``values`` are the
    whole matrix; no ``scipy.sparse`` matrix object is kept. ``product``
    runs the ``csr_matvec`` kernel on them, and ``adjoint_product`` on the
    arrays of the transpose, which construction builds with the
    ``csr_tocsc`` kernel and which hold as many entries again.
    ``negated_transpose`` builds -K^T from those held arrays, so it runs no
    kernel, and the new matrix takes this one's negated arrays as its
    transpose and shares its ``norm_cache``. ``to_dense`` places the
    entries with one numpy assignment. A copy unpickles through the
    constructor, so a pickle holds the three arrays and the norm, not the
    transpose. Its construction is where the ``_sparsetools`` extension is
    first loaded, without the ``scipy.sparse`` package; nothing dense loads
    it. Invariants enforced at construction: nondecreasing row offsets,
    strictly increasing column indices within each row, finite nonzero
    values.
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
        row_of = _row_of(row_offsets)
        bad = (np.diff(col_indices) <= 0) & (np.diff(row_of) == 0)
        if bad.any():
            raise ValueError(
                f"column indices not strictly increasing in row {row_of[np.argmax(bad)]}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("sparse values must be finite")
        if np.any(values == 0.0):
            raise ValueError("sparse values must be nonzero (drop explicit zeros)")
        arrays = (row_offsets, col_indices, values)
        self._bind(rows, cols, arrays, _transpose_arrays(rows, cols, *arrays), _NormCache())

    def _bind(self, rows, cols, arrays, transpose, norm_cache):
        """Hold the CSR ``arrays`` and the CSR ``transpose`` arrays of a rows x
        cols matrix and bind both products to them."""
        csr_matvec = _sparsetools().csr_matvec
        self.rows, self.cols = rows, cols
        self.row_offsets, self.col_indices, self.values = arrays
        self._transpose = transpose
        self.norm_cache = norm_cache
        self.product = partial(_matvec, csr_matvec, rows, cols, *arrays)
        self.adjoint_product = partial(_matvec, csr_matvec, cols, rows, *transpose)

    def __reduce__(self):
        # through the constructor, so the transpose is built again, not stored
        return (type(self), (self.rows, self.cols, self.row_offsets, self.col_indices,
                             self.values), {"norm_cache": self.norm_cache})

    @property
    def nnz(self):
        return len(self.values)

    @classmethod
    def from_coo(cls, rows, cols, row_idx, col_idx, values):
        """Build CSR from coordinate triplets; duplicates are summed in input
        order and entries whose sum is exactly zero are dropped.

        The steps of scipy's ``coo_matrix`` ``sum_duplicates``,
        ``eliminate_zeros`` and ``tocsr``, so the arrays have its bits: a
        stable sort by (row, column), ``np.add.reduceat`` over each run of one
        coordinate, and the row offsets counted from the rows kept."""
        row_idx = np.asarray(row_idx, dtype=np.int64)
        col_idx = np.asarray(col_idx, dtype=np.int64)
        values = np.asarray(values, dtype=float)
        if not row_idx.shape == col_idx.shape == values.shape or values.ndim != 1:
            raise ValueError("row, column and value arrays must be 1-D of one length")
        for idx, size, axis in ((row_idx, rows, "row"), (col_idx, cols, "column")):
            if idx.size and (idx.min() < 0 or idx.max() >= size):
                raise ValueError(f"{axis} index out of range for {rows}x{cols}")
        order = np.lexsort((col_idx, row_idx))
        row_idx, col_idx, values = row_idx[order], col_idx[order], values[order]
        first = np.ones(len(values), dtype=bool)
        first[1:] = (row_idx[1:] != row_idx[:-1]) | (col_idx[1:] != col_idx[:-1])
        starts = np.flatnonzero(first)
        values = np.add.reduceat(values, starts)
        keep = values != 0.0
        row_idx, col_idx, values = row_idx[starts][keep], col_idx[starts][keep], values[keep]
        row_offsets = np.zeros(rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(row_idx, minlength=rows), out=row_offsets[1:])
        return cls(rows, cols, row_offsets, col_idx, values)

    @classmethod
    def from_dense(cls, entries):
        arr = np.asarray(entries, dtype=float)
        rr, cc = np.nonzero(arr)
        return cls.from_coo(arr.shape[0], arr.shape[1], rr, cc, arr[rr, cc])

    def to_dense(self):
        """The dense matrix, each stored entry placed once into zeros."""
        dense = np.zeros((self.rows, self.cols))
        dense[_row_of(self.row_offsets), self.col_indices] = self.values
        return dense

    def negated_transpose(self):
        """CSR matrix of -K^T: the negated transpose arrays this matrix holds,
        with this matrix's negated arrays as its own transpose. It shares this
        matrix's ``norm_cache``, since ||-K^T|| = ||K||."""
        indptr, indices, values = self._transpose
        matrix = SparseMatrix.__new__(SparseMatrix)
        matrix._bind(self.cols, self.rows, (indptr, indices, -values),
                     (self.row_offsets, self.col_indices, -self.values), self.norm_cache)
        return matrix


def _row_of(row_offsets):
    """The row of each stored entry of a CSR matrix with these row offsets."""
    return np.repeat(np.arange(len(row_offsets) - 1), np.diff(row_offsets))


def _transpose_arrays(rows, cols, row_offsets, col_indices, values):
    """(row offsets, column indices, values) of the CSR transpose of a rows x
    cols CSR matrix, built by the sparsetools kernel that ``csr.T.tocsr()``
    calls, without its dispatch: the columns in ascending row order."""
    indptr = np.empty(cols + 1, dtype=np.int64)
    indices = np.empty(len(values), dtype=np.int64)
    transposed = np.empty(len(values))
    _sparsetools().csr_tocsc(rows, cols, row_offsets, col_indices, values,
                             indptr, indices, transposed)
    return indptr, indices, transposed


class _NormCache:
    """The spectral norm of a matrix (``value``, None until computed). The
    matrix data holds it, not the operator, so a matrix and the negated
    transpose made from it share one: ||-K^T|| = ||K||."""

    value = None


class LinearOperator:
    """Matrix-backed linear operator with forward and adjoint application.

    ``apply`` and ``adjoint_apply`` call the products that the backing bound
    at its construction (see the module docstring). They take the input as
    a C-contiguous float array, so a list, an integer or a strided vector
    gives the bits of its contiguous float copy; they check its length
    against shapes cached at construction and count the call in
    ``apply_calls`` and ``adjoint_calls``, so tests can pin per-iteration
    budgets. They stay methods of the class, so a wrapper set on the class
    sees every product. An operator pickles as its backing and counters;
    the backing unpickles through its constructor with its norm cache, so
    the pickle holds K once and the copy's products run on its own arrays.
    """

    def __init__(self, backing):
        if isinstance(backing, np.ndarray):
            backing = DenseMatrix(backing)
        if not isinstance(backing, (DenseMatrix, SparseMatrix)):
            raise TypeError("backing must be a DenseMatrix or SparseMatrix")
        self.backing = backing
        self._x_shape = (backing.cols,)
        self._y_shape = (backing.rows,)
        self.apply_calls = 0
        self.adjoint_calls = 0

    @property
    def cached_norm(self):
        """The spectral norm once ``operator_norm`` has computed it for this
        matrix or for the transpose it was made from, else None."""
        return self.backing.norm_cache.value

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
        x = np.asarray(x, dtype=float, order="C")
        if x.shape != self._x_shape:
            raise ValueError(f"apply: expected vector of length {self.cols}, got shape {x.shape}")
        self.apply_calls += 1
        return self.backing.product(x)

    def adjoint_apply(self, y):
        """Adjoint product K* y."""
        y = np.asarray(y, dtype=float, order="C")
        if y.shape != self._y_shape:
            raise ValueError(
                f"adjoint_apply: expected vector of length {self.rows}, got shape {y.shape}"
            )
        self.adjoint_calls += 1
        return self.backing.adjoint_product(y)

    def reset_counters(self):
        self.apply_calls = 0
        self.adjoint_calls = 0

    def frobenius_norm(self):
        """The root of the sum of the squared entries. When that sum under-
        or overflows on a nonzero K, the norm is taken of K divided by its
        largest |entry| and scaled back."""
        entries = self.backing.values
        with np.errstate(over="ignore"):
            fro = float(np.linalg.norm(entries))
        scale = _largest_abs(entries) if fro == 0.0 or fro == math.inf else 0.0
        if scale > 0.0:
            return scale * float(np.linalg.norm(entries / scale))
        return fro

    def operator_norm(self):
        """Spectral norm by the Lanczos iteration on the smaller Gram
        operator (K*K when cols <= rows, K K* otherwise), computed once and
        cached in the backing's ``norm_cache``: an operator over the -K^T
        that ``SparseMatrix.negated_transpose`` made, or over the matrix it
        was made from, then finds it there.

        Starts from a seeded Gaussian vector and keeps only the last two
        Lanczos vectors and the entries of the tridiagonal T_k. Every few
        steps theta, the largest eigenvalue of T_k, is taken; the iteration
        stops when its Ritz residual beta_k |s_k| is at most 1e-13 theta,
        when beta_k = 0 (an invariant subspace), or after as many steps as
        the Gram operator has rows, and returns sqrt(theta). The products
        are taken with K divided by its largest entry, so the Gram operator
        neither overflows nor underflows. A start vector in the null space
        is drawn again.
        """
        cache = self.backing.norm_cache
        if cache.value is not None:
            return cache.value
        scale = _largest_abs(self.backing.values)
        if scale == 0.0:
            raise ValueError("operator_norm: zero operator")
        if self.cols <= self.rows:
            dim, first, second = self.cols, self.apply, self.adjoint_apply
        else:
            dim, first, second = self.rows, self.adjoint_apply, self.apply
        rng = np.random.default_rng(_LANCZOS_SEED)
        k = 0
        for _ in range(_LANCZOS_MAX_ITER):
            if k == 0:
                q = rng.standard_normal(dim)
                q /= vector_norm(q)
                q_prev, beta, alphas, betas, check = 0.0, 0.0, [], [], _LANCZOS_CHECK
            w = second(first(q) / scale) / scale
            alpha = q.dot(w)
            w -= alpha * q
            w -= beta * q_prev
            alphas.append(alpha)
            beta = vector_norm(w)
            k += 1
            if beta == 0.0 or k == check or k == dim:
                theta, s_k = _top_ritz_pair(alphas, betas)
                if theta <= 0.0:
                    # the start vector fell in the null space; draw again
                    k = 0
                    continue
                if beta * abs(s_k) <= _LANCZOS_TOL * theta or k == dim:
                    cache.value = scale * math.sqrt(theta)
                    return cache.value
                # eigh costs O(k^3): look less often as T_k grows
                check = k + max(_LANCZOS_CHECK, k // 16)
            betas.append(beta)
            q_prev, q = q, w / beta
        theta = _top_ritz_pair(alphas, betas[: len(alphas) - 1])[0] if k else 0.0
        raise PowerIterationError(
            f"Lanczos iteration did not converge within {_LANCZOS_MAX_ITER} steps",
            scale * math.sqrt(theta) if theta > 0 else 0.0,
        )


def _largest_abs(entries):
    """The largest absolute value in ``entries``, 0 when there are none."""
    return float(max(entries.max(initial=0.0), -entries.min(initial=0.0)))


def _top_ritz_pair(alphas, betas):
    """Largest eigenvalue of the symmetric tridiagonal matrix with diagonal
    ``alphas`` and off-diagonal ``betas``, and the last entry of its unit
    eigenvector."""
    T = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    evals, evecs = np.linalg.eigh(T)
    return float(evals[-1]), float(evecs[-1, -1])


def read_matrix_market(path):
    r"""Parse a coordinate-format real Matrix Market file into a SparseMatrix.

    Accepts the ``general`` and ``symmetric`` qualifiers; symmetric input is
    expanded to full storage at load time, each mirrored entry right after
    its original. 1-based indices are converted to 0-based and duplicate
    coordinates are summed in file order.

    Comments are whole lines whose first non-blank character is ``%``; a
    ``%`` after an entry is an error. Blank lines may stand anywhere. Lines
    are numbered as iterating over the file counts them: the banner is line
    1, and a line ends at ``\n``, ``\r\n`` or ``\r`` (not at ``\v``,
    ``\f`` or ``\x1c``-``\x1e``, where ``str.splitlines`` ends one). An
    entry line holds exactly three whitespace-separated tokens. An index is
    an optional sign and decimal digits; a value is anything Python's
    ``float`` reads that holds no ``_``. So ``1_0``, ``1.0`` and ``1e3`` are
    rejected as indices, and ``1_0.5`` as a value. Indices outside the
    declared dimensions, non-finite values and an entry count other than
    the declared one are errors too, and so is a ``symmetric`` size line
    with rows != cols. Each error is a ``MatrixMarketError`` naming the
    first bad line in file order; a count error names the last line. When
    the declared dimensions are too large to build the matrix in memory, the
    ``MatrixMarketError`` names the size line.

    The entry lines are read in one ``np.loadtxt`` pass and checked as
    arrays; only input that fails this pass is walked line by line, to find
    the line to name.
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
        text = fh.read()

    lines = _content_lines(text)
    size_line = next(lines, None)
    if size_line is None:
        raise MatrixMarketError("missing size line", _last_line_no(text))
    line_no, _, s = size_line
    toks = s.split()
    if len(toks) != 3:
        raise MatrixMarketError("size line must hold three integers", line_no)
    try:
        rows, cols, declared = (int(t) for t in toks)
    except ValueError:
        raise MatrixMarketError("non-numeric token in size line", line_no) from None
    if rows <= 0 or cols <= 0 or declared < 0 or max(rows, cols) > _INDEX_MAX:
        raise MatrixMarketError("invalid matrix dimensions", line_no)
    if symmetry == "symmetric" and rows != cols:
        raise MatrixMarketError(f"a symmetric matrix must be square; got {rows}x{cols}", line_no)

    _, start, _ = next(lines, (None, len(text), None))
    entries = _read_entries(text[start:], rows, cols, declared)
    if entries is None:
        _raise_first_fault(text, rows, cols, declared)
    ri, ci, vv = entries["row"] - 1, entries["col"] - 1, entries["value"]
    if symmetry == "symmetric":
        # each off-diagonal entry followed by its mirror, the order in which
        # from_coo sums duplicates
        keep = np.ones(2 * len(vv), dtype=bool)
        keep[1::2] = ri != ci
        pairs = np.stack([ri, ci], axis=1)
        ri, ci = pairs.ravel()[keep], pairs[:, ::-1].ravel()[keep]
        vv = np.repeat(vv, 2)[keep]
    try:
        return SparseMatrix.from_coo(rows, cols, ri, ci, vv)
    except MemoryError:
        raise MatrixMarketError(
            f"not enough memory to build the declared {rows}x{cols} matrix", line_no
        ) from None


def _content_lines(text):
    r"""(line number, offset, stripped line) of each line of ``text`` that is
    neither blank nor a comment. ``text`` is a file past its banner, read in
    text mode, so every line ends at ``\n``."""
    line_no, pos = 1, 0
    while pos < len(text):
        end = text.find("\n", pos)
        if end < 0:
            end = len(text)
        line_no += 1
        s = text[pos:end].strip()
        if s and not s.startswith("%"):
            yield line_no, pos, s
        pos = end + 1


def _last_line_no(text):
    """The number of the last line of a file whose text past the banner is
    ``text``."""
    return 1 + text.count("\n") + (text[-1:] not in ("", "\n"))


def _read_entries(body, rows, cols, declared):
    """The entry lines ``body`` as an array of (row, col, value), or None when
    a line is malformed or carries a comment, an entry is out of range or not
    finite, or the count is not the declared one."""
    if not body:
        entries = np.zeros(0, dtype=_MM_ENTRY)
    else:
        try:
            # body starts at an entry line, so loadtxt never sees empty input
            entries = np.loadtxt(body.split("\n"), dtype=_MM_ENTRY, comments="%", ndmin=1)
        except ValueError:
            return None
    ri, ci = entries["row"], entries["col"]
    if (
        len(entries) != declared
        or ("%" in body and _MM_TRAILING_COMMENT.search(body))
        or ri.min(initial=1) < 1
        or ri.max(initial=1) > rows
        or ci.min(initial=1) < 1
        or ci.max(initial=1) > cols
        or not np.isfinite(entries["value"]).all()
    ):
        return None
    return entries


def _raise_first_fault(text, rows, cols, declared):
    """Raise the ``MatrixMarketError`` of the first bad entry line of
    ``text``, the file past its banner, or of an entry count that is not
    ``declared``: the line-by-line check of what ``_read_entries`` rejects."""
    lines = _content_lines(text)
    next(lines)  # the size line
    seen = 0
    for line_no, _, s in lines:
        toks = s.split()
        if len(toks) != 3:
            raise MatrixMarketError("entry line must be 'row col value'", line_no)
        if not (_MM_INDEX.fullmatch(toks[0]) and _MM_INDEX.fullmatch(toks[1])):
            raise MatrixMarketError(f"non-numeric index token in {s!r}", line_no)
        i, j = int(toks[0]), int(toks[1])
        try:
            if "_" in toks[2]:
                raise ValueError
            v = float(toks[2])
        except ValueError:
            raise MatrixMarketError(f"non-numeric value token {toks[2]!r}", line_no) from None
        if not (1 <= i <= rows) or not (1 <= j <= cols):
            raise MatrixMarketError(f"index ({i}, {j}) out of range for {rows}x{cols}", line_no)
        if not math.isfinite(v):
            raise MatrixMarketError("non-finite value", line_no)
        seen += 1
    raise MatrixMarketError(f"expected {declared} entries, found {seen}", _last_line_no(text))
