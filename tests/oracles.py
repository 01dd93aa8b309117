"""Brute-force oracles that back the tests and the derived fixtures.

Enumeration-based projections, naive multiply checks, a characteristic-
polynomial norm oracle, candidate or grid-search proxes and a line-by-line
Matrix Market reader. Each computes its value by a route independent of the
production code it validates; the enumeration oracles are dimension-capped.
"""

import math
from dataclasses import dataclass

import numpy as np

_ENUM_DIM_CAP = 8


@dataclass
class OracleResult:
    """Oracle output plus a residual certifying its quality."""

    value: object
    certificate: float


def naive_matvec(entries, x):
    """Double-loop matrix-vector product in plain Python floats."""
    out = []
    for row in entries:
        acc = 0.0
        for a, b in zip(row, x):
            acc += float(a) * float(b)
        out.append(acc)
    return np.array(out)


def naive_adjoint_matvec(entries, y):
    """Double-loop transpose product."""
    rows = len(entries)
    cols = len(entries[0]) if rows else 0
    out = []
    for j in range(cols):
        acc = 0.0
        for i in range(rows):
            acc += float(entries[i][j]) * float(y[i])
        out.append(acc)
    return np.array(out)


def _char_poly(G):
    # Faddeev-LeVerrier recursion for det(lam I - G)
    k = G.shape[0]
    coeffs = [1.0]
    M = np.eye(k)
    for j in range(1, k + 1):
        GM = G @ M
        c = -np.trace(GM) / j
        coeffs.append(float(c))
        M = GM + c * np.eye(k)
    return np.array(coeffs)


def gram_norm_oracle(entries):
    """Operator norm via the Gram matrix's characteristic polynomial.

    Builds K^T K, extracts its characteristic polynomial by the
    Faddeev-LeVerrier recursion, root-finds, and returns the square root of
    the largest real root. Dimension-capped; independent of the Lanczos iteration.
    """
    K = np.asarray(entries, dtype=float)
    if min(K.shape) > _ENUM_DIM_CAP:
        raise ValueError(f"gram oracle capped at dimension {_ENUM_DIM_CAP}")
    G = K.T @ K if K.shape[1] <= K.shape[0] else K @ K.T
    coeffs = _char_poly(G)
    roots = np.roots(coeffs)
    real = roots.real[np.abs(roots.imag) <= 1e-8 * (1.0 + np.abs(roots.real))]
    lam_max = float(real.max())
    cert = abs(float(np.polyval(coeffs, lam_max)))
    return OracleResult(math.sqrt(max(lam_max, 0.0)), cert)


def qp_project_simplex_oracle(v):
    """Simplex projection by enumerating all nonempty free sets.

    For each candidate free set S the equality-constrained minimizer shifts
    v_S by tau = (sum v_S - 1)/|S| and zeroes the rest; the feasible candidate
    closest to v wins. The certificate is the KKT residual at the winner.
    """
    v = np.asarray(v, dtype=float)
    d = v.size
    if d > _ENUM_DIM_CAP:
        raise ValueError(f"enumeration oracle capped at dimension {_ENUM_DIM_CAP}")
    if d == 0:
        raise ValueError("empty input")
    best = None
    best_dist = math.inf
    best_tau = 0.0
    for mask in range(1, 1 << d):
        S = [i for i in range(d) if mask >> i & 1]
        tau = (v[S].sum() - 1.0) / len(S)
        y = np.zeros(d)
        y[S] = v[S] - tau
        if y[S].min() < -1e-12:
            continue
        dist = float((y - v) @ (y - v))
        if dist < best_dist:
            best = np.maximum(y, 0.0)
            best_dist = dist
            best_tau = tau
    # KKT: y - v + tau*1 = mu, mu >= 0, mu^T y = 0, sum y = 1
    mu = best - v + best_tau
    cert = max(
        abs(float(best.sum()) - 1.0),
        max(0.0, -float(best.min())),
        max(0.0, -float(mu.min())),
        abs(float(mu @ best)),
    )
    return OracleResult(best, cert)


def qp_project_nonneg_oracle(v):
    """Orthant projection by enumerating sign patterns of the free set."""
    v = np.asarray(v, dtype=float)
    d = v.size
    if d > _ENUM_DIM_CAP:
        raise ValueError(f"enumeration oracle capped at dimension {_ENUM_DIM_CAP}")
    best = None
    best_dist = math.inf
    for mask in range(1 << d):
        S = [i for i in range(d) if mask >> i & 1]
        y = np.zeros(d)
        y[S] = v[S]
        if len(S) and y[S].min() < 0.0:
            continue
        dist = float((y - v) @ (y - v))
        if dist < best_dist:
            best = y
            best_dist = dist
    mu = best - v  # multiplier for y >= 0
    cert = max(max(0.0, -float(best.min())), abs(float(mu @ best)))
    return OracleResult(best, cert)


def prox_l1_oracle(x, t):
    """Componentwise l1 prox by candidate enumeration over {0, x-t, x+t}."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i, xi in enumerate(x):
        cands = [0.0, xi - t, xi + t]
        objs = [t * abs(y) + 0.5 * (y - xi) ** 2 for y in cands]
        out[i] = cands[int(np.argmin(objs))]
    return out


def prox_quad_shift_oracle(v, s, b, grid=2001):
    """Shifted-quadratic prox by 1-D grid search plus bisection.

    Minimizes s*0.5*(y + b_i)^2 + 0.5*(y - v_i)^2 per component without the
    closed form: two grid rounds bracket the minimizer, then bisection on the
    centered difference f(y+h) - f(y-h), whose sign equals the derivative's
    sign exactly for a quadratic. Pure function-value grid search stalls at
    sqrt(eps); the bisection finish reaches ~1e-11 absolute.
    """
    v = np.asarray(v, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.empty_like(v)
    for i in range(v.size):
        bi, vi = b[i], v[i]

        def f(y):
            return s * 0.5 * (y + bi) ** 2 + 0.5 * (y - vi) ** 2

        lo = min(vi, -bi) - 1.0
        hi = max(vi, -bi) + 1.0
        for _ in range(2):
            ys = np.linspace(lo, hi, grid)
            objs = s * 0.5 * (ys + bi) ** 2 + 0.5 * (ys - vi) ** 2
            k = int(np.argmin(objs))
            step = (hi - lo) / (grid - 1)
            lo, hi = ys[k] - 2 * step, ys[k] + 2 * step
        h = 1e-4 * (1.0 + abs(lo) + abs(hi))
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if f(mid + h) - f(mid - h) > 0.0:
                hi = mid
            else:
                lo = mid
        out[i] = 0.5 * (lo + hi)
    return out


def read_matrix_market_oracle(path):
    """Parse a coordinate-format real Matrix Market file into a SparseMatrix,
    one line at a time with Python's ``int`` and ``float``.

    Accepts the ``general`` and ``symmetric`` qualifiers; symmetric input is
    expanded to full storage at load time. 1-based indices are converted to
    0-based and duplicate coordinates are summed.
    """
    # imported here, so make_fixtures.py runs without the package installed
    from saddlesolve.linop import MatrixMarketError, SparseMatrix

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
