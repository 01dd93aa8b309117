"""Brute-force oracles that back the tests and the derived fixtures.

Enumeration-based projections, naive multiply checks, a characteristic-
polynomial norm oracle, candidate or grid-search proxes and a line-by-line
Matrix Market reader. Each computes its value by a route independent of the
production code it validates; the enumeration oracles are dimension-capped.
The synthetic 1033x320 matrix of acceptance criterion C12 is generated here
once, in memory and as Matrix Market text.
The gap functions P and D against a reference saddle point, the Lyapunov
pair (a_n, b_n) of the convergence analysis with the combined gap eta_n,
and empirical burn-in detection check the solvers against that analysis.
``Zero``, the zero function, is the g or f* of hand-built toy problems.
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


class Zero:
    """The zero function; prox is the identity."""

    def prox(self, v, t):
        return np.array(v, dtype=float)

    def value(self, v):
        return 0.0

    def __repr__(self):
        return "Zero()"


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
    v_S by tau = (sum v_S - 1)/|S| and zeroes the rest. The projection is the
    candidate that meets the KKT conditions: v_S - tau >= 0 on the free set
    and multipliers tau - v_i >= 0 off it. The candidate with the smallest
    violation wins, so roundoff cannot hand the choice to a wrong set, as a
    smallest distance can when the candidates' distances tie. The
    certificate is the KKT residual at the winner.
    """
    v = np.asarray(v, dtype=float)
    d = v.size
    if d > _ENUM_DIM_CAP:
        raise ValueError(f"enumeration oracle capped at dimension {_ENUM_DIM_CAP}")
    if d == 0:
        raise ValueError("empty input")
    best = None
    best_violation = math.inf
    best_tau = 0.0
    for mask in range(1, 1 << d):
        free = np.array([mask >> i & 1 for i in range(d)], dtype=bool)
        tau = (v[free].sum() - 1.0) / free.sum()
        violation = max(
            0.0,
            float(tau - v[free].min()),
            float((v[~free] - tau).max(initial=-math.inf)),
        )
        if violation < best_violation:
            best = np.maximum(np.where(free, v - tau, 0.0), 0.0)
            best_violation = violation
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


def _c12_draws():
    """(rows, columns, values) of the 4,500 entries of the synthetic 1033x320
    matrix of C12, 0-based, in draw order; duplicates sum."""
    rng = np.random.default_rng(1033)
    return (rng.integers(0, 1033, size=4500), rng.integers(0, 320, size=4500),
            rng.standard_normal(4500))


def c12_matrix():
    """The synthetic C12 matrix as the SparseMatrix that ``read_matrix_market``
    parses from ``c12_matrix_market_text()``, built in memory."""
    from saddlesolve.linop import SparseMatrix

    return SparseMatrix.from_coo(1033, 320, *_c12_draws())


def c12_matrix_market_text():
    """The synthetic C12 matrix as a Matrix Market file: 1-based indices and
    each value's shortest round-trip repr, one draw a line."""
    lines = ["%%MatrixMarket matrix coordinate real general", "1033 320 4500"]
    lines += [f"{i + 1} {j + 1} {float(v)!r}" for i, j, v in zip(*_c12_draws())]
    return "\n".join(lines) + "\n"


def gap_P(problem, ref, x):
    """Primal gap P(x) = g(x) - g(x_bar) + <K* y_bar, x - x_bar>.

    Nonnegative for every x when the reference is a true saddle point.
    Returns +inf when an indicator g is violated at x.
    """
    gx = problem.g.value(x)
    if math.isinf(gx):
        return float("inf")
    kty = problem.K.adjoint_apply(ref.y_bar)
    x = np.asarray(x, dtype=float)
    return gx - problem.g.value(ref.x_bar) + float(kty @ (x - ref.x_bar))


def gap_D(problem, ref, y):
    """Dual gap D(y) = fstar(y) - fstar(y_bar) - <K x_bar, y - y_bar>."""
    fy = problem.fstar.value(y)
    if math.isinf(fy):
        return float("inf")
    kx = problem.K.apply(ref.x_bar)
    y = np.asarray(y, dtype=float)
    return fy - problem.fstar.value(ref.y_bar) - float(kx @ (y - ref.y_bar))


@dataclass
class LyapunovSample:
    n: int
    a_n: float
    b_n: float
    eta_n: float


@dataclass
class IterateWindow:
    """Three consecutive primal iterates, two dual iterates, and the three
    step sizes around index n, as produced by the solver loop."""

    n: int
    x_m1: np.ndarray  # x_{n-1}
    x_0: np.ndarray  # x_n
    x_p1: np.ndarray  # x_{n+1}
    y_m1: np.ndarray  # y_{n-1}
    y_0: np.ndarray  # y_n
    lam_m1: float
    lam_0: float
    lam_p1: float


def lyapunov_sample(window, ref, problem, cfg):
    """Evaluate (a_n, b_n, eta_n) on one iterate window with eps = 1/sqrt(delta).

    a_n = ||x_n - x_bar||^2 + (1/beta)||y_{n-1} - y_bar||^2
          + 2 lam_{n-1} (1 + delta) P(x_{n-1}),
    b_n collects the four squared-difference terms whose nonnegativity kicks
    in after burn-in, and eta_n = (1+delta) P(x_n) - delta P(x_{n-1}) + D(y_n).
    """
    if window is None:
        raise ValueError("insufficient history: need three iterates around n")
    if ref.quality > 1e-6:
        raise ValueError(
            f"reference quality {ref.quality:.3e} too poor for Lyapunov sampling (need <= 1e-6)"
        )
    d = cfg.delta
    eps = 1.0 / math.sqrt(d)
    beta = cfg.beta0
    P_m1 = gap_P(problem, ref, window.x_m1)
    P_0 = gap_P(problem, ref, window.x_0)
    D_0 = gap_D(problem, ref, window.y_0)
    dx_bar = window.x_0 - ref.x_bar
    dy_bar = window.y_m1 - ref.y_bar
    a_n = (
        float(dx_bar @ dx_bar)
        + float(dy_bar @ dy_bar) / beta
        + 2.0 * window.lam_m1 * (1.0 + d) * P_m1
    )
    z_0 = window.x_0 + d * (window.x_0 - window.x_m1)
    xz = window.x_p1 - z_0
    xx = window.x_p1 - window.x_0
    xm = window.x_0 - window.x_m1
    yy = window.y_0 - window.y_m1
    r = window.lam_0 / (d * window.lam_m1)
    b_n = (
        (r - cfg.alpha * eps * window.lam_0 / window.lam_p1) * float(xz @ xz)
        + (1.0 - r) * float(xx @ xx)
        + (d * window.lam_0 / window.lam_m1) * float(xm @ xm)
        + (1.0 - cfg.alpha * window.lam_0 / (eps * window.lam_p1)) * float(yy @ yy) / beta
    )
    eta_n = (1.0 + d) * P_0 - d * P_m1 + D_0
    return LyapunovSample(n=window.n, a_n=a_n, b_n=b_n, eta_n=eta_n)


def lyapunov_series(xs, ys, lams, ref, problem, cfg, every=10):
    """Samples over a recorded run history.

    ``xs``/``ys`` hold x_0..x_T and y_0..y_T; ``lams`` holds lambda_0..
    lambda_{T+1}. Valid sample indices are 1 <= n <= T-1. The default stride
    of 10 bounds overhead; pass every=1 when adjacent samples are needed
    (e.g. checking a_{n+1} <= a_n - b_n).
    """
    T = len(xs) - 1
    out = []
    for n in range(1, T, every):
        window = IterateWindow(
            n=n,
            x_m1=xs[n - 1],
            x_0=xs[n],
            x_p1=xs[n + 1],
            y_m1=ys[n - 1],
            y_0=ys[n],
            lam_m1=lams[n - 1],
            lam_0=lams[n],
            lam_p1=lams[n + 1],
        )
        out.append(lyapunov_sample(window, ref, problem, cfg))
    return out


def find_burn_in(lams, cfg, consecutive=50):
    """First index after which the three step-ratio expressions from the
    analysis stay positive for ``consecutive`` samples; None if never.

    The expressions (with eps = 1/sqrt(delta)):
    lam_n/(delta lam_{n-1}) - alpha eps lam_n / lam_{n+1} > 0,
    1 - alpha lam_n / (eps lam_{n+1}) > 0,
    1 - 1/delta + delta lam_{n+1} / lam_n > 0.
    """
    d = cfg.delta
    eps = 1.0 / math.sqrt(d)
    run_start = None
    count = 0
    for n in range(1, len(lams) - 1):
        e1 = lams[n] / (d * lams[n - 1]) - cfg.alpha * eps * lams[n] / lams[n + 1]
        e2 = 1.0 - cfg.alpha * lams[n] / (eps * lams[n + 1])
        e3 = 1.0 - 1.0 / d + d * lams[n + 1] / lams[n]
        if e1 > 0 and e2 > 0 and e3 > 0:
            if run_start is None:
                run_start = n
            count += 1
            if count >= consecutive:
                return run_start
        else:
            run_start = None
            count = 0
    return None
