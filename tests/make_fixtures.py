"""Regenerate the derived-example fixtures from independent oracles.

Each record freezes an expected value that the main implementation must
reproduce; every value here is computed by a brute-force or hand-simulation
route that never touches the production code path it validates. Run as a
script to rewrite tests/fixtures/derived.csv:

    python tests/make_fixtures.py
"""

import math
import os

import numpy as np

from oracles import (
    gram_norm_oracle,
    naive_adjoint_matvec,
    naive_matvec,
    prox_quad_shift_oracle,
    qp_project_nonneg_oracle,
    qp_project_simplex_oracle,
)

FIXTURE_PATH = os.path.join(os.path.dirname(__file__), "fixtures", "derived.csv")


def _fmt(value):
    if isinstance(value, (list, tuple, np.ndarray)):
        return " ".join(repr(float(v)) for v in value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _record(name, **fields):
    toks = [name]
    for key, value in fields.items():
        toks.append(f"{key}={_fmt(value)}")
    return ",".join(toks)


def build_records():
    records = []

    # linop: seeded 3x2 dense multiply against the naive double loop
    rng = np.random.default_rng(7)
    K32 = rng.standard_normal((3, 2))
    x2 = rng.standard_normal(2)
    records.append(
        _record(
            "apply_dense_3x2",
            K=K32.ravel(),
            x=x2,
            out=naive_matvec(K32.tolist(), x2.tolist()),
            tol=1e-14,
        )
    )

    # linop: hand-computed transpose product for [[1,2],[3,4]], y=(1,0)
    records.append(
        _record(
            "adjoint_2x2",
            out=naive_adjoint_matvec([[1.0, 2.0], [3.0, 4.0]], [1.0, 0.0]),
            tol=1e-15,
        )
    )

    # linop: seeded 5x4 operator norm against the Gram characteristic polynomial
    rng = np.random.default_rng(11)
    K54 = rng.standard_normal((5, 4))
    res = gram_norm_oracle(K54)
    records.append(_record("opnorm_5x4", K=K54.ravel(), out=res.value, tol=1e-8))

    # linop: Frobenius norm of [[1,2],[3,4]] summed by hand
    records.append(
        _record("frob_2x2", out=math.sqrt(1.0 + 4.0 + 9.0 + 16.0), tol=1e-15)
    )

    # linop: duplicate Matrix Market entries sum; dense accumulation oracle
    dense = np.zeros((2, 2))
    for i, j, v in [(1, 1, 2.0), (1, 1, 3.0)]:
        dense[i - 1, j - 1] += v
    records.append(_record("mm_dup_sum", out=dense[0, 0], tol=0.0))

    # prox: shifted-quadratic prox at (v=3, s=2, b=1) by 1-D grid refinement
    val = prox_quad_shift_oracle(np.array([3.0]), 2.0, np.array([1.0]))[0]
    records.append(_record("quadshift_grid", v=3.0, s=2.0, b=1.0, out=val, tol=1e-7))

    # prox: orthant projection of a seeded 4-vector by sign-pattern enumeration
    rng = np.random.default_rng(23)
    v4 = rng.uniform(-2.0, 2.0, size=4)
    res = qp_project_nonneg_oracle(v4)
    records.append(_record("projnn_4", v=v4, out=res.value, cert=res.certificate, tol=1e-12))

    # prox: simplex projections by KKT enumeration
    res = qp_project_simplex_oracle(np.array([2.0, 0.0]))
    records.append(_record("simplex_2_0", out=res.value, cert=res.certificate, tol=1e-12))
    res = qp_project_simplex_oracle(np.array([0.3, 0.1]))
    records.append(_record("simplex_03_01", out=res.value, cert=res.certificate, tol=1e-12))

    # problems: 1-D LASSO objective at x=0 with K=I, b=1, mu=0.1
    records.append(_record("lasso_obj_1d", out=0.5 * (0.0 - 1.0) ** 2 + 0.1 * 0.0, tol=1e-15))

    # problems: matrix-game gaps evaluated by hand
    # identity K, x = y = (.5, .5): max(Kx) = .5, min(K*y) = .5
    records.append(_record("gap_game_identity", out=0.5 - 0.5, tol=1e-15))
    # K = [[1,2],[3,4]], x = (1,0) -> Kx = (1,3); y = (1,0) -> K*y = (1,2)
    records.append(_record("gap_game_1234", out=3.0 - 1.0, tol=1e-15))

    # solvers: phi schedule values at delta=0.62, n_hat=2, n0=5
    records.append(_record("phi_n1", out=1.62 / 0.62, tol=1e-12))
    records.append(_record("phi_n4", out=3.62 / 2.62, tol=1e-12))

    # solvers: predicted step min(1.27*1/(sqrt(1)*2), 1)
    records.append(_record("predict_basic", out=min(1.27 * 1.0 / (math.sqrt(1.0) * 2.0), 1.0), tol=1e-15))

    # solvers: hand simulation of one corrected-solver iteration on the
    # 1-D bilinear toy (g = f* = 0, K = 1, beta = 1, delta = 1, lam = 0.5)
    x0, y0, lam, delta = 1.0, 1.0, 0.5, 1.0
    x1 = x0 - lam * (1.0 * y0)
    z1 = x1 + delta * (x1 - x0)
    y1 = y0 + 1.0 * lam * (1.0 * z1)
    records.append(_record("pdac_1d", x1=x1, z1=z1, y1=y1, tol=1e-15))

    # solvers: correction shrink count for a linear prox residual
    # ||x(lam) - x|| = lam * c; shrink while above min(nu*zeta0, mu*zeta_n)
    lam_n, c, rho = 1.0, 1.0, 0.7
    zeta0, zeta_n, mu_c, nu_c = 0.2, 0.01, 10.0, 1.5
    bound = min(nu_c * zeta0, mu_c * zeta_n)
    k = 0
    lam_sim = lam_n
    while lam_sim * c > bound:
        lam_sim *= rho
        k += 1
    records.append(
        _record(
            "correction_shrinks",
            lam=lam_n,
            c=c,
            rho=rho,
            zeta0=zeta0,
            zeta_n=zeta_n,
            mu=mu_c,
            nu=nu_c,
            bound=bound,
            k=k,
            lam_final=lam_sim,
            tol=1e-15,
        )
    )

    # solvers: accelerated beta growth (beta=1, gamma=1, lam=1)
    records.append(
        _record("apdac_growth", beta_next=1.0 * (1.0 + 1.0 * 1.0), cap=math.sqrt(1.0 / 2.0), tol=1e-15)
    )

    # solvers: hand simulation of fixed-step PDA on the 1-D toy
    # (K = 1, g = f* = 0, tau = sigma = 0.5, start (1, 1), z0 = x0)
    tau = sigma = 0.5
    x0, y0 = 1.0, 1.0
    z0 = x0
    y1 = y0 + sigma * z0
    x1 = x0 - tau * y1
    z1 = 2.0 * x1 - x0
    records.append(_record("pda_1d", y1=y1, x1=x1, z1=z1, tol=1e-15))

    # solvers: PDA-L acceptance condition (beta=1, tau=1, ||K*dy||=.5, ||dy||=1)
    records.append(
        _record("pdal_cond", lhs=math.sqrt(1.0) * 1.0 * 0.5, rhs=0.99 * 1.0, holds=1, tol=1e-15)
    )

    # solvers: FISTA momentum t2 from t1 = 1
    records.append(_record("fista_t2", out=(1.0 + math.sqrt(5.0)) / 2.0, tol=1e-15))

    # diagnostics: single ergodic update X = (lam*delta*x_head + lam*z)/(lam*delta + lam)
    lam, delta, x_head, z, y = 0.7, 0.62, 2.0, 5.0, 3.0
    X = (lam * delta * x_head + lam * z) / (lam * delta + lam)
    records.append(_record("ergodic_single", X=X, Y=y, tol=1e-12))

    # diagnostics: 1-D Lyapunov window recomputed term by term
    delta, alpha, beta = 0.62, 1.27, 1.0
    eps = 1.0 / math.sqrt(delta)
    xm, x0_, xp = 0.9, 0.5, 0.3
    ym, y0_ = 0.2, 0.1
    lm, l0, lp = 0.8, 0.7, 0.6
    Kc, xbar, ybar, mu_l1, bshift = 2.0, 0.2, 0.4, 0.3, 0.1
    kty, kx = Kc * ybar, Kc * xbar

    def P(x):
        return mu_l1 * abs(x) - mu_l1 * abs(xbar) + kty * (x - xbar)

    def D(y):
        return 0.5 * (y + bshift) ** 2 - 0.5 * (ybar + bshift) ** 2 - kx * (y - ybar)

    a_n = (x0_ - xbar) ** 2 + (ym - ybar) ** 2 / beta + 2.0 * lm * (1.0 + delta) * P(xm)
    z0 = x0_ + delta * (x0_ - xm)
    r = l0 / (delta * lm)
    b_n = (
        (r - alpha * eps * l0 / lp) * (xp - z0) ** 2
        + (1.0 - r) * (xp - x0_) ** 2
        + (delta * l0 / lm) * (x0_ - xm) ** 2
        + (1.0 / beta) * (1.0 - alpha * l0 / (eps * lp)) * (y0_ - ym) ** 2
    )
    eta_n = (1.0 + delta) * P(x0_) - delta * P(xm) + D(y0_)
    records.append(_record("lyapunov_1d", a_n=a_n, b_n=b_n, eta_n=eta_n, tol=1e-12))

    return records


def load_fixtures(path=FIXTURE_PATH):
    """Parse the fixtures file into {name: {field: scalar or array}}."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            name, *fields = line.split(",")
            rec = {}
            for f in fields:
                key, val = f.split("=", 1)
                toks = val.split(" ")
                if len(toks) == 1:
                    rec[key] = float(toks[0])
                else:
                    rec[key] = np.array([float(t) for t in toks])
            out[name] = rec
    return out


def main():
    os.makedirs(os.path.dirname(FIXTURE_PATH), exist_ok=True)
    records = build_records()
    with open(FIXTURE_PATH, "w") as fh:
        fh.write("\n".join(records) + "\n")
    print(f"wrote {len(records)} records to {FIXTURE_PATH}")


if __name__ == "__main__":
    main()
