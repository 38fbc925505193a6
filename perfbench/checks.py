"""Output checks that rely on numpy and scipy alone, never on the program.

The QP at a parameter x is  min 0.5 z'Hz + x'Fz  s.t.  Gz <= Sx + w.  A
reference minimizer comes from the least-distance-programming reduction of
Lawson & Hanson (Solving Least Squares Problems, 1974, ch. 23), solved with
scipy.optimize.nnls, and every answer is KKT-certified with nnls multipliers
over the near-active rows, so a fault in the program's simplex or active-set
solver cannot hide in the reference.
"""

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.optimize import nnls

# relative tolerances of the certificates
FEAS_TOL = 1e-7
KKT_TOL = 1e-7
# a recorded input may differ from the reference minimizer's first block by
# this much, relative to (1 + |u|); both are exact up to rounding
INPUT_TOL = 1e-6
# trimmed trajectories must equal the full one to this absolute tolerance
TRAJ_TOL = 1e-8


class Qp:
    """The problem data of one condensed mp-QP, with a Cholesky factor."""

    def __init__(self, H, F, G, S, w):
        self.H = np.asarray(H, dtype=float)
        self.F = np.asarray(F, dtype=float)
        self.G = np.asarray(G, dtype=float)
        self.S = np.asarray(S, dtype=float)
        self.w = np.asarray(w, dtype=float)
        self.chol = cho_factor(self.H, lower=True)
        L = np.tril(self.chol[0])
        # E = G L^-T, the rows in the coordinates y = L'z + L^-1 g
        self.E = solve_triangular(L, self.G.T, lower=True).T
        self.L = L

    @classmethod
    def of(cls, p):
        return cls(p.H, p.F, p.G, p.S, p.w)

    def solve(self, x, rows=None):
        """Reference minimizer over the given 0-based rows, or None when
        infeasible. min ||y|| s.t. E_r y <= h_r is a least-distance program;
        its nnls dual gives y, and z = L^-T (y - L^-1 g)."""
        x = np.asarray(x, dtype=float)
        rows = np.arange(len(self.w)) if rows is None else np.asarray(rows)
        g = self.F.T @ x
        lg = solve_triangular(self.L, g, lower=True)
        z0 = -cho_solve(self.chol, g)
        if rows.size == 0:
            return z0
        E = self.E[rows]
        h = (self.S[rows] @ x + self.w[rows]) - self.G[rows] @ z0
        n = E.shape[1]
        M = np.vstack([-E.T, -h[None, :]])
        e = np.zeros(n + 1)
        e[-1] = 1.0
        u, _ = nnls(M, e, maxiter=50 * M.shape[1])
        r = M @ u - e
        if abs(r[-1]) < 1e-12:
            return None
        y = -r[:n] / r[-1]
        return solve_triangular(self.L.T, y - lg, lower=False)

    def kkt_certified(self, x, z, rows=None) -> bool:
        """Primal feasibility over the rows, stationarity with nonnegative
        multipliers over the near-active ones (nnls). With H positive
        definite this certifies z as the unique minimizer."""
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(z))):
            return False
        rows = np.arange(len(self.w)) if rows is None else np.asarray(rows)
        G = self.G[rows]
        rhs = self.S[rows] @ x + self.w[rows]
        slack = rhs - G @ z
        scale = 1.0 + np.abs(rhs)
        if np.any(slack < -FEAS_TOL * scale):
            return False
        grad = self.H @ z + self.F.T @ x
        ref = 1.0 + np.linalg.norm(grad)
        tight = slack <= FEAS_TOL * scale
        if not tight.any():
            return bool(np.linalg.norm(grad) <= KKT_TOL * ref)
        _, resid = nnls(G[tight].T, -grad, maxiter=50 * int(tight.sum()) + 50)
        return bool(resid <= KKT_TOL * ref)

    def piece_slope(self, rows) -> float:
        """Spectral norm of the piece with 0-based active rows A,
        -H^-1 F' + H^-1 G_A' (G_A H^-1 G_A')^-1 (S_A + G_A H^-1 F')."""
        rows = np.asarray(rows)
        hi_ft = cho_solve(self.chol, self.F.T)
        g_a = self.G[rows]
        hi_ga = cho_solve(self.chol, g_a.T)
        gram = g_a @ hi_ga
        d_a = hi_ga @ np.linalg.solve(gram, self.S[rows] + g_a @ hi_ft) - hi_ft
        return float(np.linalg.norm(d_a, 2))


def nearest_ok(stacked, x, answer) -> bool:
    """The answer sample lies at the minimum distance from x among the
    stacked x_hat rows (ties allowed)."""
    d = np.linalg.norm(stacked - np.asarray(x, dtype=float), axis=1)
    best = d[int(np.argmin(d))]
    mine = float(np.linalg.norm(np.asarray(answer, dtype=float) - x))
    return bool(np.isfinite(mine) and mine <= best * (1.0 + 1e-12) + 1e-15)


def sampled_sigma(H_lift, w, box, i_max, n_samples, seed):
    """Upper bounds on sigma_1..sigma_imax: the (i+1)-th smallest facet
    distance, minimized over uniform draws in the box that land inside
    the polyhedron H_lift v <= w."""
    rng = np.random.default_rng(seed)
    norms = np.linalg.norm(H_lift, axis=1)
    draws = rng.uniform(box[:, 0], box[:, 1], size=(n_samples, box.shape[0]))
    dist = (w[None, :] - draws @ H_lift.T) / norms[None, :]
    dist = dist[np.all(dist >= 0.0, axis=1)]
    if not len(dist):
        return None
    dist.sort(axis=1)
    return {i: float(dist[:, i].min()) for i in range(1, i_max + 1)}
