"""Independent reference implementations used only by the test suite.

These deliberately share no code with the package solvers: the QP oracle
enumerates candidate active subsets and solves bordered KKT systems directly.
The reference dual loop shares only the solver's status names and FEAS.
The reference piece search shares only the realizability LP. The reference
sigma search shares the branch and bound and the polyhedron's big-M. The trim
certificate and the Riccati residual recompute from the problem data alone.
"""

import itertools

import numpy as np

from qptrim.lipschitz import _realizable
from qptrim.milp import milp_solve
from qptrim.mpqp import finite_parameter
from qptrim.qpsolver import INFEASIBLE, OPTIMAL
from qptrim.tolerances import FEAS, rank_tol


def brute_force_qp(p, x, idx=None, feas_tol=1e-8, lam_tol=1e-8):
    """Optimal z by exhaustive active-subset enumeration; None if infeasible.

    Valid for small instances: tries every subset of constraint rows up to
    size n_z, solves the equality KKT system, and keeps candidates that are
    primal feasible with nonnegative multipliers.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    rows = np.arange(p.n_c) if idx is None else idx.zero_based()
    G = p.G[rows]
    b = p.rhs(x)[rows]
    g = p.F.T @ x
    m, nz = G.shape
    scale = feas_tol * (1.0 + (np.abs(b).max() if b.size else 0.0))
    best = None
    for k in range(0, min(nz, m) + 1):
        for combo in itertools.combinations(range(m), k):
            A = G[list(combo)]
            kkt = np.zeros((nz + k, nz + k))
            kkt[:nz, :nz] = p.H
            kkt[:nz, nz:] = A.T
            kkt[nz:, :nz] = A
            rhs = np.concatenate([-g, b[list(combo)]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            if not np.all(np.isfinite(sol)):
                continue
            if np.abs(kkt @ sol - rhs).max() > 1e-7 * (1.0 + np.abs(rhs).max()):
                continue
            z, lam = sol[:nz], sol[nz:]
            if lam.size and lam.min() < -lam_tol:
                continue
            if m and (G @ z - b).max() > scale:
                continue
            val = 0.5 * z @ p.H @ z + g @ z
            if best is None or val < best[0] - 1e-12:
                best = (val, z)
    return None if best is None else best[1]



# The dual active-set loop of Goldfarb and Idnani (1983, Math. Programming
# 27) that qptrim.qpsolver.qp_solve ran before its least-distance solve,
# written with numpy arrays throughout. It is kept as an independent
# reference: the two must agree in status, minimizer and active-row count.
# `drops` counts the rows the loop dropped.

# relative size below which a curvature or a multiplier shift is rounding
ROUNDING = 1e-10


def _step(G, Y, work, j):
    """Primal direction d = Y_j - Y_W r of adding row j to the working rows,
    and the multiplier shift r = (G_W Y_W)^-1 G_W Y_j."""
    if not work:
        return Y[:, j], np.zeros(0)
    r = np.linalg.solve(G[work] @ Y[:, work], G[work] @ Y[:, j])
    return Y[:, j] - Y[:, work] @ r, r


def reference_qp_solve(p, x, idx=None):
    """(z_star, lam, status, iterations, drops) of the array-based loop."""
    x = finite_parameter(x)
    b = p.rhs(x)
    if idx is None:
        rows = None
        G, Y, quads = p.G, p.hi_gt, p.g_quads
    else:
        rows = idx.zero_based()
        G, Y, b, quads = p.G[rows], None, b[rows], p.g_quads[rows]
    n = len(b)
    feas_slack = FEAS * (1.0 + np.abs(b).max(initial=0.0))

    z0 = -p.hi_ft @ x
    z = z0
    lam = np.zeros(n)
    work: list = []          # working rows, as positions in the solved rows
    iterations = 1
    drops = 0
    j = None                 # the violated row being added
    for _ in range(50 * (p.n_z + n) + 100):
        if j is None:
            viol = G @ z - b
            if work:
                viol[work] = -np.inf
            if viol.max(initial=-np.inf) <= feas_slack:
                return z, np.maximum(lam, 0.0), OPTIMAL, iterations, drops
            j = int(np.argmax(viol))
        iterations += 1
        if Y is None:        # a trimmed solve copies its columns only now
            Y = p.hi_gt[:, rows]
        d, r = _step(G, Y, work, j)
        curvature = G[j] @ d
        shift = np.flatnonzero(r > ROUNDING * np.abs(r).max(initial=0.0))
        ratios = lam[work][shift] / r[shift]
        t_drop = ratios.min(initial=np.inf)
        if curvature > ROUNDING * quads[j]:
            t_full = max(G[j] @ z - b[j], 0.0) / curvature
        elif shift.size:
            t_full = np.inf
        else:
            return None, None, INFEASIBLE, iterations, drops
        t = min(t_drop, t_full)
        lam[work] -= t * r
        lam[j] += t
        if t_full <= t_drop:
            work.append(j)
            j = None
        else:
            lam[work.pop(int(shift[np.argmin(ratios)]))] = 0.0
            drops += 1
        # summing over the rows that hold multipliers, not over all kept
        # rows, gives a trimmed solve the same rounding as the full one
        held = work if j is None else work + [j]
        z = z0 - Y[:, held] @ lam[held]
    raise ArithmeticError("active-set iteration limit exceeded")



# The piece search that qptrim.lipschitz._steepest_piece ran before it grew
# its row sets from independent ones: every row set of each size, in
# itertools order, with three batched SVDs per set (independence, the
# condition number of the Gram matrix and the 2-norm of D_A). The two must
# return the same (slope, rows), bitwise.

def reference_steepest_piece(p, floor, chunk=20_000):
    """Steepest realizable piece steeper than floor, as (slope, 1-based
    rows), or None, by plain enumeration of the row sets."""
    p_rows = p.S + p.G @ p.hi_ft
    floor = floor * (1.0 + 1e-12)
    candidates = []
    for k in range(1, min(p.n_z, p.n_c) + 1):
        combos = itertools.combinations(range(p.n_c), k)
        while True:
            sets = np.array(list(itertools.islice(combos, chunk)), dtype=int)
            if not sets.size:
                break
            g_a = p.G[sets]
            indep = np.linalg.svd(g_a, compute_uv=False)[:, -1] > rank_tol(p.G)
            sets, g_a = sets[indep], g_a[indep]
            y_a = p.hi_gt.T[sets]
            gram = g_a @ y_a.transpose(0, 2, 1)
            d_a = (y_a.transpose(0, 2, 1) @ np.linalg.solve(gram, p_rows[sets])
                   - p.hi_ft)
            rounding = k * np.linalg.cond(gram) * np.finfo(float).eps
            slopes = np.linalg.norm(d_a, ord=2, axis=(1, 2)) * (1.0 + rounding)
            steep = slopes > floor
            candidates.extend(zip(slopes[steep].tolist(), sets[steep]))
    candidates.sort(key=lambda c: -c[0])
    for slope, rows in candidates:
        if _realizable(p, p_rows, rows):
            return float(slope), [int(r) + 1 for r in rows]
    return None


# The sigma search that qptrim.lifted.sigma_milp ran before it cached its
# root: the exemption budget is the right-hand side n_c-i-1 of the last row,
# so every i solves its own root LP cold. The same branch and bound and the
# same rounding follow. Values must agree exactly where this one is 0.0
# (horizon_bounds reads a zero as "never") and to 1e-12 (1 + |sigma|)
# elsewhere: the cached root is re-optimised, so it may stop at another
# optimal vertex of the same degenerate LP.

def reference_sigma_milp(L, i):
    """sigma_i of a boxed polyhedron with i < n_c, from a cold root."""
    m = L.big_m
    n_c, n_v = L.n_c, L.n_v
    unit = L.H_lift / L.row_norms[:, None]
    wn = L.w / L.row_norms
    budget = np.zeros((1, n_v + 1 + n_c))
    budget[0, n_v + 1:] = 1.0
    rows = np.vstack([
        np.hstack([L.H_lift, np.zeros((n_c, 1 + n_c))]),
        np.hstack([-unit, -np.ones((n_c, 1)), -m * np.eye(n_c)]),
        np.hstack([unit, np.ones((n_c, 1)), m * np.eye(n_c)]),
        budget,
    ])
    rhs = np.concatenate([L.w, -wn, wn + m, [float(n_c - i - 1)]])
    cost = np.zeros(n_v + 1 + n_c)
    cost[n_v] = 1.0
    bounds = [tuple(row) for row in L.box] + [(0.0, m)] + [(0.0, 1.0)] * n_c

    def rounding(x):
        delta = np.ones(n_c)
        delta[np.argsort(L.distances(x[:n_v]), kind="stable")[:i + 1]] = 0.0
        return delta

    res = milp_solve(cost, rows, rhs, bounds,
                     integer=range(n_v + 1, n_v + 1 + n_c), rounding=rounding)
    assert res.is_optimal, res.status
    return float(max(res.objective, 0.0))


def reference_certify(p, kappa, sample, x, outcome):
    """True when every row the outcome removed is provably redundant at x,
    recomputed from scratch: the row was strictly inactive at the sample,
    and its slack at x under z_star is nonnegative and covers the ball
    radius kappa*||x - x_hat|| times ||G_j|| (division-free). Trusts
    neither the sample's stored active set nor the trimmer's fold."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    x_hat = np.atleast_1d(np.asarray(sample.x_hat, dtype=float))
    radius = float(kappa) * float(np.linalg.norm(x - x_hat))
    j = outcome.removed.zero_based()
    here = (p.rhs(x) - p.G @ sample.z_star)[j]
    at_sample = (p.rhs(x_hat) - p.G @ sample.z_star)[j]
    return bool(np.all(at_sample > p.act_band[j]) and np.all(here >= 0.0)
                and np.all(here >= radius * p.g_row_norms[j]))


def dare_residual(A, B, Q, R, P):
    """Largest entry of A'PA - A'PB (R + B'PB)^-1 B'PA + Q - P."""
    A, B = np.atleast_2d(A), np.atleast_2d(B)
    BtP = B.T @ P
    gain = np.linalg.solve(R + BtP @ B, BtP @ A)
    return float(np.abs(A.T @ P @ A - A.T @ P @ B @ gain + Q - P).max())
