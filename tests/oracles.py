"""Independent reference implementations used only by the test suite.

These deliberately share no code with the package solvers: the QP oracle
enumerates candidate active subsets and solves bordered KKT systems directly.
"""

import itertools

import numpy as np


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

