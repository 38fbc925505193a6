"""Dual active-set solver for strictly convex QPs over constraint subsets.

Solves  min_z 0.5 z' H z + x' F z  s.t.  G_I z <= S_I x + w_I  for an index
subset I with the method of Goldfarb and Idnani (1983, Math. Programming
27). It starts at the unconstrained minimizer, which is dual feasible, and
adds the most violated kept row until none is violated, dropping a working
row whenever its multiplier reaches zero on the way. No LP is needed: an
empty feasible set shows as a violated row that depends on the working
rows with no multiplier left to shift onto. Every iterate satisfies
stationarity, z = -H^-1 (F' x + G' lam), so z is recomputed from the
multipliers rather than accumulated.
"""

from dataclasses import dataclass

import numpy as np

from .mpqp import IndexSet, MpQp, SolvedSample, finite_parameter
from .tolerances import DEFAULT, Tolerances

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

# relative size below which a curvature or a multiplier shift is rounding
ROUNDING = 1e-10


@dataclass
class QpSolution:
    z_star: np.ndarray | None
    lam: np.ndarray | None       # multipliers aligned with the solved index set
    active: IndexSet | None      # slack-test active set, 1-based global indices
    status: str
    iterations: int = 0

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


def _step(G, Y, work, j):
    """Primal direction d = Y_j - Y_W r of adding row j to the working rows,
    and the multiplier shift r = (G_W Y_W)^-1 G_W Y_j."""
    if not work:
        return Y[:, j], np.zeros(0)
    r = np.linalg.solve(G[work] @ Y[:, work], G[work] @ Y[:, j])
    return Y[:, j] - Y[:, work] @ r, r


def qp_solve(
    p: MpQp,
    x,
    idx: IndexSet | None = None,
    tol: Tolerances = DEFAULT,
    max_iter: int | None = None,
) -> QpSolution:
    """Solve the trimmed QP at parameter x over constraint subset idx.

    Every solve starts cold, at the unconstrained minimizer; `iterations`
    counts that start and every row the loop adds or drops. A NaN or
    infinite parameter raises ValueError.
    """
    x = finite_parameter(x)
    rows = np.arange(p.n_c) if idx is None else idx.zero_based()
    G, Y, b = p.G[rows], p.hi_gt[:, rows], p.rhs(x)[rows]
    quads = p.g_quads[rows]
    feas_slack = tol.feas * (1.0 + np.abs(b).max(initial=0.0))
    if max_iter is None:
        max_iter = 50 * (p.n_z + len(rows)) + 100

    z0 = -p.hi_ft @ x
    z = z0
    lam = np.zeros(len(rows))
    work: list = []          # working rows, as positions in `rows`
    iterations = 1
    j = None                 # the violated row being added
    for _ in range(max_iter):
        if j is None:
            slack = b - G @ z
            viol = -slack
            if work:
                viol[work] = -np.inf
            if viol.max(initial=-np.inf) <= feas_slack:
                near = np.abs(slack) <= tol.act * (1.0 + np.abs(p.w[rows]))
                return QpSolution(z, np.maximum(lam, 0.0),
                                  IndexSet(rows[near] + 1), OPTIMAL, iterations)
            j = int(np.argmax(viol))
        iterations += 1
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
            return QpSolution(None, None, None, INFEASIBLE, iterations)
        t = min(t_drop, t_full)
        lam[work] -= t * r
        lam[j] += t
        if t_full <= t_drop:
            work.append(j)
            j = None
        else:
            lam[work.pop(int(shift[np.argmin(ratios)]))] = 0.0
        # summing over the rows that hold multipliers, not over all kept
        # rows, gives a trimmed solve the same rounding as the full one
        held = work if j is None else work + [j]
        z = z0 - Y[:, held] @ lam[held]
    raise ArithmeticError("active-set iteration limit exceeded")


def solve_sample(p: MpQp, x, tol: Tolerances = DEFAULT) -> SolvedSample:
    """Solve the full problem at x and package it as a reusable sample."""
    sol = qp_solve(p, x, tol=tol)
    if not sol.is_optimal:
        raise ValueError(f"problem is infeasible at x={np.asarray(x)}")
    return SolvedSample(x, sol.z_star, sol.active)
