"""Dual active-set solver for strictly convex QPs over constraint subsets.

Solves  min_z 0.5 z' H z + x' F z  s.t.  G_I z <= S_I x + w_I  for an index
subset I with the method of Goldfarb and Idnani (1983, Math. Programming
27). It starts at the unconstrained minimizer, which is dual feasible, and
adds the most violated kept row until none is violated, dropping a working
row whenever its multiplier reaches zero on the way. No LP is needed: an
empty feasible set shows as a violated row that depends on the working
rows with no multiplier left to shift onto. Every iterate satisfies
stationarity, z = -H^-1 (F' x + G' lam), so z is recomputed from the
multipliers rather than accumulated. The solver reports no active set;
solve_sample reads one from the slacks with MpQp.active_set.
"""

from dataclasses import dataclass

import numpy as np

from .mpqp import IndexSet, MpQp, SolvedSample, finite_parameter
from .tolerances import FEAS

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

# relative size below which a curvature or a multiplier shift is rounding
ROUNDING = 1e-10


@dataclass
class QpSolution:
    """Minimizer and multipliers of one solve; both None when infeasible."""

    z_star: np.ndarray | None
    lam: np.ndarray | None       # multipliers aligned with the solved index set
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
    max_iter: int | None = None,
) -> QpSolution:
    """Solve the trimmed QP at parameter x over constraint subset idx.

    Every solve starts cold, at the unconstrained minimizer; `iterations`
    counts that start and every row the loop adds or drops. A kept row
    counts as satisfied when its violation is at most FEAS * (1 + max|b|)
    over the kept right-hand sides b. A NaN or infinite parameter raises
    ValueError.
    """
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
    if max_iter is None:
        max_iter = 50 * (p.n_z + n) + 100

    z0 = -p.hi_ft @ x
    z = z0
    lam = np.zeros(n)
    work: list = []          # working rows, as positions in the solved rows
    iterations = 1
    j = None                 # the violated row being added
    for _ in range(max_iter):
        if j is None:
            viol = G @ z - b
            if work:
                viol[work] = -np.inf
            if viol.max(initial=-np.inf) <= feas_slack:
                return QpSolution(z, np.maximum(lam, 0.0), OPTIMAL, iterations)
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
            return QpSolution(None, None, INFEASIBLE, iterations)
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


def solve_sample(p: MpQp, x) -> SolvedSample:
    """Solve the full problem at x and package it as a reusable sample,
    with the active set p.active_set reads from the minimizer's slacks."""
    x = finite_parameter(x)
    sol = qp_solve(p, x)
    if not sol.is_optimal:
        raise ValueError(f"problem is infeasible at x={np.asarray(x)}")
    return SolvedSample(x, sol.z_star, p.active_set(x, sol.z_star))
