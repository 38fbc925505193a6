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

A step costs a few small BLAS and LAPACK calls and, at MPC sizes, is
dominated by the fixed cost of each numpy call. So the loop holds its
working rows as a Python list and their multipliers as Python floats,
runs the ratio test and the multiplier update in Python (which rounds
exactly as numpy's elementwise operations do), and gathers the working
rows of G and H^-1 G' once per step. tests/oracles.py keeps the loop
written over numpy arrays, and the tests hold the two equal bit for bit.
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
    ValueError. An empty idx returns the unconstrained minimizer with
    iterations = 1, without gathering a row.
    """
    x = finite_parameter(x)
    rows = None if idx is None else idx.zero_based()
    return _solve(p, x, p.rhs(x), rows, max_iter)


def _solve(p: MpQp, x, b, rows, max_iter=None) -> QpSolution:
    """qp_solve at a finite x whose right-hand side S x + w is b, over the
    0-based rows `rows` (None: all rows). closedloop.simulate calls it with
    the b it has already computed for its trim."""
    z0 = -p.hi_ft @ x
    n = p.n_c if rows is None else len(rows)
    if not n:                # nothing to satisfy; gather nothing
        return QpSolution(z0, np.zeros(0), OPTIMAL, 1)
    if rows is None:
        G, Y, quads = p.G, p.hi_gt, p.g_quads
    else:
        G, Y, b, quads = p.G[rows], None, b[rows], p.g_quads[rows]
    feas_slack = FEAS * (1.0 + np.abs(b).max(initial=0.0))
    if max_iter is None:
        max_iter = 50 * (p.n_z + n) + 100

    z = z0
    work: list = []          # working rows, as positions in the solved rows
    lam_w: list = []         # their multipliers
    iterations = 1
    j = None                 # the violated row being added
    for _ in range(max_iter):
        if j is None:
            viol = G @ z - b
            if work:
                viol[work] = -np.inf
            j = int(viol.argmax())
            if viol[j] <= feas_slack:
                lam = np.zeros(n)
                if work:
                    lam[work] = lam_w
                    np.maximum(lam, 0.0, out=lam)
                return QpSolution(z, lam, OPTIMAL, iterations)
            lam_j = 0.0
        iterations += 1
        if Y is None:        # a trimmed solve copies its columns only now
            Y = p.hi_gt[:, rows]
        # primal direction d = Y_j - Y_W r of adding row j to the working
        # rows W, and the multiplier shift r = (G_W Y_W)^-1 G_W Y_j
        Gj, Yj = G[j], Y[:, j]
        if work:
            Gw, Yw = G[work], Y[:, work]
            r = np.linalg.solve(Gw @ Yw, Gw @ Yj)
            d = Yj - Yw @ r
            r = r.tolist()
        else:
            d, r = Yj, []
        curvature = Gj @ d
        # first working row whose multiplier a full step would drive below 0
        bound = ROUNDING * max(map(abs, r), default=0.0)
        t_drop, drop, shifts = np.inf, None, False
        for i, ri in enumerate(r):
            if ri > bound:
                shifts = True
                ratio = lam_w[i] / ri
                if ratio < t_drop:
                    t_drop, drop = ratio, i
        if curvature > ROUNDING * quads[j]:
            t_full = max(Gj @ z - b[j], 0.0) / curvature
        elif shifts:
            t_full = np.inf
        else:
            return QpSolution(None, None, INFEASIBLE, iterations)
        t = float(min(t_drop, t_full))
        lam_w = [m - t * ri for m, ri in zip(lam_w, r)]
        lam_j += t
        if t_full <= t_drop:
            work.append(j)
            lam_w.append(lam_j)
            j = None
            held, lam_held = work, lam_w
        else:
            del work[drop], lam_w[drop]
            held, lam_held = work + [j], lam_w + [lam_j]
        # summing over the rows that hold multipliers, not over all kept
        # rows, gives a trimmed solve the same rounding as the full one
        z = z0 - Y[:, held] @ np.array(lam_held)
    raise ArithmeticError("active-set iteration limit exceeded")


def solve_sample(p: MpQp, x) -> SolvedSample:
    """Solve the full problem at x and package it as a reusable sample,
    with the active set p.active_set reads from the minimizer's slacks."""
    x = finite_parameter(x)
    sol = qp_solve(p, x)
    if not sol.is_optimal:
        raise ValueError(f"problem is infeasible at x={np.asarray(x)}")
    return SolvedSample(x, sol.z_star, p.active_set(x, sol.z_star))
