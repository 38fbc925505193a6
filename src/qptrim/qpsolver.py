"""Least-distance QP solver for strictly convex QPs over constraint subsets.

Solves  min_z 0.5 z' H z + x' F z  s.t.  G_I z <= S_I x + w_I  for an index
subset I. With H = L L' and the unconstrained minimizer z0 = -H^-1 F' x,
the substitution y = L'(z - z0) turns the QP into the least-distance
program  min ||y||  s.t.  E_I y <= h_I,  with E = G L^-T (MpQp.g_lt) and
h = b - G z0. Lawson and Hanson (Solving Least Squares Problems, 1974,
ch. 23) solve it by one nonnegative least-squares problem,

    min_{u >= 0} || [E_I'; h_I'] u + e ||,   e = (0, ..., 0, 1),

which scipy.optimize.nnls runs compiled; Bemporad (2016, IEEE TAC 61(4))
applies the reduction to embedded MPC. Every branch reads h as one cached
product, (S + G H^-1 F') x + w (MpQp.slack_map). When no solved row of h
is negative the solver returns z0, with no b = S x + w formed. Past that
it returns z0 when no solved row of b - G z0 is violated beyond the band
tolerances.feas_tol(b) = FEAS * (1 + max|b|), the package's one
feasibility rule; h rounds apart from b - G z0 far inside one band, so
G z0 is formed only when h lies within two bands. Otherwise it divides
h by its largest violation distance s = max_i -h_i / ||E_i||, so that
||y|| >= 1 at any scale of x, H, F or the rows; the residual norm is
then 1 / sqrt(1 + ||y||^2) when the rows are feasible and vanishes when
they are not.

nnls's cost grows with its columns, and few rows end active, so nnls
first sees only the seed: the rows whose boundary meets the H-metric ball
of radius s around z0, h_i / ||E_i|| < s, which holds every violated row;
a row with E_i = 0 enters only when it is violated beyond the band. The
rows with a positive u are the active rows W, and the solver reads the
minimizer from them rather than from nnls's y: it solves
(G_W H^-1 G_W') lam_W = -h_W and sets z = z0 - dz, dz = H^-1 G_W' lam_W,
so the active rows hold to rounding and a tie at a vertex stays exact.
Every solved row is then checked at its slack b - G z = h + G dz. Rows
that nnls did not see and that z violates beyond the band join its rows,
and nnls runs again; a violated row that nnls saw outside W raises
ArithmeticError, as the dual loop's last check required. The returned z
minimizes over a row subset that holds its active rows and meets every
solved row, so by KKT it is the minimizer over all of them; an infeasible
subset makes the whole set infeasible.

The closed loop can also hand the solver a guess of W (Ferreau, Bock and
Diehl 2008, IJRNC 18, warm-start the active set from the last solve).
When z0 fails the first check, the solver runs the same re-solve on the
guessed rows and returns its z only when KKT proves it: the Gram matrix
factors, every multiplier is >= 0, every solved row holds to the band,
and so do the guessed rows as equalities, which a nearly dependent guess
can miss through rounding. A right guess settles the solve with one
|W| x |W| solve and no nnls call, and its z is bitwise the one nnls's W
would give; a wrong guess costs that solve and changes nothing. The
public solver takes no guess and reports no active set; solve_sample
reads one as MpQp.active_set(x, z) at its minimizer.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .mpqp import IndexSet, MpQp, SolvedSample
from .tolerances import feas_tol

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

# nnls residual norm at or below which the solved rows are infeasible; a
# feasible set's is 1 / sqrt(1 + ||y||^2) with ||y|| >= 1 once h is scaled
# by its largest violation distance, so this reads a minimizer more than
# 1e6 of those distances away as infeasible
VANISHED = 1e-6
# the active rows of a solve that ends at z0
_NO_ROWS = np.zeros(0, dtype=np.intp)
_NO_ROWS.flags.writeable = False


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


def qp_solve(p: MpQp, x, idx: IndexSet | None = None) -> QpSolution:
    """Solve the trimmed QP at parameter x over constraint subset idx,
    cold from the unconstrained minimizer z0 (see the module docstring).

    `iterations` is 1 when z0 is the answer, as it is for an empty idx,
    else 1 plus the number of active rows the last nnls call finds; on an
    INFEASIBLE solve those are rows of whichever subset that call saw, so
    the count depends on the seed. An nnls call that reaches its cap of
    50 (n_z + n) + 100 iterations, n the number of kept rows, raises
    ArithmeticError, as does a minimizer that violates a row nnls saw
    outside its active rows. A NaN or infinite parameter raises
    ValueError, as does one whose length is not n_x, and so does an index
    above n_c.
    """
    x = p.parameter(x)
    rows = None
    if idx is not None:
        rows = idx.zero_based()
        if len(rows) and rows[-1] >= p.n_c:
            raise ValueError(f"index {rows[-1] + 1} exceeds n_c={p.n_c}")
    return _solve(p, x, rows)[0]


def _unconstrained(p: MpQp, x):
    """The first check's two products at a finite x: the unconstrained
    minimizer z0 = -H^-1 F' x and its slack over every row,
    h = b - G z0 = slack_map @ x + w."""
    return -p.hi_ft @ x, p.slack_map @ x + p.w


def _solve(p: MpQp, x, rows, guess=None, formed=None):
    """qp_solve at a finite x over the 0-based rows `rows` (None: all
    rows), optionally with a guessed active set: the 0-based rows `guess`,
    ascending, all of them in `rows`. `formed`, when given, is
    (z0, h, b) over every row, as _unconstrained and p.rhs form them, with
    a negative row in h; the closed loop hands in what its step has
    already formed once z0 fails its all-rows check.

    Returns (solution, active rows W, path). closedloop.simulate guesses
    its next solve's active set from W. W holds the 0-based rows the
    minimizer was solved on: empty when z0 passes the first check, None
    when infeasible. path names the branch that settled the solve: "z0"
    at the first check, "guess" when KKT proves the guess, "nnls"
    otherwise. Every branch reads one slack, h = slack_map @ x + w over
    the solved rows; b = S x + w is formed only past a strict z0 check,
    and G z0 only for a state whose h lies within two bands."""
    z0, h, b = (*_unconstrained(p, x), None) if formed is None else formed
    if rows is not None:
        h = h[rows]
    n = len(h)
    # a caller that hands in h has already found a negative row of it
    if (formed is None or rows is not None) and h.min(initial=0.0) >= 0.0:
        return QpSolution(z0, np.zeros(n), OPTIMAL, 1), _NO_ROWS, "z0"
    if rows is None:
        rows = np.arange(p.n_c)
    b = (p.rhs(x) if b is None else b)[rows]
    feas_slack = feas_tol(b)
    # the band is a rule on b - G z0, which h matches far inside one band
    if h.min() >= -2.0 * feas_slack and (
            b - p.G[rows] @ z0).min() >= -feas_slack:
        return QpSolution(z0, np.zeros(n), OPTIMAL, 1), _NO_ROWS, "z0"
    if guess is not None and len(guess):
        work = np.searchsorted(rows, guess)
        try:
            lam_w, z, slack = _held(p, z0, h, rows, work)
        except np.linalg.LinAlgError:
            pass
        else:
            # KKT: multipliers >= 0, every solved row met, the guessed
            # rows met as equalities; the last fails where rounding in a
            # nearly dependent guess moved z off its rows
            if (lam_w.min() >= 0.0 and slack.min() >= -feas_slack
                    and slack[work].max() <= feas_slack):
                return _optimal(z, lam_w, n, work), guess, "guess"
    # h over the largest violation distance max_i -h_i / ||E_i|| makes
    # ||y|| >= 1, whatever the scale of x, H, F or the rows; a violated
    # row with E_i = 0 leaves nothing to scale by and no point meets it
    norms = np.sqrt(p.g_quads[rows])
    live = norms > 0.0
    scale = (-h[live] / norms[live]).max(initial=0.0)
    if scale <= 0.0:
        return QpSolution(None, None, INFEASIBLE, 1), None, "nnls"
    # nnls sees the rows whose boundary lies within `scale` of z0 in the
    # H-metric: every violated row and the satisfied rows nearest z0; a
    # zero row only when it is violated beyond feas_slack, as the first
    # check reads it; a row the minimizer then violates joins
    seen = h < np.where(live, scale * norms, -feas_slack)
    e = np.zeros(p.n_z + 1)
    e[-1] = -1.0
    while True:
        cols = seen.nonzero()[0]
        try:
            u, resid = nnls(np.vstack([p.g_lt[rows[cols]].T, h[cols] / scale]),
                            e, maxiter=50 * (p.n_z + n) + 100)
        except RuntimeError as exc:
            raise ArithmeticError(f"nnls iteration limit: {exc}") from exc
        work = cols[u.nonzero()[0]]
        if resid <= VANISHED:
            return (QpSolution(None, None, INFEASIBLE, 1 + len(work)), None,
                    "nnls")
        lam_w, z, slack = _held(p, z0, h, rows, work)
        # W holds only to the rounding of the Gram solve
        slack[work] = 0.0
        violated = slack < -feas_slack
        if not violated.any():
            break
        if (violated & seen).any():
            raise ArithmeticError(
                "nnls's active rows leave a solved row violated")
        seen |= violated
    return _optimal(z, lam_w, n, work), rows[work], "nnls"


def _held(p: MpQp, z0, h, rows, work):
    """The minimizer with the solved rows at positions `work` of the
    0-based rows `rows` held as equalities, h = b - G z0 over those rows:
    (G_W H^-1 G_W') lam_W = -h_W, dz = H^-1 G_W' lam_W and z = z0 - dz.
    Returns lam_W, z and the solved rows' slacks b - G z = h + (G dz)_rows.
    A singular Gram matrix raises numpy.linalg.LinAlgError."""
    held = rows[work]
    Yw = p.hi_gt[:, held]
    lam_w = np.linalg.solve(p.G[held] @ Yw, -h[work])
    dz = Yw @ lam_w
    return lam_w, z0 - dz, h + (p.G @ dz)[rows]


def _optimal(z, lam_w, n, work) -> QpSolution:
    lam = np.zeros(n)
    lam[work] = np.maximum(lam_w, 0.0)
    return QpSolution(z, lam, OPTIMAL, 1 + len(work))


def solve_sample(p: MpQp, x) -> SolvedSample:
    """Solve the full problem at x and package it as a reusable sample,
    with the active set read from the minimizer's slacks. A parameter that
    is not finite or not of length n_x raises ValueError, as does an
    infeasible problem."""
    x = p.parameter(x)
    sol = _solve(p, x, None)[0]
    if not sol.is_optimal:
        raise ValueError(f"problem is infeasible at x={np.asarray(x)}")
    return SolvedSample(x, sol.z_star, p.active_set(x, sol.z_star))
