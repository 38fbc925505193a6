"""Dense LP solver: bounded-variable primal simplex, two phases, and a dual
simplex that re-optimises after bound changes.

Solves   min cost @ x   s.t.  C @ x <= d,  lo <= x <= hi.

Statuses are values, never exceptions: infeasible and unbounded instances are
normal outcomes. Pricing is Dantzig's rule; after 5*(n+m) iterations without
objective progress it switches to Bland's rule, which guarantees termination.
Deterministic by construction (no randomness, fixed tie-breaking).

An optimal result keeps its final simplex state (`LpResult.state`). Tightening
the bounds of any variables leaves that basis dual feasible, so
`Relaxation.rebound` re-optimises a copy with the dual simplex (Lemke 1954):
the most violated basic row leaves, and the entering column minimises
|r_q / T[i, q]| over the columns that can move that row back to its bound.
Branch and bound (milp.py) re-optimises every child node this way, the
root's rounded leaf, which fixes every integer variable at once, and a root
handed a solved relaxation under looser bounds.
"""

import copy
from dataclasses import dataclass, field

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_PIVOT_TOL = 1e-9
_RATIO_TOL = 1e-9
_FEAS_TOL = 1e-9   # a basic value this far (relative) outside its bounds is violated
_TIE_TOL = 1e-12   # dual ratios this close count as tied


@dataclass
class LpResult:
    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    iterations: int = 0
    state: "Relaxation | None" = field(default=None, repr=False, compare=False)


def _expand_bounds(bounds, n):
    lo = np.full(n, -np.inf)
    hi = np.full(n, np.inf)
    if bounds is None:
        return lo, hi
    try:
        pairs = [(a, b) for a, b in bounds]
    except (TypeError, ValueError):
        raise ValueError("bounds must be None or one (lo, hi) pair per "
                         f"variable, got {bounds!r}") from None
    if len(pairs) != n:
        raise ValueError(f"got {len(pairs)} bound pairs for {n} variables")
    for j, (a, b) in enumerate(pairs):
        lo[j] = -np.inf if a is None else float(a)
        hi[j] = np.inf if b is None else float(b)
        if lo[j] > hi[j]:
            raise ValueError(f"empty bound interval for variable {j}: ({a}, {b})")
    return lo, hi


class _Tableau:
    """Bounded simplex state: full tableau plus explicit variable values.

    Internal variable k equals lower[k] + val[k] with 0 <= val[k] <= upper[k]
    (upper may be inf), so the pivoting loops only ever see [0, upper]. A
    cold solve has every lower at 0; a bound change (set_bounds) moves it.
    The tableau rows are kept equal to B^-1 @ A by pivoting; current values
    are tracked directly, which sidesteps the usual rhs bookkeeping for
    nonbasic-at-upper variables.
    """

    def __init__(self, A, upper):
        self.m, self.n = A.shape
        self.T = A.astype(float).copy()
        self.lower = np.zeros(self.n)
        self.upper = upper.astype(float).copy()
        self.val = np.zeros(self.n)
        self.at_upper = np.zeros(self.n, dtype=bool)
        self.basis = np.zeros(self.m, dtype=int)
        self.in_basis = np.zeros(self.n, dtype=bool)
        self.iterations = 0

    def copy(self):
        new = copy.copy(self)
        new.iterations = 0
        for name in ("T", "lower", "upper", "val", "at_upper", "basis",
                     "in_basis"):
            setattr(new, name, getattr(self, name).copy())
        return new

    def value(self, cost):
        return float(cost @ self.val)

    def run(self, cost, max_iter, bland_after):
        """Optimize; returns True if optimal, False if unbounded."""
        stall = 0
        best = self.value(cost)
        ctol = _PIVOT_TOL * (1.0 + np.abs(cost).max(initial=0.0))
        for _ in range(max_iter):
            cb = cost[self.basis]
            r = cost - cb @ self.T
            bland = stall > bland_after
            enter = self._pick_entering(r, ctol, bland)
            if enter is None:
                return True
            self.iterations += 1
            sign = -1.0 if self.at_upper[enter] else 1.0
            col = self.T[:, enter]
            step, leave_row, to_upper = self._ratio_test(sign, col, enter, bland)
            if step is None:
                return False  # unbounded ray
            self._apply_step(enter, sign, col, step, leave_row, to_upper)
            obj = self.value(cost)
            if obj < best - 1e-12 * (1.0 + abs(best)):
                best = obj
                stall = 0
            else:
                stall += 1
        raise ArithmeticError("simplex iteration limit exceeded")

    def _pick_entering(self, r, ctol, bland):
        # improving: at lower bound with r < 0, or at upper bound with r > 0
        eligible = np.flatnonzero(
            (np.where(self.at_upper, r, -r) > ctol)
            & ~self.in_basis & (self.upper > 0.0)
        )
        if eligible.size == 0:
            return None
        if bland:
            return int(eligible[0])
        return int(eligible[np.argmax(np.abs(r[eligible]))])

    def _ratio_test(self, sign, col, enter, bland):
        d = sign * col  # basic values move by -d * step
        bvals = self.val[self.basis]
        bupper = self.upper[self.basis]
        t = np.full(self.m, np.inf)
        to_upper = np.zeros(self.m, dtype=bool)
        dn = d > _RATIO_TOL
        if dn.any():
            t[dn] = np.maximum(bvals[dn] / d[dn], 0.0)
        up = (d < -_RATIO_TOL) & np.isfinite(bupper)
        if up.any():
            t[up] = np.maximum((bvals[up] - bupper[up]) / d[up], 0.0)
            to_upper[up] = True
        row_min = float(t.min()) if self.m else np.inf
        own = self.upper[enter]  # step at which the entering var hits its bound
        if not np.isfinite(min(own, row_min)):
            return None, -1, False
        if own <= row_min:
            return own, -1, False  # bound flip, no pivot
        ties = np.flatnonzero(t <= row_min + _RATIO_TOL * (1.0 + row_min))
        if bland:
            row = int(ties[np.argmin(self.basis[ties])])
        else:
            row = int(ties[0])
        return max(float(t[row]), 0.0), row, bool(to_upper[row])

    def _apply_step(self, enter, sign, col, step, leave_row, to_upper):
        if step > 0:
            self.val[self.basis] -= sign * step * col
            self.val[enter] += sign * step
        if leave_row < 0:
            # entering variable just flips to its other bound
            self.at_upper[enter] = ~self.at_upper[enter]
            self.val[enter] = self.upper[enter] if self.at_upper[enter] else 0.0
            return
        leave = self.basis[leave_row]
        self.in_basis[leave] = False
        self.at_upper[leave] = to_upper
        self.val[leave] = self.upper[leave] if to_upper else 0.0
        self.basis[leave_row] = enter
        self.in_basis[enter] = True
        self.pivot(leave_row, enter)

    def truncate(self, n):
        """Delete every column from n on; none of them may be basic."""
        self.T = self.T[:, :n].copy()
        for name in ("lower", "upper", "val", "at_upper", "in_basis"):
            setattr(self, name, getattr(self, name)[:n])
        self.n = n

    def pivot(self, row, col):
        prow = self.T[row] / self.T[row, col]
        self.T -= np.outer(self.T[:, col], prow)
        self.T[row] = prow

    def set_bounds(self, var, lower, upper):
        """New bounds lower <= lower[var] + val[var] <= upper, inside the
        current ones. A basic column keeps its value; a nonbasic one moves to
        its new bound, and the basic values follow by -T[:, var] * delta."""
        shift = lower - self.lower[var]
        self.lower[var] = lower
        self.upper[var] = upper - lower
        if self.in_basis[var]:
            self.val[var] -= shift
            return
        offset = self.upper[var] if self.at_upper[var] else 0.0
        delta = shift + offset - self.val[var]
        if delta:
            self.val[self.basis] -= self.T[:, var] * delta
        self.val[var] = offset

    def dual(self, cost, max_pivots):
        """Dual simplex from a dual feasible basis. Returns True when the
        basis is primal feasible (optimal), False when a violated row has no
        eligible entering column (infeasible), None after max_pivots pivots."""
        # +1: nonbasic, free to rise from its lower bound; -1: free to fall
        # from its upper bound; 0: basic or fixed
        move = np.where(self.at_upper, -1.0, 1.0)
        move[self.in_basis | (self.upper <= 0.0)] = 0.0
        r = cost - cost[self.basis] @ self.T
        for _ in range(max_pivots):
            bvals = self.val[self.basis]
            above = bvals - self.upper[self.basis]
            excess = np.maximum(-bvals, above) - _FEAS_TOL * (1.0 + np.abs(bvals))
            row = int(np.argmax(excess))
            if excess[row] <= 0.0:
                return True
            leave = int(self.basis[row])
            raise_it = bvals[row] < 0.0
            t_row = self.T[row]
            # how far x_B[row] moves toward its bound per unit step of each column
            toward = move * (-t_row if raise_it else t_row)
            eligible = np.flatnonzero(toward > _PIVOT_TOL)
            if eligible.size == 0:
                return False
            ratio = np.abs(r[eligible] / t_row[eligible])
            tied = eligible[ratio <= ratio.min() + _TIE_TOL]
            enter = int(tied[np.argmax(np.abs(t_row[tied]))])
            target = 0.0 if raise_it else self.upper[leave]
            step = (bvals[row] - target) / t_row[enter]
            self.iterations += 1
            self.val[self.basis] -= self.T[:, enter] * step
            self.val[enter] += step
            self.in_basis[leave] = False
            self.at_upper[leave] = not raise_it
            self.val[leave] = target
            self.basis[row] = enter
            self.in_basis[enter] = True
            self.pivot(row, enter)
            r -= r[enter] * self.T[row]
            move[enter] = 0.0
            if self.upper[leave] > 0.0:
                move[leave] = 1.0 if raise_it else -1.0
        return None


def lp_solve(cost, C=None, d=None, bounds=None) -> LpResult:
    """Minimize cost @ x subject to C @ x <= d and optional box bounds.

    bounds may be None (every variable free) or one (lo, hi) pair per
    variable; None endpoints mean unbounded. Returns an LpResult
    whose status is one of "optimal", "infeasible", "unbounded"; an optimal
    result keeps its simplex state.
    """
    cost = np.atleast_1d(np.asarray(cost, dtype=float))
    n = cost.shape[0]
    if C is None or np.size(C) == 0:
        C = np.zeros((0, n))
        d = np.zeros(0)
    C = np.atleast_2d(np.asarray(C, dtype=float))
    d = np.atleast_1d(np.asarray(d, dtype=float))
    m = C.shape[0]
    if C.shape[1] != n or d.shape[0] != m:
        raise ValueError(f"shape mismatch: cost {n}, C {C.shape}, d {d.shape}")
    lo, hi = _expand_bounds(bounds, n)
    return Relaxation(cost, C, d, lo, hi).solve()


class Relaxation:
    """An LP over C x <= d, lo <= x <= hi in the tableau's bounded form.

    Each x[j] sits on tableau column col[j] as y = sign[j] * (x[j] - base[j]):
    shifted (sign +1, base lo) when lo is finite, mirrored (sign -1, base hi)
    when only hi is, and split into a difference of columns col[j] and
    col[j] + 1 when free.
    """

    def __init__(self, cost, C, d, lo, hi):
        m, n = C.shape
        fin_lo, fin_hi = np.isfinite(lo), np.isfinite(hi)
        free = ~(fin_lo | fin_hi)
        self.cost, self.free = cost, free
        self.sign = np.where(fin_hi & ~fin_lo, -1.0, 1.0)
        self.base = np.where(fin_lo, lo, np.where(fin_hi, hi, 0.0))
        n_free = int(np.count_nonzero(free))
        self.col = np.arange(n) + np.cumsum(free) - free if n_free else np.arange(n)
        ny = n + n_free
        b = d - C @ self.base
        # standard form [A, slacks, artificials]: rows with b < 0 are
        # flipped, and each of them gets an artificial
        neg = b < 0
        art_rows = np.flatnonzero(neg)
        n_art = art_rows.size
        A_all = np.zeros((m, ny + m + n_art))
        A_all[:, self.col] = C * self.sign
        if n_free:
            A_all[:, self.col[free] + 1] = -C[:, free]
        np.fill_diagonal(A_all[:, ny:ny + m], 1.0)
        A_all[neg, :ny + m] *= -1.0
        A_all[art_rows, ny + m + np.arange(n_art)] = 1.0
        upper = np.full(A_all.shape[1], np.inf)
        boxed = fin_lo & fin_hi
        upper[self.col[boxed]] = hi[boxed] - lo[boxed]
        self.n_art, self.ny, self.d_max = n_art, ny, np.abs(d).max(initial=0.0)
        # phase-2 cost; slacks and artificials cost nothing
        self.ycost = np.zeros(A_all.shape[1])
        self.ycost[self.col] = cost * self.sign
        if n_free:
            self.ycost[self.col[free] + 1] = -cost[free]

        # start from the slack basis, with artificials on the flipped rows
        self.tab = tab = _Tableau(A_all, upper)
        tab.basis[:] = np.arange(ny, ny + m)
        tab.basis[art_rows] = ny + m + np.arange(n_art)
        tab.in_basis[tab.basis] = True
        tab.val[tab.basis] = np.abs(b)

    def solve(self) -> LpResult:
        """Two-phase primal simplex from the slack/artificial basis."""
        tab, ny, m = self.tab, self.ny, self.tab.m
        n_tot = tab.n
        max_iter = 10000 + 200 * (m + n_tot)
        bland_after = 5 * (m + n_tot)
        if self.n_art:
            phase1 = np.zeros(n_tot)
            phase1[ny + m:] = 1.0
            tab.run(phase1, max_iter, bland_after)
            if tab.value(phase1) > 1e-9 * (1.0 + self.d_max):
                return LpResult(INFEASIBLE, iterations=tab.iterations)
            _evict_artificials(tab, ny + m)
            # every artificial has left the basis: drop their columns, so
            # no later pivot updates them
            tab.truncate(ny + m)
            self.ycost = self.ycost[:ny + m]
        if not tab.run(self.ycost, max_iter, bland_after):
            return LpResult(UNBOUNDED, iterations=tab.iterations)
        return self._result()

    def _result(self) -> LpResult:
        val = self.tab.lower + self.tab.val
        x = self.base + self.sign * val[self.col]
        x[self.free] -= val[self.col[self.free] + 1]
        return LpResult(OPTIMAL, x, float(self.cost @ x), self.tab.iterations,
                        state=self)

    def rebound(self, changes, max_pivots) -> LpResult | None:
        """Re-optimise a copy under new bounds, with the dual simplex from
        this basis. changes lists (j, lo, hi) triples; each interval must
        lie inside the current bounds of x[j].

        Returns the copy's LpResult (optimal or infeasible; iterations counts
        its dual pivots), or None when some x[j] is free here (two columns)
        or the dual loop stops at max_pivots."""
        if any(self.free[j] for j, _, _ in changes):
            return None
        child = copy.copy(self)
        child.tab = self.tab.copy()
        for j, lo, hi in changes:
            base = self.base[j]
            if self.sign[j] > 0:
                child.tab.set_bounds(self.col[j], lo - base, hi - base)
            else:
                child.tab.set_bounds(self.col[j], base - hi, base - lo)
        if not child.tab.m:   # no rows: set_bounds left it optimal
            return child._result()
        done = child.tab.dual(self.ycost, max_pivots)
        if done is None:
            return None
        if not done:
            return LpResult(INFEASIBLE, iterations=child.tab.iterations)
        return child._result()


def _evict_artificials(tab, first_art):
    """Pivot each zero-valued basic artificial onto a real column. There is
    always one to pivot on: an artificial's own slack column stays the exact
    negative of its column through every pivot, so it is nonbasic with
    entry -1 in the artificial's row."""
    for row in range(tab.m):
        var = tab.basis[row]
        if var < first_art:
            continue
        enter = int(np.flatnonzero(
            (np.abs(tab.T[row, :first_art]) > 1e-9) & ~tab.in_basis[:first_art]
        )[0])
        tab.in_basis[var] = False
        tab.at_upper[var] = False
        tab.val[var] = 0.0
        tab.basis[row] = enter
        tab.in_basis[enter] = True
        tab.pivot(row, enter)
