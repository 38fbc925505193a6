"""Small mixed-integer LP solver: branch and bound over the bounded simplex.

Scope is deliberately narrow (the ball-coverage threshold problems produced
by the lifted-polyhedron module): best-first node selection (Land & Doig
1960), most-fractional branching, no cuts. Single-threaded and fully
deterministic.

Among nodes with equal bounds the most recently pushed pops first, so a
search whose nodes all share one bound (every sigma_i = 0 problem) dives to
an integral leaf instead of sweeping the tree breadth first. A caller may
pass a rounding of the root's point (a rounding heuristic; Berthold 2006):
the leaf that fixes every integer variable there is solved once, and when
its objective meets the root bound it is optimal and ends the search at the
root. A leaf that misses the bound is dropped, not kept as an incumbent
(that would change which leaf the search ends on, and so the last bits of
its value): the search then runs as without it, from no incumbent, where
the bound alone decides which nodes pop.

At most the root relaxation is a cold two-phase `lp_solve`. A child
differs from its parent by one bound, and the rounded leaf from the root by
the bounds of its integer variables, so the parent's optimal basis stays
dual feasible: each re-optimises a copy of its parent's simplex state with
the dual simplex (`Relaxation.rebound`). A caller that holds a solved
relaxation of the same rows under looser bounds may hand it over, and the
root is re-optimised from it the same way (`sigma_milp` solves one root per
polyhedron and tightens its budget bound for each i). Any of these is
solved cold instead when a changed variable sits on two tableau columns (a
free integer variable), when its dual loop reaches _DUAL_CAP pivots, or
when its point misses the original rows or bounds by more than FEAS.
"""

import itertools
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, _expand_bounds, lp_solve
from .tolerances import FEAS

INT_TOL = 1e-6   # a value this close to an integer counts as integral
_DUAL_CAP = 500  # dual pivots after which a child is solved cold
_NODE_LIMIT = 1_000_000  # child nodes after which the search gives up


class MilpTimeout(Exception):
    """Node budget exhausted before the search tree was closed."""


@dataclass
class MilpResult:
    status: str
    x: np.ndarray | None
    objective: float | None
    nodes: int

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


def milp_solve(
    cost,
    C=None,
    d=None,
    bounds=None,
    integer=(),
    rounding=None,
    root_from=None,
) -> MilpResult:
    """Minimize cost@x subject to C@x <= d and bounds, with x[j] integral
    for every j in `integer`. `bounds` takes the form `lp_solve` takes:
    None, or one (lo, hi) pair per variable.

    Best-first on the relaxation bound, depth first among equal bounds;
    branches on the most fractional integer variable. Nodes that cannot
    improve the best integral point found by more than 1e-9 are pruned. An
    OPTIMAL result always carries that point, with its integer entries
    rounded exactly. Raises MilpTimeout after _NODE_LIMIT child nodes.

    `rounding`, when given, maps the root's relaxation point to integral
    values, inside their bounds, for the integer variables in ascending
    index order. When the root is fractional, the leaf that fixes them
    there is solved first (one more node); if its objective meets the
    root bound within 1e-9 it is optimal and returned, else it is dropped
    and the search runs as without it.

    `root_from`, when given, is a pair (relaxation, changes): an LpResult of
    the same cost and rows under bounds that contain `bounds`, and the
    (j, lo, hi) changes that turn its bounds into `bounds`. The root is
    then re-optimised from that relaxation as a child from its parent, and
    solved cold only where a child would be.
    """
    cost = np.atleast_1d(np.asarray(cost, dtype=float))
    n = cost.size
    int_vars = sorted({int(j) for j in integer})
    if int_vars and not (0 <= int_vars[0] and int_vars[-1] < n):
        raise ValueError(f"integer indices out of range for {n} variables")
    lo, hi = _expand_bounds(bounds, n)
    if C is None or np.size(C) == 0:
        rows, rhs = np.zeros((0, n)), np.zeros(0)
    else:
        rows = np.atleast_2d(np.asarray(C, dtype=float))
        rhs = np.atleast_1d(np.asarray(d, dtype=float))

    def cold(lo_n, hi_n):
        return lp_solve(cost, C, d, list(zip(lo_n, hi_n)))

    def holds(x, lo_n, hi_n):
        """x meets the original rows and bounds within FEAS."""
        return bool(
            np.all(rows @ x - rhs <= FEAS * (1.0 + np.abs(rhs)))
            and np.all(x >= lo_n - FEAS * (1.0 + np.abs(lo_n)))
            and np.all(x <= hi_n + FEAS * (1.0 + np.abs(hi_n)))
        )

    def fractional(x):
        return [j for j in int_vars if abs(x[j] - round(x[j])) > INT_TOL]

    def child(parent, changes, lo_c, hi_c):
        """The relaxation under the (j, lo, hi) bound changes, re-optimised
        from its parent's tableau where that serves, else cold."""
        rel = None
        if parent.state is not None:
            rel = parent.state.rebound(changes, _DUAL_CAP)
        if rel is None or (rel.status == OPTIMAL and not holds(rel.x, lo_c, hi_c)):
            rel = cold(lo_c, hi_c)
        return rel

    nodes = 1
    root = cold(lo, hi) if root_from is None else child(*root_from, lo, hi)
    if root.status == UNBOUNDED:
        return MilpResult(UNBOUNDED, None, None, nodes)
    if root.status != OPTIMAL:
        return MilpResult(INFEASIBLE, None, None, nodes)
    if rounding is not None and fractional(root.x):
        vals = np.asarray(rounding(root.x), dtype=float)
        if not np.all((lo[int_vars] <= vals) & (vals <= hi[int_vars])
                      & (vals == np.round(vals))):
            raise ValueError(f"rounding gave {vals}, not integral values "
                             "inside the integer variables' bounds")
        lo_f, hi_f = lo.copy(), hi.copy()
        lo_f[int_vars] = hi_f[int_vars] = vals
        nodes += 1
        leaf = child(root, list(zip(int_vars, vals, vals)), lo_f, hi_f)
        if (leaf.status == OPTIMAL
                and leaf.objective - 1e-9 <= root.objective):
            x = leaf.x.copy()
            x[int_vars] = vals
            return MilpResult(OPTIMAL, x, leaf.objective, nodes)

    best_val = math.inf
    best_x = None
    tick = itertools.count()
    heap = [(root.objective, -next(tick), root, lo, hi)]
    while heap:
        bound, _, rel, lo_n, hi_n = heapq.heappop(heap)
        if bound >= best_val - 1e-9:
            break
        x = rel.x
        off = fractional(x)
        if not off:
            best_val = bound
            best_x = x.copy()
            best_x[int_vars] = np.round(best_x[int_vars])
            continue
        j = max(off, key=lambda k: min(x[k] - math.floor(x[k]),
                                       math.ceil(x[k]) - x[k]))
        split = math.floor(x[j])
        for child_lo, child_hi in ((split + 1.0, hi_n[j]), (lo_n[j], split)):
            if child_lo > child_hi:
                continue
            if nodes >= _NODE_LIMIT:
                raise MilpTimeout(
                    f"node limit {_NODE_LIMIT} reached (best bound {bound:.6g})"
                )
            lo_c, hi_c = lo_n.copy(), hi_n.copy()
            lo_c[j], hi_c[j] = child_lo, child_hi
            nodes += 1
            sub = child(rel, [(j, lo_c[j], hi_c[j])], lo_c, hi_c)
            if sub.status == OPTIMAL and sub.objective < best_val - 1e-9:
                heapq.heappush(heap, (sub.objective, -next(tick), sub, lo_c, hi_c))

    if best_x is None:
        return MilpResult(INFEASIBLE, None, None, nodes)
    return MilpResult(OPTIMAL, best_x, best_val, nodes)
