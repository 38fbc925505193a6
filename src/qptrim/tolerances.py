"""Shared numerical tolerances.

Every feasibility / activity / stationarity test in the package scales its
base tolerance by (1 + relevant norm), so the constants here are relative.
A point of a QP is feasible when no row is violated by more than
feas_tol(b) of the right-hand sides b; a row's activity band is
MpQp.act_band.
"""

import numpy as np

FEAS = 1e-8   # constraint violation
ACT = 1e-7    # active-set membership (slack magnitude)
KKT = 1e-7    # stationarity / multiplier sign
IMPLIED = 1e-9  # a row the other rows hold to within this is redundant


def feas_tol(b) -> float:
    """FEAS * (1 + max|b|), at least FEAS: the largest violation a
    feasible point may show on any row, for the solver and every check."""
    return FEAS * (1.0 + np.abs(b).max(initial=0.0))


def rank_tol(a: np.ndarray) -> float:
    """Rank / pivot tolerance for a matrix: 1e-10 * (inf-norm + 1)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        return 1e-10
    return 1e-10 * (np.linalg.norm(a, np.inf) + 1.0)
