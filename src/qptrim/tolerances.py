"""Shared numerical tolerances.

Every feasibility / activity / stationarity test in the package scales its
base tolerance by (1 + relevant norm), so the constants here are relative.
The per-row bands of an mp-QP are MpQp.feas_band and MpQp.act_band.
"""

import numpy as np

FEAS = 1e-8   # constraint violation
ACT = 1e-7    # active-set membership (slack magnitude)
KKT = 1e-7    # stationarity / multiplier sign
IMPLIED = 1e-9  # a row the other rows hold to within this is redundant


def rank_tol(a: np.ndarray) -> float:
    """Rank / pivot tolerance for a matrix: 1e-10 * (inf-norm + 1)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        return 1e-10
    return 1e-10 * (np.linalg.norm(a, np.inf) + 1.0)
