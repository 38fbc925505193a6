"""Dense linear-algebra kernels: Cholesky, spectral norm, ZOH discretization.

All matrices are plain 2-D float64 numpy arrays (row-major). Deliberately no
sparse or iterative machinery: problems here are desk scale.
"""

import numpy as np
from scipy.linalg import expm

from .tolerances import rank_tol


class NotPositiveDefinite(Exception):
    """Raised when a Cholesky pivot falls at or below the rank tolerance."""


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {m.shape}")
    return m


def cholesky(a) -> np.ndarray:
    """Lower-triangular L with L @ L.T = a for symmetric positive definite a.

    Raises NotPositiveDefinite when LAPACK's factorization fails or any
    pivot L[j, j]**2 is <= the rank tolerance 1e-10 * (inf-norm + 1), so
    "numerically semidefinite" inputs are rejected rather than silently
    factored.
    """
    a = _as_matrix(a)
    n, m = a.shape
    if n != m:
        raise ValueError(f"matrix must be square, got {a.shape}")
    sym_slack = 1e-8 * (np.abs(a).max(initial=0.0) + 1.0)
    if n and np.abs(a - a.T).max() > sym_slack:
        raise ValueError("matrix is not symmetric within tolerance")
    try:
        L = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from None
    ptol = rank_tol(a)
    pivots = np.diag(L) ** 2
    low = np.flatnonzero(~(pivots > ptol))     # NaN counts as low
    if low.size:
        j = int(low[0])
        raise NotPositiveDefinite(
            f"pivot {pivots[j]:.3e} at column {j} is <= tolerance {ptol:.3e}"
        )
    return L


def spectral_norm(a) -> float:
    """Largest singular value; zero-sized or all-zero input gives 0."""
    a = _as_matrix(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def zoh_discretize(ac, bc, h: float):
    """Zero-order-hold discretization of x' = ac x + bc u at step h.

    Uses the augmented-matrix exponential
        expm([[ac, bc], [0, 0]] * h) = [[A, B], [0, I]],
    which handles singular ac (no inverse needed).
    """
    ac = _as_matrix(ac)
    bc = _as_matrix(bc)
    n = ac.shape[0]
    if ac.shape != (n, n):
        raise ValueError(f"ac must be square, got {ac.shape}")
    if bc.shape[0] != n:
        raise ValueError(f"bc has {bc.shape[0]} rows, expected {n}")
    if not (h > 0 and np.isfinite(h)):
        raise ValueError(f"step h must be positive and finite, got {h}")
    m = bc.shape[1]
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = ac
    aug[:n, n:] = bc
    phi = expm(aug * h)
    return phi[:n, :n].copy(), phi[:n, n:].copy()
