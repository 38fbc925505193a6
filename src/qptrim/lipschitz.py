"""Lipschitz constants for the minimizer map z*(x) of a strictly convex mp-QP.

For every constraint subset I the map z*(x; I) is piecewise affine. Each
piece is the equality-constrained minimizer over a linearly independent row
set A with positive multipliers, and its slope is the norm of

    D_A = -H^-1 F' + H^-1 G_A' (G_A H^-1 G_A')^-1 (S_A + G_A H^-1 F').

A constant valid for every subset must dominate every realizable piece. A
row set that is active for some subset I is also active for the subset
I = A itself, so realizability is decided on that problem alone.

glc certifies the constant: it enumerates the row sets with
|A| <= min(n_z, n_c) and returns the larger of the closed-form estimate and
the steepest realizable piece. Its cost is exponential in min(n_z, n_c).
glc_estimate is the closed form alone. It is cheap but uncertified: it
replaces lambda_min(G_A H^-1 G_A') with the smallest per-row curvature,
which holds only for single rows or rows orthogonal in the H^-1 metric, so
nearly parallel active rows can be steeper than it. A diagonal row scaling
leaves the minimizer, and so every piece, unchanged but can tighten the
closed form.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import spectral_norm
from .mpqp import IndexSet, MpQp
from .qpsolver import qp_solve
from .simplex import OPTIMAL as LP_OPTIMAL
from .simplex import lp_solve
from .tolerances import DEFAULT, rank_tol

# row sets evaluated per batched slope computation
_CHUNK = 20_000


class DegenerateRow(Exception):
    """A constraint row has (numerically) zero curvature G_j H^-1 G_j'."""


class NoValidTrials(Exception):
    """Empirical estimation found no usable parameter pair."""


@dataclass
class GlcReport:
    """Lipschitz constant with its assembly terms for auditability.

    kappa = term_unconstrained + norm_HinvGt * norm_S_plus / denom_min_quad.
    steepest_piece names the realizable piece ({"rows", "slope"}, 1-based
    rows) that set kappa when it beats the closed form; denom_min_quad is
    then the curvature floor lowered just enough to cover that slope.
    """

    kappa: float
    terms: dict
    scaling_used: np.ndarray | None = None
    steepest_piece: dict | None = None

    def to_dict(self) -> dict:
        out = {"kappa": self.kappa, "terms": dict(self.terms)}
        out["scaling_used"] = (
            None if self.scaling_used is None else np.asarray(self.scaling_used).tolist()
        )
        out["steepest_piece"] = (
            None if self.steepest_piece is None else dict(self.steepest_piece)
        )
        return out


def glc_estimate(p: MpQp) -> GlcReport:
    """Closed-form estimate ||H^-1 F'|| + ||H^-1 G'|| ||S + G H^-1 F'|| / q_min.

    q_min is the smallest row curvature G_j H^-1 G_j'. Uncertified: a piece
    whose active rows are nearly parallel can be steeper. Meant for problems
    too large for glc's enumeration, with trimmed results checked end to end.
    """
    quads = p.g_quads
    min_quad = float(quads.min()) if quads.size else np.inf
    if quads.size and min_quad <= rank_tol(p.G):
        raise DegenerateRow(
            f"row curvature min G_j H^-1 G_j' = {min_quad:.3e} is numerically zero"
        )
    term_u = spectral_norm(p.hi_ft)
    n_hg = spectral_norm(p.hi_gt)
    n_sp = spectral_norm(p.S + p.G @ p.hi_ft)
    kappa = term_u if not quads.size else term_u + n_hg * n_sp / min_quad
    return GlcReport(
        kappa=float(kappa),
        terms={
            "term_unconstrained": float(term_u),
            "denom_min_quad": float(min_quad) if quads.size else None,
            "norm_HinvGt": float(n_hg),
            "norm_S_plus": float(n_sp),
        },
    )


def glc(p: MpQp) -> GlcReport:
    """Certified Lipschitz constant valid for every constraint subset.

    The larger of glc_estimate and the steepest piece realizable for some
    parameter and subset. Enumerates every linearly independent row set of
    size up to min(n_z, n_c), so the cost is exponential in that size;
    glc_estimate is the by-name fallback where that is out of reach.
    """
    report = glc_estimate(p)
    piece = _steepest_piece(p, report.kappa)
    if piece is not None:
        slope, rows = piece
        terms = report.terms
        terms["denom_min_quad"] = (
            terms["norm_HinvGt"] * terms["norm_S_plus"]
            / (slope - terms["term_unconstrained"])
        )
        report.kappa = slope
        report.steepest_piece = {"rows": rows, "slope": slope}
    return report


def _piece_slopes(p: MpQp, p_rows: np.ndarray, sets: np.ndarray):
    """Slopes ||D_A|| for a stack of 0-based row sets (m x k).

    Returns the slopes and the sets they belong to; linearly dependent sets
    carry no piece and are dropped. Solving with the Gram matrix loses up to
    about cond(G_A H^-1 G_A') * eps relative accuracy, so each slope is
    raised by k times that much to stay an upper bound.
    """
    g_a = p.G[sets]                                   # m x k x n_z
    indep = np.linalg.svd(g_a, compute_uv=False)[:, -1] > rank_tol(p.G)
    sets, g_a = sets[indep], g_a[indep]
    y_a = p.hi_gt.T[sets]                             # rows of G_A H^-1
    gram = g_a @ y_a.transpose(0, 2, 1)
    d_a = y_a.transpose(0, 2, 1) @ np.linalg.solve(gram, p_rows[sets]) - p.hi_ft
    rounding = sets.shape[1] * np.linalg.cond(gram) * np.finfo(float).eps
    return np.linalg.norm(d_a, ord=2, axis=(1, 2)) * (1.0 + rounding), sets


def _realizable(p: MpQp, p_rows: np.ndarray, rows: np.ndarray) -> bool:
    """Whether rows are the active set of the subset problem I = rows.

    The multipliers lambda(x) = -(R x + c) are affine in x. An LP maximizes
    the smallest normalized multiplier t (capped at 1) over free x; the
    piece is realizable when t exceeds the multiplier-sign tolerance.
    """
    g_a = p.G[rows]
    gram = g_a @ p.hi_gt[:, rows]
    rc = np.linalg.solve(gram, np.column_stack([p_rows[rows], p.w[rows]]))
    norms = np.linalg.norm(rc, axis=1)
    if np.any(norms == 0.0):
        return False
    rc /= norms[:, None]
    C = np.column_stack([rc[:, :-1], np.ones(len(rows))])
    cost = np.zeros(p.n_x + 1)
    cost[-1] = -1.0
    bounds = [(None, None)] * p.n_x + [(None, 1.0)]
    res = lp_solve(cost, C, -rc[:, -1], bounds=bounds)
    return res.status == LP_OPTIMAL and res.x[-1] > DEFAULT.kkt


def _steepest_piece(p: MpQp, floor: float):
    """Steepest realizable piece steeper than floor, as (slope, 1-based rows).

    Slopes are cheap and batched; realizability costs an LP, so candidates
    are tried steepest first and the first realizable one is the answer.
    Excess at rounding level over floor is not counted as a steeper piece.
    """
    p_rows = p.S + p.G @ p.hi_ft
    floor = floor * (1.0 + 1e-12)
    candidates = []
    for k in range(1, min(p.n_z, p.n_c) + 1):
        combos = itertools.combinations(range(p.n_c), k)
        while True:
            sets = np.array(list(itertools.islice(combos, _CHUNK)), dtype=int)
            if not sets.size:
                break
            slopes, sets = _piece_slopes(p, p_rows, sets)
            steep = slopes > floor
            candidates.extend(zip(slopes[steep].tolist(), sets[steep]))
    candidates.sort(key=lambda c: -c[0])
    for slope, rows in candidates:
        if _realizable(p, p_rows, rows):
            return float(slope), [int(r) + 1 for r in rows]
    return None


def phi_default(p: MpQp) -> np.ndarray:
    """Equalizing row weights (G_j H^-1 G_j')^(-1/2)."""
    quads = p.g_quads
    if np.any(quads <= rank_tol(p.G)):
        raise DegenerateRow("cannot scale rows with numerically zero curvature")
    return 1.0 / np.sqrt(quads)


def glc_scaled(p: MpQp) -> GlcReport:
    """Certified constant after the equalizing row scaling phi_default.

    Row scaling changes neither the minimizer nor any piece's slope, so the
    constant is certified for the original problem too; only the closed-form
    part, which glc takes the maximum with, can tighten.
    """
    phi = phi_default(p)
    report = glc(p.scaled(phi))
    report.scaling_used = phi
    return report


def glc_scaled_estimate(p: MpQp) -> GlcReport:
    """glc_estimate after the equalizing row scaling phi_default. Uncertified."""
    phi = phi_default(p)
    report = glc_estimate(p.scaled(phi))
    report.scaling_used = phi
    return report


# closed-form estimates that a kappa spec can name instead of a number
KAPPA_FORMULAS = {"formula": glc_estimate, "scaled-formula": glc_scaled_estimate}


def resolve_kappa(spec, p: MpQp) -> float:
    """The constant a kappa spec names: a key of KAPPA_FORMULAS, whose
    estimate of p gives it, or a number."""
    if spec in KAPPA_FORMULAS:
        return KAPPA_FORMULAS[spec](p).kappa
    return float(spec)


def empirical_lipschitz(
    p: MpQp,
    trials: int,
    seed: int,
    box=(-5.0, 5.0),
    subset_prob: float = 0.5,
) -> float:
    """Largest observed ratio ||z*(x1,I) - z*(x2,I)|| / ||x1 - x2||.

    Parameters are drawn uniformly from the given box (a (lo, hi) pair or
    per-dimension pairs); each trial also draws a random constraint subset
    including every index with probability subset_prob. Trials where either
    trimmed problem is infeasible, or the parameters nearly coincide, are
    skipped. Raises NoValidTrials when nothing usable was drawn.
    """
    rng = np.random.default_rng(seed)
    box = np.asarray(box, dtype=float)
    if box.ndim == 1:
        box = np.tile(box, (p.n_x, 1))
    if box.shape != (p.n_x, 2):
        raise ValueError(f"box shape {box.shape} does not match n_x={p.n_x}")
    best = None
    for _ in range(trials):
        x1 = rng.uniform(box[:, 0], box[:, 1])
        x2 = rng.uniform(box[:, 0], box[:, 1])
        gap = np.linalg.norm(x1 - x2)
        if gap < 1e-9:
            continue
        keep = IndexSet(np.flatnonzero(rng.random(p.n_c) < subset_prob) + 1)
        s1 = qp_solve(p, x1, keep)
        s2 = qp_solve(p, x2, keep)
        if not (s1.is_optimal and s2.is_optimal):
            continue
        ratio = np.linalg.norm(s1.z_star - s2.z_star) / gap
        best = ratio if best is None else max(best, ratio)
    if best is None:
        raise NoValidTrials(f"no valid pair in {trials} trials")
    return float(best)
