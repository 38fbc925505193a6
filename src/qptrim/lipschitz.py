"""Lipschitz constants for the minimizer map z*(x) of a strictly convex mp-QP.

For every constraint subset I the map z*(x; I) is piecewise affine. Each
piece is the equality-constrained minimizer over a linearly independent row
set A with positive multipliers, and its slope is the norm of

    D_A = -H^-1 F' + H^-1 G_A' (G_A H^-1 G_A')^-1 (S_A + G_A H^-1 F').

A constant valid for every subset must dominate every realizable piece. A
row set that is active for some subset I is also active for the subset
I = A itself, so realizability is decided on that problem alone.

glc certifies the constant: it searches the row sets with
|A| <= min(n_z, n_c) and returns the larger of the closed-form estimate and
the steepest realizable piece. Its cost is exponential in min(n_z, n_c).
The search grows the k-row sets from the independent (k-1)-row sets only,
adding a row only where it is independent of each member as a pair: by
interlacing, sigma_min([G_A; g_r]) <= sigma_min(G_A), so no skipped set is
independent. It then bounds each set's slope from the singular values the
independence test already has, and forms the exact slope, two more SVDs,
only where the bound reaches the floor (see _piece_slopes). The candidates,
their slopes and their order are those of plain enumeration, bitwise.
glc_estimate is the closed form alone. It is cheap but uncertified: it
replaces lambda_min(G_A H^-1 G_A') with the smallest per-row curvature,
which holds only for single rows or rows orthogonal in the H^-1 metric, so
nearly parallel active rows can be steeper than it. A diagonal row scaling
leaves the minimizer, and so every piece, unchanged but can tighten the
closed form.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import spectral_norm
from .mpqp import IndexSet, MpQp
from .qpsolver import qp_solve
from .simplex import OPTIMAL as LP_OPTIMAL
from .simplex import lp_solve
from .tolerances import KKT, rank_tol
from .trim import check_kappa

# row sets evaluated per batched slope computation
_CHUNK = 20_000


class DegenerateRow(Exception):
    """A constraint row has (numerically) zero curvature G_j H^-1 G_j', or
    a row set that passes the rank tolerance has a Gram matrix
    G_A H^-1 G_A' that cannot be factored; the message names the rows."""


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
    n_sp = spectral_norm(p.slack_map)
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
    parameter and subset. Visits every linearly independent row set of
    size up to min(n_z, n_c), grown from the independent sets one row
    smaller, so the cost is exponential in that size; glc_estimate is the
    by-name fallback where that is out of reach. Only the sets whose slope
    bound ||D_A||_F (1 + 2 k c eps), c = cond(G_A)^2 cond(H), reaches the
    estimate get their exact slope. Raises DegenerateRow, naming the rows,
    when a row has zero curvature or an independent set's Gram matrix
    cannot be factored.
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


def _piece_slopes(p: MpQp, p_rows: np.ndarray, sets: np.ndarray,
                  floor: float, cond_h: float):
    """The independent sets of a stack of 0-based row sets (m x k), and
    the slopes ||D_A|| above floor with their sets.

    Linearly dependent sets carry no piece and are dropped. Solving with
    the Gram matrix loses up to about cond(G_A H^-1 G_A') * eps relative
    accuracy, so each slope is raised by k times that much to stay an upper
    bound. The exact slope costs two more SVDs per set, so it is formed
    only where it can pass floor: cond(G_A H^-1 G_A') <= c with
    c = cond(G_A)^2 cond(H), from the singular values the independence
    test already has, and ||D_A||_2 <= ||D_A||_F. A set with c <= 1e8 and
    ||D_A||_F (1 + 2 k c eps) (1 + 1e-12) <= floor would fall below floor
    too, the two factors covering the rounding of c and of both norms.
    """
    g_a = p.G[sets]                                   # m x k x n_z
    sv = np.linalg.svd(g_a, compute_uv=False)
    indep = sv[:, -1] > rank_tol(p.G)
    sets, g_a, sv = sets[indep], g_a[indep], sv[indep]
    y_a = p.hi_gt.T[sets]                             # rows of G_A H^-1
    gram = g_a @ y_a.transpose(0, 2, 1)
    try:
        solved = np.linalg.solve(gram, p_rows[sets])
    except np.linalg.LinAlgError:
        for rows, g in zip(sets, gram):
            try:
                np.linalg.solve(g, p_rows[rows])
            except np.linalg.LinAlgError:
                raise DegenerateRow(
                    f"rows {[int(r) + 1 for r in rows]} are independent "
                    "within the rank tolerance, but their Gram matrix "
                    "G_A H^-1 G_A' is singular") from None
        raise
    d_a = y_a.transpose(0, 2, 1) @ solved - p.hi_ft
    k, eps = sets.shape[1], np.finfo(float).eps
    c = (sv[:, 0] / sv[:, -1]) ** 2 * cond_h
    bound = (np.linalg.norm(d_a, axis=(1, 2)) * (1.0 + 2 * k * c * eps)
             * (1.0 + 1e-12))
    exact = (c > 1e8) | (bound > floor)
    gram, d_a, steep = gram[exact], d_a[exact], sets[exact]
    rounding = k * np.linalg.cond(gram) * eps
    slopes = np.linalg.norm(d_a, ord=2, axis=(1, 2)) * (1.0 + rounding)
    above = slopes > floor
    return sets, slopes[above], steep[above]


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
    return res.status == LP_OPTIMAL and res.x[-1] > KKT


def _steepest_piece(p: MpQp, floor: float):
    """Steepest realizable piece steeper than floor, as (slope, 1-based rows).

    Each independent (k-1)-row set is extended by every larger row that is
    independent alone and, from three rows on, of each member as a pair;
    every skipped set has a dependent subset, so it is dependent (see the
    module docstring). The sets stay in lexicographic order. Slopes are
    batched, at most _CHUNK sets at a time; realizability costs an LP, so
    candidates are tried steepest first, ties in that order, and the first
    realizable one is the answer. Excess at rounding level over floor is
    not counted as a steeper piece.
    """
    p_rows = p.slack_map
    floor = floor * (1.0 + 1e-12)
    cond_h = np.linalg.cond(p.H)
    candidates = []
    sets = np.arange(p.n_c)[:, None]
    for k in range(1, min(p.n_z, p.n_c) + 1):
        if k > 1:
            grow = joins[sets].all(axis=1) & (np.arange(p.n_c) > sets[:, -1:])
            at, row = grow.nonzero()
            sets = np.column_stack([sets[at], row])
            if not len(sets):
                break
        found = []
        for start in range(0, len(sets), _CHUNK):
            indep, slopes, steep = _piece_slopes(
                p, p_rows, sets[start:start + _CHUNK], floor, cond_h)
            found.append(indep)
            candidates.extend(zip(slopes.tolist(), steep))
        sets = np.concatenate(found)
        if k <= 2:
            # joins[i, r]: row r may extend a set holding row i; after one
            # row, when r is independent, and from two rows on, when the
            # pair {i, r} is
            joins = np.zeros((p.n_c, p.n_c), dtype=bool)
            joins[sets[:, 0] if k == 2 else slice(None), sets[:, -1]] = True
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


def check_kappa_spec(spec) -> None:
    """Raise ValueError unless spec is a key of KAPPA_FORMULAS or a finite,
    nonnegative number; the message names the keys."""
    if isinstance(spec, str) and spec in KAPPA_FORMULAS:
        return
    try:
        kappa = float(spec)
    except (TypeError, ValueError):
        raise ValueError(f"kappa {spec!r} is neither a number nor one of "
                         f"{', '.join(KAPPA_FORMULAS)}") from None
    check_kappa(kappa)


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
) -> float:
    """Largest observed ratio ||z*(x1,I) - z*(x2,I)|| / ||x1 - x2||.

    Parameters are drawn uniformly from the given box (a (lo, hi) pair or
    per-dimension pairs); each trial also draws a random constraint subset
    including every index with probability one half. Trials where either
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
        keep = IndexSet(np.flatnonzero(rng.random(p.n_c) < 0.5) + 1)
        s1 = qp_solve(p, x1, keep)
        s2 = qp_solve(p, x2, keep)
        if not (s1.is_optimal and s2.is_optimal):
            continue
        ratio = np.linalg.norm(s1.z_star - s2.z_star) / gap
        best = ratio if best is None else max(best, ratio)
    if best is None:
        raise NoValidTrials(f"no valid pair in {trials} trials")
    return float(best)
