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
independent. It works in the rows E = G L^-T (H = L L'), where
E_A E_A' = G_A H^-1 G_A', and each set carries a factorization updated
from its parent's by one classical Gram-Schmidt step with one
reorthogonalisation (Giraud, Langou, Rozloznik & van den Eshof 2005),
bordered as in Golub & Van Loan, Matrix Computations, 6.5: E_A = R_A' Q_A
with R_A^-1, and D_A = L^-T Q_A' R_A^-T P_A - H^-1 F' with P = S + G H^-1 F'
(see _piece_slopes). Three bounds follow with no per-set SVD:

    sigma_min(G_A) >= sqrt(lambda_min(H)) / ||R_A^-1||_F,
    sigma_min(G_A) <= sqrt(lambda_max(H)) rho, rho the new row's residual,
    c_A = ||E_A||_F^2 ||R_A^-1||_F^2 >= cond(G_A H^-1 G_A').

The first two decide independence wherever they clear the rank tolerance
by a factor of two, and the singular values decide the rest, so every
verdict is the SVD's. With c_A they bound each slope by
||D_A||_F (1 + 2 k c_A eps) plus a term k c_A eps (||T_A||_F + ||H^-1 F'||_F)
for the cancellation in D_A. Only a set with c_A > 1e8, or whose bound
reaches the floor, gets its exact slope from a Gram solve, cond and a
2-norm (_exact_slopes). The candidates, their slopes and their order are
those of plain enumeration, bitwise.
glc_estimate is the closed form alone. It is cheap but uncertified: it
replaces lambda_min(G_A H^-1 G_A') with the smallest per-row curvature,
which holds only for single rows or rows orthogonal in the H^-1 metric, so
nearly parallel active rows can be steeper than it. A diagonal row scaling
leaves the minimizer, and so every piece, unchanged but can tighten the
closed form.
"""

from dataclasses import dataclass
from typing import NamedTuple

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


def _curvatures(p: MpQp) -> np.ndarray:
    """The row curvatures G_j H^-1 G_j'. Raises DegenerateRow, naming the
    rows, where one is numerically zero: at most 1e-10 times
    ||G_j||^2 / ||H||_F, below the least a row of that norm can have,
    ||G_j||^2 / ||H||_2. Scaling a row, or H and F together, leaves the
    verdict unchanged."""
    quads = p.g_quads
    flat = np.flatnonzero(quads <= 1e-10 * p.g_row_norms**2 / np.linalg.norm(p.H))
    if flat.size:
        raise DegenerateRow(
            f"rows {[int(j) + 1 for j in flat]} have numerically zero "
            f"curvature G_j H^-1 G_j' (least {quads[flat].min():.3e})")
    return quads


def glc_estimate(p: MpQp) -> GlcReport:
    """Closed-form estimate ||H^-1 F'|| + ||H^-1 G'|| ||S + G H^-1 F'|| / q_min.

    q_min is the smallest row curvature G_j H^-1 G_j'. Uncertified: a piece
    whose active rows are nearly parallel can be steeper. Meant for problems
    too large for glc's enumeration, with trimmed results checked end to end.
    """
    quads = _curvatures(p)
    min_quad = float(quads.min()) if quads.size else np.inf
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
    smaller with rank-one updates of a factorization E_A = R_A' Q_A, so the
    cost is exponential in that size; glc_estimate is the by-name fallback
    where that is out of reach. sqrt(lambda_min(H)) / ||R_A^-1||_F and
    sqrt(lambda_max(H)) rho bound sigma_min(G_A) from below and above, and
    decide independence where they clear the rank tolerance by a factor of
    two; c_A = ||E_A||_F^2 ||R_A^-1||_F^2 bounds cond(G_A H^-1 G_A'). Only
    the sets with c_A > 1e8, or whose slope bound
    ||D_A||_F (1 + 2 k c_A eps) + k c_A eps (||T_A||_F + ||H^-1 F'||_F),
    the second term for the cancellation in D_A = T_A - H^-1 F', reaches
    the estimate get their exact slope. Rows with ||G||_inf < 1 are
    searched scaled by a power of two (_unit_rows), so that the rank
    tolerance is relative to them. Raises DegenerateRow, naming the rows,
    when a row has zero curvature or an independent set's Gram matrix
    cannot be factored.
    """
    report = glc_estimate(p)
    piece = _steepest_piece(_unit_rows(p), report.kappa)
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


def _unit_rows(p: MpQp) -> MpQp:
    """p with G, S and w multiplied by the power of two that brings
    ||G||_inf into [1, 2), when it is below 1. Scaling the rows leaves
    every piece unchanged, and a power of two every rounding too, so the
    search finds p's slopes bitwise; but rank_tol(G), 1e-10 (||G||_inf + 1),
    is then relative to the rows, where on small rows it would call
    independent sets dependent."""
    norm = np.linalg.norm(p.G, np.inf)
    if not 0.0 < norm < 1.0:
        return p
    return p.scaled(np.full(p.n_c, np.ldexp(1.0, 1 - np.frexp(norm)[1])))


def _exact_slopes(p: MpQp, sets: np.ndarray) -> np.ndarray:
    """||D_A||_2 (1 + k cond(G_A H^-1 G_A') eps) of a stack of independent
    0-based row sets (m x k), from a Gram solve, cond and a 2-norm: the
    exact path, each slope raised by the relative accuracy the Gram
    solve can lose. Raises DegenerateRow, naming the rows, when a Gram
    matrix cannot be factored."""
    p_rows = p.slack_map
    g_a = p.G[sets]                                   # m x k x n_z
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
    rounding = sets.shape[1] * np.linalg.cond(gram) * np.finfo(float).eps
    return np.linalg.norm(d_a, ord=2, axis=(1, 2)) * (1.0 + rounding)


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


class _Grown(NamedTuple):
    """Independent k-row sets A (0-based, m x k), each with the
    factorization it was grown with: E_A = R_A' Q_A, Q_A with orthonormal
    rows (m x k x n_z), R_A^-1 (m x k x k), W_A = R_A^-T P_A (m x k x n_x),
    T_A = L^-T Q_A' W_A (m x n_z x n_x), ||E_A||_F^2 and ||R_A^-1||_F^2."""

    sets: np.ndarray
    q: np.ndarray
    r_inv: np.ndarray
    w: np.ndarray
    t: np.ndarray
    e2: np.ndarray
    r2: np.ndarray


def _piece_slopes(p: MpQp, parent: _Grown, at: np.ndarray, row: np.ndarray,
                  lam: np.ndarray, keep: bool):
    """Extend each set parent.sets[at] by the row beside it: (the
    independent children as a _Grown, or None unless keep; their sets;
    c_A; a bound on each slope ||D_A||_2).

    Classical Gram-Schmidt with one reorthogonalisation gives c = Q_A e_r
    and res = e_r - Q_A' c, rho = ||res||. R^-1 is bordered by
    -R_A^-1 c / rho and 1 / rho, W gains the row w = (P_r - c' W_A) / rho
    and T the rank-one term (L^-T res / rho) w'. With lam = (lam_min,
    lam_max) of H, widened by their rounding, three bounds follow:

        sigma_min(G_A) >= sqrt(lam_min) / ||R_A^-1||_F,
        sigma_min(G_A) <= sqrt(lam_max) rho,
        c_A = ||E_A||_F^2 ||R_A^-1||_F^2 >= cond(G_A H^-1 G_A').

    A set is independent when the first exceeds 2 rank_tol(G) and
    dependent when the second, rho raised by its rounding 4 k eps ||e_r||,
    is below half of it; only the sets between get singular values, so
    every verdict is the SVD's. The slope bound

        (||D_A||_F (1 + 2 k c_A eps) + k c_A eps (||T_A||_F + ||H^-1 F'||_F))
        (1 + 1e-12),  D_A = T_A - H^-1 F',

    holds the exact path's slope above it wherever c_A <= 1e8: the first
    term covers the relative rounding of either path, the second the
    cancellation in T_A - H^-1 F', which leaves only rounding noise on
    both paths at a zero-slope piece.
    """
    e = p.g_lt[row]
    qa = parent.q[at]
    c = np.einsum("mkz,mz->mk", qa, e)
    res = e - np.einsum("mk,mkz->mz", c, qa)
    c2 = np.einsum("mkz,mz->mk", qa, res)
    res -= np.einsum("mk,mkz->mz", c2, qa)
    c += c2
    rho = np.sqrt(np.einsum("mz,mz->m", res, res))
    k, eps = qa.shape[1] + 1, np.finfo(float).eps
    rho_err = 4 * k * eps * np.sqrt(p.g_quads[row])
    rc = np.einsum("mij,mj->mi", parent.r_inv[at], c)
    tol = rank_tol(p.G)
    with np.errstate(divide="ignore"):
        r2 = parent.r2[at] + (np.einsum("mi,mi->m", rc, rc) + 1.0) / rho**2
    indep = lam[0] / r2 > 4.0 * tol**2
    band = ~indep & (np.sqrt(lam[-1]) * (rho + rho_err) >= 0.5 * tol)
    if band.any():
        g_band = p.G[np.column_stack([parent.sets[at[band]], row[band]])]
        indep[band] = np.linalg.svd(g_band, compute_uv=False)[:, -1] > tol
    if not indep.all():
        at, row, e, qa = at[indep], row[indep], e[indep], qa[indep]
        c, rc, rho, r2, res = c[indep], rc[indep], rho[indep], r2[indep], res[indep]
    sets = np.column_stack([parent.sets[at], row])
    rho = rho[:, None]
    q = res / rho
    w = (p.slack_map[row] - np.einsum("mk,mkx->mx", c, parent.w[at])) / rho
    t = parent.t[at] + (q @ p.l_inv)[:, :, None] * w[:, None, :]
    d = t - p.hi_ft
    e2 = parent.e2[at] + p.g_quads[row]
    c_a = e2 * r2
    fro_t = np.sqrt(np.einsum("mij,mij->m", t, t))
    fro_d = np.sqrt(np.einsum("mij,mij->m", d, d))
    bound = (fro_d * (1.0 + 2 * k * c_a * eps)
             + k * c_a * eps * (fro_t + np.linalg.norm(p.hi_ft))) * (1.0 + 1e-12)
    if not keep:
        return None, sets, c_a, bound
    r_inv = np.zeros((len(sets), k, k))
    r_inv[:, :-1, :-1] = parent.r_inv[at]
    r_inv[:, :-1, -1] = -rc / rho
    r_inv[:, -1, -1] = 1.0 / rho[:, 0]
    return (_Grown(sets, np.concatenate([qa, q[:, None]], axis=1), r_inv,
                   np.concatenate([parent.w[at], w[:, None]], axis=1), t, e2, r2),
            sets, c_a, bound)


def _grown_sets(p: MpQp):
    """Every independent row set of size up to min(n_z, n_c) with its c_A
    and slope bound, a chunk at a time: yields (sets, c_a, bound).

    Each independent (k-1)-row set is extended by every larger row that is
    independent alone and, from three rows on, of each member as a pair;
    every skipped set has a dependent subset, so it is dependent (see the
    module docstring). The sets of each size come in lexicographic order,
    at most _CHUNK at a time, and only the sizes still to grow keep their
    factorizations.
    """
    n_c, last = p.n_c, min(p.n_z, p.n_c)
    # eigenvalues of H widened by their rounding
    lam = np.linalg.eigvalsh(p.H)[[0, -1]]
    lam += np.array([-1.0, 1.0]) * p.n_z * np.finfo(float).eps * lam[-1]
    grown = _Grown(np.zeros((1, 0), dtype=int), np.zeros((1, 0, p.n_z)),
                   np.zeros((1, 0, 0)), np.zeros((1, 0, p.n_x)),
                   np.zeros((1, p.n_z, p.n_x)), np.zeros(1), np.zeros(1))
    joins = np.ones((n_c, n_c), dtype=bool)
    for k in range(1, last + 1):
        after = np.arange(n_c) > (grown.sets[:, -1:] if k > 1 else -1)
        at, row = (joins[grown.sets].all(axis=1) & after).nonzero()
        children = []
        for start in range(0, len(at), _CHUNK):
            child, sets, c_a, bound = _piece_slopes(
                p, grown, at[start:start + _CHUNK], row[start:start + _CHUNK],
                lam, k < last)
            children.append(child)
            yield sets, c_a, bound
        if k == last or not children:
            return
        grown = _Grown(*map(np.concatenate, zip(*children)))
        if k <= 2:
            # joins[i, r]: row r may extend a set holding row i; after one
            # row, when r is independent, and from two rows on, when the
            # pair {i, r} is
            joins = np.zeros((n_c, n_c), dtype=bool)
            joins[grown.sets[:, 0] if k == 2 else slice(None), grown.sets[:, -1]] = True


def _steepest_piece(p: MpQp, floor: float):
    """Steepest realizable piece steeper than floor, as (slope, 1-based rows).

    A set gets its exact slope (_exact_slopes) only when c_A > 1e8 or its
    bound from _piece_slopes reaches floor; the others cannot pass it.
    Realizability costs an LP, so candidates are tried steepest first, ties
    in lexicographic order, and the first realizable one is the answer.
    Excess at rounding level over floor is not counted as a steeper piece.
    """
    floor = floor * (1.0 + 1e-12)
    candidates = []
    for sets, c_a, bound in _grown_sets(p):
        steep = sets[(c_a > 1e8) | (bound > floor)]
        if len(steep):
            slopes = _exact_slopes(p, steep)
            above = slopes > floor
            candidates.extend(zip(slopes[above].tolist(), steep[above]))
    candidates.sort(key=lambda c: -c[0])
    p_rows = p.slack_map
    for slope, rows in candidates:
        if _realizable(p, p_rows, rows):
            return float(slope), [int(r) + 1 for r in rows]
    return None


def phi_default(p: MpQp) -> np.ndarray:
    """Equalizing row weights (G_j H^-1 G_j')^(-1/2)."""
    return 1.0 / np.sqrt(_curvatures(p))


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
