"""Lifted parameter-solution polyhedron and the ball-coverage thresholds.

Stacking parameter and decision variables as v = [x; z] turns the feasible
pairs of an mp-QP into a single polyhedron {v : H_lift v <= w} with
H_lift = [-S, G]. The threshold sigma_i is the largest ball radius r such
that, anywhere inside, at most i facet slack distances fall below r;
equivalently the infimum over v of the (i+1)-th smallest distance. It is
computed exactly by a small mixed-integer encoding, or bounded from above
by sampling. Both searches run over the polyhedron intersected with a
caller-supplied bounding box, since the lifted set need not be bounded for
a general mp-QP.
"""

import functools
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .milp import milp_solve
from .mpqp import MpQp, SolvedSample
from .simplex import INFEASIBLE, OPTIMAL, Relaxation, lp_solve
from .tolerances import feas_tol
from .trim import check_kappa


class NotInPolyhedron(Exception):
    """Query point violates the lifted constraints beyond tolerance."""


class NoFeasibleSamples(Exception):
    """Rejection sampling produced no point inside the polyhedron."""


class UnboundedLift(Exception):
    """No bounding box, or the box misses the polyhedron entirely."""


def _as_box(box, n_v):
    if box is None:
        return None
    arr = np.asarray(box, dtype=float)
    if arr.shape == (2,):
        arr = np.tile(arr, (n_v, 1))
    if arr.shape != (n_v, 2):
        raise ValueError(f"box shape {arr.shape}, expected ({n_v}, 2)")
    if not np.all(np.isfinite(arr)):
        raise ValueError("box must be finite")
    if np.any(arr[:, 0] > arr[:, 1]):
        raise ValueError("box has lo > hi")
    return arr


@dataclass(eq=False)
class LiftedPolyhedron:
    """Rows H_lift v <= w with per-row norms and an optional search box.

    `==` is identity, since the fields are arrays; `content_hash` is the
    value identity. Two searches are cached on the polyhedron, each run
    once: `big_m`, and the encoding of `sigma_milp` with its root
    relaxation solved cold.
    """

    H_lift: np.ndarray
    w: np.ndarray
    row_norms: np.ndarray = field(init=False)
    box: np.ndarray | None = None

    def __post_init__(self):
        self.H_lift = np.atleast_2d(np.asarray(self.H_lift, dtype=float))
        self.w = np.atleast_1d(np.asarray(self.w, dtype=float))
        if self.w.shape != (self.H_lift.shape[0],):
            raise ValueError(
                f"w has shape {self.w.shape} for {self.H_lift.shape[0]} rows"
            )
        self.row_norms = np.linalg.norm(self.H_lift, axis=1)
        if self.H_lift.shape[0] and self.row_norms.min() <= 0.0:
            bad = int(np.argmin(self.row_norms)) + 1
            raise ValueError(f"lifted row {bad} has zero norm")
        self.box = _as_box(self.box, self.n_v)

    @property
    def n_c(self) -> int:
        return self.H_lift.shape[0]

    @property
    def n_v(self) -> int:
        return self.H_lift.shape[1]

    @functools.cached_property
    def big_m(self) -> float:
        """A big-M wide enough to exempt any row anywhere in the box: the
        largest facet distance reachable there, plus 1. One LP per row, run
        once per polyhedron."""
        _require_box(self)
        box_pairs = [tuple(row) for row in self.box]
        worst = 0.0
        for j in range(self.n_c):
            res = lp_solve(self.H_lift[j] / self.row_norms[j], self.H_lift,
                           self.w, box_pairs)
            if res.status == INFEASIBLE:
                raise UnboundedLift("polyhedron does not meet the box")
            if res.status != OPTIMAL:
                raise ArithmeticError(f"big-M probe LP returned {res.status}")
            worst = max(worst, self.w[j] / self.row_norms[j] - res.objective)
        return worst + 1.0

    @functools.cached_property
    def _sigma_encoding(self):
        """(cost, rows, rhs, lo, hi, root) of `sigma_milp` over
        [v, r, delta, t], with the exemption budget t in [0, n_c-2] (its
        widest, at i = 1), and that relaxation solved cold as the root."""
        m = self.big_m
        n_c, n_v = self.n_c, self.n_v
        unit = self.H_lift / self.row_norms[:, None]
        wn = self.w / self.row_norms
        budget = np.zeros((1, n_v + 2 + n_c))
        budget[0, n_v + 1:] = 1.0
        budget[0, -1] = -1.0
        rows = np.vstack([
            # v stays in the polyhedron
            np.hstack([self.H_lift, np.zeros((n_c, 2 + n_c))]),
            # d_j(v) - m*delta_j <= r
            np.hstack([-unit, -np.ones((n_c, 1)), -m * np.eye(n_c),
                       np.zeros((n_c, 1))]),
            # r <= d_j(v) + m*(1 - delta_j)
            np.hstack([unit, np.ones((n_c, 1)), m * np.eye(n_c),
                       np.zeros((n_c, 1))]),
            # sum(delta) <= t
            budget,
        ])
        rhs = np.concatenate([self.w, -wn, wn + m, [0.0]])
        cost = np.zeros(n_v + 2 + n_c)
        cost[n_v] = 1.0
        lo = np.concatenate([self.box[:, 0], np.zeros(2 + n_c)])
        hi = np.concatenate([self.box[:, 1], [m], np.ones(n_c), [n_c - 2.0]])
        root = Relaxation(cost, rows, rhs, lo, hi).solve()
        return cost, rows, rhs, lo, hi, root

    def slacks(self, v) -> np.ndarray:
        v = np.atleast_1d(np.asarray(v, dtype=float))
        return self.w - self.H_lift @ v

    def distances(self, v) -> np.ndarray:
        """Signed distance from v to each facet half-space boundary."""
        return self.slacks(v) / self.row_norms

    def contains(self, v) -> bool:
        """Every slack w - H_lift v is at least -feas_tol(|w| + |H_lift| |v|).
        For a lift of an mp-QP, H_lift = [-S, G], so that bound is never
        below the solver's feas_tol(S x + w): a point the solver returned
        lies inside."""
        v = np.atleast_1d(np.asarray(v, dtype=float))
        band = feas_tol(np.abs(self.w) + np.abs(self.H_lift) @ np.abs(v))
        return bool(np.all(self.slacks(v) >= -band))

    def content_hash(self) -> str:
        h = hashlib.sha256()
        for arr in (self.H_lift, self.w):
            h.update(repr(arr.shape).encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        if self.box is None:
            h.update(b"nobox")
        else:
            h.update(np.ascontiguousarray(self.box).tobytes())
        return h.hexdigest()


def lift(p: MpQp, box=None) -> LiftedPolyhedron:
    """Stack [-S, G] row-wise; feasible (x, z) pairs land inside."""
    return LiftedPolyhedron(
        H_lift=np.hstack([-p.S, p.G]), w=p.w.copy(), box=box
    )


def lift_point(sample: SolvedSample) -> np.ndarray:
    """The stacked point v = [x_hat; z_star] of a solved sample."""
    return np.concatenate([sample.x_hat, sample.z_star])


def containment_count(L: LiftedPolyhedron, v, r: float) -> int:
    """How many facet half-spaces contain the closed ball B(v, r)."""
    if not L.contains(v):
        worst = float(L.distances(v).min())
        raise NotInPolyhedron(f"point is outside (worst distance {worst:.3e})")
    return int(np.count_nonzero(r <= L.distances(v)))


def _box_diagonal(L: LiftedPolyhedron) -> float:
    """The cap on every threshold: the search box's diagonal length."""
    return float(np.linalg.norm(L.box[:, 1] - L.box[:, 0]))


def _require_box(L: LiftedPolyhedron):
    if L.box is None:
        raise UnboundedLift("a bounding box on v is required")


def sigma_sample(
    L: LiftedPolyhedron,
    i: int,
    n_samples: int = 20000,
    seed: int = 0,
) -> float:
    """Upper bound on sigma_i: min over sampled interior points of the
    (i+1)-th smallest facet distance.

    Always >= the true threshold. For i >= n_c the defining condition is
    vacuous and the box diagonal is returned. An i or n_samples below 1
    raises ValueError.
    """
    _require_box(L)
    if i < 1:
        raise ValueError(f"i must be >= 1, got {i}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if i >= L.n_c:
        return _box_diagonal(L)
    rng = np.random.default_rng(seed)
    draws = rng.uniform(L.box[:, 0], L.box[:, 1], size=(n_samples, L.n_v))
    dist = (L.w[None, :] - draws @ L.H_lift.T) / L.row_norms[None, :]
    inside = np.all(dist >= 0.0, axis=1)
    if not inside.any():
        raise NoFeasibleSamples(
            f"no interior point among {n_samples} draws; box may barely "
            f"touch the polyhedron"
        )
    kth = np.partition(dist[inside], i, axis=1)[:, i]
    return float(kth.min())


def sigma_milp(L: LiftedPolyhedron, i: int) -> float:
    """Exact sigma_i over the boxed polyhedron.

    Encodes "at least i+1 distances do not exceed r" with one binary per
    row exempting it from the bound, a budget column t >= sum of the
    binaries held to at most n_c-i-1 exemptions, and a big-M wide enough
    to deactivate any row (`LiftedPolyhedron.big_m`). Strict inequalities
    in the encoding are relaxed to non-strict, which leaves the infimum
    unchanged. For i >= n_c the box diagonal is returned, as by
    sigma_sample.

    The root relaxation is solved cold once per polyhedron, with t's
    widest bound (i = 1); each i re-optimises that root after tightening
    t to n_c-i-1, so a value depends on L and i alone, not on which i ran
    before. The search then tries one rounding of its root: count the
    i+1 rows nearest to its v and exempt the rest. Where i+1 facets meet
    inside the box (sigma_i = 0) that leaf meets the root bound and ends
    the search at the root; otherwise the search runs as without it.
    """
    _require_box(L)
    if i < 1:
        raise ValueError(f"i must be >= 1, got {i}")
    if i >= L.n_c:
        return _box_diagonal(L)
    cost, rows, rhs, lo, hi, root = L._sigma_encoding
    n_c, n_v = L.n_c, L.n_v
    t = cost.size - 1
    hi = hi.copy()
    hi[t] = float(n_c - i - 1)

    def rounding(x):
        """Count the i+1 rows nearest to the relaxation's v, exempt the
        rest."""
        delta = np.ones(n_c)
        delta[np.argsort(L.distances(x[:n_v]), kind="stable")[:i + 1]] = 0.0
        return delta

    res = milp_solve(
        cost,
        rows,
        rhs,
        list(zip(lo, hi)),
        integer=range(n_v + 1, t),
        rounding=rounding,
        root_from=(root, [(t, 0.0, hi[t])]),
    )
    if not res.is_optimal:
        raise UnboundedLift(f"threshold search returned {res.status}")
    return float(max(res.objective, 0.0))


@dataclass
class SigmaTable:
    """Thresholds sigma_i for i = 1..i_max, nondecreasing in i."""

    sigma: dict
    method: str
    r_max: float

    def __post_init__(self):
        self.sigma = {int(k): float(v) for k, v in self.sigma.items()}
        keys = sorted(self.sigma)
        for a, b in zip(keys, keys[1:]):
            if self.sigma[b] < self.sigma[a]:
                raise ValueError(f"table not monotone at i={b}")
        if any(v < 0.0 for v in self.sigma.values()):
            raise ValueError("negative threshold")

    def to_dict(self) -> dict:
        return {
            "sigma": {str(k): v for k, v in sorted(self.sigma.items())},
            "method": self.method,
            "r_max": self.r_max,
        }

    def to_json(self, indent=None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def sigma_table(
    L: LiftedPolyhedron,
    i_max: int | None = None,
    mode: str = "milp",
    n_samples: int = 20000,
    seed: int = 0,
) -> SigmaTable:
    """Thresholds for i = 1..i_max (capped at n_c - 1, so the table is
    empty when n_c = 1); an i_max below 1 raises ValueError.

    Exact values are nondecreasing in i; tiny numerical dips from the
    search are clamped against the previous entry.
    """
    _require_box(L)
    if i_max is not None and i_max < 1:
        raise ValueError(f"i_max must be >= 1, got {i_max}")
    cap = L.n_c - 1
    i_max = cap if i_max is None else min(int(i_max), cap)
    if mode not in ("milp", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    values = {}
    prev = 0.0
    for i in range(1, i_max + 1):
        if mode == "milp":
            val = sigma_milp(L, i)
        else:
            val = sigma_sample(L, i, n_samples=n_samples, seed=seed)
        prev = max(val, prev)
        values[i] = prev
    return SigmaTable(sigma=values, method=mode, r_max=_box_diagonal(L))


def theorem3_bound(kappa: float, table: SigmaTable, dist: float, n_z: int):
    """Predicted cap n_z + i on the kept-set size, from the smallest i whose
    threshold covers the lifted ball; None when no table entry qualifies.
    A NaN, infinite or negative kappa, or a NaN or negative dist, raises
    ValueError."""
    check_kappa(kappa)
    if not dist >= 0.0:     # NaN fails the comparison
        raise ValueError(f"dist must be nonnegative, got {dist}")
    scale = float(np.sqrt(1.0 + float(kappa) ** 2))
    for i in sorted(table.sigma):
        if dist <= table.sigma[i] / scale:
            return int(n_z) + i
    return None
