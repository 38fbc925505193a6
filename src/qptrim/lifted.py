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

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .milp import milp_solve
from .mpqp import MpQp, SolvedSample
from .simplex import INFEASIBLE, OPTIMAL, lp_solve
from .tolerances import DEFAULT, Tolerances


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


@dataclass
class LiftedPolyhedron:
    """Rows H_lift v <= w with per-row norms and an optional search box."""

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

    def slacks(self, v) -> np.ndarray:
        v = np.atleast_1d(np.asarray(v, dtype=float))
        return self.w - self.H_lift @ v

    def distances(self, v) -> np.ndarray:
        """Signed distance from v to each facet half-space boundary."""
        return self.slacks(v) / self.row_norms

    def contains(self, v, tol: Tolerances = DEFAULT) -> bool:
        return bool(np.all(self.slacks(v) >= -tol.feas * (1.0 + np.abs(self.w))))

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

    def to_dict(self) -> dict:
        return {
            "H_lift": self.H_lift.tolist(),
            "w": self.w.tolist(),
            "box": None if self.box is None else self.box.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LiftedPolyhedron":
        return cls(H_lift=data["H_lift"], w=data["w"], box=data.get("box"))


def lift(p: MpQp, box=None) -> LiftedPolyhedron:
    """Stack [-S, G] row-wise; feasible (x, z) pairs land inside."""
    return LiftedPolyhedron(
        H_lift=np.hstack([-p.S, p.G]), w=p.w.copy(), box=box
    )


def lift_point(sample: SolvedSample) -> np.ndarray:
    """The stacked point v = [x_hat; z_star] of a solved sample."""
    return np.concatenate([sample.x_hat, sample.z_star])


def containment_count(L: LiftedPolyhedron, v, r: float, tol: Tolerances = DEFAULT) -> int:
    """How many facet half-spaces contain the closed ball B(v, r)."""
    if not L.contains(v, tol):
        worst = float(L.distances(v).min())
        raise NotInPolyhedron(f"point is outside (worst distance {worst:.3e})")
    return int(np.count_nonzero(r <= L.distances(v)))


def _default_r_max(L: LiftedPolyhedron) -> float:
    return float(np.linalg.norm(L.box[:, 1] - L.box[:, 0]))


def _require_box(L: LiftedPolyhedron):
    if L.box is None:
        raise UnboundedLift("a bounding box on v is required")


def sigma_sample(
    L: LiftedPolyhedron,
    i: int,
    n_samples: int = 20000,
    seed: int = 0,
    r_max: float | None = None,
) -> float:
    """Upper bound on sigma_i: min over sampled interior points of the
    (i+1)-th smallest facet distance.

    Always >= the true threshold. For i >= n_c the defining condition is
    vacuous and the r_max cap (default: box diagonal) is returned.
    """
    _require_box(L)
    if i < 1:
        raise ValueError(f"i must be >= 1, got {i}")
    r_max = _default_r_max(L) if r_max is None else float(r_max)
    if i >= L.n_c:
        return r_max
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


def _auto_big_m(L: LiftedPolyhedron) -> float:
    """One LP per row: the largest facet distance reachable in the box."""
    box_pairs = [tuple(row) for row in L.box]
    worst = 0.0
    for j in range(L.n_c):
        res = lp_solve(L.H_lift[j] / L.row_norms[j], L.H_lift, L.w, box_pairs)
        if res.status == INFEASIBLE:
            raise UnboundedLift("polyhedron does not meet the box")
        if res.status != OPTIMAL:
            raise ArithmeticError(f"big-M probe LP returned {res.status}")
        worst = max(worst, L.w[j] / L.row_norms[j] - res.objective)
    return worst + 1.0


def sigma_milp(
    L: LiftedPolyhedron,
    i: int,
    r_max: float | None = None,
) -> float:
    """Exact sigma_i over the boxed polyhedron.

    Encodes "at least i+1 distances do not exceed r" with one binary per
    row exempting it from the bound, a budget of n_c-i-1 exemptions, and a
    big-M wide enough to deactivate any row (derived from per-row LPs).
    A sampled upper bound seeds the search's incumbent. Strict inequalities
    in the encoding are relaxed to non-strict, which leaves the infimum
    unchanged.
    """
    _require_box(L)
    if i < 1:
        raise ValueError(f"i must be >= 1, got {i}")
    r_max = _default_r_max(L) if r_max is None else float(r_max)
    if i >= L.n_c:
        return r_max
    m = _auto_big_m(L)
    n_c, n_v = L.n_c, L.n_v
    n = n_v + 1 + n_c  # v, r, delta
    unit = L.H_lift / L.row_norms[:, None]
    wn = L.w / L.row_norms

    rows = []
    rhs = []
    # v stays in the polyhedron
    rows.append(np.hstack([L.H_lift, np.zeros((n_c, 1 + n_c))]))
    rhs.append(L.w)
    # d_j(v) - m*delta_j <= r
    rows.append(np.hstack([-unit, -np.ones((n_c, 1)), -m * np.eye(n_c)]))
    rhs.append(-wn)
    # r <= d_j(v) + m*(1 - delta_j)
    rows.append(np.hstack([unit, np.ones((n_c, 1)), m * np.eye(n_c)]))
    rhs.append(wn + m)
    # exemption budget
    card = np.zeros((1, n))
    card[0, n_v + 1:] = 1.0
    rows.append(card)
    rhs.append(np.array([float(n_c - i - 1)]))

    cost = np.zeros(n)
    cost[n_v] = 1.0
    bounds = [tuple(row) for row in L.box] + [(0.0, m)] + [(0.0, 1.0)] * n_c
    try:
        incumbent = sigma_sample(L, i, n_samples=256, seed=0, r_max=r_max)
    except NoFeasibleSamples:
        incumbent = None
    res = milp_solve(
        cost,
        np.vstack(rows),
        np.concatenate(rhs),
        bounds,
        integer=range(n_v + 1, n),
        incumbent=incumbent,
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

    @classmethod
    def from_dict(cls, data: dict) -> "SigmaTable":
        return cls(sigma=data["sigma"], method=data["method"],
                   r_max=float(data["r_max"]))

    def to_json(self, indent=None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SigmaTable":
        return cls.from_dict(json.loads(text))


def sigma_table(
    L: LiftedPolyhedron,
    i_max: int | None = None,
    mode: str = "milp",
    r_max: float | None = None,
    n_samples: int = 20000,
    seed: int = 0,
) -> SigmaTable:
    """Thresholds for i = 1..i_max (capped at n_c - 1).

    Exact values are nondecreasing in i; tiny numerical dips from the
    search are clamped against the previous entry.
    """
    _require_box(L)
    cap = L.n_c - 1
    i_max = cap if i_max is None else min(int(i_max), cap)
    r_max = _default_r_max(L) if r_max is None else float(r_max)
    if mode not in ("milp", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    values = {}
    prev = 0.0
    for i in range(1, i_max + 1):
        if mode == "milp":
            val = sigma_milp(L, i, r_max=r_max)
        else:
            val = sigma_sample(L, i, n_samples=n_samples, seed=seed, r_max=r_max)
        prev = max(val, prev)
        values[i] = prev
    return SigmaTable(sigma=values, method=mode, r_max=r_max)


def theorem3_bound(kappa: float, table: SigmaTable, dist: float, n_z: int):
    """Predicted cap n_z + i on the kept-set size, from the smallest i whose
    threshold covers the lifted ball; None when no table entry qualifies."""
    scale = float(np.sqrt(1.0 + float(kappa) ** 2))
    for i in sorted(table.sigma):
        if dist <= table.sigma[i] / scale:
            return int(n_z) + i
    return None
