"""Closed-loop MPC simulation with online constraint trimming.

Each step solves the condensed QP at the measured state, either over the
full row set or over a trimmed set certified by the previous step's
solution, the nearest offline sample, or both. Also houses offline sample
datasets, exponential-decay fits, and the step-count bounds that predict
when the trimmed set becomes empty.
"""

import json
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .lifted import SigmaTable
from .lipschitz import glc_scaled_estimate
from .mpqp import MpQp, SolvedSample
from .qpsolver import qp_solve
from .tolerances import DEFAULT, Tolerances
from .trim import (LicqViolation, check_kappa, nearest_index, trim_multi,
                   trim_single)

MODES = ("full", "adaptive-online", "offline-nearest", "hybrid")


class InfeasibleAtStep(Exception):
    """Closed loop lost feasibility; carries the partial trace."""

    def __init__(self, k, message, trace=None):
        super().__init__(f"step {k}: {message}")
        self.k = k
        self.trace = trace


class EmptyDataset(Exception):
    """No grid point or center survived the feasibility filter."""


class OriginNotInterior(Exception):
    """Step-count bounds need w > 0 (origin strictly inside the region)."""


class DegenerateTrace(Exception):
    """State hit exactly zero too early to fit a decay rate."""


class NotExponentiallyStable(Exception):
    """Fitted decay rate is >= 1."""


@dataclass
class StepRecord:
    k: int
    x: np.ndarray
    u: np.ndarray
    kept_count: int
    iterations: int
    wall_time: float
    mode: str

    def to_dict(self) -> dict:
        return {
            "k": int(self.k),
            "x": np.asarray(self.x).tolist(),
            "u": np.asarray(self.u).tolist(),
            "kept_count": int(self.kept_count),
            "iterations": int(self.iterations),
            "wall_time": float(self.wall_time),
            "mode": self.mode,
        }


@dataclass
class ClosedLoopTrace:
    records: list
    status: str = "ok"
    meta: dict = field(default_factory=dict)

    def states(self) -> np.ndarray:
        return np.array([r.x for r in self.records])

    def inputs(self) -> np.ndarray:
        return np.array([r.u for r in self.records])

    def kept_counts(self) -> np.ndarray:
        return np.array([r.kept_count for r in self.records], dtype=int)

    def first_zero_step(self):
        """First step index from which kept_count stays 0, or None."""
        counts = self.kept_counts()
        nz = np.flatnonzero(counts)
        first = 0 if nz.size == 0 else int(nz[-1]) + 1
        return first if first < len(counts) else None

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(r.to_dict()) for r in self.records)


def simulate(
    scenario,
    x0,
    steps: int,
    mode: str = "full",
    kappa: float | None = None,
    offline=None,
    tol: Tolerances = DEFAULT,
) -> ClosedLoopTrace:
    """Run the receding-horizon loop for `steps` control steps.

    Step 0 always solves the full problem, and every step solves from a
    cold start. Later steps pick rows per mode:
      full             re-solve everything
      adaptive-online  trim against the previous step's sample
      offline-nearest  trim against the nearest offline sample
      hybrid           trim against both; on a degenerate joint active set,
                       fall back to whichever sample is closer

    The trimmed modes need a solution-map Lipschitz constant. By default
    they use the row-scaled closed-form estimate of the condensed problem
    (glc_scaled_estimate). It is uncertified and can understate the
    constant, so trimmed runs that rely on it should be compared with a
    full run, as the bench harness does. Pass glc_scaled(p).kappa for a
    certified constant where its enumeration is affordable. A NaN,
    infinite or negative kappa raises ValueError before step 0.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    if mode in ("offline-nearest", "hybrid") and offline is None:
        raise ValueError(f"mode {mode!r} needs an offline dataset")
    p = scenario.condensed
    if kappa is None and mode in ("adaptive-online", "offline-nearest", "hybrid"):
        kappa = glc_scaled_estimate(p).kappa
    if kappa is not None:
        check_kappa(kappa)
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    if x.shape != (scenario.n,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({scenario.n},)")
    if not np.isfinite(x).all():
        raise ValueError(f"x0 {x.tolist()} is not finite")
    m = scenario.m
    meta = {"mode": mode, "kappa": kappa, "scenario": scenario.name}
    records: list = []

    def fail(k, why):
        raise InfeasibleAtStep(
            k, why, trace=ClosedLoopTrace(records, status="infeasible", meta=meta)
        )

    prev = None
    for k in range(steps):
        if scenario.stripped_param_rows is not None and not (
            scenario.stripped_param_rows.contains(x, tol.feas)
        ):
            fail(k, "state violates a pure-parameter constraint row")
        t0 = time.perf_counter()
        step_mode = "full" if k == 0 else mode
        if step_mode == "full":
            sol = qp_solve(p, x, tol=tol)
            kept_count = p.n_c
        else:
            if mode == "adaptive-online":
                outcome = trim_single(p, kappa, prev, x, tol)
            elif mode == "offline-nearest":
                outcome = trim_single(p, kappa, offline.nearest(x), x, tol)
            else:
                pair = [prev, offline.nearest(x)]
                try:
                    outcome = trim_multi(p, kappa, pair, x,
                                         assume_licq=True, tol=tol)
                except LicqViolation:
                    # without the independence assertion trim_multi
                    # trims against the nearer sample alone
                    outcome = trim_multi(p, kappa, pair, x, tol=tol)
            kept_count = len(outcome.kept)
            sol = qp_solve(p, x, idx=outcome.kept, tol=tol)
        if not sol.is_optimal:
            fail(k, f"QP solve returned {sol.status}")
        z = sol.z_star
        u = z[:m].copy()
        wall = time.perf_counter() - t0
        # active set recorded over the full rows: trimming keeps the
        # minimizer, so re-reading activity from slacks is exact
        prev = SolvedSample(x.copy(), z.copy(), p.active_set(x, z, tol))
        records.append(StepRecord(k, x.copy(), u, kept_count,
                                  sol.iterations, wall, step_mode))
        x = scenario.A @ x + scenario.B @ u
    return ClosedLoopTrace(records, status="ok", meta=meta)


@dataclass
class OfflineDataset:
    """Pre-solved samples with a nearest-neighbor query.

    geometry is {"kind": "grid", "spacing": s, "anchor": [...]} or
    {"kind": "centers"}; coverage is the max distance from any state in the
    terminal set to its nearest sample (exact cell bound for grids,
    sample-based estimate otherwise).
    """

    samples: list
    geometry: dict
    coverage: float
    coverage_is_estimate: bool

    def __post_init__(self):
        self._points = np.array([s.x_hat for s in self.samples])

    def nearest(self, x) -> SolvedSample:
        if not self.samples:
            raise EmptyDataset("dataset has no samples")
        return self.samples[nearest_index(self._points, x)]

    def to_dict(self) -> dict:
        return {
            "samples": [s.to_dict() for s in self.samples],
            "geometry": self.geometry,
            "coverage": float(self.coverage),
            "coverage_is_estimate": bool(self.coverage_is_estimate),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OfflineDataset":
        return cls(
            samples=[SolvedSample.from_dict(d) for d in data["samples"]],
            geometry=data["geometry"],
            coverage=data["coverage"],
            coverage_is_estimate=data["coverage_is_estimate"],
        )


def default_offline_spacing(scenario) -> float:
    """Grid spacing of a fifth of the terminal set's widest box side."""
    bb = scenario.XN.bounding_box()
    return float((bb[:, 1] - bb[:, 0]).max()) / 5.0


def build_offline_dataset(
    scenario, spacing: float | None = None, centers=None,
    seed: int = 0, n_coverage: int = 10_000, tol: Tolerances = DEFAULT,
) -> OfflineDataset:
    """Solve the condensed problem on a grid over the terminal set (or on
    explicit centers) and package the results for nearest-neighbor reuse.

    Grid mode anchors a uniform grid at the terminal set's bounding-box
    center, keeps points inside the set, and reports coverage as the cell
    half-diagonal (capped by the set's circumradius when the grid is
    coarser than the set and the anchor itself was kept). Center mode
    estimates coverage by sampled max-min distance and flags it as such.
    """
    if (spacing is None) == (centers is None):
        raise ValueError("give exactly one of spacing or centers")
    p = scenario.condensed
    region = scenario.XN
    bb = region.bounding_box()
    n = region.dim

    if spacing is not None:
        if spacing <= 0:
            raise ValueError(f"spacing must be positive, got {spacing}")
        anchor = 0.5 * (bb[:, 0] + bb[:, 1])
        axes = []
        for i in range(n):
            lo = math.ceil((bb[i, 0] - anchor[i]) / spacing - 1e-12)
            hi = math.floor((bb[i, 1] - anchor[i]) / spacing + 1e-12)
            axes.append(anchor[i] + spacing * np.arange(lo, hi + 1))
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.column_stack([m.ravel() for m in mesh])
        points = [pt for pt in points if region.contains(pt, tol.feas)]
        geometry = {"kind": "grid", "spacing": float(spacing),
                    "anchor": anchor.tolist()}
    else:
        points = [np.atleast_1d(np.asarray(c, dtype=float)) for c in centers]
        geometry = {"kind": "centers"}

    samples = []
    anchor_kept = False
    for pt in points:
        sol = qp_solve(p, pt, tol=tol)
        if not sol.is_optimal:
            warnings.warn(f"skipping infeasible point {pt}")
            continue
        samples.append(
            SolvedSample(pt, sol.z_star, p.active_set(pt, sol.z_star, tol)))
        if spacing is not None and np.array_equal(pt, anchor):
            anchor_kept = True
    if not samples:
        raise EmptyDataset("no point survived the feasibility filter")

    if spacing is not None:
        coverage = 0.5 * spacing * math.sqrt(n)
        if anchor_kept:
            corners = np.array(
                np.meshgrid(*[bb[i] for i in range(n)], indexing="ij")
            ).reshape(n, -1).T
            circumradius = float(
                np.linalg.norm(corners - anchor, axis=1).max())
            coverage = min(coverage, circumradius)
        return OfflineDataset(samples, geometry, coverage, False)

    rng = np.random.default_rng(seed)
    draws = rng.uniform(bb[:, 0], bb[:, 1], size=(n_coverage, n))
    worst = 0.0
    centers_arr = np.array([s.x_hat for s in samples])
    for x in draws:
        if not region.contains(x, tol.feas):
            continue
        worst = max(worst, float(
            np.linalg.norm(centers_arr - x, axis=1).min()))
    return OfflineDataset(samples, geometry, worst, True)


def _clamped_steps(value: float, beta: float) -> float:
    """ceil(log_beta(value)) clamped to >= 0; value <= 0 means never."""
    if value <= 0.0:
        return math.inf
    if value >= 1.0:
        return 0.0
    return max(0.0, math.ceil(math.log(value) / math.log(beta)))


def horizon_bounds(
    c: float, beta: float, x0_norm: float, kappa: float,
    p: MpQp, table: SigmaTable,
) -> dict:
    """Step counts after which the trimmed row set provably shrinks.

    Under the decay envelope ||x_k|| <= c ||x_0|| beta^k:
      K_i   steps until the kept count is at most n_z + i,
      K_hat = max(K1_hat, K2_hat), steps until it reaches zero.
    All three are the printed ceiling formulas, clamped at 0; a zero sigma
    entry yields an infinite K_i.
    """
    if not (0.0 < beta < 1.0):
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    if c <= 0.0:
        raise ValueError(f"c must be positive, got {c}")
    if x0_norm < 0.0 or kappa < 0.0:
        raise ValueError("x0_norm and kappa must be nonnegative")
    if np.any(p.w <= 0.0):
        j = int(np.flatnonzero(p.w <= 0.0)[0]) + 1
        raise OriginNotInterior(
            f"row {j} has w <= 0; the bounds need the origin strictly inside")
    binv = 1.0 / beta
    scale = math.sqrt(1.0 + kappa * kappa)

    k_i = {}
    for i, sigma in table.sigma.items():
        if x0_norm == 0.0:
            k_i[i] = 0.0
        else:
            k_i[i] = _clamped_steps(
                sigma / (c * x0_norm * (1.0 + binv) * scale), beta)

    g_norms = p.g_row_norms
    s_norms = np.linalg.norm(p.S, axis=1)
    cross = np.linalg.norm(p.G @ p.hi_ft, axis=1)

    def row_bound(denoms):
        worst = 0.0
        for wj, den in zip(p.w, denoms):
            if den <= 0.0:
                continue
            worst = max(worst, _clamped_steps(wj / den, beta))
        return worst

    if x0_norm == 0.0:
        k1 = k2 = 0.0
    else:
        k1 = row_bound(c * x0_norm * binv * (kappa * g_norms + s_norms))
        rho = c * x0_norm * (
            kappa * g_norms * (1.0 + binv) + s_norms + cross * binv)
        k2 = row_bound(rho)
    return {"K_i": k_i, "K1_hat": k1, "K2_hat": k2, "K_hat": max(k1, k2)}


def estimate_decay(trace) -> tuple:
    """Fit ||x_k|| <= c ||x_0|| beta^k from a trace (or a state sequence).

    beta comes from a least-squares line through log ||x_k||; c is then
    inflated so the envelope majorizes every sample. A state that hits
    exactly zero ends the fit window; before step 5 that is an error.
    """
    if isinstance(trace, ClosedLoopTrace):
        states = trace.states()
    else:
        states = np.atleast_2d(np.asarray(trace, dtype=float))
    norms = np.linalg.norm(states, axis=1)
    if len(norms) < 5:
        raise ValueError(f"need at least 5 steps, got {len(norms)}")
    if norms[0] == 0.0:
        raise ValueError("x0 is zero; decay is undefined")
    zeros = np.flatnonzero(norms == 0.0)
    if zeros.size:
        cut = int(zeros[0])
        if cut < 5:
            raise DegenerateTrace(f"state is exactly zero at step {cut}")
        norms = norms[:cut]
    k = np.arange(len(norms))
    slope = np.polyfit(k, np.log(norms), 1)[0]
    beta = float(math.exp(slope))
    if beta >= 1.0:
        raise NotExponentiallyStable(f"fitted decay rate {beta:.4f} >= 1")
    c = float(np.max(norms / (norms[0] * beta ** k)))
    return c, beta
