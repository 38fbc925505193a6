"""Closed-loop MPC simulation with online constraint trimming.

Each step solves the condensed QP at the measured state, either over the
full row set or over a trimmed set certified by the previous step's
solution, the nearest offline sample, or both. Also houses offline sample
datasets, exponential-decay fits, and the step-count bounds that predict
when the trimmed set becomes empty.
"""

import json
import math
import numbers
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .lifted import SigmaTable
from .lipschitz import glc_scaled_estimate
from .mpqp import IndexSet, MpQp, SolvedSample
from .qpsolver import _NO_ROWS, _solve, _unconstrained
from .tolerances import FEAS, feas_tol
from .trim import _kept_mask, check_kappa, nearest_index

MODES = ("full", "adaptive-online", "offline-nearest", "hybrid")
# box draws behind a centers dataset's coverage estimate
_COVERAGE_DRAWS = 10_000


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
    iterations: int      # 1, plus |W| when z0 failed the first check
    wall_time: float     # from the state to the input
    mode: str
    t_trim: float        # choosing the kept rows; 0 on a full step, and
                         # after the input on one settled at the first check
    t_solve: float       # the QP solve, its all-rows first check included
    path: str            # the branch that settled it: "z0", "guess" or "nnls"

    def to_dict(self) -> dict:
        return {
            "k": int(self.k),
            "x": np.asarray(self.x).tolist(),
            "u": np.asarray(self.u).tolist(),
            "kept_count": int(self.kept_count),
            "iterations": int(self.iterations),
            "wall_time": float(self.wall_time),
            "mode": self.mode,
            "t_trim": float(self.t_trim),
            "t_solve": float(self.t_solve),
            "path": self.path,
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
) -> ClosedLoopTrace:
    """Run the receding-horizon loop for `steps` control steps, a
    nonnegative integer (ValueError otherwise).

    Step 0 always solves the full problem, from the unconstrained
    minimizer with no guess. Later steps pick rows per mode:
      full             re-solve everything
      adaptive-online  trim against the previous step's sample
      offline-nearest  trim against the nearest offline sample
      hybrid           trim against both; when either sample's own active
                       rows are dependent (LICQ fails), trim against
                       whichever sample is closer

    The trimmed modes need a solution-map Lipschitz constant. By default
    they use the row-scaled closed-form estimate of the condensed problem
    (glc_scaled_estimate). It is uncertified and can understate the
    constant, so trimmed runs that rely on it should be compared with a
    full run, as the bench harness does. Pass glc_scaled(p).kappa for a
    certified constant where its enumeration is affordable. A NaN,
    infinite or negative kappa raises ValueError before step 0.

    Every step first forms the unconstrained minimizer z0 and its slack
    slack_map @ x + w over every row (qpsolver's first check). When no row
    of it is negative, z0 is the full problem's minimizer and so the
    minimizer over every kept subset: the step returns z0 at once, and a
    trimmed step runs its trim only after the input is out, for its kept
    count and own triple. Otherwise the step forms b = S x + w once, for
    its trim and for the solve's band, and hands the solve z0, the slack
    and b. In adaptive-online and hybrid, the modes that trim against the
    loop's own sample, each step then forms G z = p.G @ z after the input
    is out, keeps b - G z, the full rows' slack vector, and reads its
    active set from it. The other modes keep neither. A trimmed
    step hands b and one (x_hat, G z*, active mask) triple per sample to
    the removal fold trim._kept_mask, which tests every row against
    b - G z*, bitwise the slack p.triple(x', z*, b) gives. The
    loop's own triple is kept from its last step and not re-validated with
    check_sample: its active set is read from its own slacks, so only its
    feasibility is checked, to the solver's band feas_tol(b) at the b they
    were formed from, and a row violated beyond it raises InfeasibleAtStep.
    Each offline step looks up its nearest sample's triple and LICQ flag,
    formed where build_offline_dataset solved the sample. A dataset built
    for another problem (not p, nor equal to it in H, F, G, S and w)
    raises ValueError before step 0.
    An empty kept set returns the unconstrained minimizer.

    Every step after the first hands the solve a guessed active set: the
    rows W the last solve was settled on, each mapped by the scenario's
    row_shift to its row one stage earlier (the rows the shifted plan
    holds), in trimmed modes only those kept. The solve keeps the guess
    only when KKT proves it (see qpsolver), so a wrong guess changes no
    output. After a solve with an active terminal row the next step gets
    no guess: the shifted plan is then seldom optimal, while with the
    terminal rows inactive the solution is the constrained LQR one and its
    shift stays optimal (Scokaert & Rawlings 1998).
    StepRecord.wall_time runs from the state to the input. t_solve and,
    on a step whose solve goes past the all-rows check, t_trim split it. On
    a trimmed step settled at that check, t_trim is measured after the
    input and lies outside wall_time. StepRecord.path names the branch
    that settled the solve.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    if not isinstance(steps, numbers.Integral) or steps < 0:
        raise ValueError(f"steps must be a nonnegative integer, got {steps!r}")
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
    if mode in ("offline-nearest", "hybrid"):
        q = offline.problem
        if q is not p and not all(np.array_equal(getattr(q, a), getattr(p, a))
                                  for a in ("H", "F", "G", "S", "w")):
            raise ValueError("offline dataset was built for another problem")
    m = scenario.m
    meta = {"mode": mode, "kappa": kappa, "scenario": scenario.name}
    records: list = []

    def fail(k, why):
        raise InfeasibleAtStep(
            k, why, trace=ClosedLoopTrace(records, status="infeasible", meta=meta)
        )

    # the modes that trim against the loop's own last sample
    keeps_own = mode in ("adaptive-online", "hybrid")
    own = slack_prev = b_prev = None  # last step's triple, slack and b

    def trim(k, x, b):
        """The kept-row mask at state x, b = S x + w."""
        samples = []
        if keeps_own:
            # the loop's own sample: its active set holds by construction;
            # only its feasibility is left to check, and max|b| is formed
            # only past FEAS, the band's floor
            worst = slack_prev.min(initial=0.0)
            if worst < -FEAS and worst < -feas_tol(b_prev):
                j = int(np.argmin(slack_prev))
                fail(k, f"previous solution violates row {j + 1}: "
                        f"slack {slack_prev[j]:.3e}")
            samples.append(own)
        if mode != "adaptive-online":
            sample = offline.nearest(x)
            triple, licq = offline.entries[id(sample)]
            samples.append(triple)
        if mode == "hybrid" and not (
                licq and p.licq_holds(IndexSet.from_mask(own[2]))):
            # dependent active rows: trim against the nearer sample alone,
            # as trim_multi does without the LICQ assertion
            pair = np.array([own[0], sample.x_hat])
            samples = [samples[nearest_index(pair, x)]]
        return _kept_mask(p, kappa, x, b, samples)

    guess = None              # last solve's active rows, one stage earlier
    for k in range(steps):
        if scenario.stripped_param_rows is not None and not (
            scenario.stripped_param_rows.contains(x)
        ):
            fail(k, "state violates a pure-parameter constraint row")
        t0 = time.perf_counter()
        trims = k > 0 and mode != "full"
        z, h = _unconstrained(p, x)
        settled = h.min(initial=0.0) >= 0.0
        b = None
        kept_count, t_trim = p.n_c, 0.0
        if settled:
            # z0 meets every row, so it minimizes over every kept subset:
            # the input goes out before the trim
            iterations, active, path = 1, _NO_ROWS, "z0"
            t_solve = time.perf_counter() - t0
        else:
            t1 = time.perf_counter()
            b = p.rhs(x)
            rows = None
            if trims:
                kept = trim(k, x, b)
                rows = kept.nonzero()[0]
                kept_count = len(rows)
                if guess is not None:
                    guess = guess[kept[guess]]
                t_trim = time.perf_counter() - t1
            sol, active, path = _solve(p, x, rows, guess, (z, h, b))
            t_solve = time.perf_counter() - t0 - t_trim
            if not sol.is_optimal:
                fail(k, f"QP solve returned {sol.status}")
            z, iterations = sol.z_star, sol.iterations
        u = z[:m].copy()
        wall = time.perf_counter() - t0
        if settled and trims:
            # the kept count and, below, the next own triple
            t1 = time.perf_counter()
            b = p.rhs(x)
            kept_count = np.count_nonzero(trim(k, x, b))
            t_trim = time.perf_counter() - t1
        if keeps_own:
            # the full rows' slacks and active set, for the next step's
            # trim; trimming keeps the minimizer, so re-reading activity
            # is exact
            if b is None:
                b = p.rhs(x)
            (own, slack_prev), b_prev = p.triple(x, z, b), b
        guess = None
        if len(active) and not scenario.terminal_rows[active].any():
            guess = scenario.row_shift[active]
            guess = guess[guess >= 0]
        records.append(StepRecord(k, x.copy(), u, kept_count, iterations,
                                  wall, mode if trims else "full", t_trim,
                                  t_solve, path))
        x = scenario.A @ x + scenario.B @ u
    return ClosedLoopTrace(records, status="ok", meta=meta)


@dataclass(eq=False)
class OfflineDataset:
    """Samples build_offline_dataset solved for one problem, with a
    nearest-neighbor query.

    coverage is the max distance from any state in the terminal set to its
    nearest sample: an exact cell bound for a grid, a sample-based estimate
    (coverage_is_estimate) for explicit centers.

    entries maps id(sample) to its (x_hat, G z*, active mask) triple under
    `problem` and whether its active rows are independent (LICQ), both
    formed where the build solved it. The samples are a tuple, so the
    column-major copy of their parameters that nearest_index searches, and
    the entries, cannot drift from them. Datasets compare by identity.
    """

    problem: MpQp
    samples: tuple
    entries: dict
    coverage: float
    coverage_is_estimate: bool

    def __post_init__(self):
        self._points = np.asfortranarray([s.x_hat for s in self.samples])

    def nearest(self, x) -> SolvedSample:
        return self.samples[nearest_index(self._points, x)]


def default_offline_spacing(scenario) -> float:
    """Grid spacing of a fifth of the terminal set's widest box side."""
    bb = scenario.XN.bounding_box()
    return float((bb[:, 1] - bb[:, 0]).max()) / 5.0


def build_offline_dataset(scenario, spacing: float | None = None,
                          centers=None) -> OfflineDataset:
    """Solve the condensed problem on a grid over the terminal set (or on
    explicit centers) and package the results for nearest-neighbor reuse.

    Grid mode anchors a uniform grid at the terminal set's bounding-box
    center, keeps points inside the set, and reports coverage as the cell
    half-diagonal (capped by the set's circumradius when the grid is
    coarser than the set and the anchor itself was kept). Center mode
    estimates coverage by the max-min distance over _COVERAGE_DRAWS
    uniform draws of the set's bounding box (seed 0) and flags it as such.
    """
    if (spacing is None) == (centers is None):
        raise ValueError("give exactly one of spacing or centers")
    p = scenario.condensed
    region = scenario.XN
    bb = region.bounding_box()
    n = region.dim

    if spacing is not None:
        if not 0.0 < spacing < math.inf:     # NaN fails both comparisons
            raise ValueError(f"spacing must be finite and positive, got {spacing}")
        anchor = 0.5 * (bb[:, 0] + bb[:, 1])
        axes = []
        for i in range(n):
            lo = math.ceil((bb[i, 0] - anchor[i]) / spacing - 1e-12)
            hi = math.floor((bb[i, 1] - anchor[i]) / spacing + 1e-12)
            axes.append(anchor[i] + spacing * np.arange(lo, hi + 1))
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.column_stack([m.ravel() for m in mesh])
        points = [pt for pt in points if region.contains(pt)]
    else:
        points = [np.atleast_1d(np.asarray(c, dtype=float)) for c in centers]

    samples, entries = [], {}
    anchor_kept = False
    for pt in points:
        x = p.parameter(pt)
        sol = _solve(p, x, None)[0]
        if not sol.is_optimal:
            warnings.warn(f"skipping infeasible point {pt}")
            continue
        triple, _ = p.triple(x, sol.z_star, p.rhs(x))
        sample = SolvedSample(x, sol.z_star, IndexSet.from_mask(triple[2]))
        samples.append(sample)
        entries[id(sample)] = (triple, p.licq_holds(sample.active))
        if spacing is not None and np.array_equal(pt, anchor):
            anchor_kept = True
    if not samples:
        raise EmptyDataset("no point survived the feasibility filter")
    samples = tuple(samples)

    if spacing is not None:
        coverage = 0.5 * spacing * math.sqrt(n)
        if anchor_kept:
            corners = np.array(
                np.meshgrid(*[bb[i] for i in range(n)], indexing="ij")
            ).reshape(n, -1).T
            circumradius = float(
                np.linalg.norm(corners - anchor, axis=1).max())
            coverage = min(coverage, circumradius)
        return OfflineDataset(p, samples, entries, coverage, False)

    rng = np.random.default_rng(0)
    draws = rng.uniform(bb[:, 0], bb[:, 1], size=(_COVERAGE_DRAWS, n))
    worst = 0.0
    centers_arr = np.array([s.x_hat for s in samples])
    for x in draws:
        if not region.contains(x):
            continue
        worst = max(worst, float(
            np.linalg.norm(centers_arr - x, axis=1).min()))
    return OfflineDataset(p, samples, entries, worst, True)


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
    entry yields an infinite K_i. A NaN or infinite c, x0_norm or kappa
    raises ValueError naming it.
    """
    if not (0.0 < beta < 1.0):
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    if not 0.0 < c < math.inf:
        raise ValueError(f"c must be finite and positive, got {c}")
    if not 0.0 <= x0_norm < math.inf:
        raise ValueError(f"x0_norm must be finite and nonnegative, got {x0_norm}")
    check_kappa(kappa)
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
    exactly zero ends the fit window; before step 5 that is an error. A
    state with a NaN or infinite entry raises ValueError naming its step.
    """
    if isinstance(trace, ClosedLoopTrace):
        states = trace.states()
    else:
        states = np.atleast_2d(np.asarray(trace, dtype=float))
    norms = np.linalg.norm(states, axis=1)
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        raise ValueError(f"state at step {int(bad[0])} is not finite")
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
