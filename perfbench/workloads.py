"""The benchmark's workloads, driven through the package's public API.

A closed-loop workload runs one trimming mode from a fixed set of seeded
starts, pass after pass, one step after another, and times each step with
the program's own StepRecord.wall_time. The certification workload times
each offline certificate, round after round. Every output is checked by
checks.py; an operation (a closed-loop step or one certificate) whose check
fails counts as failed.

Every workload reports the same metrics (END_TO_END, PER_LAYER), so each
run prints all that BENCHMARK.json names: an operation is a step of the
workload's mode or one certificate, and a layer that a workload never
calls reads zero in its traced run.
"""

import contextlib
import functools
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

import qptrim
from checks import FEAS_TOL, INPUT_TOL, TRAJ_TOL, Qp, nearest_ok, sampled_sigma
from tracer import NullTracer, Tracer

# scenario, kappa estimate and dataset are built this many times before
# the first pass, and again before every pass for at least SETUP_SECONDS;
# set-up time is the median build
SETUP_REPEATS = 5
SETUP_SECONDS = 0.1
# a closed-loop run times at least this many passes over its inputs
MIN_PASSES = 5
# starts are strictly feasible by this relative margin (scipy linprog)
START_MARGIN = 1e-6
# The machine's speed swings by up to 2x within seconds, as other tenants
# load the cores. Every timed operation is bracketed by a fixed probe, and
# its time is scaled by PROBE_REF_S over the mean of the two probe times:
# the time it would have taken at the speed where the probe takes
# PROBE_REF_S, about the probe's fastest time on the reference machine.
PROBE_REF_S = 0.45e-3

END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p98": "ms",
    "pass_s": "s",
}

# counts and summed times of the closed-loop layers are per 1000 steps,
# those of the certificates per round
PER_LAYER = {
    "qpsolver.solve_ms_p50": "ms",
    "qpsolver.solve_ms_p99": "ms",
    "qpsolver.iterations_mean": "count",
    "qpsolver.phase1_calls": "count",
    "qpsolver.phase1_ms": "ms",
    "trim.rows_kept_mean": "rows",
    "trim.call_us_p50": "us",
    "trim.check_sample_ms": "ms",
    "closedloop.nearest_calls": "count",
    "closedloop.nearest_us_p50": "us",
    "mpqp.active_set_ms": "ms",
    "closedloop.self_ms": "ms",
    "mpc.scenario_build_s": "s",
    "mpc.invariant_set_s": "s",
    "mpc.lp_calls": "count",
    "lipschitz.estimate_ms": "ms",
    "closedloop.dataset_build_s": "s",
    "closedloop.dataset_samples": "count",
    "lipschitz.glc_calls": "count",
    "lipschitz.glc_self_s": "s",
    "lipschitz.realizability_lp_calls": "count",
    "lifted.sigma_milp_s": "s",
    "lifted.bigm_lp_calls": "count",
    "milp.nodes": "count",
    "milp.relax_lp_calls": "count",
    "milp.relax_lp_ms_mean": "ms",
    "trace.overhead_pct": "%",
}


@dataclass(frozen=True)
class LoopSpec:
    """A closed-loop workload: a pass runs `mode` from `draws` seeded
    starts for `steps` steps each."""

    scenario: dict
    mode: str
    draws: int
    steps: int
    spacing: float | None = None    # offline grid spacing, when one is used
    kappa: float | None = None      # None: glc_scaled_estimate, as simulate
    min_passes: int = MIN_PASSES


@dataclass(frozen=True)
class CertifySpec:
    """A certification workload: a round computes both certified Lipschitz
    constants and sigma_1..sigma_imax over the lifted problem."""

    scenario: dict
    i_max: int = 6
    pairs: int = 200       # KKT-certified solve pairs that bound kappa below
    min_passes: int = MIN_PASSES


def _bounding_box(C, d):
    """Axis bounds of {x : Cx <= d}, by scipy's linprog."""
    n = C.shape[1]
    box = np.zeros((n, 2))
    for i in range(n):
        for side, sign in ((0, 1.0), (1, -1.0)):
            cost = np.zeros(n)
            cost[i] = sign
            res = linprog(cost, A_ub=C, b_ub=d, bounds=(None, None),
                          method="highs")
            if res.status != 0:
                raise RuntimeError(f"bounding-box LP failed: {res.message}")
            box[i, side] = sign * res.fun
    return box


def start_box(sc):
    """The terminal set's bounding box, widened by half its width on each
    side and rounded outward to 0.01, so LP rounding cannot move it."""
    bb = _bounding_box(sc.XN.C, sc.XN.d)
    width = bb[:, 1] - bb[:, 0]
    return np.column_stack([np.floor((bb[:, 0] - 0.5 * width) * 100) / 100,
                            np.ceil((bb[:, 1] + 0.5 * width) * 100) / 100])


def draw_starts(sc, box, n, rng):
    """Uniform draws in the box kept when the pure-state rows hold and
    scipy's linprog finds the full QP strictly feasible."""
    p = sc.condensed
    pure = sc.stripped_param_rows
    out = []
    while len(out) < n:
        x = rng.uniform(box[:, 0], box[:, 1])
        if pure is not None and np.any(
                pure.C @ x > pure.d - START_MARGIN * (1.0 + np.abs(pure.d))):
            continue
        b = p.S @ x + p.w
        res = linprog(np.zeros(p.n_z), A_ub=p.G,
                      b_ub=b - START_MARGIN * (1.0 + np.abs(b)),
                      bounds=(None, None), method="highs")
        if res.status == 0:
            out.append(x)
    return out


_PROBE_RNG = np.random.default_rng(0)
_PROBE_M = _PROBE_RNG.random((20, 20)) + 20.0 * np.eye(20)
_PROBE_G = _PROBE_RNG.random((120, 20))
_PROBE_B = np.ones(20)


def probe():
    """Seconds the speed probe takes now: small dense solves and products
    driven from Python, like the program's own inner loops."""
    t0 = time.perf_counter()
    for _ in range(40):
        z = np.linalg.solve(_PROBE_M, _PROBE_B)
        float((_PROBE_G @ z).max())
    return time.perf_counter() - t0


class Speed:
    """Scale factors for operations timed one after another between
    probes."""

    def __init__(self):
        self.last = probe()

    def scale(self):
        """The factor for the operation since the last probe."""
        now = probe()
        factor = PROBE_REF_S / (0.5 * (self.last + now))
        self.last = now
        return factor


@dataclass
class Setup:
    sc: object
    kappa: float
    ds: object
    seconds: float


def build(spec, tracer):
    """Scenario (DARE, invariant set, condensation), kappa estimate and,
    where used, the offline dataset: the work a user waits for first."""
    t0 = time.perf_counter()
    with tracer.span("api.scenario_from_dict"):
        sc = qptrim.scenario_from_dict(spec.scenario)
    kappa = getattr(spec, "kappa", None)
    if kappa is None:
        with tracer.span("api.glc_scaled_estimate"):
            kappa = qptrim.glc_scaled_estimate(sc.condensed).kappa
    ds = None
    if getattr(spec, "spacing", None) is not None:
        with tracer.span("api.build_offline_dataset"):
            ds = qptrim.build_offline_dataset(sc, spacing=spec.spacing)
    return Setup(sc, kappa, ds, time.perf_counter() - t0)


class Builds:
    """Set-up builds spread over a run, so that their median does not hang
    on the machine's speed in its first second; `seconds` are scaled."""

    def __init__(self, spec, tracer):
        self.spec, self.tracer, self.seconds = spec, tracer, []
        for _ in range(SETUP_REPEATS):
            self.st = self.again()

    def again(self):
        speed = Speed()
        with self.tracer.attached():
            st = build(self.spec, self.tracer)
        self.seconds.append(st.seconds * speed.scale())
        return st

    def more(self):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < SETUP_SECONDS:
            self.again()

    @property
    def median(self):
        return statistics.median(self.seconds)


def passes_within(seconds, min_passes):
    """Pass indices: at least min_passes, then more while one more pass, at
    the mean pace so far, still ends within `seconds` of the first."""
    t0 = time.perf_counter()
    k = 0
    while k < min_passes or (time.perf_counter() - t0) * (k + 1) / k <= seconds:
        yield k
        k += 1


class NearestLog:
    """Records every OfflineDataset.nearest answer so it can be checked."""

    def __init__(self):
        self.calls = []

    @contextlib.contextmanager
    def attached(self):
        cls = getattr(qptrim, "OfflineDataset", None)
        original = getattr(cls, "nearest", None)
        if original is None:
            yield self
            return
        calls = self.calls

        def nearest(ds, x):
            sample = original(ds, x)
            calls.append((x, sample.x_hat))
            return sample

        cls.nearest = nearest
        try:
            yield self
        finally:
            cls.nearest = original


@dataclass
class Call:
    """One simulate call: its records, its external time, its answers."""

    records: list
    seconds: float
    nearest: list
    error: str | None
    scale: float            # Speed.scale() of the call


def loop_pass(spec, st, starts, mode, tracer):
    """`mode` from each start in turn; each call waits for the last."""
    log = NearestLog()
    calls = []
    speed = Speed()
    with log.attached(), tracer.attached():
        for x0 in starts:
            del log.calls[:]
            error = None
            with tracer.span("api.simulate"):
                t0 = time.perf_counter()
                try:
                    trace = qptrim.simulate(
                        st.sc, x0, spec.steps, mode=mode,
                        kappa=st.kappa, offline=st.ds)
                    records = trace.records
                except Exception as exc:  # counted as failed steps
                    records = getattr(getattr(exc, "trace", None),
                                      "records", [])
                    error = f"{type(exc).__name__}: {exc}"
                seconds = time.perf_counter() - t0
            calls.append(Call(records, seconds, list(log.calls), error,
                              speed.scale()))
    return calls


def references(st, qp, full_calls):
    """Per start: the full trajectory's states and inputs, and at each of
    its states whether the reference minimizer is KKT-certified and its
    first block."""
    m = st.sc.m
    pure = st.sc.stripped_param_rows
    refs = []
    for full in full_calls:
        xs = np.array([r.x for r in full.records]).reshape(-1, st.sc.n)
        us = np.array([r.u for r in full.records]).reshape(-1, m)
        ref_ok = np.zeros(len(xs), dtype=bool)
        u_ref = np.full((len(xs), m), np.nan)
        for k, x in enumerate(xs):
            z = qp.solve(x)
            if z is None or not qp.kkt_certified(x, z):
                continue
            if pure is not None and np.any(
                    pure.C @ x > pure.d + FEAS_TOL * (1.0 + np.abs(pure.d))):
                continue
            ref_ok[k] = True
            u_ref[k] = z[:m]
        refs.append((xs, us, ref_ok, u_ref))
    return refs


def check_pass(spec, st, refs, stacked, calls):
    """Per-step verdicts (True = passed), one array per call.

    A step passes when it reproduces the reference full trajectory from its
    start to TRAJ_TOL, its input is the first block of the KKT-certified
    reference minimizer at that state, the call's step times fit in its
    external time, and every nearest-sample answer was a nearest one.
    """
    m = st.sc.m
    verdicts = []
    for call, (xs, us, ref_ok, u_ref) in zip(calls, refs):
        ok = np.zeros(spec.steps, dtype=bool)
        n = min(len(call.records), len(xs))
        if n:
            x = np.array([r.x for r in call.records[:n]]).reshape(n, -1)
            u = np.array([r.u for r in call.records[:n]]).reshape(n, m)
            same = (np.abs(x - xs[:n]).max(axis=1) <= TRAJ_TOL) & (
                np.abs(u - us[:n]).max(axis=1) <= TRAJ_TOL)
            exact = np.abs(u - u_ref[:n]).max(axis=1) <= INPUT_TOL * (
                1.0 + np.abs(u).max(axis=1))
            ok[:n] = ref_ok[:n] & same & exact
        if sum(r.wall_time for r in call.records) > call.seconds:
            ok[:] = False
        for j, (xq, answer) in enumerate(call.nearest):
            if not nearest_ok(stacked, xq, answer):
                ok[min(j + 1, spec.steps - 1)] = False
        verdicts.append(ok)
    return verdicts


def _pct(values, q):
    values = np.asarray(values, dtype=float)
    return float(np.percentile(values, q)) if values.size else 0.0


def _spans_by_root(spans):
    """Index of each span's outermost ancestor."""
    root = []
    for i, (_, _, _, parent, _) in enumerate(spans):
        root.append(i if parent < 0 else root[parent])
    return root


def loop_layers(tracer, traced_calls, per):
    """Per-layer figures of the traced passes; counts and summed times are
    per `per` thousand steps."""
    spans = tracer.spans
    root = _spans_by_root(spans)
    by = {}           # name -> indices of spans inside a simulate call
    direct = set()    # indices whose parent is a simulate call
    own = 0.0         # simulate's own time: its span minus direct children
    for i, rec in enumerate(spans):
        if rec[0] == "api.simulate":
            own += rec[2] - rec[1]
        elif spans[root[i]][0] == "api.simulate":
            by.setdefault(rec[0], []).append(i)
            if spans[rec[3]][0] == "api.simulate":
                direct.add(i)
                own -= rec[2] - rec[1]

    def dur(i):
        return spans[i][2] - spans[i][1]

    solves = by.get("closedloop.qp_solve", [])
    iters = [spans[i][4]["iterations"] for i in solves
             if spans[i][4] and "iterations" in spans[i][4]]
    phase1 = by.get("qpsolver.lp_solve", [])
    trims = [i for name in ("closedloop.trim_single", "closedloop.trim_multi")
             for i in by.get(name, []) if i in direct]
    near = by.get("closedloop.OfflineDataset.nearest", [])
    reread = [i for i in by.get("mpqp.MpQp.active_set", []) if i in direct]
    kept = [r.kept_count for c in traced_calls for r in c.records]
    return {
        "qpsolver.solve_ms_p50": _pct([dur(i) * 1e3 for i in solves], 50),
        "qpsolver.solve_ms_p99": _pct([dur(i) * 1e3 for i in solves], 99),
        "qpsolver.iterations_mean": float(np.mean(iters)) if iters else 0.0,
        "qpsolver.phase1_calls": len(phase1) / per,
        "qpsolver.phase1_ms": sum(dur(i) for i in phase1) * 1e3 / per,
        "trim.rows_kept_mean": float(np.mean(kept)) if kept else 0.0,
        "trim.call_us_p50": _pct([dur(i) * 1e6 for i in trims], 50),
        "trim.check_sample_ms": sum(
            dur(i) for i in by.get("trim.check_sample", [])) * 1e3 / per,
        "closedloop.nearest_calls": len(near) / per,
        "closedloop.nearest_us_p50": _pct([dur(i) * 1e6 for i in near], 50),
        "mpqp.active_set_ms": sum(dur(i) for i in reread) * 1e3 / per,
        "closedloop.self_ms": own * 1e3 / per,
    }


def setup_layers(tracer, builds, st):
    """Per-layer figures of the traced set-up builds (medians per build)."""
    spans = tracer.spans
    root = _spans_by_root(spans)

    def median_of(name):
        values = [rec[2] - rec[1] for rec in spans if rec[0] == name]
        return statistics.median(values) if values else 0.0

    lp_calls = sum(1 for i, rec in enumerate(spans) if rec[0] == "mpc.lp_solve"
                   and spans[root[i]][0] == "api.scenario_from_dict")
    return {
        "mpc.scenario_build_s": median_of("api.scenario_from_dict"),
        "mpc.invariant_set_s": median_of("mpc.max_invariant_set"),
        "mpc.lp_calls": lp_calls / builds,
        "lipschitz.estimate_ms": median_of("api.glc_scaled_estimate") * 1e3,
        "closedloop.dataset_build_s": median_of("api.build_offline_dataset"),
        "closedloop.dataset_samples": (
            float(len(st.ds.samples)) if st.ds is not None else 0.0),
    }


def run_loop(spec, seed, seconds, trace, log=sys.stderr):
    """One benchmark run of a closed-loop workload.

    The starts are drawn once, a reference `full` pass runs untimed (it
    warms up and gives the trajectories to check against), and then `mode`
    runs over the same starts pass after pass. An untraced run reports, for
    every step and every call, the median of its scaled times (Speed) over
    the passes; all passes compute the same trajectories. A traced run
    alternates untraced and traced passes, for the per-layer split and the
    tracing overhead.
    """
    tracer = Tracer() if trace else NullTracer()
    builds = Builds(spec, tracer)
    st = builds.st
    qp = Qp.of(st.sc.condensed)
    correct = True
    stacked = None
    if st.ds is not None:
        stacked = np.array([s.x_hat for s in st.ds.samples])
        bad = sum(not qp.kkt_certified(s.x_hat, s.z_star)
                  for s in st.ds.samples)
        if bad:
            print(f"{bad} offline samples fail their KKT certificate",
                  file=log)
            correct = False
    rng = np.random.default_rng(seed)
    starts = draw_starts(st.sc, start_box(st.sc), spec.draws, rng)
    null = NullTracer()
    refs = references(st, qp, loop_pass(spec, st, starts, "full", null))

    n_steps = spec.draws * spec.steps
    walls = []              # per untraced pass: every step's scaled time
    call_seconds = []       # per untraced pass: every call's scaled time
    traced_seconds = []
    traced_calls = []
    attempted = failed = 0
    min_passes = max(spec.min_passes, 2 if trace else 1)
    for k in passes_within(seconds, min_passes):
        builds.more()
        traced = trace and k % 2 == 1
        calls = loop_pass(spec, st, starts, spec.mode,
                          tracer if traced else null)
        for c in calls:
            if c.error:
                print(f"{spec.mode}: {c.error}", file=log)
        verdicts = check_pass(spec, st, refs, stacked, calls)
        attempted += sum(len(v) for v in verdicts)
        failed += sum(int((~v).sum()) for v in verdicts)
        if traced:
            traced_seconds.append(sum(c.seconds * c.scale for c in calls))
            traced_calls.extend(calls)
            continue
        call_seconds.append([c.seconds * c.scale for c in calls])
        w = np.full((spec.draws, spec.steps), np.nan)
        for row, c in zip(w, calls):
            times = [r.wall_time * c.scale for r in c.records[:spec.steps]]
            row[:len(times)] = times
        walls.append(w.ravel())

    if trace:
        metrics = loop_layers(tracer, traced_calls,
                              len(traced_calls) * spec.steps / 1000.0)
        metrics.update(setup_layers(tracer, len(builds.seconds), st))
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced_seconds)
            / statistics.median(sum(c) for c in call_seconds) - 1.0)
        return _result(correct, attempted, failed, metrics, PER_LAYER, tracer)
    walls = np.array(walls)
    ran = np.isfinite(walls).all(axis=0)
    if not ran.all():
        print(f"{n_steps - int(ran.sum())} steps did not run in every pass",
              file=log)
    typical = np.median(walls[:, ran], axis=0) * 1e3
    metrics = {"setup_s": builds.median,
               "op_ms_p50": _pct(typical, 50),
               "op_ms_p98": _pct(typical, 98),
               "pass_s": float(np.median(call_seconds, axis=0).sum())}
    return _result(correct, attempted, failed, metrics, END_TO_END, tracer)


def certificate_box(sc):
    """The lifted search box of the double-integrator closed-loop check:
    the terminal set's bounds on x, the input bounds on every u_t."""
    return np.vstack([_bounding_box(sc.XN.C, sc.XN.d),
                      np.tile(_bounding_box(sc.U.C, sc.U.d), (sc.N, 1))])


def certify_checks(spec, qp, box, glc_reports, sigmas, seed):
    """Verdicts for the 2 + i_max certificates of one round."""
    p_x = qp.F.shape[0]
    n_c = len(qp.w)
    rng = np.random.default_rng([seed, 1])
    # slopes between pairs of KKT-certified reference solves on random
    # row subsets; any valid kappa is at least each of them
    slope = 0.0
    xbox = box[:p_x]
    for _ in range(spec.pairs):
        x1 = rng.uniform(xbox[:, 0], xbox[:, 1])
        x2 = x1 + rng.normal(scale=0.05, size=p_x)
        rows = np.flatnonzero(rng.random(n_c) < 0.5)
        z1, z2 = qp.solve(x1, rows), qp.solve(x2, rows)
        if z1 is None or z2 is None:
            continue
        if qp.kkt_certified(x1, z1, rows) and qp.kkt_certified(x2, z2, rows):
            slope = max(slope, float(np.linalg.norm(z1 - z2)
                                     / np.linalg.norm(x1 - x2)))
    verdicts = []
    for rep in glc_reports:
        need = slope
        piece = getattr(rep, "steepest_piece", None)
        if piece is not None:
            need = max(need, qp.piece_slope(np.asarray(piece["rows"]) - 1))
        verdicts.append(bool(np.isfinite(rep.kappa)
                             and rep.kappa >= need * (1.0 - 1e-9)))
    H_lift = np.hstack([-qp.S, qp.G])
    upper = sampled_sigma(H_lift, qp.w, box, spec.i_max, 20_000,
                          seed=[seed, 2])
    # sigma_table clamps dips of this size against the previous entry
    prev = 0.0
    for i, val in enumerate(sigmas, start=1):
        ok = (upper is not None and np.isfinite(val) and val >= -1e-9
              and val >= prev - 1e-9
              and val <= upper[i] * (1.0 + 1e-7) + 1e-9)
        verdicts.append(bool(ok))
        prev = max(prev, val)
    return verdicts


def certificates(spec, sc, box):
    """(name, call) of every certificate of a round: glc(p), glc_scaled(p)
    and sigma_milp(lift(p, box), i) for i = 1..i_max, each on its own as
    sigma_table computes them."""
    p = sc.condensed
    L = qptrim.lift(p, box=box)
    ops = [("glc", functools.partial(qptrim.glc, p)),
           ("glc_scaled", functools.partial(qptrim.glc_scaled, p))]
    ops += [(f"sigma_{i}", functools.partial(qptrim.sigma_milp, L, i))
            for i in range(1, spec.i_max + 1)]
    return ops


def certify_round(ops, tracer):
    """Every certificate once; returns the outputs and their scaled times."""
    outs, times = [], []
    speed = Speed()
    with tracer.attached():
        for name, call in ops:
            with tracer.span(f"api.{name}"):
                t0 = time.perf_counter()
                outs.append(call())
                seconds = time.perf_counter() - t0
            times.append(seconds * speed.scale())
    return outs, times


def certify_layers(tracer, rounds):
    spans = tracer.spans

    def named(name):
        return [rec for rec in spans if rec[0] == name]

    def total(recs):
        return sum(rec[2] - rec[1] for rec in recs)

    glc = named("lipschitz.glc")
    glc_ids = {i for i, rec in enumerate(spans) if rec[0] == "lipschitz.glc"}
    glc_children = [rec for rec in spans if rec[3] in glc_ids]
    milp = named("lifted.milp_solve")
    relax = named("milp.lp_solve")
    return {
        "lipschitz.glc_calls": len(glc) / rounds,
        "lipschitz.glc_self_s": (total(glc) - total(glc_children)) / rounds,
        "lipschitz.realizability_lp_calls": (
            len(named("lipschitz.lp_solve")) / rounds),
        "lifted.sigma_milp_s": total(milp) / rounds,
        "lifted.bigm_lp_calls": len(named("lifted.lp_solve")) / rounds,
        "milp.nodes": sum((rec[4] or {}).get("nodes", 0) for rec in milp)
        / rounds,
        "milp.relax_lp_calls": len(relax) / rounds,
        "milp.relax_lp_ms_mean": (
            total(relax) * 1e3 / len(relax) if relax else 0.0),
    }


def run_certify(spec, seed, seconds, trace, log=sys.stderr):
    """One benchmark run of the certification workload.

    Every round repeats the same certificates, and an untraced run reports
    the median of each certificate's scaled times (Speed) over the rounds.
    A traced run alternates untraced and traced rounds.
    """
    tracer = Tracer() if trace else NullTracer()
    builds = Builds(spec, tracer)
    st = builds.st
    qp = Qp.of(st.sc.condensed)
    box = certificate_box(st.sc)
    ops = certificates(spec, st.sc, box)
    null = NullTracer()
    times, traced_seconds = [], []
    verdicts_of = {}        # identical outputs get identical verdicts
    attempted = failed = 0
    traced_rounds = 0
    min_passes = max(spec.min_passes, 2 if trace else 1)
    for k in passes_within(seconds, min_passes):
        builds.more()
        traced = trace and k % 2 == 1
        try:
            outs, t = certify_round(ops, tracer if traced else null)
        except Exception as exc:  # counted as failed certificates
            print(f"certificate failed: {type(exc).__name__}: {exc}",
                  file=log)
            attempted += len(ops)
            failed += len(ops)
            continue
        reports, sigmas = outs[:2], [float(v) for v in outs[2:]]
        key = (tuple(float(r.kappa) for r in reports), tuple(sigmas))
        if key not in verdicts_of:
            verdicts_of[key] = certify_checks(spec, qp, box, reports,
                                              sigmas, seed)
        verdicts = verdicts_of[key]
        attempted += len(verdicts)
        failed += verdicts.count(False)
        if traced:
            traced_seconds.append(sum(t))
            traced_rounds += 1
        else:
            times.append(t)

    if trace:
        metrics = certify_layers(tracer, max(traced_rounds, 1))
        metrics.update(setup_layers(tracer, len(builds.seconds), st))
        if times and traced_seconds:
            metrics["trace.overhead_pct"] = 100.0 * (
                statistics.median(traced_seconds)
                / statistics.median(sum(t) for t in times) - 1.0)
        return _result(True, attempted, failed, metrics, PER_LAYER, tracer)
    typical = np.median(np.array(times), axis=0) * 1e3 if times else []
    metrics = {"setup_s": builds.median,
               "op_ms_p50": _pct(typical, 50),
               "op_ms_p98": _pct(typical, 98),
               "pass_s": float(np.sum(typical)) / 1e3}
    return _result(True, attempted, failed, metrics, END_TO_END, tracer)


def _result(correct, attempted, failed, metrics, units, tracer):
    """The run's result line, with every metric of `units` (a layer the run
    never reached reads zero), and the tracer whose spans it came from."""
    values = dict.fromkeys(units, 0.0)
    values.update(metrics)
    return {"correct": bool(correct), "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {name: {"value": float(values[name]), "unit": unit}
                        for name, unit in units.items()}}, tracer


def _masses3(mode, small):
    return LoopSpec(
        scenario=qptrim.gen_oscillating_masses(3, h=0.5, N=10), mode=mode,
        draws=2 if small else 36, steps=10 if small else 25,
        min_passes=1 if small else MIN_PASSES)


def _di10(mode, small):
    return LoopSpec(
        scenario=qptrim.gen_double_integrator(h=0.5, N=10), mode=mode,
        draws=2 if small else 48, steps=10 if small else 25,
        spacing=0.5 if small else 0.2, min_passes=1 if small else MIN_PASSES)


def di4_certify(small=False):
    return CertifySpec(
        scenario=qptrim.gen_double_integrator(h=0.5, N=3 if small else 4),
        i_max=2 if small else 4, pairs=20 if small else 200,
        min_passes=1 if small else 3)


def kappa_zero():
    """Sabotage: kappa=0 certifies every inactive row as removable, and one
    far-off offline sample makes the trimmed loop drop rows it needs."""
    return LoopSpec(
        scenario=qptrim.gen_double_integrator(h=0.5, N=3),
        mode="offline-nearest", draws=5, steps=15,
        spacing=100.0, kappa=0.0, min_passes=1)


WORKLOADS = {
    "masses3-full": (functools.partial(_masses3, "full"), run_loop),
    "masses3-adaptive-online": (
        functools.partial(_masses3, "adaptive-online"), run_loop),
    "di10-offline-nearest": (functools.partial(_di10, "offline-nearest"),
                             run_loop),
    "di4-certify": (di4_certify, run_certify),
}
