"""Release gate: one self-contained check per acceptance criterion.

Each check re-derives its expectations from scratch (hand-worked values,
dense-grid search, explicit roll-outs) instead of trusting the formulas
under test, runs against fixed seeds, and reports a pass flag plus a short
summary and its runtime. run_all executes a selection in order, printing
one line per check. Budgets are part of the contract: a check that is
correct but slow fails its line.
"""

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .bench import (
    EQUIV_TOL,
    BenchConfig,
    draw_initial_states,
    run_bench,
    trace_deviation,
)
from .closedloop import build_offline_dataset, estimate_decay, horizon_bounds, simulate
from .lifted import (
    LiftedPolyhedron,
    containment_count,
    lift,
    lift_point,
    sigma_milp,
    sigma_table,
    theorem3_bound,
)
from .lipschitz import (
    empirical_lipschitz,
    glc,
    glc_estimate,
    glc_scaled,
    glc_scaled_estimate,
)
from .mpc import scenario_from_dict
from .mpqp import IndexSet, MpQp, example_two_halfplanes
from .plants import gen_double_integrator, gen_oscillating_masses
from .polyhedra import Polyhedron
from .qpsolver import qp_solve, solve_sample
from .simplex import OPTIMAL as LP_OPTIMAL
from .simplex import lp_solve
from .tolerances import KKT
from .trim import LicqViolation, trim_multi, trim_single


@dataclass
class CriterionResult:
    label: str
    name: str
    passed: bool
    detail: str
    seconds: float
    budget: float | None = None

    @property
    def within_budget(self) -> bool:
        return self.budget is None or self.seconds < self.budget

    @property
    def ok(self) -> bool:
        return self.passed and self.within_budget

    def line(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        spent = f"{self.seconds:.1f}s"
        if self.budget is not None:
            spent += f"/{self.budget:.0f}s"
        return f"{mark}  [{self.label}] {self.name}: {self.detail} ({spent})"

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "name": self.name,
            "passed": bool(self.passed),
            "ok": bool(self.ok),
            "detail": self.detail,
            "seconds": float(self.seconds),
            "budget": self.budget,
        }


# ---------------------------------------------------------------------------
# shared generators (the test suite's helpers import these, so the gate and
# the tests draw the same instances from the installed package)


def _random_spd(rng, n):
    m = rng.normal(size=(n, n))
    return m.T @ m + (0.3 + rng.random()) * np.eye(n)


def _random_mpqp(rng, n_z, n_x, n_c):
    """Random valid instance plus a strictly feasible parameter."""
    H = _random_spd(rng, n_z)
    F = rng.normal(size=(n_x, n_z))
    G = rng.normal(size=(n_c, n_z))
    norms = np.linalg.norm(G, axis=1)
    G[norms < 0.3] += np.sign(G[norms < 0.3, :1] + 0.5) * 0.5
    S = rng.normal(size=(n_c, n_x)) * 0.5
    z0 = rng.normal(size=n_z)
    x0 = rng.normal(size=n_x)
    w = G @ z0 - S @ x0 + rng.uniform(0.1, 2.0, size=n_c)
    return MpQp(H, F, G, S, w), x0


def _feasible_shift(p, rng, x_center, spread=0.5):
    for _ in range(50):
        x = x_center + spread * rng.normal(size=p.n_x)
        if qp_solve(p, x).is_optimal:
            return x
    return np.asarray(x_center, dtype=float)


def _random_origin_polytope(rng, n_v, n_c, box_half):
    """Unit-normal rows, offsets in [0.3, 1.2], origin interior."""
    rows = rng.normal(size=(n_c, n_v))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    w = rng.uniform(0.3, 1.2, size=n_c)
    return LiftedPolyhedron(rows, w, box=(-box_half, box_half))


def _grid_sigma(lifted, n_per_axis, chunk=200_000):
    """Dense-grid order-statistic search, [sigma_1, sigma_2]: for i = 1, 2
    the min over grid points inside the boxed polyhedron of the (i+1)-th
    smallest facet distance. Upper-biased by at most the cell half-diagonal
    (the statistic is 1-Lipschitz). Grid points are built one chunk at a
    time, in C order, so memory stays at one chunk."""
    axes = [np.linspace(lo, hi, n_per_axis) for lo, hi in lifted.box]
    shape = (n_per_axis,) * len(axes)
    total = n_per_axis ** len(axes)
    best = np.full(2, np.inf)
    for start in range(0, total, chunk):
        cell = np.unravel_index(np.arange(start, min(start + chunk, total)), shape)
        block = np.stack([ax[c] for ax, c in zip(axes, cell)], axis=1)
        dist = (lifted.w[None, :] - block @ lifted.H_lift.T) / lifted.row_norms[None, :]
        inside = np.all(dist >= 0.0, axis=1)
        if inside.any():
            kth = np.partition(dist[inside], [1, 2], axis=1)[:, 1:3]
            best = np.minimum(best, kth.min(axis=0))
    return best.tolist()


def _unit_direction(rng, n):
    d = rng.normal(size=n)
    return d / np.linalg.norm(d)


# ---------------------------------------------------------------------------
# criterion 1: the worked two-half-plane example, end to end


def golden_example(seed=0) -> CriterionResult:
    t0 = time.perf_counter()
    p = example_two_halfplanes()
    problems = []

    s1 = solve_sample(p, [-1.0])
    s2 = solve_sample(p, [-3.0])
    if not (abs(s1.z_star[0] + 3.0) <= 1e-9 and s1.active.indices == (2,)):
        problems.append(f"sample at -1: z={s1.z_star[0]:.6f}, A={s1.active.indices}")
    if not (abs(s2.z_star[0] + 3.0) <= 1e-9 and s2.active.indices == (1,)):
        problems.append(f"sample at -3: z={s2.z_star[0]:.6f}, A={s2.active.indices}")

    # this instance's exact sensitivity: z*(x) is piecewise linear with
    # slopes 0 and +-1, so the tight constant is 1
    kappa = 1.0
    o1 = trim_single(p, kappa, s1, [-2.0])
    o2 = trim_single(p, kappa, s2, [-2.0])
    if o1.kept.indices != (2,):
        problems.append(f"kept from sample -1: {o1.kept.indices}")
    if o2.kept.indices != (1,):
        problems.append(f"kept from sample -3: {o2.kept.indices}")

    for out in (o1, o2):
        z = qp_solve(p, [-2.0], out.kept).z_star[0]
        if abs(z + 2.0) > 1e-9:
            problems.append(f"trimmed solve with {out.kept.indices}: z={z:.9f}")

    # intersecting the two safe sets without re-adding active rows drops
    # everything and lands on the unconstrained minimizer
    naive = o1.kept.intersection(o2.kept)
    z_naive = qp_solve(p, [-2.0], naive).z_star[0]
    if not (naive.indices == () and abs(z_naive - 1.0) <= 1e-9):
        problems.append(f"naive intersection {naive.indices}: z={z_naive:.9f}")

    detail = (
        "index sets {2}/{1}, trimmed solves -2, naive intersection 1"
        if not problems
        else "; ".join(problems)
    )
    return CriterionResult(
        "1", "worked-example-golden", not problems, detail,
        time.perf_counter() - t0, budget=1.0,
    )


# ---------------------------------------------------------------------------
# criterion 2: trimmed and full solves agree on random instances


def zero_gap(seed=0) -> CriterionResult:
    t0 = time.perf_counter()
    n_instances = 500
    rng = np.random.default_rng(seed)
    failures = 0
    multi_cases = 0
    worst = 0.0
    for k in range(n_instances):
        n_z = int(rng.integers(1, 9))
        n_x = int(rng.integers(1, 4))
        n_c = int(rng.integers(1, 41))
        p, x0 = _random_mpqp(rng, n_z, n_x, n_c)
        kappa = glc_estimate(p).kappa
        sample = solve_sample(p, x0)
        x = _feasible_shift(p, rng, x0, spread=0.6)
        full = qp_solve(p, x)
        if not full.is_optimal:
            continue

        outcome = None
        if k % 5 == 0:
            samples = [sample]
            for _ in range(int(rng.integers(1, 5))):
                samples.append(solve_sample(p, _feasible_shift(p, rng, x0, 0.4)))
            if all(p.licq_holds(s.active) for s in samples):
                try:
                    outcome = trim_multi(p, kappa, samples, x, assume_licq=True)
                    multi_cases += 1
                except LicqViolation:
                    outcome = None
        if outcome is None:
            outcome = trim_single(p, kappa, sample, x)

        trimmed = qp_solve(p, x, outcome.kept)
        gap = float(np.linalg.norm(trimmed.z_star - full.z_star))
        worst = max(worst, gap)
        if not trimmed.is_optimal or gap > 1e-6 * (1.0 + np.linalg.norm(full.z_star)):
            failures += 1

    passed = failures == 0 and multi_cases >= 20
    detail = (
        f"{n_instances} instances ({multi_cases} multi-sample), "
        f"worst gap {worst:.2e}, {failures} failures"
    )
    return CriterionResult(
        "2", "zero-optimality-gap", passed, detail,
        time.perf_counter() - t0, budget=60.0,
    )


# ---------------------------------------------------------------------------
# criterion 3: the certified constants must dominate observed sensitivities,
# from random pairs and from a probe of every piece realizable in the box


def _kkt_certificate(p, x, idx, z):
    """Optimality of z for the row subset, from first principles: primal
    feasibility, stationarity, nonnegative multipliers on tight rows. With a
    positive definite Hessian this is sufficient, so a certified pair of
    endpoints makes an observed sensitivity ratio unimpeachable."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = np.asarray(z, dtype=float)
    rows = idx.zero_based()
    G = p.G[rows]
    rhs = p.rhs(x)[rows]
    slack = rhs - G @ z
    scale = 1.0 + np.abs(rhs)
    if np.any(slack < -KKT * scale):
        return False
    grad = p.H @ z + p.F.T @ x
    ref = 1.0 + np.linalg.norm(grad)
    tight = slack <= KKT * scale
    if not tight.any():
        return bool(np.linalg.norm(grad) <= KKT * ref)
    lam, *_ = np.linalg.lstsq(G[tight].T, -grad, rcond=None)
    resid = np.linalg.norm(G[tight].T @ lam + grad)
    return bool(resid <= KKT * ref and np.all(lam >= -KKT * (1.0 + np.abs(lam).max())))


def _confirmed_excess(p, box, seed, bound):
    """Hunt, over 2000 random pairs, for a parameter pair whose observed
    slope beats the bound, with both endpoint solves certified
    independently of the solver."""
    rng = np.random.default_rng(seed)
    for _ in range(2000):
        x1 = rng.uniform(box[:, 0], box[:, 1])
        x2 = rng.uniform(box[:, 0], box[:, 1])
        gap = float(np.linalg.norm(x1 - x2))
        if gap < 1e-9:
            continue
        keep = IndexSet(np.flatnonzero(rng.random(p.n_c) < 0.5) + 1)
        s1 = qp_solve(p, x1, keep)
        s2 = qp_solve(p, x2, keep)
        if not (s1.is_optimal and s2.is_optimal):
            continue
        if np.linalg.norm(s1.z_star - s2.z_star) / gap > bound + 1e-6:
            if _kkt_certificate(p, x1, keep, s1.z_star) and _kkt_certificate(
                p, x2, keep, s2.z_star
            ):
                return True
    return False


def _piece_probe(p, box):
    """Steepest slope measured on the pieces realizable inside the box.

    Random pairs rarely land on a steep piece, so every linearly independent
    row set A is probed directly. An LP finds the largest ball inside the
    box on which the multipliers of the subset problem I = A stay positive;
    a pair of parameters across that ball, along the piece's steepest
    direction, is solved and both endpoints are KKT-certified. Only
    certified pairs count, so the slope is measured, not computed.
    Returns (steepest certified slope, number of pieces measured).
    """
    hi_ft = np.linalg.solve(p.H, p.F.T)
    # ball of radius t inside the box: lo + t <= x <= hi - t
    eye = np.eye(p.n_x)
    in_box = np.vstack([np.column_stack([eye, np.ones(p.n_x)]),
                        np.column_stack([-eye, np.ones(p.n_x)])])
    box_rhs = np.concatenate([box[:, 1], -box[:, 0]])
    cost = np.zeros(p.n_x + 1)
    cost[-1] = -1.0
    bounds = [(None, None)] * p.n_x + [(0.0, None)]
    best, measured = 0.0, 0
    for k in range(min(p.n_z, p.n_c) + 1):
        for rows in itertools.combinations(range(p.n_c), k):
            idx = IndexSet(np.asarray(rows, dtype=int) + 1)
            if not p.licq_holds(idx):
                continue
            rows = list(rows)
            g_a = p.G[rows]
            y_a = np.linalg.solve(p.H, g_a.T)
            gram = g_a @ y_a
            # multipliers lambda(x) = -(R x + c); slope matrix D = dz/dx
            R = np.linalg.solve(gram, p.S[rows] + g_a @ hi_ft)
            c = np.linalg.solve(gram, p.w[rows])
            D = y_a @ R - hi_ft
            # maximize the radius t of a ball in the box where R x + c < 0
            C = np.vstack([np.column_stack([R, np.linalg.norm(R, axis=1)]), in_box])
            lp = lp_solve(cost, C, np.concatenate([-c, box_rhs]), bounds=bounds)
            if lp.status != LP_OPTIMAL or lp.x[-1] <= 1e-9:
                continue
            center, t = lp.x[:-1], lp.x[-1]
            direction = np.linalg.svd(D)[2][0]
            x1, x2 = center - 0.5 * t * direction, center + 0.5 * t * direction
            s1, s2 = qp_solve(p, x1, idx), qp_solve(p, x2, idx)
            if not (s1.is_optimal and s2.is_optimal):
                continue
            if not (_kkt_certificate(p, x1, idx, s1.z_star)
                    and _kkt_certificate(p, x2, idx, s2.z_star)):
                continue
            measured += 1
            best = max(best, float(np.linalg.norm(s2.z_star - s1.z_star)) / t)
    return best, measured


def lipschitz_soundness(seed=0) -> CriterionResult:
    t0 = time.perf_counter()
    n_instances = 50
    rng = np.random.default_rng(seed)
    worst = {"formula": np.inf, "scaled": np.inf}
    beaten = {"formula": 0, "scaled": 0}
    confirmed = 0
    pieces = 0
    for _ in range(n_instances):
        n_z = int(rng.integers(1, 6))
        n_x = int(rng.integers(1, 4))
        n_c = int(rng.integers(2, 16))
        p, x0 = _random_mpqp(rng, n_z, n_x, n_c)
        box = np.stack([x0 - 1.5, x0 + 1.5], axis=1)
        eseed = int(rng.integers(2**31))
        emp = empirical_lipschitz(p, 200, seed=eseed, box=box)
        probe, measured = _piece_probe(p, box)
        pieces += measured
        for name, bound in (("formula", glc(p).kappa),
                            ("scaled", glc_scaled(p).kappa)):
            margin = bound - max(emp, probe)
            worst[name] = min(worst[name], margin)
            if margin < -1e-6:
                beaten[name] += 1
                # probe pairs are certified already; random pairs are not
                if bound - probe < -1e-6 or _confirmed_excess(p, box, eseed + 1, bound):
                    confirmed += 1

    # the worked example's true slope is exactly 1
    emp_example = empirical_lipschitz(example_two_halfplanes(), 200, seed=seed)
    example_ok = emp_example <= 1.0 + 1e-6

    passed = beaten["formula"] == 0 and beaten["scaled"] == 0 and example_ok
    detail = (
        f"{n_instances} instances, {pieces} pieces probed; "
        f"worst margin plain {worst['formula']:+.2e}, "
        f"scaled {worst['scaled']:+.2e}; bounds beaten on "
        f"{beaten['formula']}+{beaten['scaled']} instances "
        f"({confirmed} certified by KKT re-check); example slope {emp_example:.6f}"
    )
    return CriterionResult(
        "3", "lipschitz-bound-soundness", passed, detail,
        time.perf_counter() - t0, budget=120.0,
    )


# ---------------------------------------------------------------------------
# criterion 4: exact thresholds vs dense grid, plus the two covering facts
# they rest on (at most i near facets within sigma_i; counted rows at the
# inflated radius always pass the removal test)


def threshold_exactness(seed=0) -> CriterionResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)

    polys = []
    for n_v, half, n_axis in ((2, 1.5, 601), (3, 1.2, 481)):
        for _ in range(10):
            n_c = int(rng.integers(n_v + 2, 11))
            polys.append((_random_origin_polytope(rng, n_v, n_c, half), n_axis))

    grid_dev = 0.0
    mono_ok = True
    tables = []
    for L, n_axis in polys:
        vals = [sigma_milp(L, i) for i in range(1, L.n_c)]
        mono_ok = mono_ok and all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
        tables.append((L, vals))
        grid_1, grid_2 = _grid_sigma(L, n_axis)
        grid_dev = max(grid_dev, abs(vals[0] - grid_1), abs(vals[1] - grid_2))

    # radius within sigma_i leaves at most i facets closer than the ball
    contain_viol = 0
    per_poly = 10_000 // len(tables)
    for L, vals in tables:
        done = 0
        while done < per_poly:
            draws = rng.uniform(L.box[:, 0], L.box[:, 1], size=(4000, L.n_v))
            dist = (L.w[None, :] - draws @ L.H_lift.T) / L.row_norms[None, :]
            for v in draws[np.all(dist >= 0.0, axis=1)]:
                i = int(rng.integers(1, L.n_c))
                if vals[i - 1] <= 0.0:
                    continue
                r = rng.uniform(0.0, vals[i - 1])
                if containment_count(L, v, r) < L.n_c - i:
                    contain_viol += 1
                done += 1
                if done >= per_poly:
                    break

    # every inactive row counted at radius sqrt(1+kappa^2)*dist in the
    # joint space must be removed by trim_single at radius kappa*dist
    removal_viol = 0
    configs = 0
    while configs < 1000:
        p, x0 = _random_mpqp(rng, n_z=2, n_x=2, n_c=8)
        L = lift(p)
        s = solve_sample(p, x0)
        v = lift_point(s)
        kappa = glc(p).kappa
        scale = float(np.sqrt(1.0 + kappa**2))
        inactive = ~s.active.to_mask(p.n_c)
        if not inactive.any():
            continue
        d_top = float(L.distances(v)[inactive].max())
        dist = float(rng.uniform(0.2, 0.9)) * d_top / scale
        if dist < 1e-3:
            continue
        x = x0 + dist * _unit_direction(rng, p.n_x)
        counted = np.flatnonzero(scale * dist <= L.distances(v)) + 1
        if counted.size == 0:
            continue
        configs += 1
        kept = trim_single(p, kappa, s, x).kept
        for j in counted:
            if int(j) not in s.active and int(j) in kept:
                removal_viol += 1

    passed = grid_dev <= 5e-3 and mono_ok and contain_viol == 0 and removal_viol == 0
    detail = (
        f"{len(polys)} polytopes, grid gap {grid_dev:.2e}, monotone={mono_ok}, "
        f"{contain_viol} containment / {removal_viol} removal violations"
    )
    return CriterionResult(
        "4", "threshold-exactness", passed, detail,
        time.perf_counter() - t0, budget=600.0,
    )


# ---------------------------------------------------------------------------
# criterion 5: kept-set size obeys the n_z + i cap at threshold distance


def kept_cardinality(seed=0) -> CriterionResult:
    t0 = time.perf_counter()
    n_instances = 100
    rng = np.random.default_rng(seed)
    instances = 0
    violations = 0
    checks = 0
    while instances < n_instances:
        n_x = int(rng.integers(1, 3))
        n_z = int(rng.integers(2, 4))
        n_v = n_x + n_z
        n_c = int(rng.integers(n_v + 3, 11))

        # joint-space rows drawn on the sphere with the decision block kept
        # away from zero; boundedness certified below, so the boxed
        # thresholds are the true ones
        rows = np.zeros((n_c, n_v))
        for i in range(n_c):
            while True:
                u = rng.normal(size=n_v)
                u /= np.linalg.norm(u)
                if np.linalg.norm(u[n_x:]) >= 0.3:
                    rows[i] = u
                    break
        w = rng.uniform(0.3, 1.2, size=n_c)
        try:
            bb = Polyhedron(rows, w).bounding_box()
        except ValueError:
            continue
        pad = 1e-7 * (1.0 + np.abs(bb))
        box = np.stack([bb[:, 0] - pad[:, 0], bb[:, 1] + pad[:, 1]], axis=1)

        p = MpQp(_random_spd(rng, n_z), rng.normal(size=(n_x, n_z)) * 0.5,
                 rows[:, n_x:], -rows[:, :n_x], w)
        L = LiftedPolyhedron(rows, w, box=box)
        table = sigma_table(L, i_max=min(n_c - 1, 4), mode="milp")

        sample = solve_sample(p, np.zeros(n_x))
        if not p.licq_holds(sample.active):
            continue
        kappa = glc(p).kappa
        scale = float(np.sqrt(1.0 + kappa**2))

        used = False
        for i, sig in table.sigma.items():
            if sig <= 1e-9:
                continue
            dist = (1.0 - 1e-9) * sig / scale
            x = dist * _unit_direction(rng, n_x)
            out = trim_single(p, kappa, sample, x)
            checks += 1
            if len(out.kept) > n_z + i:
                violations += 1
            used = True
        if used:
            instances += 1

    detail = f"{instances} instances, {checks} threshold checks, {violations} violations"
    return CriterionResult(
        "5", "kept-set-cardinality", violations == 0, detail,
        time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# criterion 6: double-integrator closed loop


def _offline_with_cap(sc, kappa, table):
    """Coarsest grid whose coverage radius yields a nontrivial kept cap."""
    for spacing in (0.2, 0.1, 0.075, 0.05, 0.04, 0.03):
        ds = build_offline_dataset(sc, spacing=spacing)
        cap = theorem3_bound(kappa, table, ds.coverage, sc.condensed.n_z)
        if cap is not None and cap < sc.condensed.n_c:
            return ds, cap
    return ds, None


def _draw_in_terminal_set(sc, n_draws, seed):
    rng = np.random.default_rng(seed)
    bb = sc.XN.bounding_box()
    out = []
    while len(out) < n_draws:
        x = rng.uniform(bb[:, 0], bb[:, 1])
        if sc.XN.contains(x):
            out.append(x)
    return out


def double_integrator_loop(seed=0) -> CriterionResult:
    t0 = time.perf_counter()
    steps, n_draws = 100, 20
    problems = []
    worst_dev = 0.0
    for N in (5, 10):
        sc = scenario_from_dict(gen_double_integrator(h=0.5, N=N))
        p = sc.condensed
        kappa = glc_scaled_estimate(p).kappa
        scale = float(np.sqrt(1.0 + kappa**2))

        ubb = sc.U.bounding_box()
        box = np.vstack([sc.XN.bounding_box(), np.tile(ubb, (N, 1))])
        L = lift(p, box=box)
        table = sigma_table(L, mode="sampled", n_samples=40_000, seed=seed)
        ds, cap = _offline_with_cap(sc, kappa, table)
        if cap is None:
            problems.append(f"N={N}: no grid spacing gave a nontrivial cap")
            continue

        draws = draw_initial_states(sc, n_draws, seed)
        fulls = [simulate(sc, x0, steps, mode="full") for x0 in draws]
        trimmed = {
            mode: [simulate(sc, x0, steps, mode=mode, kappa=kappa, offline=ds)
                   for x0 in draws]
            for mode in ("adaptive-online", "offline-nearest", "hybrid")
        }

        # (a) every trimmed mode reproduces the full trajectories
        for runs in trimmed.values():
            for tr, base in zip(runs, fulls):
                worst_dev = max(worst_dev, trace_deviation(tr, base))
        if worst_dev > EQUIV_TOL:
            problems.append(f"N={N}: trajectory deviation {worst_dev:.2e}")

        # (b) the kept count empties and the fitted decay predicts when
        for mode in ("adaptive-online", "hybrid"):
            for tr, base, x0 in zip(trimmed[mode], fulls, draws):
                if np.linalg.norm(x0) < 1e-6:
                    continue
                fz = tr.first_zero_step()
                if fz is None:
                    problems.append(f"N={N} {mode}: kept never reached 0")
                    continue
                c, beta = estimate_decay(base)
                k_hat = horizon_bounds(c, beta, float(np.linalg.norm(x0)),
                                       kappa, p, table)["K_hat"]
                if fz > max(k_hat, 1.0) + 1e-9:
                    problems.append(
                        f"N={N} {mode}: first zero {fz} > K_hat {k_hat:.0f}")

        # (c) nearest-sample reuse from inside the covered region respects
        # the coverage cap and the per-step containment certificate.  States
        # started in the terminal set stay there, so the nearest grid sample
        # is normally within the coverage radius; boundary cells whose anchor
        # fell outside the region can leave a state slightly farther out, in
        # which case the cap is re-read from the table at the actual distance.
        for x0 in _draw_in_terminal_set(sc, n_draws, seed + 1):
            tr = simulate(sc, x0, steps, mode="offline-nearest",
                          kappa=kappa, offline=ds)
            for rec in tr.records[1:]:
                near = ds.nearest(rec.x)
                dist = float(np.linalg.norm(rec.x - near.x_hat))
                cap_here = cap if dist <= ds.coverage + 1e-12 else \
                    theorem3_bound(kappa, table, dist, p.n_z)
                pointwise = p.n_z + (p.n_c - containment_count(
                    L, lift_point(near), scale * dist))
                bound = min(cap_here if cap_here is not None else p.n_c,
                            pointwise)
                if rec.kept_count > bound:
                    problems.append(
                        f"N={N} k={rec.k}: kept {rec.kept_count} > {bound}")
                    break

    detail = (
        f"worst deviation {worst_dev:.2e}, caps and decay bounds held"
        if not problems
        else "; ".join(problems[:3])
    )
    return CriterionResult(
        "6", "double-integrator-closed-loop", not problems, detail,
        time.perf_counter() - t0, budget=300.0,
    )


# ---------------------------------------------------------------------------
# criterion 7: reduced mass-chain benchmark


def mass_chain_benchmark(seed=0) -> CriterionResult:
    t0 = time.perf_counter()
    # h=0.5 keeps the reduced loop damped enough to empty the kept set
    # within the 50-step budget; the generator default stays at h=0.1
    sc = scenario_from_dict(gen_oscillating_masses(3, h=0.5, N=10))
    p = sc.condensed
    kappa = glc_scaled_estimate(p).kappa
    steps = 50
    problems = []

    draws = draw_initial_states(sc, 5, seed)
    pct = np.zeros((len(draws), steps))
    worst_dev = 0.0
    for d, x0 in enumerate(draws):
        base = simulate(sc, x0, steps, mode="full")
        tr = simulate(sc, x0, steps, mode="adaptive-online", kappa=kappa)
        worst_dev = max(worst_dev, trace_deviation(tr, base))
        pct[d] = 100.0 * tr.kept_counts() / p.n_c

    if worst_dev > EQUIV_TOL:
        problems.append(f"trajectory deviation {worst_dev:.2e}")

    mean_pct = pct.mean(axis=0)
    windows = [float(mean_pct[k:k + 10].mean()) for k in range(0, steps, 10)]
    if any(b > a + 1e-9 for a, b in zip(windows, windows[1:])):
        problems.append(f"window means not non-increasing: {windows}")
    if windows[-1] != 0.0:
        problems.append(f"final window mean {windows[-1]:.3f}%")

    detail = (
        f"5 runs, windows {['%.1f' % w for w in windows]}, "
        f"deviation {worst_dev:.2e}"
        if not problems
        else "; ".join(problems)
    )
    return CriterionResult(
        "7", "mass-chain-benchmark", not problems, detail,
        time.perf_counter() - t0, budget=600.0,
    )


# ---------------------------------------------------------------------------
# criterion 8: condensed cost and constraints vs explicit roll-out


def _rollout_residuals(sc, x, z):
    """Constraint residuals in emission order, from simulated dynamics."""
    us = np.asarray(z, dtype=float).reshape(sc.N, sc.m)
    xs = [np.asarray(x, dtype=float)]
    for t in range(sc.N):
        xs.append(sc.A @ xs[-1] + sc.B @ us[t])
    rows = []
    for t in range(sc.N):
        rows.append(sc.X.C @ xs[t] - sc.X.d)
        rows.append(sc.U.C @ us[t] - sc.U.d)
    rows.append(sc.XN.C @ xs[-1] - sc.XN.d)
    return np.concatenate(rows)


def _rollout_cost(sc, x, z):
    us = np.asarray(z, dtype=float).reshape(sc.N, sc.m)
    xs = [np.asarray(x, dtype=float)]
    for t in range(sc.N):
        xs.append(sc.A @ xs[-1] + sc.B @ us[t])
    total = float(xs[-1] @ sc.P @ xs[-1])
    for t in range(sc.N):
        total += float(xs[t] @ sc.Q @ xs[t] + us[t] @ sc.R @ us[t])
    return total


def condensation_oracle(seed=0) -> CriterionResult:
    t0 = time.perf_counter()
    n_points = 100
    rng = np.random.default_rng(seed)
    scenarios = [
        gen_double_integrator(h=0.5, N=5),
        gen_double_integrator(h=0.5, N=10),
        gen_oscillating_masses(3, h=0.5, N=10),
    ]
    problems = []
    worst = 0.0
    for spec_dict in scenarios:
        sc = scenario_from_dict(spec_dict)
        p = sc.condensed
        n_z = p.n_z

        # rows whose residual ignores the decision vector are the ones the
        # condenser must have stripped; probe with a few random z
        x_probe = rng.normal(size=sc.n)
        probes = [_rollout_residuals(sc, x_probe, rng.normal(size=n_z))
                  for _ in range(3)]
        spread = np.max(probes, axis=0) - np.min(probes, axis=0)
        dep = spread > 1e-10
        if int(dep.sum()) != p.n_c:
            problems.append(
                f"{sc.name}: {int(dep.sum())} decision-dependent rows "
                f"vs {p.n_c} condensed")
            continue

        for _ in range(n_points):
            x = rng.normal(size=sc.n) * 2.0
            z = rng.normal(size=n_z)
            resid = _rollout_residuals(sc, x, z)

            via_qp = p.G @ z - p.S @ x - p.w
            via_strip = sc.stripped_param_rows.C @ x - sc.stripped_param_rows.d
            err_rows = np.abs(via_qp - resid[dep]) / (1.0 + np.abs(resid[dep]))
            err_strip = np.abs(via_strip - resid[~dep]) / (1.0 + np.abs(resid[~dep]))

            cost_qp = 0.5 * float(z @ p.H @ z) + float(x @ p.F @ z)
            cost_roll = _rollout_cost(sc, x, z) - _rollout_cost(sc, x, np.zeros(n_z))
            err_cost = abs(cost_qp - cost_roll) / (1.0 + abs(cost_roll))

            worst = max(worst, float(err_rows.max()), float(err_cost),
                        float(err_strip.max()) if err_strip.size else 0.0)
        if worst > 1e-9:
            problems.append(f"{sc.name}: relative error {worst:.2e}")

    detail = (
        f"{len(scenarios)} scenarios x {n_points} points, worst rel err {worst:.2e}"
        if not problems
        else "; ".join(problems)
    )
    return CriterionResult(
        "8", "condensation-rollout", not problems, detail,
        time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# negative demo: a zeroed-out constant must be caught, not absorbed


def kappa_zero_demo(seed=0) -> CriterionResult:
    """Sabotage run: kappa=0 certifies every inactive row as removable, so
    a too-coarse offline net plus a saturating start must split the
    trajectories, and the bench harness must flag it."""
    t0 = time.perf_counter()
    cfg = BenchConfig(
        scenario=gen_double_integrator(h=0.5, N=3),
        modes=("offline-nearest",),
        n_draws=5,
        steps=15,
        seed=seed,
        kappa=0.0,
        offline_spacing=100.0,
    )
    res = run_bench(cfg)
    caught = (not res.ok) and len(res.violations) > 0
    worst = max((v["deviation"] for v in res.violations), default=0.0)
    detail = (
        f"bench flagged {len(res.violations)} violating runs, "
        f"worst deviation {worst:.3f}"
        if caught
        else "kappa=0 went unnoticed"
    )
    return CriterionResult(
        "demo", "kappa-zero-liveness", caught, detail, time.perf_counter() - t0,
    )


CHECKS = (
    ("1", golden_example),
    ("2", zero_gap),
    ("3", lipschitz_soundness),
    ("4", threshold_exactness),
    ("5", kept_cardinality),
    ("6", double_integrator_loop),
    ("7", mass_chain_benchmark),
    ("8", condensation_oracle),
    ("demo", kappa_zero_demo),
)


def run_all(labels=None, seed=0) -> list:
    """Run the selected checks in order, printing one line per result."""
    wanted = None if labels is None else {str(l) for l in labels}
    results = []
    for label, fn in CHECKS:
        if wanted is not None and label not in wanted:
            continue
        res = fn(seed=seed)
        print(res.line(), flush=True)
        results.append(res)
    return results
