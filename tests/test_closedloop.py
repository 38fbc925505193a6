import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qptrim import closedloop, trim
from qptrim.closedloop import (
    ClosedLoopTrace,
    DegenerateTrace,
    EmptyDataset,
    InfeasibleAtStep,
    NotExponentiallyStable,
    OriginNotInterior,
    StepRecord,
    build_offline_dataset,
    estimate_decay,
    horizon_bounds,
    simulate,
)
from qptrim.bench import draw_initial_states
from qptrim.closedloop import default_offline_spacing
from qptrim.lifted import SigmaTable, lift, sigma_table
from qptrim.lipschitz import glc_scaled, glc_scaled_estimate
from qptrim.mpc import condense, scenario_from_dict, terminal_ingredients
from qptrim.mpqp import MpQp, SolvedSample
from qptrim.plants import gen_double_integrator, gen_oscillating_masses
from qptrim.polyhedra import box
from qptrim.qpsolver import qp_solve, solve_sample
from qptrim.trim import LicqViolation, check_sample, trim_multi, trim_single
from helpers import within
from test_loop_golden import CASES, STEPS, golden


@functools.lru_cache(maxsize=None)
def di_scenario(N=4):
    A = np.array([[1.0, 0.5], [0.0, 1.0]])
    B = np.array([[0.125], [0.5]])
    X, U = box(5.0, dim=2), box(1.0, dim=1)
    P, _, XN = terminal_ingredients(A, B, np.eye(2), [[1.0]], X, U)
    return condense(A, B, np.eye(2), [[1.0]], N, X, U, XN, P=P)


@functools.lru_cache(maxsize=None)
def offline_datasets():
    """A grid dataset and a centers dataset whose first center is repeated
    last, so some queries tie exactly."""
    sc = di_scenario()
    grid = build_offline_dataset(sc, spacing=0.5)
    rng = np.random.default_rng(5)
    picks = rng.choice(len(grid.samples), size=12, replace=False)
    centers = [0.8 * grid.samples[k].x_hat for k in picks]
    centers.append(centers[0])
    return {"grid": grid, "centers": build_offline_dataset(sc, centers=centers)}


@functools.lru_cache(maxsize=None)
def masses_case():
    """Masses-3, its starts, and a centers dataset of the states a full
    run visits from other starts."""
    sc = scenario_from_dict(gen_oscillating_masses(3, h=0.5, N=10))
    centers = [r.x for x0 in draw_initial_states(sc, 2, 2)
               for r in simulate(sc, x0, 10).records]
    return (sc, draw_initial_states(sc, 4, 1),
            build_offline_dataset(sc, centers=centers))


def first_closest(samples, x):
    """Position of the first sample at the least distance from x."""
    dists = [math.sqrt(sum((a - b) ** 2 for a, b in zip(x, s.x_hat)))
             for s in samples]
    return dists.index(min(dists))


def boundary_point(poly, direction):
    """Scale `direction` until it sits on the boundary of poly."""
    direction = np.asarray(direction, dtype=float)
    rates = poly.C @ direction
    pos = rates > 1e-12
    t = float(np.min(poly.d[pos] / rates[pos]))
    return t * direction


class TestSimulateBasics:
    def test_origin_stays_put(self):
        sc = di_scenario()
        trace = simulate(sc, [0.0, 0.0], 5, mode="adaptive-online")
        assert trace.status == "ok"
        assert np.allclose(trace.states(), 0.0)
        assert np.allclose(trace.inputs(), 0.0)
        counts = trace.kept_counts()
        assert counts[0] == sc.condensed.n_c
        assert (counts[1:] == 0).all()
        assert trace.first_zero_step() == 1

    def test_full_mode_converges(self):
        sc = di_scenario()
        x0 = boundary_point(sc.XN, [1.0, 1.0])
        trace = simulate(sc, x0, 60, mode="full")
        assert np.linalg.norm(trace.states()[-1]) < 1e-4
        for r in trace.records:
            assert within(sc.X, r.x, 1e-7)
            assert within(sc.U, r.u, 1e-7)
        assert (trace.kept_counts() == sc.condensed.n_c).all()

    def test_step_recursion_exact(self):
        sc = di_scenario()
        trace = simulate(sc, boundary_point(sc.XN, [-1.0, 0.3]), 20)
        xs, us = trace.states(), trace.inputs()
        for k in range(len(xs) - 1):
            assert np.array_equal(xs[k + 1], sc.A @ xs[k] + sc.B @ us[k])

    def test_bad_mode_and_missing_dataset(self):
        sc = di_scenario()
        with pytest.raises(ValueError, match="unknown mode"):
            simulate(sc, [0, 0], 3, mode="fastest")
        with pytest.raises(ValueError, match="offline"):
            simulate(sc, [0, 0], 3, mode="offline-nearest")
        with pytest.raises(ValueError):
            simulate(sc, [0, 0, 0], 3)

    @pytest.mark.parametrize("steps", [-3, 2.5, "3"])
    def test_steps_must_be_a_nonnegative_integer(self, steps):
        with pytest.raises(ValueError, match="steps must be"):
            simulate(di_scenario(), [0.1, 0.1], steps)

    def test_zero_steps_run_nothing(self):
        trace = simulate(di_scenario(), [0.1, 0.1], np.int64(0))
        assert trace.status == "ok" and trace.records == []

    def test_record_modes_and_meta(self):
        sc = di_scenario()
        trace = simulate(sc, [0.1, 0.1], 3, mode="adaptive-online")
        assert trace.records[0].mode == "full"
        assert trace.records[1].mode == "adaptive-online"
        assert trace.meta["mode"] == "adaptive-online"
        assert trace.meta["kappa"] > 0

    def test_jsonl_roundtrip(self):
        sc = di_scenario()
        trace = simulate(sc, [0.2, -0.1], 4)
        lines = trace.to_jsonl().splitlines()
        assert len(lines) == 4
        rec = json.loads(lines[2])
        assert rec["k"] == 2
        assert set(rec) == {"k", "x", "u", "kept_count", "iterations",
                            "wall_time", "mode", "t_trim", "t_solve", "path"}
        assert rec["path"] == trace.records[2].path
        assert np.allclose(rec["x"], trace.records[2].x)


class TestInfeasibility:
    def test_state_outside_box_at_start(self):
        sc = di_scenario()
        with pytest.raises(InfeasibleAtStep) as exc:
            simulate(sc, [10.0, 0.0], 5)
        assert exc.value.k == 0
        assert exc.value.trace.status == "infeasible"
        assert exc.value.trace.records == []

    def test_non_finite_x0_rejected(self):
        sc = di_scenario()
        for bad in ([np.nan, 0.0], [0.0, np.inf]):
            with pytest.raises(ValueError, match="not finite"):
                simulate(sc, bad, 5)

    def test_bad_kappa_rejected_before_step_0(self, monkeypatch):
        sc = di_scenario()
        solves = []
        monkeypatch.setattr(closedloop, "_unconstrained",
                            lambda *a, **kw: solves.append(a))
        for bad in (np.nan, np.inf, -0.5):
            with pytest.raises(ValueError, match="kappa"):
                simulate(sc, [0.5, 0.2], 5, mode="adaptive-online",
                         kappa=bad)
        assert solves == []

    def test_qp_infeasible_at_start(self):
        sc = di_scenario()
        # inside the state box but impossible to keep there at this speed
        with pytest.raises(InfeasibleAtStep, match="infeasible"):
            simulate(sc, [4.9, 4.9], 5)


class TestTrajectoryEquivalence:
    def test_all_modes_match_full(self):
        sc = di_scenario()
        offline = build_offline_dataset(sc, spacing=0.5)
        x0 = boundary_point(sc.XN, [0.7, -1.0])
        steps = 30
        ref = simulate(sc, x0, steps, mode="full")
        for mode in ("adaptive-online", "offline-nearest", "hybrid"):
            trace = simulate(sc, x0, steps, mode=mode, offline=offline)
            assert np.abs(trace.states() - ref.states()).max() < 1e-8, mode
            assert np.abs(trace.inputs() - ref.inputs()).max() < 1e-8, mode

    def test_trimmed_modes_shrink_kept(self):
        sc = di_scenario()
        x0 = boundary_point(sc.XN, [0.7, -1.0])
        trace = simulate(sc, x0, 40, mode="adaptive-online")
        counts = trace.kept_counts()
        assert counts[1] < sc.condensed.n_c
        first = trace.first_zero_step()
        assert first is not None
        assert (counts[first:] == 0).all()
        assert counts[first - 1] > 0

    def test_kept_zero_solves_unconstrained(self):
        sc = di_scenario()
        trace = simulate(sc, [0.05, 0.0], 6, mode="adaptive-online")
        p = sc.condensed
        for r in trace.records[1:]:
            if r.kept_count == 0:
                z_free = -np.linalg.solve(p.H, p.F.T @ r.x)
                assert np.abs(r.u - z_free[:sc.m]).max() < 1e-9


def reference_loop(sc, x0, steps, mode, kappa, offline):
    """The loop built from the public trimming API alone: trim_single or
    trim_multi on SolvedSample objects, qp_solve over the kept IndexSet,
    and the active set re-read with p.active_set. Per step: input, kept
    count, iterations."""
    p = sc.condensed
    x = np.asarray(x0, dtype=float)
    prev, out = None, []
    for k in range(steps):
        if k == 0:
            sol, kept = qp_solve(p, x), p.n_c
        else:
            if mode == "adaptive-online":
                outcome = trim_single(p, kappa, prev, x)
            elif mode == "offline-nearest":
                outcome = trim_single(p, kappa, offline.nearest(x), x)
            else:
                pair = [prev, offline.nearest(x)]
                try:
                    outcome = trim_multi(p, kappa, pair, x, assume_licq=True)
                except LicqViolation:
                    outcome = trim_multi(p, kappa, pair, x)
            sol, kept = qp_solve(p, x, idx=outcome.kept), len(outcome.kept)
        u = sol.z_star[:sc.m].copy()
        prev = SolvedSample(x.copy(), sol.z_star.copy(),
                            p.active_set(x, sol.z_star))
        out.append((u, kept, sol.iterations))
        x = sc.A @ x + sc.B @ u
    return out


class TestTrimsExactly:
    """simulate trims from stored slacks; it must reproduce, bit for bit,
    the loop that trims through the public API."""

    def check(self, sc, starts, steps, offline):
        kappa = glc_scaled_estimate(sc.condensed).kappa
        for mode in ("adaptive-online", "offline-nearest", "hybrid"):
            for x0 in starts:
                trace = simulate(sc, x0, steps, mode=mode, kappa=kappa,
                                 offline=offline)
                ref = reference_loop(sc, x0, steps, mode, kappa, offline)
                assert np.array_equal(trace.inputs(),
                                      np.array([r[0] for r in ref])), mode
                assert trace.kept_counts().tolist() == [r[1] for r in ref]
                assert [r.iterations for r in trace.records] == [
                    r[2] for r in ref]

    def test_double_integrator(self):
        sc = scenario_from_dict(gen_double_integrator(h=0.5, N=5))
        offline = build_offline_dataset(sc, spacing=default_offline_spacing(sc))
        self.check(sc, draw_initial_states(sc, 6, 0), 30, offline)

    def test_dependent_rows(self):
        # a scaled copy of the upper input bound: wherever the bound is
        # active both copies are, so hybrid steps fall back to one sample
        data = gen_double_integrator(h=0.5, N=5)
        data["U"] = {"C": [[1.0], [-1.0], [2.0]], "d": [1.0, 1.0, 2.0]}
        sc = scenario_from_dict(data)
        offline = build_offline_dataset(sc, spacing=default_offline_spacing(sc))
        self.check(sc, draw_initial_states(sc, 6, 0), 30, offline)

    def test_masses(self):
        sc, starts, offline = masses_case()
        self.check(sc, starts[:3], 20, offline)


class TestHorizonBoundsOnTrace:
    def test_first_zero_step_before_bound(self):
        sc = di_scenario()
        x0 = boundary_point(sc.XN, [0.7, -1.0])
        kappa = glc_scaled(sc.condensed).kappa
        ref = simulate(sc, x0, 60, mode="full")
        c, beta = estimate_decay(ref)
        dummy = SigmaTable(sigma={1: 0.0}, method="sampled", r_max=1.0)
        bounds = horizon_bounds(c, beta, float(np.linalg.norm(x0)), kappa,
                                sc.condensed, dummy)
        khat = bounds["K_hat"]
        assert math.isfinite(khat)
        steps = min(int(khat) + 5, 200)
        trace = simulate(sc, x0, steps, mode="adaptive-online", kappa=kappa)
        first = trace.first_zero_step()
        assert first is not None and first <= khat

    def test_kept_envelope_with_exact_sigma(self):
        # short-horizon clone keeps the lifted geometry small enough to
        # get exact sigma values, then the per-i step bounds must cap the
        # kept counts they claim to cap
        sc = di_scenario(N=1)
        p = sc.condensed
        kappa = glc_scaled(p).kappa
        bb = sc.XN.bounding_box()
        vbox = np.vstack([bb, [[-1.0, 1.0]]])
        L = lift(p, box=vbox)
        table = sigma_table(L, i_max=3, mode="milp")
        x0 = boundary_point(sc.XN, [0.7, -1.0])
        ref = simulate(sc, x0, 40, mode="full")
        c, beta = estimate_decay(ref)
        bounds = horizon_bounds(c, beta, float(np.linalg.norm(x0)), kappa,
                                p, table)
        trace = simulate(sc, x0, 40, mode="adaptive-online", kappa=kappa)
        counts = trace.kept_counts()
        for i, k_i in bounds["K_i"].items():
            if not math.isfinite(k_i):
                continue
            start = max(int(k_i), 1)
            for k in range(start, len(counts)):
                assert counts[k] <= p.n_z + i


class TestOfflineDataset:
    def test_grid_build(self):
        sc = di_scenario()
        ds = build_offline_dataset(sc, spacing=0.5)
        assert len(ds.samples) > 5
        assert not ds.coverage_is_estimate
        assert abs(ds.coverage - 0.5 * 0.5 * math.sqrt(2)) < 1e-12
        for s in ds.samples:
            assert within(sc.XN, s.x_hat, 1e-9)

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(["grid", "centers"]), data=st.data())
    def test_nearest_matches_scan(self, kind, data):
        ds = offline_datasets()[kind]
        n = len(ds.samples)
        if data.draw(st.booleans(), label="midpoint"):
            # equidistant from two samples: the tie goes to the first
            i = data.draw(st.integers(0, n - 1), label="i")
            j = data.draw(st.integers(0, n - 1), label="j")
            x = 0.5 * (ds.samples[i].x_hat + ds.samples[j].x_hat)
        else:
            coord = st.floats(-8.0, 8.0, allow_nan=False)
            x = np.array(data.draw(st.tuples(coord, coord), label="x"))
        assert ds.nearest(x) is ds.samples[first_closest(ds.samples, x)]

    def test_equality_is_identity(self):
        # array fields: a field-wise == would raise on two alike datasets
        sc = scenario_from_dict(gen_double_integrator(h=0.5, N=3))
        a = build_offline_dataset(sc, spacing=0.5)
        b = build_offline_dataset(sc, spacing=0.5)
        assert a == a and not a == b and a != b
        assert a.samples[0] == a.samples[0]
        assert not a.samples[0] == b.samples[0]

    def test_nearest_rejects_nan_query(self):
        sc = scenario_from_dict(gen_double_integrator(h=0.5, N=5))
        ds = build_offline_dataset(sc, spacing=0.5)
        with pytest.raises(ValueError, match="not finite"):
            ds.nearest([np.nan, 0.0])

    def test_nearest_rejects_query_of_wrong_length(self):
        sc = scenario_from_dict(gen_double_integrator(h=0.5, N=3))
        ds = build_offline_dataset(sc, spacing=0.5)
        with pytest.raises(ValueError, match="expected 2"):
            ds.nearest([0.3])

    def test_coarse_grid_degenerates_to_center(self):
        sc = di_scenario()
        ds = build_offline_dataset(sc, spacing=100.0)
        assert len(ds.samples) == 1
        # coverage falls back to the set's circumradius, not 50*sqrt(2)
        assert ds.coverage < 8.0

    def test_centers_mode(self):
        sc = di_scenario()
        ds = build_offline_dataset(sc, centers=[[0.0, 0.0], [0.5, -0.25]])
        assert ds.coverage_is_estimate
        assert ds.coverage > 0
        assert ds.nearest([0.4, -0.2]) is ds.samples[1]

    def test_infeasible_center_skipped(self):
        sc = di_scenario()
        with pytest.warns(UserWarning, match="skipping"):
            ds = build_offline_dataset(sc, centers=[[0.0, 0.0], [50.0, 50.0]])
        assert len(ds.samples) == 1

    def test_center_of_wrong_length_named(self):
        with pytest.raises(ValueError, match=r"expected \(2,\)"):
            build_offline_dataset(di_scenario(), centers=[[0.0, 0.0, 0.0]])

    def test_all_points_infeasible(self):
        sc = di_scenario()
        with pytest.warns(UserWarning):
            with pytest.raises(EmptyDataset):
                build_offline_dataset(sc, centers=[[50.0, 50.0]])

    def test_argument_validation(self):
        sc = di_scenario()
        with pytest.raises(ValueError):
            build_offline_dataset(sc)
        with pytest.raises(ValueError):
            build_offline_dataset(sc, spacing=0.5, centers=[[0.0, 0.0]])
        with pytest.raises(ValueError):
            build_offline_dataset(sc, spacing=-1.0)

    @pytest.mark.parametrize("spacing", [math.nan, math.inf])
    def test_non_finite_spacing_rejected(self, spacing):
        with pytest.raises(ValueError, match="spacing must be finite"):
            build_offline_dataset(di_scenario(), spacing=spacing)

    def test_build_and_trimmed_loop_call_no_check_sample(self, monkeypatch):
        # the build forms every sample's triple as it solves it, so
        # check_sample runs only on samples that enter from outside
        sc = di_scenario()
        checked = []
        real = trim.check_sample
        monkeypatch.setattr(trim, "check_sample",
                            lambda p, s: checked.append(s) or real(p, s))
        ds = build_offline_dataset(sc, spacing=0.5)
        # a different problem object, equal in value, is accepted
        copy = dataclasses.replace(
            sc, condensed=MpQp.from_dict(sc.condensed.to_dict()))
        assert copy.condensed is not sc.condensed
        x0 = boundary_point(sc.XN, [-1.0, 0.3])
        for mode in ("offline-nearest", "hybrid"):
            first = simulate(sc, x0, 20, mode=mode, offline=ds)
            again = simulate(copy, x0, 20, mode=mode, offline=ds)
            assert np.array_equal(again.inputs(), first.inputs()), mode
        assert checked == []

    @pytest.mark.parametrize("case", ["grid", "masses"])
    def test_entries_are_check_samples_triples(self, case):
        # check_sample stays the oracle for the triples the build forms
        if case == "grid":
            sc = scenario_from_dict(gen_double_integrator(h=0.5, N=10))
            ds = build_offline_dataset(sc, spacing=0.2)
            assert len(ds.samples) == 349
        else:
            sc, _, ds = masses_case()
        p = sc.condensed
        assert ds.problem is p
        assert isinstance(ds.samples, tuple)
        assert len(ds.entries) == len(ds.samples)
        for s in ds.samples:
            (x_hat, gz, active), licq = ds.entries[id(s)]
            want = check_sample(p, s)
            assert x_hat is want[0]
            assert gz.tobytes() == want[1].tobytes()
            assert np.array_equal(active, want[2])
            assert licq == p.licq_holds(s.active)

    def test_samples_cannot_change_after_the_build(self):
        # the searched points and the entries are built from the samples,
        # so a sample inserted later would never be found and the later
        # samples' indices would no longer match their points
        sc = scenario_from_dict(gen_double_integrator(h=0.5, N=3))
        ds = build_offline_dataset(sc, spacing=0.5)
        assert len(ds.samples) == 65
        x = [0.05, 0.05]
        before = ds.nearest(x)
        s = solve_sample(sc.condensed, x)
        with pytest.raises(AttributeError):
            ds.samples.insert(0, s)
        with pytest.raises(TypeError):
            ds.samples[0] = s
        assert len(ds.samples) == 65
        assert ds.nearest(x) is before

    def test_hybrid_reads_offline_licq_from_the_build(self, monkeypatch):
        sc = di_scenario()
        calls = []
        real = MpQp.licq_holds
        monkeypatch.setattr(MpQp, "licq_holds",
                            lambda p, active: calls.append(active)
                            or real(p, active))
        ds = build_offline_dataset(sc, spacing=0.5)
        assert len(calls) == len(ds.samples)
        # a step tests only the loop's own active rows
        x0 = boundary_point(sc.XN, [-1.0, 0.3])
        calls.clear()
        first = simulate(sc, x0, 20, mode="hybrid", offline=ds)
        assert len(calls) == 19
        calls.clear()
        again = simulate(sc, x0, 20, mode="hybrid", offline=ds)
        assert len(calls) == 19
        assert np.array_equal(again.inputs(), first.inputs())

    @pytest.mark.parametrize("mode", ["offline-nearest", "hybrid"])
    def test_bad_dataset_rejected_before_step_0(self, monkeypatch, mode):
        # a dataset built for another problem: same shapes, other w
        sc = di_scenario()
        p = sc.condensed
        other = dataclasses.replace(
            sc, condensed=MpQp(p.H, p.F, p.G, p.S, 2.0 * p.w))
        ds = build_offline_dataset(other, spacing=0.5)
        x0 = boundary_point(sc.XN, [-1.0, 0.3])
        solves = []
        monkeypatch.setattr(closedloop, "_unconstrained",
                            lambda *a, **kw: solves.append(a))
        with pytest.raises(ValueError, match="another problem"):
            simulate(sc, x0, 20, mode=mode, offline=ds)
        assert solves == []


def synthetic_single_row(w=10.0):
    # 1-D problem with unit row data so the bound formulas are easy to
    # evaluate by hand
    return MpQp(H=[[1.0]], F=[[1.0]], G=[[1.0]], S=[[1.0]], w=[w])


class TestHorizonBoundFormulas:
    def test_scalar_hand_values(self):
        p = synthetic_single_row()
        table = SigmaTable(sigma={1: 4.0}, method="milp", r_max=100.0)
        out = horizon_bounds(1.0, 0.5, 1.0, 1.0, p, table)
        # K1: 10 / (1*1*2*(1+1)) = 2.5 >= 1, so clamp at 0
        assert out["K1_hat"] == 0.0
        # K2: rho = 1*(1*3 + 1 + 1*2) = 6; 10/6 >= 1, clamp at 0
        assert out["K2_hat"] == 0.0
        assert out["K_hat"] == 0.0
        # K_1: 4 / (1*1*3*sqrt(2)) < 1 -> ceil(log_0.5(0.9428)) = 1
        assert out["K_i"][1] == 1.0

    def test_k_i_positive_case(self):
        p = synthetic_single_row()
        table = SigmaTable(sigma={1: 0.1, 2: 0.1}, method="milp", r_max=1.0)
        out = horizon_bounds(1.0, 0.5, 1.0, 0.0, p, table)
        # 0.1/3 -> log_0.5 = 4.907 -> ceil 5
        assert out["K_i"][1] == 5.0
        assert out["K_i"][2] == 5.0

    def test_zero_sigma_is_never(self):
        p = synthetic_single_row()
        table = SigmaTable(sigma={1: 0.0}, method="milp", r_max=1.0)
        out = horizon_bounds(1.0, 0.5, 1.0, 1.0, p, table)
        assert out["K_i"][1] == math.inf

    def test_zero_x0_all_zero(self):
        p = synthetic_single_row()
        table = SigmaTable(sigma={1: 0.0}, method="milp", r_max=1.0)
        out = horizon_bounds(1.0, 0.5, 0.0, 1.0, p, table)
        assert out["K_i"][1] == 0.0
        assert out["K_hat"] == 0.0

    def test_small_w_forces_positive_khat(self):
        p = synthetic_single_row(w=0.01)
        table = SigmaTable(sigma={1: 1.0}, method="milp", r_max=1.0)
        out = horizon_bounds(1.0, 0.5, 1.0, 1.0, p, table)
        # K1: 0.01/4 -> ceil(log_0.5(0.0025)) = ceil(8.64) = 9
        assert out["K1_hat"] == 9.0
        # K2: 0.01/6 -> ceil(log_0.5(0.001667)) = ceil(9.23) = 10
        assert out["K2_hat"] == 10.0
        assert out["K_hat"] == 10.0

    def test_origin_not_interior(self):
        p = MpQp(H=[[1.0]], F=[[1.0]], G=[[1.0]], S=[[1.0]], w=[0.0])
        table = SigmaTable(sigma={1: 1.0}, method="milp", r_max=1.0)
        with pytest.raises(OriginNotInterior):
            horizon_bounds(1.0, 0.5, 1.0, 1.0, p, table)

    def test_parameter_validation(self):
        p = synthetic_single_row()
        table = SigmaTable(sigma={1: 1.0}, method="milp", r_max=1.0)
        for c, beta in ((0.0, 0.5), (1.0, 1.0), (1.0, 0.0), (-1.0, 0.5)):
            with pytest.raises(ValueError):
                horizon_bounds(c, beta, 1.0, 1.0, p, table)

    @pytest.mark.parametrize("name", ["c", "x0_norm", "kappa"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_bad_argument_named(self, name, value):
        p = synthetic_single_row()
        table = SigmaTable(sigma={1: 1.0}, method="milp", r_max=1.0)
        args = {"c": 1.0, "x0_norm": 1.0, "kappa": 1.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be"):
            horizon_bounds(args["c"], 0.5, args["x0_norm"], args["kappa"],
                           p, table)


class TestEstimateDecay:
    def test_exact_geometric(self):
        states = [(0.5 ** k) * np.array([1.0, 1.0]) for k in range(12)]
        c, beta = estimate_decay(states)
        assert abs(beta - 0.5) < 1e-6
        assert abs(c - 1.0) < 1e-6

    def test_envelope_majorizes(self):
        rng = np.random.default_rng(8)
        norms = 2.0 * 0.9 ** np.arange(20) * rng.uniform(0.4, 1.0, 20)
        norms[0] = 1.0
        states = norms[:, None]
        c, beta = estimate_decay(states)
        k = np.arange(20)
        assert (c * norms[0] * beta ** k + 1e-12 >= norms).all()

    def test_constant_trace_rejected(self):
        states = np.ones((10, 2))
        with pytest.raises(NotExponentiallyStable):
            estimate_decay(states)

    def test_short_trace_rejected(self):
        with pytest.raises(ValueError):
            estimate_decay(np.ones((4, 2)) * [[1], [2], [3], [4]])

    def test_zero_x0_rejected(self):
        states = np.zeros((10, 2))
        states[1:] = 1.0
        with pytest.raises(ValueError):
            estimate_decay(states)

    def test_early_zero_degenerate(self):
        states = np.ones((10, 1))
        states[3] = 0.0
        with pytest.raises(DegenerateTrace):
            estimate_decay(states)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_state_named(self, value):
        states = [(0.5 ** k) * np.ones(2) for k in range(10)]
        states[6][1] = value
        with pytest.raises(ValueError, match="step 6"):
            estimate_decay(states)

    def test_late_zero_truncates(self):
        states = [(0.5 ** k) * np.ones(1) for k in range(8)]
        states += [np.zeros(1), np.zeros(1)]
        c, beta = estimate_decay(states)
        assert abs(beta - 0.5) < 1e-6

    def test_works_on_trace_object(self):
        recs = [StepRecord(k, (0.7 ** k) * np.ones(2), np.zeros(1),
                           0, 1, 0.0, "full", 0.0, 0.0, "z0")
                for k in range(10)]
        c, beta = estimate_decay(ClosedLoopTrace(recs))
        assert abs(beta - 0.7) < 1e-6


class FakeClock:
    """A stand-in for the time module whose perf_counter advances by 1 per
    call; `now` may be advanced by hand."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        self.now += 1.0
        return self.now


@pytest.mark.parametrize("name, mode", [
    (name, mode) for name in sorted(CASES) for mode in CASES[name][4]
    if mode != "full"])
def test_trim_follows_the_input_on_a_step_settled_at_z0(monkeypatch, name,
                                                         mode):
    # the fold and the nearest-sample search each cost 1000 ticks: a
    # trimmed step settled at z0 runs them after its input, outside its
    # wall time, and any other trimmed step before its solve, inside it;
    # either way the kept counts are the golden's
    clock = FakeClock()
    monkeypatch.setattr(closedloop, "time", clock)

    def slow(f):
        def wrapped(*args):
            clock.now += 1000.0
            return f(*args)
        return wrapped

    monkeypatch.setattr(closedloop, "_kept_mask",
                        slow(closedloop._kept_mask))
    monkeypatch.setattr(closedloop.OfflineDataset, "nearest",
                        slow(closedloop.OfflineDataset.nearest))
    make, n_starts, seed, spacing, _ = CASES[name]
    sc = scenario_from_dict(make())
    offline = (None if spacing is None
               else build_offline_dataset(sc, spacing=spacing))
    paths = set()
    starts = draw_initial_states(sc, n_starts, seed)
    for x0, want in zip(starts, golden()[name][mode], strict=True):
        trace = simulate(sc, x0, STEPS, mode=mode, offline=offline)
        assert trace.kept_counts().tolist() == want[1]
        for r in trace.records[1:]:
            assert (r.wall_time < 1000.0) == (r.path == "z0")
            assert r.t_trim >= 1000.0
            paths.add(r.path)
    assert paths >= {"z0", "guess"}
