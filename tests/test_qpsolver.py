import numpy as np
import pytest

from helpers import random_feasible_x, random_mpqp
from oracles import brute_force_qp
from qptrim.mpqp import IndexSet, MpQp, example_two_halfplanes
from qptrim.qpsolver import INFEASIBLE, qp_solve, solve_sample


class TestTwoHalfplanes:
    def test_known_solutions(self):
        p = example_two_halfplanes()
        s1 = qp_solve(p, [-1.0])
        assert s1.is_optimal
        assert np.allclose(s1.z_star, [-3.0], atol=1e-9)
        assert p.active_set([-1.0], s1.z_star) == IndexSet([2])
        assert np.allclose(s1.lam, [0.0, 7.0], atol=1e-8)

        s2 = qp_solve(p, [-3.0])
        assert np.allclose(s2.z_star, [-3.0], atol=1e-9)
        assert p.active_set([-3.0], s2.z_star) == IndexSet([1])
        assert np.allclose(s2.lam, [9.0, 0.0], atol=1e-8)

    def test_degenerate_vertex_still_solves(self):
        p = example_two_halfplanes()
        s = qp_solve(p, [-2.0])
        assert s.is_optimal
        assert np.allclose(s.z_star, [-2.0], atol=1e-9)
        active = p.active_set([-2.0], s.z_star)
        assert active == IndexSet([1, 2])
        assert not p.licq_holds(active)
        # stationarity: 2z + x + lam1 + lam2 = 0
        assert np.isclose(s.lam.sum(), 6.0, atol=1e-7)

    def test_subset_solves(self):
        p = example_two_halfplanes()
        assert np.allclose(qp_solve(p, [-2.0], IndexSet([1])).z_star, [-2.0], atol=1e-9)
        assert np.allclose(qp_solve(p, [-2.0], IndexSet([2])).z_star, [-2.0], atol=1e-9)
        # empty subset: unconstrained minimizer -x/2
        s = qp_solve(p, [-2.0], IndexSet([]))
        assert np.allclose(s.z_star, [1.0], atol=1e-12)


def kkt_residuals(p, x, sol, rows):
    g = p.F.T @ np.asarray(x, dtype=float)
    G, b = p.G[rows], p.rhs(x)[rows]
    stat = np.abs(p.H @ sol.z_star + g + G.T @ sol.lam).max()
    feas = (G @ sol.z_star - b).max(initial=0.0)
    comp = np.abs(sol.lam * (G @ sol.z_star - b)).max(initial=0.0)
    return stat, feas, comp


class TestRandomInstances:
    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(101)
        checked = 0
        for _ in range(60):
            n_z, n_x = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            n_c = int(rng.integers(1, 11))
            p, x0 = random_mpqp(rng, n_z, n_x, n_c)
            x = random_feasible_x(p, rng, x0, spread=1.0)
            sol = qp_solve(p, x)
            assert sol.is_optimal
            ref = brute_force_qp(p, x)
            assert ref is not None
            assert np.abs(sol.z_star - ref).max() <= 1e-6 * (1.0 + np.abs(ref).max())
            # random subsets too
            keep = IndexSet(np.flatnonzero(rng.random(n_c) < 0.5) + 1)
            sub = qp_solve(p, x, keep)
            if sub.is_optimal:
                ref_sub = brute_force_qp(p, x, keep)
                assert np.abs(sub.z_star - ref_sub).max() <= 1e-6 * (1.0 + np.abs(ref_sub).max())
                checked += 1
        assert checked >= 20

    def test_kkt_residuals_at_scale(self):
        rng = np.random.default_rng(77)
        for _ in range(80):
            n_z, n_x = int(rng.integers(2, 9)), int(rng.integers(1, 6))
            n_c = int(rng.integers(n_z, 41))
            p, x0 = random_mpqp(rng, n_z, n_x, n_c)
            x = random_feasible_x(p, rng, x0)
            sol = qp_solve(p, x)
            assert sol.is_optimal
            rows = np.arange(p.n_c)
            stat, feas, comp = kkt_residuals(p, x, sol, rows)
            scale = 1.0 + np.abs(p.rhs(x)).max()
            assert stat <= 1e-6 * scale
            assert feas <= 1e-8 * scale
            assert comp <= 1e-6 * scale
            assert sol.lam.min() >= -1e-8

    def test_monotonicity_in_constraint_set(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            p, x0 = random_mpqp(rng, 3, 2, 12)
            x = random_feasible_x(p, rng, x0)
            big = IndexSet(np.flatnonzero(rng.random(12) < 0.7) + 1)
            small = IndexSet([i for i in big if rng.random() < 0.6])
            vb = qp_solve(p, x, big)
            vs = qp_solve(p, x, small)
            if vb.is_optimal and vs.is_optimal:
                fs, fb = (float(0.5 * z @ p.H @ z + x @ p.F @ z)
                          for z in (vs.z_star, vb.z_star))
                assert fs <= fb + 1e-9 * (1.0 + abs(fb))

    def test_scale_invariance_of_minimizer(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            p, x0 = random_mpqp(rng, 3, 2, 10)
            x = random_feasible_x(p, rng, x0)
            phi = rng.uniform(0.2, 5.0, size=10)
            a = qp_solve(p, x)
            b = qp_solve(p.scaled(phi), x)
            assert a.is_optimal and b.is_optimal
            assert np.abs(a.z_star - b.z_star).max() <= 1e-7 * (1.0 + np.abs(a.z_star).max())


class TestInfeasible:
    def test_always_infeasible_family(self):
        p = MpQp(H=[[1.0]], F=[[0.0]], G=[[1.0], [-1.0]], S=[[0.0], [0.0]], w=[-1.0, -1.0])
        sol = qp_solve(p, [0.0])
        assert sol.status == INFEASIBLE
        assert sol.z_star is None

    def test_non_finite_parameter_rejected(self):
        # refused on entry, before any slack or multiplier turns NaN
        p = example_two_halfplanes()
        for bad in ([np.nan], [np.inf]):
            for idx in (None, IndexSet()):
                with pytest.raises(ValueError, match="not finite"):
                    qp_solve(p, bad, idx)

    def test_parameter_of_wrong_length_named(self):
        p = example_two_halfplanes()
        for solve in (qp_solve, solve_sample):
            for bad in ([1.0, 2.0], [[1.0]]):
                with pytest.raises(ValueError, match=r"expected \(1,\)"):
                    solve(p, bad)

    def test_index_above_n_c_named(self):
        p = example_two_halfplanes()
        with pytest.raises(ValueError, match="index 3 exceeds n_c=2"):
            qp_solve(p, [-2.0], IndexSet([1, p.n_c + 1]))

    def test_solve_sample_raises_on_infeasible(self):
        p = MpQp(H=[[1.0]], F=[[0.0]], G=[[1.0], [-1.0]], S=[[0.0], [0.0]], w=[-1.0, -1.0])
        with pytest.raises(ValueError):
            solve_sample(p, [0.0])


class TestWarmStart:
    def test_sample_solving_records_full_active_set(self):
        p = example_two_halfplanes()
        s = solve_sample(p, [-1.0])
        assert s.active == IndexSet([2])
        assert np.allclose(s.z_star, [-3.0], atol=1e-9)
        assert solve_sample(p, -1.0).active == IndexSet([2])
