import itertools
import json
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from qptrim.lifted import (
    LiftedPolyhedron,
    NoFeasibleSamples,
    NotInPolyhedron,
    SigmaTable,
    UnboundedLift,
    containment_count,
    lift,
    lift_point,
    sigma_milp,
    sigma_sample,
    sigma_table,
    theorem3_bound,
)
from qptrim.lipschitz import glc
from qptrim.mpc import scenario_from_dict
from qptrim.plants import gen_double_integrator
from qptrim.mpqp import example_two_halfplanes
from qptrim.qpsolver import solve_sample
from qptrim.trim import trim_single
from qptrim.verify import _grid_sigma, _random_origin_polytope

from helpers import random_mpqp
from oracles import reference_sigma_milp


def unit_square(box=(-2.0, 2.0)):
    return LiftedPolyhedron(
        H_lift=[[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0]],
        w=[0.0, 0.0, 1.0, 1.0],
        box=box,
    )


def check4_polytopes():
    """Check 4's family of polytopes, n_v 2-3 with up to 10 rows."""
    rng = np.random.default_rng(38)
    return [_random_origin_polytope(rng, n_v, int(rng.integers(n_v + 2, 11)),
                                    half)
            for n_v, half in ((2, 1.5), (3, 1.2)) for _ in range(5)]


def double_integrator_lifted():
    """The lifted double integrator at N=4 in its certificate box."""
    sc = scenario_from_dict(gen_double_integrator(h=0.5, N=4))
    box = np.vstack([sc.XN.bounding_box(),
                     np.tile(sc.U.bounding_box(), (sc.N, 1))])
    return lift(sc.condensed, box=box)


def subset_lp_sigma(L, i):
    """sigma_i without the MILP: the minimum over (i+1)-row subsets S of the
    smallest r such that some v in the boxed polyhedron has d_j(v) <= r for
    every j in S, one scipy LP per subset."""
    unit = L.H_lift / L.row_norms[:, None]
    wn = L.w / L.row_norms
    best = np.inf
    for rows in itertools.combinations(range(L.n_c), i + 1):
        S = list(rows)
        A = np.vstack([np.hstack([L.H_lift, np.zeros((L.n_c, 1))]),
                       np.hstack([-unit[S], -np.ones((len(S), 1))])])
        b = np.concatenate([L.w, -wn[S]])
        cost = np.zeros(L.n_v + 1)
        cost[-1] = 1.0
        res = linprog(cost, A_ub=A, b_ub=b,
                      bounds=[tuple(r) for r in L.box] + [(None, None)],
                      method="highs")
        assert res.status == 0
        best = min(best, res.fun)
    return best


class TestLift:
    def test_two_halfplanes_rows(self):
        L = lift(example_two_halfplanes())
        np.testing.assert_allclose(L.H_lift, [[-1.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(L.w, [0.0, -4.0])
        np.testing.assert_allclose(L.row_norms, [np.sqrt(2.0)] * 2)

    def test_sample_point_lands_inside(self):
        p = example_two_halfplanes()
        L = lift(p)
        v = lift_point(solve_sample(p, [-1.0]))
        np.testing.assert_allclose(v, [-1.0, -3.0])
        np.testing.assert_allclose(L.H_lift @ v, [-2.0, -4.0])
        assert L.contains(v)

    def test_any_solved_sample_lands_inside(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            p, x0 = random_mpqp(rng, n_z=3, n_x=2, n_c=7)
            L = lift(p)
            assert L.contains(lift_point(solve_sample(p, x0)))

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError, match="zero norm"):
            LiftedPolyhedron([[0.0, 0.0], [1.0, 0.0]], [1.0, 1.0])

    def test_equality_is_identity(self):
        # the fields are arrays: == compares objects, content_hash values
        a, b = unit_square(), unit_square()
        assert not a == b and a != b
        assert a == a
        assert a.content_hash() == b.content_hash()

    def test_box_validation(self):
        with pytest.raises(ValueError):
            LiftedPolyhedron([[1.0, 0.0]], [1.0], box=[(0.0, 1.0)])
        with pytest.raises(ValueError):
            LiftedPolyhedron([[1.0, 0.0]], [1.0],
                             box=[(0.0, -1.0), (0.0, 1.0)])


class TestContainmentCount:
    def test_interior_zero_radius_counts_all(self):
        L = unit_square()
        assert containment_count(L, [0.3, 0.4], 0.0) == 4

    def test_vertex_counts_nothing(self):
        p = example_two_halfplanes()
        L = lift(p)
        assert containment_count(L, [-2.0, -2.0], 1e-6) == 0

    def test_half_ball_at_facet(self):
        p = example_two_halfplanes()
        L = lift(p)
        # d1 = sqrt(2), d2 = 0 at the lifted sample point
        assert containment_count(L, [-1.0, -3.0], 0.5) == 1

    def test_outside_point_rejected(self):
        L = unit_square()
        with pytest.raises(NotInPolyhedron):
            containment_count(L, [3.0, 0.0], 0.1)


class TestSigmaSample:
    def test_square_corner_drives_small_i_to_zero(self):
        val = sigma_sample(unit_square(), 1, n_samples=60000, seed=0)
        assert 0.0 <= val <= 0.15

    def test_square_largest_stat_near_half_side(self):
        val = sigma_sample(unit_square(), 3, n_samples=60000, seed=0)
        assert 0.5 - 1e-12 <= val <= 0.6

    def test_degenerate_i_capped(self):
        L = LiftedPolyhedron([[1.0, 0.0]], [1.0], box=(-2.0, 2.0))
        diag = np.linalg.norm([4.0, 4.0])
        assert sigma_sample(L, 1) == pytest.approx(diag)

    def test_no_feasible_samples(self):
        # x <= -5 and x >= -4: empty, and i=1 < n_c so the cap path is skipped
        L = LiftedPolyhedron([[1.0, 0.0], [-1.0, 0.0]], [-5.0, 4.0],
                             box=(0.0, 1.0))
        with pytest.raises(NoFeasibleSamples):
            sigma_sample(L, 1, n_samples=50)

    def test_requires_box(self):
        L = LiftedPolyhedron([[1.0, 0.0]], [1.0])
        with pytest.raises(UnboundedLift):
            sigma_sample(L, 1)
        with pytest.raises(ValueError):
            sigma_sample(unit_square(), 0)

    def test_sample_count_below_one_rejected(self):
        # no draw cannot be told from draws that all miss the polyhedron
        for n_samples in (0, -5):
            with pytest.raises(ValueError, match="n_samples must be >= 1"):
                sigma_sample(unit_square(), 1, n_samples=n_samples)


class TestSigmaMilp:
    def test_two_halfplanes_threshold_zero(self):
        L = lift(example_two_halfplanes(), box=(-10.0, 10.0))
        assert sigma_milp(L, 1) <= 1e-6

    def test_unit_square_thresholds(self):
        # corners zero out two distances, so i=1 gives 0; at most two
        # distances sit below half the side anywhere, so i=2 and i=3 both
        # give side/2
        L = unit_square()
        assert sigma_milp(L, 1) == pytest.approx(0.0, abs=1e-6)
        assert sigma_milp(L, 2) == pytest.approx(0.5, abs=1e-6)
        assert sigma_milp(L, 3) == pytest.approx(0.5, abs=1e-6)

    def test_row_scaling_shrinks_square(self):
        L = LiftedPolyhedron(
            [[-1.0, 0.0], [0.0, -1.0], [2.0, 0.0], [0.0, 2.0]],
            [0.0, 0.0, 1.0, 1.0],
            box=(-2.0, 2.0),
        )
        assert sigma_milp(L, 2) == pytest.approx(0.25, abs=1e-6)
        assert sigma_milp(L, 3) == pytest.approx(0.25, abs=1e-6)

    def test_never_above_sampling(self):
        rng = np.random.default_rng(33)
        for _ in range(6):
            L = _random_origin_polytope(rng, 2, int(rng.integers(3, 7)), 1.5)
            for i in (1, 2):
                exact = sigma_milp(L, i)
                sampled = sigma_sample(L, i, n_samples=4000, seed=1)
                assert exact <= sampled + 1e-6

    def test_matches_dense_grid(self):
        rng = np.random.default_rng(34)
        for _ in range(4):
            L = _random_origin_polytope(rng, 2, int(rng.integers(4, 7)), 1.5)
            for i, coarse in zip((1, 2), _grid_sigma(L, 601)):
                assert abs(sigma_milp(L, i) - coarse) <= 5e-3

    def test_matches_subset_lp_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(8):
            n_v = int(rng.integers(2, 4))
            L = _random_origin_polytope(rng, n_v, int(rng.integers(n_v + 1, 8)), 1.5)
            for i in range(1, min(3, L.n_c - 1) + 1):
                assert sigma_milp(L, i) == pytest.approx(
                    subset_lp_sigma(L, i), abs=1e-7)

    def test_rounded_leaf_leaves_every_value_bitwise(self, monkeypatch):
        # check 4's polytopes: with and without the root's rounded leaf,
        # every threshold is the same float, and the leaf closes some
        # searches at the root but not all
        import qptrim.lifted as lifted_mod

        rng = np.random.default_rng(38)
        polys = [_random_origin_polytope(rng, n_v, int(rng.integers(n_v + 2, 11)),
                                         half)
                 for n_v, half in ((2, 1.5), (3, 1.2)) for _ in range(5)]
        real = lifted_mod.milp_solve
        nodes = []

        def plain(*args, rounding, **kwargs):
            return real(*args, **kwargs)

        def counting(*args, **kwargs):
            res = real(*args, **kwargs)
            nodes.append(res.nodes)
            return res

        monkeypatch.setattr(lifted_mod, "milp_solve", counting)
        rounded = [sigma_milp(L, i).hex() for L in polys for i in range(1, L.n_c)]
        monkeypatch.setattr(lifted_mod, "milp_solve", plain)
        searched = [sigma_milp(L, i).hex() for L in polys for i in range(1, L.n_c)]
        assert rounded == searched
        assert 0 < nodes.count(2) < len(nodes)

    def test_double_integrator_thresholds_close_at_the_root(self, monkeypatch):
        # sigma_i = 0 for i = 1..4 on the double integrator at N=4: the
        # rounded leaf meets the root bound, so each search takes 2 nodes,
        # and the one cold LP is the polyhedron's cached root
        import qptrim.lifted as lifted_mod
        from qptrim.simplex import Relaxation

        L = double_integrator_lifted()
        L.big_m         # its probes are LPs of their own
        real, real_solve = lifted_mod.milp_solve, Relaxation.solve
        nodes, cold = [], []

        def counting(*args, **kwargs):
            res = real(*args, **kwargs)
            nodes.append(res.nodes)
            return res

        def solving(self):
            cold.append(1)
            return real_solve(self)

        monkeypatch.setattr(lifted_mod, "milp_solve", counting)
        monkeypatch.setattr(Relaxation, "solve", solving)
        assert sigma_table(L, i_max=4).sigma == dict.fromkeys(range(1, 5), 0.0)
        assert nodes == [2] * 4
        assert len(cold) == 1

    def test_values_do_not_depend_on_the_order_of_calls(self):
        def fresh(L):
            return LiftedPolyhedron(L.H_lift, L.w, box=L.box)

        for L in check4_polytopes():
            orders = range(1, L.n_c)
            up, down = fresh(L), fresh(L)
            ascending = [sigma_milp(up, i).hex() for i in orders]
            descending = [sigma_milp(down, i).hex() for i in reversed(orders)]
            alone = [sigma_milp(fresh(L), i).hex() for i in orders]
            assert ascending == descending[::-1] == alone

    def test_cached_root_matches_a_cold_root_per_i(self):
        # zeros stay exact (horizon_bounds reads sigma == 0 as "never");
        # the rest may end on another vertex of the same degenerate root
        cases = [(L, range(1, L.n_c)) for L in check4_polytopes()]
        cases.append((double_integrator_lifted(), range(1, 5)))
        zeros = others = 0
        for L, orders in cases:
            for i in orders:
                ref, val = reference_sigma_milp(L, i), sigma_milp(L, i)
                if ref == 0.0:
                    assert val == 0.0
                    zeros += 1
                else:
                    assert abs(val - ref) <= 1e-12 * (1.0 + abs(ref))
                    others += 1
        assert zeros > 4 and others > 0

    def test_big_m_probed_once_per_polyhedron(self, monkeypatch):
        import qptrim.lifted as lifted_mod

        calls = []
        real = lifted_mod.lp_solve

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(lifted_mod, "lp_solve", counting)
        L = unit_square()
        sigma_table(L)
        assert len(calls) == L.n_c

    def test_supplied_big_m_and_degenerate_i(self):
        L = unit_square()
        assert sigma_milp(L, 4) == pytest.approx(np.linalg.norm([4.0, 4.0]))

    def test_empty_intersection_rejected(self):
        L = LiftedPolyhedron([[1.0, 0.0], [-1.0, 0.0]], [-5.0, 4.0],
                             box=(0.0, 1.0))
        with pytest.raises(UnboundedLift):
            sigma_milp(L, 1)
        no_box = LiftedPolyhedron([[1.0, 0.0], [-1.0, 0.0]], [1.0, 1.0])
        with pytest.raises(UnboundedLift):
            sigma_milp(no_box, 1)


class TestSigmaTable:
    def test_monotone_and_example_value(self):
        L = lift(example_two_halfplanes(), box=(-10.0, 10.0))
        t = sigma_table(L)
        assert set(t.sigma) == {1}
        assert t.sigma[1] <= 1e-6
        assert t.method == "milp"

    def test_square_table_monotone(self):
        t = sigma_table(unit_square())
        vals = [t.sigma[i] for i in sorted(t.sigma)]
        assert vals == sorted(vals)
        assert t.sigma[1] == pytest.approx(0.0, abs=1e-6)
        assert t.sigma[3] == pytest.approx(0.5, abs=1e-6)

    def test_sampled_mode_monotone_and_flagged(self):
        t = sigma_table(unit_square(), mode="sampled", n_samples=20000)
        vals = [t.sigma[i] for i in sorted(t.sigma)]
        assert vals == sorted(vals)
        assert t.method == "sampled"

    def test_imax_capped_and_bad_mode(self):
        t = sigma_table(unit_square(), i_max=99)
        assert max(t.sigma) == 3
        with pytest.raises(ValueError):
            sigma_table(unit_square(), mode="exhaustive")

    def test_imax_below_one_rejected(self):
        for i_max in (0, -2):
            with pytest.raises(ValueError, match="i_max must be >= 1"):
                sigma_table(unit_square(), i_max=i_max)
        # one row leaves no threshold to compute: an empty table, not an error
        one_row = LiftedPolyhedron([[1.0, 0.0]], [1.0], box=(-2.0, 2.0))
        assert sigma_table(one_row, i_max=1).sigma == {}

    def test_json_round_trip_restores_int_keys(self):
        t = SigmaTable(sigma={1: 0.0, 2: 0.5}, method="milp", r_max=5.0)
        back = SigmaTable(**json.loads(t.to_json()))
        assert back.sigma == {1: 0.0, 2: 0.5}
        assert back.method == "milp" and back.r_max == 5.0

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError, match="monotone"):
            SigmaTable(sigma={1: 0.5, 2: 0.1}, method="milp", r_max=5.0)


class TestTheorem3Bound:
    def test_zero_distance_uses_first_entry(self):
        t = SigmaTable(sigma={1: 0.0, 2: 0.5}, method="milp", r_max=5.0)
        assert theorem3_bound(2.0, t, 0.0, n_z=3) == 4

    def test_boundary_inclusive(self):
        t = SigmaTable(sigma={1: 1.0}, method="milp", r_max=5.0)
        assert theorem3_bound(0.0, t, 1.0, n_z=2) == 3

    def test_out_of_reach_returns_none(self):
        t = SigmaTable(sigma={1: 0.0, 2: 0.5}, method="milp", r_max=5.0)
        assert theorem3_bound(1.0, t, 10.0, n_z=2) is None

    def test_picks_smallest_qualifying_index(self):
        t = SigmaTable(sigma={1: 0.1, 2: 2.0, 3: 2.0}, method="milp", r_max=5.0)
        kappa = 1.0
        dist = 0.5  # needs sigma >= dist*sqrt(2) ~ 0.707 -> i=2
        assert theorem3_bound(kappa, t, dist, n_z=1) == 3

    @pytest.mark.parametrize("kappa, dist, name", [
        (math.nan, 0.1, "kappa"),
        (-1.0, 0.1, "kappa"),
        (math.inf, 0.1, "kappa"),
        (1.0, math.nan, "dist"),
        (1.0, -0.1, "dist"),
    ])
    def test_bad_kappa_or_dist_rejected(self, kappa, dist, name):
        t = SigmaTable(sigma={1: 0.0, 2: 0.5}, method="milp", r_max=5.0)
        with pytest.raises(ValueError, match=name):
            theorem3_bound(kappa, t, dist, n_z=3)


class TestCoverageProperties:
    def test_count_never_drops_below_bound_within_threshold(self):
        # inside the threshold radius, at least n_c - i facets contain the ball
        rng = np.random.default_rng(35)
        for _ in range(4):
            L = _random_origin_polytope(rng, 2, 5, 1.5)
            for i in (1, 2, 3):
                sig = sigma_milp(L, i)
                if sig <= 0.0:
                    continue
                tried = 0
                while tried < 60:
                    v = rng.uniform(L.box[:, 0], L.box[:, 1])
                    if not L.contains(v):
                        continue
                    r = rng.uniform(0.0, sig)
                    assert containment_count(L, v, r) >= L.n_c - i
                    tried += 1

    def test_lifted_ball_containment_implies_removal(self):
        # counting at radius sqrt(1+kappa^2)*dist in the lifted space is a
        # conservative proxy for the removal test at radius kappa*dist
        rng = np.random.default_rng(36)
        checked = 0
        for _ in range(40):
            p, x0 = random_mpqp(rng, n_z=2, n_x=2, n_c=8)
            L = lift(p)
            s = solve_sample(p, x0)
            v = lift_point(s)
            kappa = glc(p).kappa
            scale = np.sqrt(1.0 + kappa**2)
            # aim the parameter move so the lifted ball stays inside the
            # slackest facet, which forces at least one counted row
            inactive_mask = ~s.active.to_mask(p.n_c)
            if not inactive_mask.any():
                continue
            d_top = float(L.distances(v)[inactive_mask].max())
            dist = 0.5 * d_top / scale
            if dist < 1e-3:
                continue
            direction = rng.normal(size=2)
            direction /= np.linalg.norm(direction)
            x = x0 + dist * direction
            r = scale * dist
            counted = np.flatnonzero(r <= L.distances(v)) + 1
            assert counted.size >= 1
            assert containment_count(L, v, r) == counted.size
            removed = trim_single(p, kappa, s, x).removed
            for j in counted:
                assert int(j) not in s.active
                assert int(j) in removed
                checked += 1
        assert checked > 10
