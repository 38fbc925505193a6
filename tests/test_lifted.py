import numpy as np
import pytest

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
from qptrim.mpqp import example_two_halfplanes
from qptrim.qpsolver import solve_sample
from qptrim.trim import removal_test

from helpers import random_mpqp
from oracles import grid_sigma


def unit_square(box=(-2.0, 2.0)):
    return LiftedPolyhedron(
        H_lift=[[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0]],
        w=[0.0, 0.0, 1.0, 1.0],
        box=box,
    )


def random_origin_polytope(rng, n_v, n_c, box_half=1.5):
    """Rows with unit normals and offsets in [0.3, 1.2]; origin interior."""
    rows = rng.normal(size=(n_c, n_v))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    w = rng.uniform(0.3, 1.2, size=n_c)
    return LiftedPolyhedron(rows, w, box=(-box_half, box_half))


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
        assert sigma_sample(L, 1, r_max=7.5) == 7.5

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
            L = random_origin_polytope(rng, 2, int(rng.integers(3, 7)))
            for i in (1, 2):
                exact = sigma_milp(L, i)
                sampled = sigma_sample(L, i, n_samples=4000, seed=1)
                assert exact <= sampled + 1e-6

    def test_matches_dense_grid(self):
        rng = np.random.default_rng(34)
        for _ in range(4):
            L = random_origin_polytope(rng, 2, int(rng.integers(4, 7)))
            for i in (1, 2):
                exact = sigma_milp(L, i)
                coarse = grid_sigma(L, i, 601)
                assert abs(exact - coarse) <= 5e-3

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

    def test_json_round_trip_restores_int_keys(self):
        t = SigmaTable(sigma={1: 0.0, 2: 0.5}, method="milp", r_max=5.0)
        back = SigmaTable.from_json(t.to_json())
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


class TestCoverageProperties:
    def test_count_never_drops_below_bound_within_threshold(self):
        # inside the threshold radius, at least n_c - i facets contain the ball
        rng = np.random.default_rng(35)
        for _ in range(4):
            L = random_origin_polytope(rng, 2, 5)
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
            for j in counted:
                assert int(j) not in s.active
                assert removal_test(p, kappa, s, x, int(j)) is True
                checked += 1
        assert checked > 10
