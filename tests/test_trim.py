import numpy as np
import pytest

from qptrim.lipschitz import glc
from qptrim.mpqp import IndexSet, SolvedSample, example_two_halfplanes
from qptrim.qpsolver import qp_solve, solve_sample
from qptrim.trim import (
    LicqViolation,
    NotInactive,
    TrimOutcome,
    certify,
    check_sample,
    removal_test,
    trim_multi,
    trim_single,
)

from helpers import random_mpqp


@pytest.fixture
def hp():
    return example_two_halfplanes()


@pytest.fixture
def hp_samples(hp):
    # z <= x and z <= -x - 4; both parameters give z* = -3 with one row tight
    s1 = solve_sample(hp, [-1.0])
    s2 = solve_sample(hp, [-3.0])
    return s1, s2


class TestTwoHalfplanesGolden:
    def test_samples(self, hp_samples):
        s1, s2 = hp_samples
        assert s1.z_star == pytest.approx(-3.0, abs=1e-9)
        assert s1.active == IndexSet([2])
        assert s2.z_star == pytest.approx(-3.0, abs=1e-9)
        assert s2.active == IndexSet([1])

    def test_removal_tests_at_minus_two(self, hp, hp_samples):
        s1, s2 = hp_samples
        # observed slope of the minimizer map is 1, and both slack
        # distances at x=-2 are exactly 1, so ties decide both removals
        assert removal_test(hp, 1.0, s1, [-2.0], 1) is True
        assert removal_test(hp, 1.0, s2, [-2.0], 2) is True
        with pytest.raises(NotInactive):
            removal_test(hp, 1.0, s1, [-2.0], 2)
        with pytest.raises(ValueError):
            removal_test(hp, 1.0, s1, [-2.0], 3)

    def test_single_sample_sets(self, hp, hp_samples):
        s1, s2 = hp_samples
        out1 = trim_single(hp, 1.0, s1, [-2.0])
        out2 = trim_single(hp, 1.0, s2, [-2.0])
        assert out1.kept == IndexSet([2]) and out1.removed == IndexSet([1])
        assert out2.kept == IndexSet([1]) and out2.removed == IndexSet([2])
        assert out1.radius == pytest.approx(1.0, abs=1e-12)
        full = qp_solve(hp, [-2.0])
        assert full.z_star == pytest.approx(-2.0, abs=1e-9)
        for out in (out1, out2):
            trimmed = qp_solve(hp, [-2.0], out.kept)
            assert trimmed.z_star == pytest.approx(-2.0, abs=1e-9)

    def test_naive_intersection_breaks(self, hp, hp_samples):
        s1, s2 = hp_samples
        # each sample has an independent single active row, so the fold is
        # not refused, yet the intersection drops everything
        folded = trim_multi(hp, 1.0, [s1, s2], [-2.0], assume_licq=True)
        assert folded.kept == IndexSet()
        assert folded.samples_used == 2
        # the assumption genuinely fails here: both gradients coincide
        assert not hp.licq_holds(IndexSet([1, 2]))
        wrong = qp_solve(hp, [-2.0], folded.kept)
        assert wrong.z_star == pytest.approx(1.0, abs=1e-9)
        assert abs(wrong.z_star[0] - (-2.0)) > 1.0

    def test_default_gate_falls_back_to_nearest(self, hp, hp_samples):
        s1, s2 = hp_samples
        out = trim_multi(hp, 1.0, [s1, s2], [-2.0])
        assert out.samples_used == 1
        # tie in distance: the first listed sample wins, deterministically
        assert out.kept == trim_single(hp, 1.0, s1, [-2.0]).kept
        out_near = trim_multi(hp, 1.0, [s1, s2], [-2.9])
        assert out_near.kept == trim_single(hp, 1.0, s2, [-2.9]).kept


class TestRemovalTest:
    def test_zero_radius_removes_strictly_slack_rows(self, hp, hp_samples):
        s1, _ = hp_samples
        assert removal_test(hp, 5.0, s1, s1.x_hat, 1) is True

    def test_huge_kappa_blocks_removal(self, hp, hp_samples):
        s1, _ = hp_samples
        assert removal_test(hp, 1e9, s1, [-2.0], 1) is False


class TestTrimSingle:
    def test_at_sample_parameter_keeps_exactly_active(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            p, x0 = random_mpqp(rng, n_z=3, n_x=2, n_c=8)
            s = solve_sample(p, x0)
            out = trim_single(p, glc(p).kappa, s, x0)
            assert out.kept == s.active
            assert out.radius == 0.0

    def test_non_finite_parameter_rejected(self, hp, hp_samples):
        s1, _ = hp_samples
        for bad in ([np.nan], [np.inf], [-np.inf]):
            with pytest.raises(ValueError, match="not finite"):
                trim_single(hp, 1.0, s1, bad)

    def test_huge_kappa_keeps_everything(self, hp, hp_samples):
        s1, _ = hp_samples
        out = trim_single(hp, 1e9, s1, [-2.0])
        assert out.kept == IndexSet.full(hp.n_c)
        assert out.removed == IndexSet()

    def test_partition_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            p, x0 = random_mpqp(rng, n_z=2, n_x=2, n_c=6)
            s = solve_sample(p, x0)
            x = x0 + rng.normal(scale=0.7, size=2)
            out = trim_single(p, glc(p).kappa, s, x)
            assert out.kept.union(out.removed) == IndexSet.full(p.n_c)
            assert out.kept.intersection(out.removed) == IndexSet()

    def test_solution_preserved_with_formula_constant(self):
        # the certified set must reproduce the full minimizer exactly
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 25:
            p, x0 = random_mpqp(rng, n_z=rng.integers(1, 5), n_x=rng.integers(1, 4),
                                n_c=rng.integers(3, 12))
            s = solve_sample(p, x0)
            x = x0 + rng.normal(scale=0.6, size=p.n_x)
            full = qp_solve(p, x)
            if not full.is_optimal:
                continue
            out = trim_single(p, glc(p).kappa, s, x)
            trimmed = qp_solve(p, x, out.kept)
            gap = np.linalg.norm(trimmed.z_star - full.z_star)
            assert gap <= 1e-6 * (1.0 + np.linalg.norm(full.z_star))
            checked += 1

    def test_strongly_active_rows_always_kept(self):
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 20:
            p, x0 = random_mpqp(rng, n_z=3, n_x=2, n_c=9)
            s = solve_sample(p, x0)
            x = x0 + rng.normal(scale=0.5, size=2)
            full = qp_solve(p, x)
            if not full.is_optimal:
                continue
            out = trim_single(p, glc(p).kappa, s, x)
            lam = full.lam
            strong = IndexSet(np.flatnonzero(lam > 1e-6) + 1)
            assert strong.difference(out.kept) == IndexSet()
            checked += 1

    def test_negative_kappa_rejected(self, hp, hp_samples):
        with pytest.raises(ValueError):
            trim_single(hp, -0.1, hp_samples[0], [-2.0])

    def test_non_finite_kappa_rejected(self, hp, hp_samples):
        # a NaN radius would fail every removal test and keep all rows
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="kappa"):
                trim_single(hp, bad, hp_samples[0], [-2.0])
        for bad in (np.nan, np.inf, -0.1):
            for licq in (False, True):
                with pytest.raises(ValueError, match="kappa"):
                    trim_multi(hp, bad, list(hp_samples), [-2.0],
                               assume_licq=licq)


class TestSampleValidation:
    def test_shape_mismatch(self, hp):
        bad = SolvedSample([1.0, 2.0], [-3.0], IndexSet([2]))
        with pytest.raises(ValueError):
            check_sample(hp, bad)

    def test_infeasible_point(self, hp):
        bad = SolvedSample([-1.0], [5.0], IndexSet())
        with pytest.raises(ValueError, match="infeasible"):
            check_sample(hp, bad)

    def test_inconsistent_active_set(self, hp):
        bad = SolvedSample([-1.0], [-3.0], IndexSet([1]))
        with pytest.raises(ValueError, match="active"):
            check_sample(hp, bad)

    def test_trim_single_propagates(self, hp):
        bad = SolvedSample([-1.0], [5.0], IndexSet())
        with pytest.raises(ValueError):
            trim_single(hp, 1.0, bad, [-2.0])


def _licq_case(rng, n_z=3, n_x=2, n_c=9, q=3):
    """Random instance with q solved samples, all passing the gate."""
    p, x0 = random_mpqp(rng, n_z=n_z, n_x=n_x, n_c=n_c)
    samples = []
    for _ in range(q):
        xs = x0 + rng.normal(scale=0.4, size=p.n_x)
        sol = qp_solve(p, xs)
        if not sol.is_optimal:
            continue
        s = solve_sample(p, xs)
        if p.licq_holds(s.active):
            samples.append(s)
    return p, x0, samples


class TestTrimMulti:
    def test_single_sample_identical_to_trim_single(self):
        rng = np.random.default_rng(9)
        p, x0 = random_mpqp(rng, n_z=2, n_x=2, n_c=7)
        s = solve_sample(p, x0)
        x = x0 + 0.3
        a = trim_single(p, glc(p).kappa, s, x)
        b = trim_multi(p, glc(p).kappa, [s], x, assume_licq=True)
        assert (a.kept, a.removed, a.radius, a.samples_used) == (
            b.kept, b.removed, b.radius, b.samples_used)

    def test_no_samples_keeps_everything(self, hp):
        out = trim_multi(hp, 1.0, [], [-2.0])
        assert out.kept == IndexSet.full(2)
        assert out.samples_used == 0 and out.radius == 0.0

    def test_non_finite_parameter_rejected(self, hp, hp_samples):
        # every path of the fold, including the nearest-sample fallback
        for samples, licq in (([], False), (list(hp_samples), False),
                              (list(hp_samples), True)):
            with pytest.raises(ValueError, match="not finite"):
                trim_multi(hp, 1.0, samples, [np.nan], assume_licq=licq)

    def test_more_samples_never_keep_more(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            p, x0, samples = _licq_case(rng, q=4)
            if len(samples) < 3:
                continue
            kappa = glc(p).kappa
            x = x0 + rng.normal(scale=0.3, size=p.n_x)
            prev = None
            for q in range(1, len(samples) + 1):
                out = trim_multi(p, kappa, samples[:q], x, assume_licq=True)
                if prev is not None:
                    assert out.kept.difference(prev) == IndexSet()
                prev = out.kept

    def test_order_invariance_of_kept_set(self):
        rng = np.random.default_rng(12)
        p, x0, samples = _licq_case(rng, q=4)
        kappa = glc(p).kappa
        x = x0 + 0.2
        base = trim_multi(p, kappa, samples, x, assume_licq=True)
        for _ in range(4):
            perm = list(rng.permutation(len(samples)))
            out = trim_multi(p, kappa, [samples[i] for i in perm], x,
                             assume_licq=True)
            assert out.kept == base.kept and out.removed == base.removed

    def test_solution_preserved_multi(self):
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 15:
            p, x0, samples = _licq_case(rng, q=int(rng.integers(2, 6)))
            if len(samples) < 2:
                continue
            x = x0 + rng.normal(scale=0.3, size=p.n_x)
            full = qp_solve(p, x)
            if not (full.is_optimal and p.licq_holds(full.active)):
                continue
            out = trim_multi(p, glc(p).kappa, samples, x, assume_licq=True)
            trimmed = qp_solve(p, x, out.kept)
            gap = np.linalg.norm(trimmed.z_star - full.z_star)
            assert gap <= 1e-6 * (1.0 + np.linalg.norm(full.z_star))
            checked += 1

    def test_degenerate_sample_refused(self):
        # duplicated row: both constraints tight with identical gradients
        from qptrim.mpqp import MpQp
        p = MpQp(H=[[2.0]], F=[[1.0]], G=[[1.0], [1.0]], S=[[1.0], [1.0]],
                 w=[0.0, 0.0])
        bad = solve_sample(p, [-1.0])
        assert bad.active == IndexSet([1, 2])
        good = solve_sample(p, [1.0])
        with pytest.raises(LicqViolation, match="sample 0"):
            trim_multi(p, 1.0, [bad, good], [0.5], assume_licq=True)


class TestCertify:
    def test_trim_single_outcomes_certify(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            p, x0 = random_mpqp(rng, n_z=2, n_x=2, n_c=8)
            s = solve_sample(p, x0)
            x = x0 + rng.normal(scale=0.5, size=2)
            out = trim_single(p, glc(p).kappa, s, x)
            assert certify(p, glc(p).kappa, s, x, out) is True

    def test_zero_radius_outcome_certifies(self, hp, hp_samples):
        s1, _ = hp_samples
        out = trim_single(hp, 1.0, s1, s1.x_hat)
        assert out.radius == 0.0
        assert certify(hp, 1.0, s1, s1.x_hat, out) is True

    def test_active_row_moved_to_removed_fails(self, hp, hp_samples):
        s1, _ = hp_samples
        out = trim_single(hp, 1.0, s1, [-2.0])
        doctored = TrimOutcome(
            kept=IndexSet(),
            removed=out.removed.union(IndexSet([2])),
            radius=out.radius,
            samples_used=1,
        )
        assert certify(hp, 1.0, s1, [-2.0], doctored) is False


def test_understated_constant_is_not_caught_by_certify(hp, hp_samples):
    # kappa=0 shrinks the ball to a point: every slack row is "certified"
    # away, the certificate still checks out, yet the solution changes.
    # The guarantee is conditional on kappa actually being a Lipschitz bound.
    s1, _ = hp_samples
    out = trim_single(hp, 0.0, s1, [-3.0])
    assert out.kept == s1.active
    assert certify(hp, 0.0, s1, [-3.0], out) is True
    full = qp_solve(hp, [-3.0])
    trimmed = qp_solve(hp, [-3.0], out.kept)
    assert abs(trimmed.z_star[0] - full.z_star[0]) > 1.0


def test_outcome_json_round_trip():
    out = TrimOutcome(kept=IndexSet([1, 3]), removed=IndexSet([2]),
                      radius=0.125, samples_used=2)
    back = TrimOutcome.from_json(out.to_json())
    assert back.kept == out.kept and back.removed == out.removed
    assert back.radius == out.radius and back.samples_used == out.samples_used
