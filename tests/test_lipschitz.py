import numpy as np
import pytest

from qptrim.lipschitz import (
    DegenerateRow,
    NoValidTrials,
    empirical_lipschitz,
    glc,
    glc_estimate,
    glc_scaled,
    glc_scaled_estimate,
    phi_default,
)
from qptrim.mpqp import IndexSet, MpQp, example_two_halfplanes
from qptrim.qpsolver import qp_solve

from helpers import random_mpqp


def test_example_constant_matches_hand_value():
    # H=2I so H^-1 F' has norm 1/2; both rows have curvature 1/2;
    # ||H^-1 G'|| = sqrt(1/2) and ||S + G H^-1 F'|| = sqrt(5/2).
    report = glc(example_two_halfplanes())
    expected = 0.5 + 2.0 * np.sqrt(0.5) * np.sqrt(2.5)
    assert report.kappa == pytest.approx(expected, abs=1e-12)
    assert report.kappa == pytest.approx(2.73606797749979, abs=1e-10)
    assert report.terms["term_unconstrained"] == pytest.approx(0.5, abs=1e-12)
    assert report.terms["denom_min_quad"] == pytest.approx(0.5, abs=1e-12)
    assert report.terms["norm_HinvGt"] == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert report.terms["norm_S_plus"] == pytest.approx(np.sqrt(2.5), abs=1e-12)
    assert report.scaling_used is None


def test_report_terms_recombine():
    rng = np.random.default_rng(7)
    problems = [random_mpqp(rng, n_z=rng.integers(1, 4), n_x=rng.integers(1, 3),
                            n_c=rng.integers(1, 7))[0] for _ in range(20)]
    # a realizable piece that sets kappa recombines through the lowered floor
    problems.append(_nearly_parallel(w2=-1.0))
    for p in problems:
        r = glc(p)
        rebuilt = r.terms["term_unconstrained"] + (
            r.terms["norm_HinvGt"] * r.terms["norm_S_plus"] / r.terms["denom_min_quad"]
        )
        assert abs(r.kappa - rebuilt) <= 1e-12 * (1.0 + abs(r.kappa))


def test_unconstrained_problem_reduces_to_first_term():
    p = MpQp(H=np.eye(2) * 3.0, F=np.array([[1.0, 2.0]]),
             G=np.zeros((0, 2)), S=np.zeros((0, 1)), w=np.zeros(0))
    r = glc(p)
    assert r.kappa == pytest.approx(r.terms["term_unconstrained"], abs=1e-14)
    assert r.terms["denom_min_quad"] is None


def test_default_scaling_equalizes_curvature():
    p = example_two_halfplanes()
    phi = phi_default(p)
    np.testing.assert_allclose(phi, [np.sqrt(2.0), np.sqrt(2.0)], atol=1e-12)
    np.testing.assert_allclose(p.scaled(phi).g_quads, 1.0, atol=1e-12)


def test_scaled_report_records_weights_and_identity_is_noop():
    p = example_two_halfplanes()
    r_def = glc_scaled(p)
    np.testing.assert_array_equal(r_def.scaling_used, phi_default(p))
    # equal curvatures here, so the equalizing scaling changes nothing
    assert r_def.kappa == pytest.approx(glc(p).kappa, abs=1e-12)


def test_scaled_constant_still_bounds_observed_ratios():
    rng = np.random.default_rng(23)
    for trial in range(6):
        p, _ = random_mpqp(rng, n_z=2, n_x=2, n_c=5)
        ratio = empirical_lipschitz(p, trials=50, seed=100 + trial, box=(-4.0, 4.0))
        assert ratio <= glc_scaled(p).kappa + 1e-6


def test_empirical_never_exceeds_formula():
    rng = np.random.default_rng(11)
    for trial in range(8):
        n_z = int(rng.integers(1, 4))
        n_x = int(rng.integers(1, 3))
        p, _ = random_mpqp(rng, n_z=n_z, n_x=n_x, n_c=int(rng.integers(2, 7)))
        kappa = glc(p).kappa
        ratio = empirical_lipschitz(p, trials=60, seed=trial, box=(-5.0, 5.0))
        assert ratio <= kappa + 1e-6


def test_example_observed_slope_is_one():
    # every piece of the example minimizer map has slope -1/2, 1, or -1
    ratio = empirical_lipschitz(example_two_halfplanes(), trials=300, seed=3,
                                box=(-6.0, 6.0))
    assert ratio <= 1.0 + 1e-6
    assert ratio >= 0.99


def _nearly_parallel(w2, delta=1e-2):
    # rows z1 <= x and z1 + delta z2 <= w2: with both active z = G^-1 (x, w2),
    # slope ||G^-1 e1|| = sqrt(1 + 1/delta^2); both multipliers are positive
    # on the slab w2 < x < w2 / (1 + delta^2), which is empty when w2 > 0
    return MpQp(H=np.eye(2), F=np.zeros((1, 2)), G=[[1.0, 0.0], [1.0, delta]],
                S=[[1.0], [0.0]], w=[0.0, w2])


def test_realizable_parallel_piece_beats_closed_form():
    p = _nearly_parallel(w2=-1.0)
    slope = np.sqrt(1.0 + 1e4)
    assert glc_estimate(p).kappa < 2.0
    assert glc_scaled_estimate(p).kappa < 2.0
    for report, estimate in ((glc(p), glc_estimate(p)),
                             (glc_scaled(p), glc_scaled_estimate(p))):
        assert report.terms["denom_min_quad"] < estimate.terms["denom_min_quad"]
        assert report.steepest_piece["rows"] == [1, 2]
        assert slope <= report.kappa <= slope * (1.0 + 1e-9)
        assert report.to_dict()["steepest_piece"]["slope"] == report.kappa
    # a pair inside the slab realizes that slope on the subset {1, 2}
    keep = IndexSet([1, 2])
    x1, x2 = -0.99996, -0.99994
    z1, z2 = qp_solve(p, [x1], keep).z_star, qp_solve(p, [x2], keep).z_star
    assert np.linalg.norm(z2 - z1) / (x2 - x1) == pytest.approx(slope, rel=1e-6)


def test_unrealizable_parallel_piece_is_ignored():
    p = _nearly_parallel(w2=1.0)
    report = glc(p)
    assert report.steepest_piece is None
    assert report.kappa == glc_estimate(p).kappa
    assert report.to_dict()["steepest_piece"] is None


def test_zero_curvature_row_rejected():
    p = MpQp(H=[[2.0]], F=[[1.0]], G=[[1.0], [0.0]], S=[[1.0], [0.0]], w=[0.0, 1.0])
    with pytest.raises(DegenerateRow):
        glc(p)
    with pytest.raises(DegenerateRow):
        phi_default(p)


def test_no_valid_trials_when_box_has_zero_width():
    # every pair of draws coincides, so no trial yields a ratio
    with pytest.raises(NoValidTrials):
        empirical_lipschitz(example_two_halfplanes(), trials=10, seed=0,
                            box=(0.0, 0.0))


def test_empirical_box_shape_validated():
    p = example_two_halfplanes()
    with pytest.raises(ValueError):
        empirical_lipschitz(p, trials=5, seed=0, box=[(-1.0, 1.0), (-1.0, 1.0)])
