import numpy as np
import pytest

from oracles import reference_steepest_piece
from qptrim import lipschitz
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
from qptrim.mpc import scenario_from_dict
from qptrim.mpqp import IndexSet, MpQp, example_two_halfplanes
from qptrim.plants import gen_double_integrator
from qptrim.qpsolver import qp_solve
from qptrim.verify import _random_mpqp

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


@pytest.mark.parametrize("delta, singular", [
    (1e-7, False), (1e-8, True), (1e-9, True), (3e-10, True), (1e-10, False)])
def test_singular_gram_of_independent_rows_named(delta, singular):
    # from 1e-8 to 3e-10 the rows pass the rank tolerance, but 1 + delta^2
    # rounds to 1 in their Gram matrix; the pair's piece could be the
    # steepest, so the search stops rather than skip it. At 1e-7 the Gram
    # matrix factors, and at 1e-10 the rows are dependent
    p = _nearly_parallel(w2=-1.0, delta=delta)
    for certify in (glc, glc_scaled):
        if not singular:
            assert np.isfinite(certify(p).kappa)
            continue
        with pytest.raises(DegenerateRow, match=r"rows \[1, 2\]"):
            certify(p)


def _outcome(search, p, floor, singular):
    """search(p, floor), or "singular" when it raises `singular`."""
    try:
        return search(p, floor)
    except singular:
        return "singular"


def _with_row(p, g, s, w):
    return MpQp(p.H, p.F, np.vstack([p.G, g]), np.vstack([p.S, s]),
                np.append(p.w, w))


EXTRA_ROWS = ("none", "near-parallel", "antiparallel", "copy")


@pytest.mark.parametrize("extra", EXTRA_ROWS)
def test_grown_search_matches_enumeration(extra):
    # random instances, some with one more row near-parallel, antiparallel
    # or parallel to another; every floor, plain and scaled, must give the
    # plain enumeration's (slope, rows) or its singular Gram exactly
    rng = np.random.default_rng(EXTRA_ROWS.index(extra))
    outcomes = []
    for _ in range(15):
        p, _ = _random_mpqp(rng, int(rng.integers(1, 6)),
                            int(rng.integers(1, 4)), int(rng.integers(2, 16)))
        j = int(rng.integers(p.n_c))
        g, s, w = p.G[j], p.S[j], p.w[j]
        if extra == "near-parallel":
            tilt = 10.0 ** rng.uniform(-11, -6) * rng.normal(size=p.n_z)
            p = _with_row(p, g + tilt, s, w + 0.1)
        elif extra == "antiparallel":
            p = _with_row(p, -g, -s, 0.3 - w)
        elif extra == "copy":
            c = rng.uniform(0.5, 2.0)
            p = _with_row(p, c * g, c * s, c * w)
        for q in (p, p.scaled(phi_default(p))):
            for floor in (0.0, 1.0, glc_estimate(q).kappa):
                grown = _outcome(lipschitz._steepest_piece, q, floor,
                                 DegenerateRow)
                assert grown == _outcome(reference_steepest_piece, q, floor,
                                         np.linalg.LinAlgError)
                outcomes.append(grown)
    assert None in outcomes
    assert any(isinstance(o, tuple) for o in outcomes)


def _double_integrator(N):
    return scenario_from_dict(gen_double_integrator(h=0.5, N=N)).condensed


@pytest.mark.parametrize("N", [3, 4])
def test_double_integrator_reports_match_enumeration(monkeypatch, N):
    p = _double_integrator(N)
    grown = [glc(p).to_dict(), glc_scaled(p).to_dict()]
    monkeypatch.setattr(lipschitz, "_steepest_piece", reference_steepest_piece)
    assert [glc(p).to_dict(), glc_scaled(p).to_dict()] == grown


def test_chunk_boundaries_leave_search_unchanged(monkeypatch):
    p = _double_integrator(3)
    reports = [glc(p).to_dict(), glc_scaled(p).to_dict()]
    monkeypatch.setattr(lipschitz, "_CHUNK", 7)
    assert [glc(p).to_dict(), glc_scaled(p).to_dict()] == reports
    # at floor 0 every independent set is a candidate
    assert lipschitz._steepest_piece(p, 0.0) == reference_steepest_piece(p, 0.0)


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
