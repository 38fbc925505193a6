"""One feasibility rule: a point of the QP may violate a row by at most
tolerances.feas_tol(b) = FEAS (1 + max|b|), and the solver, check_sample
and the closed loop's own-sample check all read it, and the lifted
polyhedron a band never below it, so none of them refuses a point the
solver returned."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qptrim import tolerances
from qptrim.closedloop import build_offline_dataset, simulate
from qptrim.lifted import NotInPolyhedron, containment_count, lift, lift_point
from qptrim.lipschitz import glc_scaled_estimate
from qptrim.mpc import scenario_from_dict
from qptrim.mpqp import SolvedSample
from qptrim.plants import gen_oscillating_masses
from qptrim.qpsolver import solve_sample
from qptrim.tolerances import FEAS
from qptrim.trim import check_sample, trim_single
from test_qpsolver_first_check import (band_check, first_check_cases,
                                       scaled_to_band)

# a masses-3 state whose z0 violates row 22 by 3.47e-8: beyond that row's
# FEAS (1 + |w_22|) = 1.5e-8, inside the solver's FEAS (1 + max|b|)
X_INSIDE = np.array([0.08733795252461313, -0.09176607006708351,
                     0.4448668152627736, 0.07286841120666697,
                     -0.3721004057352504, 0.2511804358902772])


@pytest.fixture(scope="module")
def masses():
    return scenario_from_dict(gen_oscillating_masses(3, h=0.5, N=10))


def test_feas_tol_reads_the_largest_right_hand_side():
    assert tolerances.feas_tol(np.array([0.5, -3.0, 1.0])) == FEAS * 4.0
    assert tolerances.feas_tol(np.zeros(0)) == FEAS


def test_trim_single_accepts_the_solvers_sample(masses):
    p = masses.condensed
    s = solve_sample(p, X_INSIDE)
    slack = p.rhs(X_INSIDE) - p.G @ s.z_star
    band = band_check(p, X_INSIDE, None)[1]
    assert int(np.argmin(slack)) == 21
    assert -band < slack[21] < -FEAS * (1.0 + abs(p.w[21]))
    out = trim_single(p, glc_scaled_estimate(p).kappa, s, X_INSIDE)
    assert out.samples_used == 1 and out.radius == 0.0


@pytest.mark.parametrize("mode", ["adaptive-online", "offline-nearest"])
def test_trimmed_loop_runs_where_full_does(masses, mode):
    offline = None
    if mode == "offline-nearest":
        offline = build_offline_dataset(masses, centers=[X_INSIDE])
    full = simulate(masses, X_INSIDE, 3, mode="full")
    trace = simulate(masses, X_INSIDE, 3, mode=mode, offline=offline)
    assert trace.status == "ok" and len(trace.records) == 3
    assert np.array_equal(trace.inputs(), full.inputs())


def test_sample_beyond_the_band_still_refused(masses):
    # the same sample moved so that row 22 is violated by twice the band
    p = masses.condensed
    s = solve_sample(p, X_INSIDE)
    b = p.rhs(X_INSIDE)
    g = p.G[21]
    gap = 2.0 * band_check(p, X_INSIDE, None)[1] - (g @ s.z_star - b[21])
    z = s.z_star + gap * g / (g @ g)
    bad = SolvedSample(X_INSIDE, z, s.active)
    with pytest.raises(ValueError, match="infeasible at row 22"):
        check_sample(p, bad)


def test_lifted_polyhedron_holds_the_solvers_sample(masses):
    # lift(p) holds a point to feas_tol(|w| + |H_lift| |v|), which is never
    # below the solver's feas_tol(S x + w) since H_lift = [-S, G]: the
    # sample lies inside, and the same moved twice that band past row 22
    # does not
    p = masses.condensed
    L = lift(p)
    s = solve_sample(p, X_INSIDE)
    v = lift_point(s)
    band = tolerances.feas_tol(np.abs(L.w) + np.abs(L.H_lift) @ np.abs(v))
    assert band >= band_check(p, X_INSIDE, None)[1]
    assert L.slacks(v)[21] < -FEAS * (1.0 + abs(p.w[21]))
    assert containment_count(L, v, 0.0) < p.n_c
    g = p.G[21]
    gap = 2.0 * band + L.slacks(v)[21]
    z = s.z_star + gap * g / (g @ g)
    with pytest.raises(NotInPolyhedron):
        containment_count(L, np.concatenate([X_INSIDE, z]), 0.0)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_z=st.integers(1, 12),
    n_x=st.integers(1, 4),
    n_c=st.integers(1, 30),
    scale=st.floats(0.01, 100.0),
    spread=st.floats(0.0, 3.0),
    offset=st.floats(-0.99, -0.01),
    upper=st.booleans(),
)
def test_sample_inside_the_solvers_band_passes(seed, n_z, n_x, n_c, scale,
                                               spread, offset, upper):
    # a state whose worst z0 row is violated, but inside the solver's
    # band: the solver returns z0, and its sample passes check_sample
    x, cases = first_check_cases(np.random.default_rng(seed), n_z, n_x, n_c,
                                 scale, spread)
    p = cases[0][0]
    y = scaled_to_band(p, x, None, offset, upper)
    assume(y is not None)
    h, band = band_check(p, y, None)
    assume(-band <= h < 0.0)
    s = solve_sample(p, y)
    assert np.array_equal(s.z_star, -p.hi_ft @ y)
    check_sample(p, s)
