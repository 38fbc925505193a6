"""Degenerate rows, row scaling and the iteration cap of the QP solver,
the rows its nnls calls see, and its agreement with the dual active-set
reference loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import nnls_spy, random_feasible_x, random_mpqp, solve_spy
from oracles import reference_qp_solve
from qptrim import closedloop, qpsolver
from qptrim.bench import draw_initial_states
from qptrim.mpc import scenario_from_dict
from qptrim.mpqp import IndexSet, MpQp, example_two_halfplanes
from qptrim.plants import gen_oscillating_masses
from qptrim.qpsolver import INFEASIBLE, OPTIMAL, QpSolution, qp_solve
from test_qpsolver import kkt_residuals


def test_iteration_cap_raises(monkeypatch):
    # scipy's nnls raises RuntimeError when it reaches its iteration cap,
    # 50 (n_z + n_c) + 100 here
    caps = []

    def capped(A, b, maxiter):
        caps.append(maxiter)
        raise RuntimeError("Maximum number of iterations reached.")

    monkeypatch.setattr(qpsolver, "nnls", capped)
    with pytest.raises(ArithmeticError, match="nnls iteration limit"):
        qp_solve(example_two_halfplanes(), [-2.0])
    assert caps == [50 * (1 + 2) + 100]


def scale_cases():
    """(problem, parameter, status): the two-halfplanes instance at its
    degenerate vertex, an instance with antiparallel rows that no point
    meets, and a feasible random instance."""
    rng = np.random.default_rng(3)
    p, x0 = random_mpqp(rng, 4, 2, 16)
    return [
        (example_two_halfplanes(), np.array([-2.0]), OPTIMAL),
        (MpQp(H=[[1.0]], F=[[0.0]], G=[[1.0], [-1.0]], S=[[0.0], [0.0]],
              w=[-1.0, -1.0]), np.array([0.0]), INFEASIBLE),
        (p, random_feasible_x(p, rng, x0), OPTIMAL),
    ]


@pytest.mark.parametrize("case", range(3))
def test_status_independent_of_scale(case):
    # scaling the rows (G, S, w) or the objective (H, F) keeps the minimizer
    p, x, status = scale_cases()[case]
    for k in range(-6, 7):
        c = 10.0 ** k
        for q in (p.scaled(np.full(p.n_c, c)),
                  MpQp(H=c * p.H, F=c * p.F, G=p.G, S=p.S, w=p.w)):
            sol = qp_solve(q, x)
            assert sol.status == status and sol.iterations > 1


def test_violated_zero_row_is_infeasible():
    # row 1 reads 0 <= -1; row 2 (z <= 0) is violated only at x = -1
    p = MpQp(H=[[1.0]], F=[[1.0]], G=[[0.0], [1.0]], S=[[0.0], [0.0]],
             w=[-1.0, 0.0])
    for x in (1.0, -1.0):
        assert qp_solve(p, [x]).status == INFEASIBLE
        assert qp_solve(p, [x], IndexSet([2])).is_optimal


def zero_row_problem(w_zero):
    """Rows z_1 <= 0, z_2 <= 10 and the zero row 0 <= w_zero, with z0 = -x:
    at x = (-1, 0) the first row is violated by 1, the second lies 10
    from z0, outside the ball of radius 1, and the zero row holds exactly
    when w_zero >= 0."""
    return MpQp(H=np.eye(2), F=np.eye(2),
                G=[[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], S=np.zeros((3, 2)),
                w=[0.0, 10.0, w_zero])


def test_violated_zero_row_reaches_nnls(monkeypatch):
    # the zero row sits beside the live violated row in the seed; the far
    # row stays out of it
    seen = nnls_spy(monkeypatch)
    sol = qp_solve(zero_row_problem(-1.0), [-1.0, 0.0])
    assert sol.status == INFEASIBLE
    assert [A.shape[1] for A in seen] == [2]
    assert not seen[0][:-1, 1].any() and seen[0][-1, 1] < 0.0


def test_satisfied_zero_row_never_reaches_nnls(monkeypatch):
    seen = nnls_spy(monkeypatch)
    for w_zero in (1.0, 0.0):
        seen.clear()
        sol = qp_solve(zero_row_problem(w_zero), [-1.0, 0.0])
        assert sol.is_optimal and sol.iterations == 2
        assert np.array_equal(sol.z_star, [0.0, 0.0])
        assert [A.shape[1] for A in seen] == [1]
        assert seen[0][:-1].any(axis=0).all()


def test_zero_row_violated_inside_band_holds():
    # 0 <= -1e-12 lies inside the band FEAS (1 + max|b|) that the first
    # check allows, so the status must not depend on whether a live row is
    # violated too: at x = (-1, 0) the first row is, at x = (1, 0) none is
    p = zero_row_problem(-1e-12)
    for x in ([1.0, 0.0], [-1.0, 0.0]):
        agrees_with_reference(p, np.array(x), None)
        assert qp_solve(p, x).is_optimal


def test_far_minimizer_stays_feasible():
    # z* = x for x <= -2, at distance 1.5 |x| sqrt(2) from z0 = -x / 2 in
    # the H-metric: a fixed residual threshold on the unscaled problem
    # called these infeasible from about x = -4.7e5 on
    p = example_two_halfplanes()
    for k in range(0, 13):
        x = -2.0 * 10.0 ** k
        sol = qp_solve(p, [x])
        assert sol.is_optimal and sol.iterations == 2
        assert abs(sol.z_star[0] - x) <= 1e-12 * abs(x)


def meets_kkt_bounds(p, x, sol, rows):
    """Stationarity, feasibility, complementarity and multiplier signs of
    sol over the 0-based rows, relative to 1 + max|b| over them."""
    stat, feas, comp = kkt_residuals(p, x, sol, rows)
    bound = 1.0 + np.abs(p.rhs(x)[rows]).max(initial=0.0)
    return (stat <= 1e-6 * bound and feas <= 1e-8 * bound
            and comp <= 1e-6 * bound and sol.lam.min(initial=0.0) >= -1e-8)


def with_degenerate_rows(p, scale):
    """p plus a positively scaled copy of row 1 and a row antiparallel to it
    that no point satisfying row 1 can meet."""
    g, s, w = p.G[0], p.S[0], p.w[0]
    return MpQp(
        H=p.H, F=p.F,
        G=np.vstack([p.G, scale * g, -g]),
        S=np.vstack([p.S, scale * s, -s]),
        w=np.concatenate([p.w, [scale * w, -w - 0.1 * np.linalg.norm(g)]]),
    )


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_z=st.integers(1, 5),
    n_x=st.integers(1, 3),
    n_c=st.integers(1, 12),
    scale=st.floats(0.01, 100.0),
)
def test_parallel_and_antiparallel_rows(seed, n_z, n_x, n_c, scale):
    rng = np.random.default_rng(seed)
    p, x0 = random_mpqp(rng, n_z, n_x, n_c)
    q = with_degenerate_rows(p, scale)
    anti = q.n_c - 1
    for _ in range(5):
        keep = IndexSet(np.flatnonzero(rng.random(q.n_c) < 0.6) + 1)
        rows = keep.zero_based()
        sol = qp_solve(q, x0, keep)
        if 0 in rows and anti in rows:
            assert sol.status == INFEASIBLE
        elif anti not in rows:
            assert sol.is_optimal
            assert meets_kkt_bounds(q, x0, sol, rows)


def agrees_with_reference(p, x, idx):
    """Assert qp_solve agrees with the dual active-set reference loop: the
    same status, the same minimizer to 1e-9 (1 + |z|), the KKT bounds
    wherever the reference meets them, and one iteration per active row
    where the loop dropped none. Return how many rows the loop dropped."""
    z, lam, status, iterations, drops = reference_qp_solve(p, x, idx)
    sol = qp_solve(p, x, idx)
    assert sol.status == status
    if z is None:
        assert sol.z_star is None and sol.lam is None
        return drops
    assert np.abs(sol.z_star - z).max() <= 1e-9 * (1.0 + np.abs(z).max())
    rows = np.arange(p.n_c) if idx is None else idx.zero_based()
    ref = QpSolution(z, lam, status, iterations)
    assert meets_kkt_bounds(p, x, sol, rows) or not meets_kkt_bounds(
        p, x, ref, rows)
    if not drops:
        assert sol.iterations == iterations
    return drops


def reference_cases(rng, n_z, n_x, n_c, scale, spread):
    """An instance with a parallel and an antiparallel copy of row 1, a
    parameter around its feasible one, and the full set plus three random
    subsets."""
    p, x0 = random_mpqp(rng, n_z, n_x, n_c)
    q = with_degenerate_rows(p, scale)
    x = x0 + spread * rng.normal(size=n_x)
    subsets = [IndexSet(np.flatnonzero(rng.random(q.n_c) < 0.6) + 1)
               for _ in range(3)]
    return q, x, [None] + subsets


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_z=st.integers(1, 20),
    n_x=st.integers(1, 6),
    n_c=st.integers(1, 60),
    scale=st.floats(0.01, 100.0),
    spread=st.floats(0.0, 3.0),
)
def test_agrees_with_reference_loop(seed, n_z, n_x, n_c, scale, spread):
    q, x, subsets = reference_cases(np.random.default_rng(seed), n_z, n_x,
                                    n_c, scale, spread)
    for idx in subsets:
        agrees_with_reference(q, x, idx)


def test_reference_comparison_reaches_the_drop_path():
    drops = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        q, x, subsets = reference_cases(rng, 4, 2, 16, 2.0, 2.0)
        drops += sum(agrees_with_reference(q, x, idx) > 0 for idx in subsets)
    assert drops >= 5


def test_loop_solves_add_the_rows_nnls_missed(monkeypatch):
    # the masses-3 starts of the loop golden: nnls sees only the rows near
    # z0, and where the minimizer over them violates a row it did not
    # see, that row joins and nnls runs again
    solves = solve_spy(monkeypatch)
    sc = scenario_from_dict(gen_oscillating_masses(3, h=0.5, N=10))
    for x0 in draw_initial_states(sc, 36, 0):
        closedloop.simulate(sc, x0, 25, mode="full")
    again = fewer = 0
    for c in solves:
        if not c.nnls:
            continue
        again += len(c.nnls) > 1
        n = c.p.n_c if c.rows is None else len(c.rows)
        if min(A.shape[1] for A in c.nnls) < n:
            fewer += 1
            idx = None if c.rows is None else IndexSet(c.rows + 1)
            agrees_with_reference(c.p, c.x, idx)
    assert again > 0
    assert fewer > 0
