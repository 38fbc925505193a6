import itertools

import numpy as np
import pytest

from qptrim.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, lp_solve


def enumerate_vertices(C, d, tol=1e-9):
    """All vertices of {x: C x <= d} by exhaustive basis enumeration."""
    m, n = C.shape
    verts = []
    for rows in itertools.combinations(range(m), n):
        sub = C[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        v = np.linalg.solve(sub, d[list(rows)])
        if np.all(C @ v <= d + tol * (1.0 + np.abs(d).max())):
            verts.append(v)
    return verts


def random_bounded_polytope(rng, n, extra_rows):
    # box rows keep it bounded; extra random cuts through a known interior point
    C = np.vstack([np.eye(n), -np.eye(n), rng.normal(size=(extra_rows, n))])
    x0 = rng.uniform(-0.5, 0.5, size=n)
    d = np.concatenate(
        [
            np.full(2 * n, rng.uniform(1.0, 3.0)),
            C[2 * n:] @ x0 + rng.uniform(0.05, 1.5, size=extra_rows),
        ]
    )
    return C, d


def test_matches_vertex_enumeration_on_random_polytopes():
    rng = np.random.default_rng(42)
    for trial in range(60):
        n = int(rng.integers(2, 4))
        C, d = random_bounded_polytope(rng, n, int(rng.integers(0, 5)))
        cost = rng.normal(size=n)
        res = lp_solve(cost, C, d)
        assert res.status == OPTIMAL, f"trial {trial}"
        verts = enumerate_vertices(C, d)
        assert verts, "bounded nonempty polytope must have vertices"
        best = min(cost @ v for v in verts)
        assert abs(res.objective - best) <= 1e-7 * (1.0 + abs(best))
        viol = (C @ res.x - d).max()
        assert viol <= 1e-8 * (1.0 + np.abs(d).max())


def test_simple_known_solution():
    # min -x-y st x<=1, y<=2, x+y<=2.5, x,y>=0  ->  corner mixes
    C = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    d = np.array([1.0, 2.0, 2.5])
    res = lp_solve([-1.0, -1.0], C, d, bounds=[(0.0, None)] * 2)
    assert res.status == OPTIMAL
    assert np.isclose(res.objective, -2.5)


def test_infeasible_detected():
    C = np.array([[1.0], [-1.0]])
    d = np.array([-1.0, -1.0])  # x <= -1 and x >= 1
    assert lp_solve([1.0], C, d).status == INFEASIBLE


def test_unbounded_detected():
    res = lp_solve([-1.0], np.array([[-1.0]]), np.array([0.0]))  # x >= 0, min -x
    assert res.status == UNBOUNDED


def test_box_only_problems():
    res = lp_solve([2.0, -3.0], bounds=[(0.0, 1.0), (-2.0, 5.0)])
    assert res.status == OPTIMAL
    assert np.allclose(res.x, [0.0, 5.0])
    assert lp_solve([1.0]).status == UNBOUNDED
    assert lp_solve([0.0]).status == OPTIMAL


def test_bounds_respected_and_match_folded_oracle():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        C, d = random_bounded_polytope(rng, n, int(rng.integers(0, 4)))
        lo = rng.uniform(-1.0, -0.2, size=n)
        hi = rng.uniform(0.2, 1.0, size=n)
        cost = rng.normal(size=n)
        res = lp_solve(cost, C, d, bounds=list(zip(lo, hi)))
        # oracle works on the polytope with the box folded into rows
        Cb = np.vstack([C, np.eye(n), -np.eye(n)])
        db = np.concatenate([d, hi, -lo])
        verts = enumerate_vertices(Cb, db)
        if res.status != OPTIMAL:
            assert res.status == INFEASIBLE
            assert not verts
            continue
        assert np.all(res.x >= lo - 1e-9)
        assert np.all(res.x <= hi + 1e-9)
        best = min(cost @ v for v in verts)
        assert abs(res.objective - best) <= 1e-7 * (1.0 + abs(best))


def test_mixed_free_and_one_sided_bounds():
    # min x1 + x2 with x1 free, x2 <= 3, constraint x1 >= x2 - 1, x1 + x2 >= 0
    C = np.array([[-1.0, 1.0], [-1.0, -1.0]])
    d = np.array([1.0, 0.0])
    res = lp_solve([1.0, 1.0], C, d, bounds=[(None, None), (None, 3.0)])
    assert res.status == OPTIMAL
    assert np.isclose(res.objective, 0.0, atol=1e-9)


def test_degenerate_ties_terminate():
    # many redundant rows through one vertex exercises anti-cycling
    C = np.array(
        [
            [1.0, 0.0],
            [0.0, 1.0],
            [1.0, 1.0],
            [2.0, 2.0],
            [1.0, 2.0],
            [2.0, 1.0],
            [-1.0, 0.0],
            [0.0, -1.0],
        ]
    )
    d = np.array([1.0, 1.0, 2.0, 4.0, 3.0, 3.0, 0.0, 0.0])
    res = lp_solve([-1.0, -1.0], C, d)
    assert res.status == OPTIMAL
    assert np.isclose(res.objective, -2.0, atol=1e-9)


def test_equality_like_thin_feasible_set():
    # x + y <= 1 and x + y >= 1 pins the simplex onto a facet
    C = np.array([[1.0, 1.0], [-1.0, -1.0], [-1.0, 0.0], [0.0, -1.0]])
    d = np.array([1.0, -1.0, 0.0, 0.0])
    res = lp_solve([0.0, -1.0], C, d)
    assert res.status == OPTIMAL
    assert np.isclose(res.objective, -1.0, atol=1e-9)
    assert np.allclose(res.x, [0.0, 1.0], atol=1e-8)


def test_deterministic_repeatability():
    rng = np.random.default_rng(9)
    C, d = random_bounded_polytope(rng, 3, 4)
    cost = rng.normal(size=3)
    r1 = lp_solve(cost, C, d)
    r2 = lp_solve(cost, C, d)
    assert r1.status == r2.status == OPTIMAL
    assert np.array_equal(r1.x, r2.x)
    assert r1.iterations == r2.iterations


def test_shape_validation():
    with pytest.raises(ValueError):
        lp_solve([1.0, 2.0], np.eye(3), np.zeros(3))
    with pytest.raises(ValueError):
        lp_solve([1.0], np.eye(1), np.zeros(2))
    with pytest.raises(ValueError):
        lp_solve([1.0], bounds=[(2.0, 1.0)])


@pytest.mark.parametrize("bounds", [(0.0, 1.0), 0.0, [(0.0, 1.0, 2.0)] * 2])
def test_bounds_not_in_pairs_named(bounds):
    with pytest.raises(ValueError, match=r"bounds must be None or one "
                                         r"\(lo, hi\) pair per variable"):
        lp_solve([1.0, 1.0], bounds=bounds)


def _rebound_cases(rng):
    """Random LPs with box rows at +-[1, 3] and variable bounds at +-[0.3,
    2.5], so that either can be active. Some variables are one-sided (the
    rows keep them bounded)."""
    n = int(rng.integers(2, 5))
    C, d = random_bounded_polytope(rng, n, int(rng.integers(1, 5)))
    bounds = []
    for _ in range(n):
        a, b = -rng.uniform(0.3, 2.5), rng.uniform(0.3, 2.5)
        bounds.append([(a, b), (a, None), (None, b), (a, b)][rng.integers(0, 4)])
    return C, d, rng.normal(size=n), bounds


def _where(state, j):
    tab, k = state.tab, state.col[j]
    if tab.upper[k] == 0.0:    # upper is measured from lower
        return "fixed"
    if tab.in_basis[k]:
        return "basic"
    # a mirrored column sits at its upper bound when x[j] is at its lower
    return "upper" if tab.at_upper[k] else "lower"


def _assert_warm_matches_cold(warm, cold, C, d, lo, hi):
    assert warm.status == cold.status
    if cold.status != OPTIMAL:
        return
    assert abs(warm.objective - cold.objective) <= 1e-9
    assert (C @ warm.x - d).max() <= 1e-9 * (1.0 + np.abs(d).max())
    assert np.all(warm.x >= lo - 1e-9) and np.all(warm.x <= hi + 1e-9)


def test_rebound_matches_cold_solve_after_one_bound_change():
    rng = np.random.default_rng(51)
    seen = set()
    for _ in range(60):
        C, d, cost, bounds = _rebound_cases(rng)
        parent = lp_solve(cost, C, d, bounds)
        assert parent.status == OPTIMAL
        lo = np.array([-np.inf if a is None else a for a, _ in bounds])
        hi = np.array([np.inf if b is None else b for _, b in bounds])
        for j in range(len(cost)):
            low, high = max(lo[j], -4.0), min(hi[j], 4.0)
            x_j = min(max(parent.x[j], low), high)
            intervals = [
                (rng.uniform(x_j, high), hi[j]),      # cut off x_j from below
                (lo[j], rng.uniform(low, x_j)),       # cut off x_j from above
                (rng.uniform(low, high),) * 2,        # fix the column
                (high - 0.02, hi[j]),                 # near the ends: may be
                (lo[j], low + 0.02),                  # past the rows
            ]
            for a, b in intervals:
                warm = parent.state.rebound([(j, a, b)], 500)
                assert warm is not None
                lo_c, hi_c = lo.copy(), hi.copy()
                lo_c[j], hi_c[j] = a, b
                cold = lp_solve(cost, C, d, list(zip(lo_c, hi_c)))
                _assert_warm_matches_cold(warm, cold, C, d, lo_c, hi_c)
                seen.add(_where(parent.state, j))
                seen.add("child " + warm.status)
                if warm.status == OPTIMAL:
                    seen.add("child " + _where(warm.state, j))
    assert {"basic", "lower", "upper", "child fixed", "child optimal",
            "child infeasible"} <= seen


def test_rebound_chains_through_grandchildren():
    rng = np.random.default_rng(52)
    for _ in range(30):
        C, d, cost, bounds = _rebound_cases(rng)
        lo = np.array([-np.inf if a is None else a for a, _ in bounds])
        hi = np.array([np.inf if b is None else b for _, b in bounds])
        res = lp_solve(cost, C, d, bounds)
        for _ in range(4):
            j = int(rng.integers(len(cost)))
            a = max(lo[j], -4.0) + rng.uniform(0.0, 0.6)
            b = min(hi[j], 4.0) - rng.uniform(0.0, 0.6)
            if a > b:
                break
            lo[j], hi[j] = a, b
            res = res.state.rebound([(j, a, b)], 500)
            cold = lp_solve(cost, C, d, list(zip(lo, hi)))
            _assert_warm_matches_cold(res, cold, C, d, lo, hi)
            if res.status != OPTIMAL:
                break


def test_rebound_without_rows():
    # a box-only LP keeps its state; a child re-optimises on its new bound
    for bounds, cut, want in (((0.0, 2.5), (0.0, 2.0), 2.0),
                              ((None, 2.5), (-np.inf, 1.0), 1.0),
                              ((-1.0, 2.5), (-1.0, -0.5), -0.5)):
        res = lp_solve([-1.0], bounds=[bounds])
        assert res.status == OPTIMAL and res.state is not None
        child = res.state.rebound([(0, *cut)], 500)
        assert child.status == OPTIMAL and child.x.tolist() == [want]
        assert child.iterations == 0


def test_rebound_declines_free_column():
    C, d = random_bounded_polytope(np.random.default_rng(53), 2, 2)
    res = lp_solve([1.0, -1.0], C, d, [(None, None), (-4.0, 4.0)])
    assert res.status == OPTIMAL
    assert res.state.rebound([(0, 0.0, 1.0)], 500) is None
    assert res.state.rebound([(1, 0.0, 1.0)], 500) is not None


def test_redundant_rows_leave_no_artificial_column():
    # x + y >= 1 three times over (rows with d < 0 get artificials): every
    # artificial leaves the basis onto a real column, so the tableau keeps
    # only structural and slack columns, and children still re-optimise
    C = [[-1.0, -1.0], [-2.0, -2.0], [-1.0, -1.0], [1.0, 0.0]]
    d = [-1.0, -2.0, -1.0, 1.5]
    bounds = [(0.0, 2.0), (0.0, 2.0)]
    res = lp_solve([1.0, 2.0], C, d, bounds)
    assert res.status == OPTIMAL and res.x.tolist() == [1.0, 0.0]
    tab = res.state.tab
    assert tab.n == res.state.ny + 4 == tab.T.shape[1]
    assert np.array_equal(tab.T[np.arange(tab.m), tab.basis], np.ones(tab.m))
    child = res.state.rebound([(0, 0.0, 0.25)], 500)
    cold = lp_solve([1.0, 2.0], C, d, [(0.0, 0.25), (0.0, 2.0)])
    assert child.status == OPTIMAL
    assert child.x.tolist() == pytest.approx(cold.x.tolist(), abs=1e-12)

