import itertools

import numpy as np
import pytest

from qptrim import milp
from qptrim.milp import MilpTimeout, milp_solve
from qptrim.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, lp_solve


def brute_force_binary(cost, C, d, n_bin, n_cont=0, cont_bounds=None):
    """Enumerate binary assignments; optimize any continuous tail by LP."""
    cost = np.asarray(cost, dtype=float)
    best = None
    for bits in itertools.product((0.0, 1.0), repeat=n_bin):
        if n_cont == 0:
            x = np.array(bits)
            if C is None or np.all(C @ x <= np.asarray(d) + 1e-9):
                val = float(cost @ x)
                if best is None or val < best[0] - 1e-12:
                    best = (val, x)
        else:
            bounds = [(b, b) for b in bits] + list(cont_bounds)
            res = lp_solve(cost, C, d, bounds)
            if res.status == OPTIMAL:
                if best is None or res.objective < best[0] - 1e-12:
                    best = (res.objective, res.x)
    return best


def test_integral_relaxation_needs_one_node():
    res = milp_solve([-1.0, -1.0], bounds=[(0, 2), (0, 3)], integer=[0, 1])
    assert res.is_optimal
    assert res.objective == pytest.approx(-5.0, abs=1e-9)
    np.testing.assert_allclose(res.x, [2.0, 3.0], atol=1e-9)
    assert res.nodes == 1


def test_small_knapsack():
    # max 5a + 4b + 3c subject to 2a + 3b + c <= 5, binary
    res = milp_solve(
        [-5.0, -4.0, -3.0],
        C=[[2.0, 3.0, 1.0]],
        d=[5.0],
        bounds=[(0.0, 1.0)] * 3,
        integer=[0, 1, 2],
    )
    assert res.is_optimal
    assert res.objective == pytest.approx(-9.0, abs=1e-9)
    np.testing.assert_allclose(res.x, [1.0, 1.0, 0.0], atol=1e-9)


def test_returned_point_is_exactly_integral():
    res = milp_solve(
        [-1.0, -1.0, -1.0],
        C=[[1.0, 1.0, 1.0]],
        d=[1.5],
        bounds=[(0.0, 1.0)] * 3,
        integer=[0, 1, 2],
    )
    assert res.is_optimal
    assert res.objective == pytest.approx(-1.0, abs=1e-9)
    assert all(v in (0.0, 1.0) for v in res.x)


def test_random_binary_problems_match_enumeration():
    rng = np.random.default_rng(19)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 5))
        C = rng.normal(size=(m, n))
        d = rng.normal(loc=1.0, size=m)
        cost = rng.normal(size=n)
        res = milp_solve(cost, C, d, [(0.0, 1.0)] * n, integer=range(n))
        ref = brute_force_binary(cost, C, d, n)
        if ref is None:
            assert res.status == INFEASIBLE
        else:
            assert res.is_optimal
            assert res.objective == pytest.approx(ref[0], abs=1e-7)
            assert np.array_equal(res.x, np.round(res.x))


def test_mixed_integer_continuous_matches_enumeration():
    rng = np.random.default_rng(20)
    for _ in range(15):
        n_bin, n_cont = 3, 2
        n = n_bin + n_cont
        C = rng.normal(size=(4, n))
        d = rng.normal(loc=1.5, size=4)
        cost = rng.normal(size=n)
        cont_bounds = [(-2.0, 2.0)] * n_cont
        res = milp_solve(cost, C, d, [(0.0, 1.0)] * n_bin + cont_bounds,
                         integer=range(n_bin))
        ref = brute_force_binary(cost, C, d, n_bin, n_cont, cont_bounds)
        if ref is None:
            assert res.status == INFEASIBLE
        else:
            assert res.is_optimal
            assert res.objective == pytest.approx(ref[0], abs=1e-7)
            assert np.array_equal(res.x[:n_bin], np.round(res.x[:n_bin]))


def test_node_limit_raises(monkeypatch):
    # sum of binaries >= 5.5 keeps every relaxation fractional
    n = 12
    monkeypatch.setattr(milp, "_NODE_LIMIT", 3)
    with pytest.raises(MilpTimeout):
        milp_solve(np.ones(n), [[-1.0] * n], [-5.5], [(0.0, 1.0)] * n,
                   integer=range(n))


def test_infeasible_detected():
    res = milp_solve([1.0], C=[[1.0], [-1.0]], d=[1.0, -2.0], integer=[0])
    assert res.status == INFEASIBLE
    assert res.x is None


def test_integer_infeasible_but_lp_feasible():
    # 0.4 <= x <= 0.6 has no integer point
    res = milp_solve([1.0], bounds=[(0.4, 0.6)], integer=[0])
    assert res.status == INFEASIBLE


def test_box_only_children_reoptimised(monkeypatch):
    # no rows: the root keeps its state and every child re-optimises it
    import qptrim.milp as milp_mod

    calls = []
    cold = milp_mod.lp_solve
    monkeypatch.setattr(milp_mod, "lp_solve",
                        lambda *a, **k: calls.append(1) or cold(*a, **k))
    res = milp_solve([1.0, -1.0], bounds=[(-1.5, 2.5), (None, 0.5)],
                     integer=[0, 1])
    assert res.status == OPTIMAL and res.x.tolist() == [-1.0, 0.0]
    assert res.nodes == 3 and len(calls) == 1


def test_unbounded_detected():
    res = milp_solve([-1.0], bounds=[(0.0, None)], integer=[0])
    assert res.status == UNBOUNDED


def test_deterministic():
    rng = np.random.default_rng(22)
    C = rng.normal(size=(5, 8))
    d = rng.normal(loc=1.0, size=5)
    cost = rng.normal(size=8)
    a = milp_solve(cost, C, d, [(0.0, 1.0)] * 8, integer=range(8))
    b = milp_solve(cost, C, d, [(0.0, 1.0)] * 8, integer=range(8))
    assert a.status == b.status and a.nodes == b.nodes
    if a.is_optimal:
        assert a.objective == b.objective
        np.testing.assert_array_equal(a.x, b.x)


def test_bad_integer_index_rejected():
    with pytest.raises(ValueError):
        milp_solve([1.0, 1.0], integer=[5])


def test_single_bound_pair_named():
    with pytest.raises(ValueError, match=r"bounds must be None or one "
                                         r"\(lo, hi\) pair per variable"):
        milp_solve([1.0, 1.0], bounds=(0.0, 1.0), integer=[0])


def brute_force_integer(cost, C, d, bounds, ranges, n_int):
    """Enumerate the first n_int variables over the given integer ranges;
    optimize the continuous tail by a cold LP."""
    best = None
    for vals in itertools.product(*ranges):
        fixed = [(float(v), float(v)) for v in vals] + list(bounds[n_int:])
        res = lp_solve(cost, C, d, fixed)
        if res.status == OPTIMAL and (best is None or res.objective < best - 1e-12):
            best = res.objective
    return best


def tied_bound_problem(rng, n_bin=6):
    """min r over binaries that exempt rows from r >= a_j . y - b_j, with a
    budget on the exemptions: the relaxation bound is 0 at most nodes, as in
    the sigma encoding, and the binaries cost nothing."""
    n_y = 2
    a = np.round(rng.normal(size=(n_bin, n_y)), 1)
    b = np.round(rng.uniform(0.0, 1.0, size=n_bin), 1)
    big = 10.0
    n = n_bin + n_y + 1    # delta, y, r
    rows, rhs = [], []
    # a_j . y - b_j - big * delta_j <= r
    rows.append(np.hstack([-big * np.eye(n_bin), a, -np.ones((n_bin, 1))]))
    rhs.append(b)
    # at most n_bin - 3 exemptions
    rows.append(np.concatenate([np.ones(n_bin), np.zeros(n_y + 1)])[None, :])
    rhs.append([n_bin - 3.0])
    cost = np.zeros(n)
    cost[-1] = 1.0
    bounds = [(0.0, 1.0)] * n_bin + [(-1.0, 1.0)] * n_y + [(-5.0, None)]
    return cost, np.vstack(rows), np.concatenate(rhs), bounds


def test_tied_relaxation_bounds_match_enumeration():
    rng = np.random.default_rng(23)
    for _ in range(12):
        cost, C, d, bounds = tied_bound_problem(rng)
        n_bin = 6
        res = milp_solve(cost, C, d, bounds, integer=range(n_bin))
        ref = brute_force_binary(cost, C, d, n_bin, 3, bounds[n_bin:])[0]
        assert res.is_optimal
        assert res.objective == pytest.approx(ref, abs=1e-9)
        assert np.all(C @ res.x <= d + 1e-9)


def test_one_sided_and_free_integers_match_enumeration():
    # x0 integer in [0, inf), x1 integer in (-inf, 3], x2 a free integer
    # (it sits on two tableau columns, so its children are solved cold);
    # the rows keep all three within [-6, 6]
    rng = np.random.default_rng(24)
    box = np.hstack([np.vstack([np.eye(3), -np.eye(3)]), np.zeros((6, 1))])
    for _ in range(10):
        C = np.vstack([box, np.round(rng.normal(size=(3, 4)), 1)])
        d = np.concatenate([np.full(6, 5.5), rng.uniform(1.0, 4.0, size=3)])
        cost = np.round(rng.normal(size=4), 2)
        bounds = [(0.0, None), (None, 3.0), (None, None), (-1.0, 1.0)]
        res = milp_solve(cost, C, d, bounds, integer=range(3))
        ref = brute_force_integer(cost, C, d, bounds,
                                  [range(0, 7), range(-6, 4), range(-6, 7)], 3)
        if ref is None:
            assert res.status == INFEASIBLE
        else:
            assert res.is_optimal
            assert res.objective == pytest.approx(ref, abs=1e-9)


def test_dual_cap_zero_solves_every_child_cold(monkeypatch):
    import qptrim.milp as milp_mod

    calls = []
    cold = milp_mod.lp_solve

    def counting(*args, **kwargs):
        calls.append(1)
        return cold(*args, **kwargs)

    monkeypatch.setattr(milp_mod, "lp_solve", counting)
    rng = np.random.default_rng(25)
    problems = [tied_bound_problem(rng) for _ in range(6)]
    results = []
    for cap in (milp_mod._DUAL_CAP, 0):
        monkeypatch.setattr(milp_mod, "_DUAL_CAP", cap)
        for cost, C, d, bounds in problems:
            calls.clear()
            res = milp_solve(cost, C, d, bounds, integer=range(6))
            results.append(res.objective)
            if cap == 0:
                assert len(calls) == res.nodes      # every node cold
            else:
                assert len(calls) == 1              # only the root
    warm, cold_only = results[:6], results[6:]
    np.testing.assert_allclose(warm, cold_only, atol=1e-9, rtol=0.0)
    for (cost, C, d, bounds), val in zip(problems, cold_only):
        ref = brute_force_binary(cost, C, d, 6, 3, bounds[6:])[0]
        assert val == pytest.approx(ref, abs=1e-9)


def test_warm_point_off_the_rows_is_solved_cold(monkeypatch):
    import qptrim.milp as milp_mod
    from qptrim.simplex import Relaxation

    real = Relaxation.rebound

    def drifted(self, *args):
        res = real(self, *args)
        if res is not None and res.status == OPTIMAL:
            res.x = res.x + 100.0      # past every binary's upper bound
        return res

    calls = []
    cold = milp_mod.lp_solve

    def counting(*args, **kwargs):
        calls.append(1)
        return cold(*args, **kwargs)

    monkeypatch.setattr(Relaxation, "rebound", drifted)
    monkeypatch.setattr(milp_mod, "lp_solve", counting)
    rng = np.random.default_rng(26)
    for _ in range(4):
        cost, C, d, bounds = tied_bound_problem(rng)
        calls.clear()
        res = milp_solve(cost, C, d, bounds, integer=range(6))
        ref = brute_force_binary(cost, C, d, 6, 3, bounds[6:])[0]
        assert res.objective == pytest.approx(ref, abs=1e-9)
        assert np.all(C @ res.x <= d + 1e-9)
        assert len(calls) > 1


def test_rounding_that_misses_the_root_bound_changes_nothing():
    # no exemptions at all: the leaf is feasible but above the root bound,
    # so it is dropped and the search runs as without it, one node later
    rng = np.random.default_rng(27)
    for _ in range(6):
        cost, C, d, bounds = tied_bound_problem(rng)
        plain = milp_solve(cost, C, d, bounds, integer=range(6))
        res = milp_solve(cost, C, d, bounds, integer=range(6),
                         rounding=lambda x: np.zeros(6))
        assert res.nodes == plain.nodes + 1 > 3
        assert res.objective == plain.objective
        assert np.array_equal(res.x, plain.x)


def closing_case(rng):
    """A tied-bound problem with r held at or above its optimum, so the
    root bound is the optimum, and a rounding to an optimal assignment."""
    cost, C, d, bounds = tied_bound_problem(rng)
    ref, ref_x = brute_force_binary(cost, C, d, 6, 3, bounds[6:])
    bounds[-1] = (ref, None)
    return cost, C, d, bounds, ref, lambda x: ref_x[:6]


def test_rounding_that_meets_the_root_bound_closes_at_the_root():
    rng = np.random.default_rng(28)
    for _ in range(6):
        cost, C, d, bounds, ref, rounding = closing_case(rng)
        root = lp_solve(cost, C, d, bounds)
        assert root.objective == ref
        assert np.any(np.abs(root.x[:6] - np.round(root.x[:6])) > 0.1)
        res = milp_solve(cost, C, d, bounds, integer=range(6),
                         rounding=rounding)
        assert res.is_optimal and res.nodes == 2
        assert res.objective == pytest.approx(ref, abs=1e-9)
        assert np.array_equal(res.x[:6], rounding(None))
        assert np.all(C @ res.x <= d + 1e-9)
        assert milp_solve(cost, C, d, bounds, integer=range(6)).nodes > 2


def test_dual_cap_zero_solves_the_rounded_leaf_cold(monkeypatch):
    calls = []
    cold = milp.lp_solve

    def counting(*args, **kwargs):
        calls.append(1)
        return cold(*args, **kwargs)

    monkeypatch.setattr(milp, "lp_solve", counting)
    rng = np.random.default_rng(28)
    cases = [closing_case(rng) for _ in range(4)]
    for cap, cold_solves in ((milp._DUAL_CAP, 1), (0, 2)):
        monkeypatch.setattr(milp, "_DUAL_CAP", cap)
        for cost, C, d, bounds, ref, rounding in cases:
            calls.clear()
            res = milp_solve(cost, C, d, bounds, integer=range(6),
                             rounding=rounding)
            assert res.nodes == 2 and len(calls) == cold_solves
            assert res.objective == pytest.approx(ref, abs=1e-9)


def test_rounding_outside_the_bounds_rejected():
    with pytest.raises(ValueError, match="rounding gave"):
        milp_solve([-1.0, -1.0], [[1.0, 1.0]], [1.5], [(0.0, 1.0)] * 2,
                   integer=[0, 1], rounding=lambda x: [2.0, 0.0])
