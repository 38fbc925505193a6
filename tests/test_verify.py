"""Unit coverage for the release-gate plumbing (the cheap parts).

The heavyweight checks themselves run from test_acceptance; here we pin
the result formatting, the label filtering, and the first-principles
optimality certificate the Lipschitz check leans on.
"""

import numpy as np
import pytest

from qptrim import verify
from qptrim.mpqp import IndexSet, example_two_halfplanes
from qptrim.qpsolver import qp_solve


def test_result_line_and_budget():
    r = verify.CriterionResult("9", "demo-check", True, "fine", 0.5, budget=2.0)
    assert r.ok and r.within_budget
    assert r.line() == "PASS  [9] demo-check: fine (0.5s/2s)"

    slow = verify.CriterionResult("9", "demo-check", True, "fine", 3.1, budget=2.0)
    assert slow.passed and not slow.ok
    assert slow.line().startswith("FAIL")

    free = verify.CriterionResult("9", "demo-check", False, "broke", 0.1)
    assert free.within_budget and not free.ok
    assert free.line() == "FAIL  [9] demo-check: broke (0.1s)"


def test_result_to_dict_roundtrips_through_json():
    import json

    r = verify.CriterionResult("1", "n", True, "d", 1.25, budget=4.0)
    d = json.loads(json.dumps(r.to_dict()))
    assert d["ok"] is True and d["budget"] == 4.0 and d["seconds"] == 1.25


def test_run_all_filters_labels(capsys):
    results = verify.run_all(labels=["1"], seed=0)
    out = capsys.readouterr().out
    assert [r.label for r in results] == ["1"]
    assert out.count("worked-example-golden") == 1


def test_golden_example_check_passes():
    res = verify.golden_example()
    assert res.ok
    assert "{2}/{1}" in res.detail


def test_kkt_certificate_accepts_true_optimum_only():
    p = example_two_halfplanes()
    x = np.array([-1.0])
    sol = qp_solve(p, x)
    full = IndexSet(range(1, p.n_c + 1))
    assert verify._kkt_certificate(p, x, full, sol.z_star)
    # off-optimal point: feasible but the gradient has no valid multipliers
    assert not verify._kkt_certificate(p, x, full, sol.z_star - 0.5)
    # infeasible point
    assert not verify._kkt_certificate(p, x, full, sol.z_star + 1.0)


def test_random_mpqp_is_feasible_at_center():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p, x_center = verify._random_mpqp(rng, 3, 2, 8)
        sol = qp_solve(p, x_center)
        assert sol.is_optimal


def test_grid_sigma_chunks_match_whole_grid():
    # reference: materialize every grid point at once and sort each row
    rng = np.random.default_rng(3)
    L = verify._random_origin_polytope(rng, 3, 7, 1.2)
    axes = [np.linspace(lo, hi, 23) for lo, hi in L.box]
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    dist = (L.w[None, :] - pts @ L.H_lift.T) / L.row_norms[None, :]
    ordered = np.sort(dist[np.all(dist >= 0.0, axis=1)], axis=1)
    expected = [float(ordered[:, 1].min()), float(ordered[:, 2].min())]
    # a chunk that divides 23^3 unevenly, so the last chunk is partial
    assert verify._grid_sigma(L, 23, chunk=1000) == expected
    assert verify._grid_sigma(L, 23) == expected


def test_trace_deviation_zero_against_itself():
    from qptrim.bench import trace_deviation
    from qptrim.closedloop import simulate
    from qptrim.mpc import scenario_from_dict
    from qptrim.plants import gen_double_integrator

    sc = scenario_from_dict(gen_double_integrator(N=3))
    tr = simulate(sc, [1.0, 0.0], 4, mode="full")
    assert trace_deviation(tr, tr) == 0.0


def test_checks_table_covers_all_labels():
    labels = [label for label, _ in verify.CHECKS]
    assert labels == ["1", "2", "3", "4", "5", "6", "7", "8", "demo"]
    assert all(callable(fn) for _, fn in verify.CHECKS)
