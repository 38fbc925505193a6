"""The solver's guessed active set: a guess that KKT proves settles the solve
without nnls, any other guess falls through to nnls and changes nothing, and
in the closed loop the last solve's active rows, shifted one stage, settle
every guessed solve of the loop golden's starts."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import nnls_spy, solve_spy
from qptrim import qpsolver
from qptrim.bench import draw_initial_states
from qptrim.closedloop import InfeasibleAtStep, build_offline_dataset, simulate
from qptrim.mpc import scenario_from_dict
from qptrim.mpqp import MpQp
from test_loop_golden import CASES, STEPS
from test_qpsolver_degenerate import reference_cases


def solve(p, x, guess=None, rows=None):
    x = np.asarray(x, dtype=float)
    if guess is not None:
        guess = np.asarray(guess, dtype=np.intp)
    return qpsolver._solve(p, x, rows, guess=guess)


def four_rows():
    """z0 = -x with rows z_1 <= 0, z_2 <= -2, -z_2 <= 5 and a copy of the
    first: at x = (-1, 1), z0 = (1, -1) violates rows 0, 1 and 3 by 1 and
    meets row 2 with slack 4; the minimizer is (0, -2)."""
    return MpQp(H=np.eye(2), F=np.eye(2),
                G=[[1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 0.0]],
                S=np.zeros((4, 2)), w=[0.0, -2.0, 5.0, 0.0])


X = [-1.0, 1.0]


def test_proved_guess_settles_without_nnls(monkeypatch):
    p = four_rows()
    want = solve(p, X)
    seen = nnls_spy(monkeypatch)
    sol, active, path = solve(p, X, [0, 1])
    assert seen == [] and path == "guess"
    assert active.tolist() == [0, 1]
    assert np.array_equal(sol.z_star, [0.0, -2.0])
    assert np.allclose(sol.z_star, want[0].z_star, rtol=0.0, atol=1e-12)
    assert sol.iterations == 3
    # over a row subset the multipliers align with the subset
    sol, active, path = solve(p, X, [0, 1], rows=np.array([0, 1, 2]))
    assert path == "guess" and active.tolist() == [0, 1]
    assert np.allclose(sol.lam, [1.0, 1.0, 0.0], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("guess", [[2], [0], [0, 3]],
                         ids=["negative-multiplier", "violated-row",
                              "dependent-rows"])
def test_wrong_guess_falls_through_to_nnls(monkeypatch, guess):
    # [2] holds a row z0 meets: its multiplier is -4; [0] leaves row 1
    # violated; [0, 3] repeats a row, so its Gram matrix is singular
    p = four_rows()
    want, want_active, want_path = solve(p, X)
    assert want_path == "nnls"
    seen = nnls_spy(monkeypatch)
    sol, active, path = solve(p, X, guess)
    assert len(seen) >= 1 and path == "nnls"
    assert np.array_equal(sol.z_star, want.z_star)
    assert np.array_equal(sol.lam, want.lam)
    assert sol.iterations == want.iterations
    assert np.array_equal(active, want_active)


def test_guess_is_not_tried_when_z0_is_feasible(monkeypatch):
    p = four_rows()
    seen = nnls_spy(monkeypatch)
    sol, active, path = solve(p, [1.0, 3.0], [0, 1])
    assert path == "z0" and active.size == 0 and seen == []
    assert np.array_equal(sol.z_star, [-1.0, -3.0])


def guesses(rng, solved, active):
    """The unguessed solve's active rows, the same less one row, the same
    plus one solved row, and a random subset of the solved rows; each
    ascending and inside the solved rows."""
    out = []
    if active is not None and len(active):
        out += [active, np.delete(active, rng.integers(len(active)))]
    if len(solved):
        have = np.zeros(0, dtype=np.intp) if active is None else active
        out.append(np.union1d(have, rng.choice(solved, 1)))
        size = rng.integers(0, len(solved) + 1)
        out.append(np.sort(rng.choice(solved, size, replace=False)))
    return out


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_z=st.integers(1, 12),
    n_x=st.integers(1, 4),
    n_c=st.integers(1, 30),
    scale=st.floats(0.01, 100.0),
    spread=st.floats(0.0, 3.0),
)
def test_any_guess_gives_the_unguessed_answer(seed, n_z, n_x, n_c, scale,
                                              spread):
    # instances with a parallel and an antiparallel copy of row 1, so some
    # row subsets are infeasible and some guesses dependent
    rng = np.random.default_rng(seed)
    q, x, subsets = reference_cases(rng, n_z, n_x, n_c, scale, spread)
    for idx in subsets:
        rows = None if idx is None else idx.zero_based()
        solved = np.arange(q.n_c) if rows is None else rows
        want, active, _ = qpsolver._solve(q, x, rows)
        for guess in guesses(rng, solved, active):
            sol, got, path = qpsolver._solve(q, x, rows, guess=guess)
            assert sol.status == want.status
            if want.z_star is None:
                assert sol.z_star is None
                continue
            z = want.z_star
            assert np.abs(sol.z_star - z).max() <= 1e-9 * (
                1.0 + np.abs(z).max())
            if path == "guess":
                assert np.array_equal(got, guess)
            if path != "guess" or np.array_equal(guess, active):
                # nnls ignores the guess, and a right guess is solved by
                # the same expression on the same rows
                assert np.array_equal(sol.z_star, z)
                assert sol.iterations == want.iterations


def masses3():
    make, n_starts, seed, _, _ = CASES["masses3"]
    sc = scenario_from_dict(make())
    return sc, draw_initial_states(sc, n_starts, seed)


def test_shifted_guess_cuts_nnls_calls(monkeypatch):
    # masses-3 `full` from the loop golden's starts: 427 nnls calls when no
    # guess is handed in, 123 with the shifted guess, and the same loop
    sc, starts = masses3()
    seen = nnls_spy(monkeypatch)
    guessed = [simulate(sc, x0, STEPS) for x0 in starts]
    assert len(seen) == 123
    solves = solve_spy(monkeypatch, withhold_guess=True)
    unguessed = [simulate(sc, x0, STEPS) for x0 in starts]
    assert sum(len(c.nnls) for c in solves) == 427
    for a, c in zip(guessed, unguessed):
        assert np.array_equal(a.inputs(), c.inputs())
        assert [r.iterations for r in a.records] == [
            r.iterations for r in c.records]
        assert {r.path for r in c.records} <= {"z0", "nnls"}


@pytest.mark.parametrize("name, mode", [
    (name, mode) for name in sorted(CASES) for mode in CASES[name][4]])
def test_shifted_guess_never_misses(monkeypatch, name, mode):
    # every solve handed a guess that fails its first check is settled by
    # the guess, and only steps whose path is "nnls" call nnls
    make, n_starts, seed, spacing, _ = CASES[name]
    sc = scenario_from_dict(make())
    offline = (None if spacing is None
               else build_offline_dataset(sc, spacing=spacing))
    solves = solve_spy(monkeypatch)
    paths = []
    for x0 in draw_initial_states(sc, n_starts, seed):
        trace = simulate(sc, x0, STEPS, mode=mode, offline=offline)
        paths += [r.path for r in trace.records]
    assert len(paths) == len(solves)
    guessed = [c.guess is not None and len(c.guess) > 0 for c in solves]
    misses = sum(g and path == "nnls" for g, path in zip(guessed, paths))
    assert misses == 0
    assert paths.count("guess") > 0
    for c, g, path in zip(solves, guessed, paths):
        assert (len(c.nnls) > 0) == (path == "nnls")
        assert g or path != "guess"


def test_trimmed_guess_holds_only_kept_rows(monkeypatch):
    # kappa = 0 removes every row the last minimizer meets at the new
    # state, shifted active rows included; the solve must get only the
    # kept ones (the loop may then drift off the full trajectory and stop)
    sc, starts = masses3()
    solves = solve_spy(monkeypatch)
    for x0 in starts[:12]:
        with contextlib.suppress(InfeasibleAtStep):
            simulate(sc, x0, STEPS, mode="adaptive-online", kappa=0.0)
    guessed = [np.isin(c.guess, c.rows).all() for c in solves
               if c.guess is not None]
    assert len(guessed) > 0 and all(guessed)
