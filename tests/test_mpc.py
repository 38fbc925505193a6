import numpy as np
import pytest
import scipy.linalg

from qptrim import mpc
from qptrim.linalg import zoh_discretize
from qptrim.mpc import (
    EmptyConstraintSet,
    NoConvergence,
    NoTermination,
    NotPd,
    condense,
    dare,
    lqr_gain,
    max_invariant_set,
    scenario_from_dict,
    terminal_ingredients,
)
from qptrim.plants import gen_double_integrator, gen_oscillating_masses
from qptrim.polyhedra import Polyhedron, box

from helpers import within
from oracles import dare_residual


def scalar_dare_bisect(a, b, q, r):
    """Independent scalar solve: p = a^2 p r / (r + b^2 p) + q is monotone
    decreasing in the residual for |a| < infinity, so bisection works."""
    def g(p):
        return a * a * p * r / (r + b * b * p) + q - p

    lo, hi = 0.0, 1.0
    while g(hi) > 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def double_integrator(h=0.5):
    A = np.array([[1.0, h], [0.0, 1.0]])
    B = np.array([[0.5 * h * h], [h]])
    return A, B


class TestDare:
    def test_zero_dynamics_gives_q(self):
        Q = np.diag([2.0, 3.0])
        P = dare(np.zeros((2, 2)), np.zeros((2, 1)), Q, [[1.0]])
        assert np.allclose(P, Q, atol=1e-12)

    def test_scalar_against_bisection(self):
        p = dare([[0.5]], [[1.0]], [[1.0]], [[1.0]])
        expect = scalar_dare_bisect(0.5, 1.0, 1.0, 1.0)
        assert abs(p[0, 0] - expect) < 1e-9
        assert abs(p[0, 0] - 1.1327822185) < 1e-6

    def test_against_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            A = rng.standard_normal((3, 3)) * 0.6
            B = rng.standard_normal((3, 2))
            Q = np.eye(3) + 0.1 * np.diag(rng.uniform(0, 1, 3))
            R = np.eye(2)
            P = dare(A, B, Q, R)
            ref = scipy.linalg.solve_discrete_are(A, B, Q, R)
            assert np.abs(P - ref).max() < 1e-8 * (1 + np.abs(ref).max())

    def test_residual_small(self):
        A, B = double_integrator()
        P = dare(A, B, np.eye(2), [[1.0]])
        assert dare_residual(A, B, np.eye(2), [[1.0]], P) < 1e-10

    def test_unstabilizable_raises(self):
        with pytest.raises(NoConvergence):
            dare([[2.0]], [[0.0]], [[1.0]], [[1.0]])

    def test_unstabilizable_pair_fails_before_iterating(self, monkeypatch):
        # the PBH test refuses a mode on or outside the unit circle that B
        # cannot reach, before the first iteration, even where the iterate
        # would grow only linearly; a stable unreachable mode passes
        monkeypatch.setattr(mpc, "_DARE_MAX_ITER", 0)
        B = np.array([[0.0], [1.0]])
        for a in (1.0, -1.0, 1.5):
            with pytest.raises(NoConvergence, match="not stabilizable"):
                dare(np.diag([a, 0.5]), B, np.eye(2), [[1.0]])
        two = gen_oscillating_masses(2, h=0.1, N=3)["discretize"]
        A, B2 = zoh_discretize(two["Ac"], two["Bc"], two["h"])
        with pytest.raises(NoConvergence, match="not stabilizable"):
            dare(A, B2, np.eye(4), [[1.0]])
        monkeypatch.undo()
        A = np.diag([0.5, 1.5])
        P = dare(A, B, np.eye(2), [[1.0]])
        ref = scipy.linalg.solve_discrete_are(A, B, np.eye(2), [[1.0]])
        assert np.abs(P - ref).max() < 1e-8 * (1 + np.abs(ref).max())
        with pytest.raises(ValueError, match="finite"):
            dare(np.diag([np.nan, 0.5]), B, np.eye(2), [[1.0]])

    def test_indefinite_q_rejected(self):
        with pytest.raises(ValueError):
            dare([[0.5]], [[1.0]], [[-1.0]], [[1.0]])


class TestLqrGain:
    def test_closed_loop_stable(self):
        A, B = double_integrator()
        P = dare(A, B, np.eye(2), [[1.0]])
        K = lqr_gain(A, B, [[1.0]], P)
        eigs = np.linalg.eigvals(A + B @ K)
        assert np.abs(eigs).max() < 1.0

    def test_scalar_value(self):
        # k = -b p a / (r + b^2 p)
        p = dare([[0.5]], [[1.0]], [[1.0]], [[1.0]])[0, 0]
        K = lqr_gain([[0.5]], [[1.0]], [[1.0]], [[p]])
        assert abs(K[0, 0] + 0.5 * p / (1 + p)) < 1e-12


class TestMaxInvariantSet:
    def test_nilpotent_returns_constraints(self):
        body = box(1.0, dim=2)
        inv = max_invariant_set(np.zeros((2, 2)), body)
        assert inv.n_rows == 4
        for x in ([1, 1], [-1, 1]):
            assert inv.contains(x)

    def test_contraction_returns_constraints(self):
        body = box(1.0, dim=2)
        inv = max_invariant_set(0.5 * np.eye(2), body)
        assert inv.n_rows == 4

    def test_shear_adds_rows_and_is_invariant(self):
        Acl = np.array([[0.5, 1.0], [0.0, 0.5]])
        body = box(1.0, dim=2)
        inv = max_invariant_set(Acl, body)
        assert inv.n_rows > 4
        rng = np.random.default_rng(0)
        hits = 0
        for _ in range(300):
            x = rng.uniform(-1, 1, 2)
            if not inv.contains(x):
                continue
            hits += 1
            y = x.copy()
            for _ in range(30):
                assert within(body, y, 1e-7)
                y = Acl @ y
                assert within(inv, y, 1e-7)
        assert hits > 20

    def test_maximality_on_rejected_points(self):
        # a point outside the computed set must leave the constraints
        Acl = np.array([[0.5, 1.0], [0.0, 0.5]])
        body = box(1.0, dim=2)
        inv = max_invariant_set(Acl, body)
        rng = np.random.default_rng(4)
        outside = 0
        for _ in range(400):
            x = rng.uniform(-1, 1, 2)
            if within(inv, x, -1e-7):
                continue
            outside += 1
            y = x.copy()
            escaped = False
            for _ in range(100):
                if not within(body, y, 1e-10):
                    escaped = True
                    break
                y = Acl @ y
            assert escaped
        assert outside > 20

    def test_empty_constraints_raise(self):
        empty = Polyhedron([[1.0], [-1.0]], [-2.0, 1.0])
        with pytest.raises(EmptyConstraintSet):
            max_invariant_set([[0.5]], empty)

    def test_power_cap_raises_with_partial_set(self, monkeypatch):
        import qptrim.mpc as mpc_mod

        monkeypatch.setattr(mpc_mod, "_MAX_POWERS", 1)
        Acl = np.array([[0.5, 1.0], [0.0, 0.5]])
        body = box(1.0, dim=2)
        with pytest.raises(NoTermination) as exc:
            max_invariant_set(Acl, body)
        # the body's rows plus the two first-power rows the box leaves open
        partial = exc.value.partial
        assert np.array_equal(partial.C, np.vstack(
            [body.C, [[0.5, 1.0], [-0.5, -1.0]]]))
        assert np.array_equal(partial.d, np.ones(6))


class TestCondense:
    def test_scalar_horizon_one(self):
        sc = condense(
            [[1.0]], [[1.0]], [[1.0]], [[1.0]], 1,
            X=box(5.0, dim=1), U=box(1.0, dim=1), XN=box(5.0, dim=1),
            P=[[1.0]],
        )
        p = sc.condensed
        assert np.allclose(p.H, [[4.0]])
        assert np.allclose(p.F, [[2.0]])
        # t=0 state rows have no z dependence and are split off
        assert sc.stripped_param_rows is not None
        assert sc.stripped_param_rows.n_rows == 2
        assert sc.stripped_param_rows.contains([5.0])
        assert not sc.stripped_param_rows.contains([5.1])
        # remaining rows: input block then terminal block
        assert p.n_c == 4
        assert np.allclose(p.G[:2], [[1.0], [-1.0]])
        assert np.allclose(p.S[:2], [[0.0], [0.0]])
        assert np.allclose(p.w[:2], [1.0, 1.0])
        assert np.allclose(p.G[2:], [[1.0], [-1.0]])
        assert np.allclose(p.S[2:], [[-1.0], [1.0]])
        assert np.allclose(p.w[2:], [5.0, 5.0])

    def test_cost_matches_rollout(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            n, m, N = 3, 2, 4
            A = rng.standard_normal((n, n)) * 0.5
            B = rng.standard_normal((n, m))
            Q = np.eye(n) * rng.uniform(0.5, 2.0)
            R = np.eye(m) * rng.uniform(0.5, 2.0)
            P = Q + np.eye(n)
            lim = box(100.0, dim=n)
            sc = condense(A, B, Q, R, N, X=lim, U=box(100.0, dim=m),
                          XN=lim, P=P)
            x = rng.standard_normal(n)
            z = rng.standard_normal(N * m)

            def rollout(xv, zv):
                cost = xv @ Q @ xv
                for t in range(N):
                    u = zv[t * m:(t + 1) * m]
                    cost += u @ R @ u
                    xv = A @ xv + B @ u
                    cost += xv @ (P if t == N - 1 else Q) @ xv
                return cost

            condensed_val = 0.5 * z @ sc.condensed.H @ z + x @ sc.condensed.F @ z
            direct = rollout(x, z) - rollout(x, np.zeros(N * m))
            assert abs(condensed_val - direct) <= 1e-9 * (1 + abs(direct))

    def test_constraints_match_rollout(self):
        rng = np.random.default_rng(9)
        n, m, N = 2, 1, 3
        A = np.array([[1.0, 0.3], [0.0, 0.8]])
        B = np.array([[0.2], [1.0]])
        X, U, XN = box(4.0, dim=n), box(1.0, dim=m), box(2.0, dim=n)
        sc = condense(A, B, np.eye(n), np.eye(m), N, X, U, XN)
        p = sc.condensed
        assert sc.stripped_param_rows.n_rows == 4  # just the t=0 block
        for _ in range(30):
            x = rng.uniform(-3, 3, n)
            z = rng.uniform(-2, 2, N * m)
            rows = []
            xv = x.copy()
            for t in range(N):
                if t > 0:
                    rows.append(X.C @ xv - X.d)
                rows.append(U.C @ z[t * m:(t + 1) * m] - U.d)
                xv = A @ xv + B @ z[t * m:(t + 1) * m]
            rows.append(XN.C @ xv - XN.d)
            direct = np.concatenate(rows)
            viol = p.G @ z - p.S @ x - p.w
            assert np.abs(direct - viol).max() < 1e-9
            rows_x = sc.stripped_param_rows
            stripped = rows_x.C @ x - rows_x.d
            assert np.abs(stripped - (X.C @ x - X.d)).max() < 1e-12

    def test_input_decoupled_state_rows_stripped(self):
        # with B = [0; 1] the first coordinate of x_1 ignores the input, so
        # those X rows are parameter-only and land in the stripped set too
        A = np.array([[1.0, 0.3], [0.0, 0.8]])
        B = np.array([[0.0], [1.0]])
        X, U = box(4.0, dim=2), box(1.0, dim=1)
        sc = condense(A, B, np.eye(2), np.eye(1), 3, X, U, box(2.0, dim=2))
        assert sc.stripped_param_rows.n_rows == 6
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.uniform(-3, 3, 2)
            x1_free = A @ x  # first coordinate of x_1, input part is zero
            expect = np.concatenate(
                [X.C @ x - X.d, [x1_free[0] - 4.0, -x1_free[0] - 4.0]])
            rows_x = sc.stripped_param_rows
            assert np.abs(rows_x.C @ x - rows_x.d - expect).max() < 1e-12

    def test_dimensions(self):
        n, m, N = 2, 1, 5
        A, B = double_integrator()
        sc = condense(A, B, np.eye(n), np.eye(m), N,
                      X=box(5.0, dim=n), U=box(1.0, dim=m),
                      XN=box(5.0, dim=n), P=np.eye(n))
        p = sc.condensed
        assert p.n_z == N * m and p.n_x == n
        # (N-1) state blocks kept + N input blocks + terminal
        assert p.n_c == (N - 1) * 2 * n + N * 2 * m + 2 * n
        assert sc.stripped_param_rows.n_rows == 2 * n

    def test_default_terminal_weight_is_dare(self):
        A, B = double_integrator()
        sc = condense(A, B, np.eye(2), [[1.0]], 3,
                      X=box(5.0, dim=2), U=box(1.0, dim=1),
                      XN=box(5.0, dim=2))
        ref = scipy.linalg.solve_discrete_are(A, B, np.eye(2), [[1.0]])
        assert np.abs(sc.P - ref).max() < 1e-8

    def test_bad_inputs(self):
        A, B = double_integrator()
        X, U = box(5.0, dim=2), box(1.0, dim=1)
        with pytest.raises(ValueError):
            condense(A, B, np.eye(2), [[1.0]], 0, X, U, X)
        with pytest.raises(ValueError):
            condense(A, B, -np.eye(2), [[1.0]], 2, X, U, X)
        with pytest.raises(EmptyConstraintSet):
            empty = Polyhedron([[1.0, 0.0], [-1.0, 0.0]], [-2.0, 1.0])
            condense(A, B, np.eye(2), [[1.0]], 2, empty, U, X)
        with pytest.raises(ValueError):
            condense(A, B, np.eye(2), [[1.0]], 2, X, box(1.0, dim=3), X)

    def test_indefinite_supplied_weight_caught(self):
        with pytest.raises(NotPd):
            condense([[1.0]], [[1.0]], [[1.0]], [[1.0]], 1,
                     X=box(5.0, dim=1), U=box(1.0, dim=1),
                     XN=box(5.0, dim=1), P=[[-10.0]])


def shifted_rows(sc):
    """(rows, their targets) of sc.row_shift, checked against the condensed
    data: a row one stage earlier carries the same z-coefficients moved
    one input to the left and the same w, and row r at x is row r' at the
    next state A x + B u_0: S_r' A = S_r and S_r' B = -G_r[:m]."""
    p, m = sc.condensed, sc.m
    assert sc.row_shift.shape == sc.terminal_rows.shape == (p.n_c,)
    rows = np.flatnonzero(sc.row_shift >= 0)
    dst = sc.row_shift[rows]
    # ascending, so a sorted active set maps to a sorted guess
    assert (np.diff(dst) > 0).all()
    assert (sc.row_shift[sc.terminal_rows] == -1).all()
    assert not sc.terminal_rows[dst].any()
    assert np.array_equal(p.G[dst, :-m], p.G[rows, m:])
    assert np.array_equal(p.w[dst], p.w[rows])
    tol = 1e-12 * (1.0 + np.abs(p.S).max() + np.abs(p.G).max())
    assert np.abs(p.S[dst] @ sc.A - p.S[rows]).max(initial=0.0) <= tol
    assert np.abs(p.S[dst] @ sc.B + p.G[rows, :m]).max(initial=0.0) <= tol
    return rows, dst


class TestRowShift:
    @pytest.mark.parametrize("make", [
        lambda: gen_oscillating_masses(3, h=0.5, N=10),
        lambda: gen_double_integrator(h=0.5, N=10),
    ], ids=["masses3", "double-integrator"])
    def test_plants(self, make):
        sc = scenario_from_dict(make())
        rows, _ = shifted_rows(sc)
        n_x, n_u = sc.X.n_rows, sc.U.n_rows
        # only the t=0 state rows are stripped: the stage-0 input rows, the
        # stage-1 state rows (their targets are stripped) and the terminal
        # rows have no target, every later state and input row has one
        assert sc.stripped_param_rows.n_rows == n_x
        assert sc.terminal_rows.sum() == sc.XN.n_rows
        assert np.array_equal(np.flatnonzero(sc.terminal_rows),
                              np.arange(sc.condensed.n_c - sc.XN.n_rows,
                                        sc.condensed.n_c))
        assert np.array_equal(
            rows, np.arange(n_u + n_x, sc.condensed.n_c - sc.XN.n_rows))

    def test_rows_stripped_beyond_stage_0(self):
        # with B = [0; 1] the x_1[0] rows are stripped as well, so the
        # x_2[0] rows, which u_0 reaches through A, lose their target
        A = np.array([[1.0, 0.3], [0.0, 0.8]])
        B = np.array([[0.0], [1.0]])
        X, U = box(4.0, dim=2), box(1.0, dim=1)
        sc = condense(A, B, np.eye(2), np.eye(1), 3, X, U, box(2.0, dim=2))
        assert sc.stripped_param_rows.n_rows == 6
        rows, dst = shifted_rows(sc)
        # kept rows: u_0 (0-1), x_1[1] (2-3), u_1 (4-5), x_2 (6-9, box
        # order: x_2[0], x_2[1], -x_2[0], -x_2[1]), u_2 (10-11), terminal
        # (12-15)
        assert sc.condensed.n_c == 16
        assert rows.tolist() == [4, 5, 7, 9, 10, 11]
        assert dst.tolist() == [0, 1, 2, 3, 4, 5]
        assert np.flatnonzero(sc.terminal_rows).tolist() == [12, 13, 14, 15]


class TestTerminalIngredients:
    def test_double_integrator(self):
        A, B = double_integrator()
        X, U = box(5.0, dim=2), box(1.0, dim=1)
        P, K, XN = terminal_ingredients(A, B, np.eye(2), [[1.0]], X, U)
        assert dare_residual(A, B, np.eye(2), [[1.0]], P) < 1e-9
        Acl = A + B @ K
        assert np.abs(np.linalg.eigvals(Acl)).max() < 1.0
        rng = np.random.default_rng(2)
        checked = 0
        for _ in range(200):
            x = rng.uniform(-5, 5, 2)
            if not XN.contains(x):
                continue
            checked += 1
            y = x.copy()
            for _ in range(40):
                assert within(X, y, 1e-7)
                assert within(U, K @ y, 1e-7)
                y = Acl @ y
        assert checked > 10


class TestScenarioLoading:
    def test_discretize_and_auto_terminal(self):
        data = {
            "name": "double-integrator",
            "discretize": {"Ac": [[0.0, 1.0], [0.0, 0.0]],
                           "Bc": [[0.0], [1.0]], "h": 0.5},
            "Q": [[1.0, 0.0], [0.0, 1.0]],
            "R": [[1.0]],
            "N": 4,
            "X": box(5.0, dim=2).to_dict(),
            "U": box(1.0, dim=1).to_dict(),
            "terminal": "auto",
        }
        sc = scenario_from_dict(data)
        assert np.allclose(sc.A, [[1.0, 0.5], [0.0, 1.0]])
        assert np.allclose(sc.B, [[0.125], [0.5]])
        assert sc.name == "double-integrator"
        assert sc.condensed.n_z == 4
        # terminal set sits inside the state box
        bb = sc.XN.bounding_box()
        assert (bb[:, 0] >= -5 - 1e-9).all() and (bb[:, 1] <= 5 + 1e-9).all()

    def test_explicit_matrices_and_terminal(self):
        A, B = double_integrator()
        data = {
            "A": A.tolist(), "B": B.tolist(),
            "Q": np.eye(2).tolist(), "R": [[1.0]],
            "N": 2,
            "X": box(5.0, dim=2).to_dict(),
            "U": box(1.0, dim=1).to_dict(),
            "terminal": box(0.5, dim=2).to_dict(),
        }
        sc = scenario_from_dict(data)
        assert sc.N == 2
        assert np.allclose(sc.XN.d, 0.5)
        ref = scipy.linalg.solve_discrete_are(A, B, np.eye(2), [[1.0]])
        assert np.abs(sc.P - ref).max() < 1e-8
