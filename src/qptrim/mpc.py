"""Linear-quadratic MPC pipeline: Riccati ingredients, terminal invariant
set, and condensation of the finite-horizon problem into an mp-QP whose
parameter is the current state."""

from dataclasses import dataclass

import numpy as np

from .linalg import NotPositiveDefinite, cholesky, zoh_discretize
from .mpqp import MpQp
from .polyhedra import Polyhedron, rays_pass
from .simplex import OPTIMAL, UNBOUNDED, lp_solve
from .tolerances import IMPLIED

# Riccati value iteration stops once an iterate changes by at most this,
# relative to the iterate's largest entry
_DARE_TOL = 1e-12
# Riccati value iterations tried before the fixed point is given up
_DARE_MAX_ITER = 100_000
# an eigenvalue of A counts as on or outside the unit circle from this
# modulus on: a computed unit-circle eigenvalue can round below 1 (masses-3
# reads 1 - 4.4e-16), and an uncontrollable mode this slow would keep the
# iteration from settling within _DARE_MAX_ITER anyway
_UNIT_CIRCLE = 1.0 - 1e-6
# powers of the closed loop tried before the invariant set is given up
_MAX_POWERS = 500


class NoConvergence(Exception):
    """Riccati fixed-point iteration did not settle."""


class NoTermination(Exception):
    """Invariant-set iteration hit its step cap; carries the partial set."""

    def __init__(self, message, partial: Polyhedron):
        super().__init__(message)
        self.partial = partial


class EmptyConstraintSet(Exception):
    """A constraint polyhedron required to be nonempty is empty."""


class NotPd(Exception):
    """Condensed quadratic term failed the positive-definiteness check."""


class BadScenario(ValueError):
    """A scenario dict lacks a key or holds an entry the build refuses."""


def _check_pd(name, a):
    try:
        cholesky(np.asarray(a, dtype=float))
    except (NotPositiveDefinite, ValueError) as exc:
        raise ValueError(f"{name} must be symmetric positive definite: {exc}")


def dare(A, B, Q, R) -> np.ndarray:
    """Discrete-time algebraic Riccati solution by value iteration from Q.

    Stops when the iterate changes by at most _DARE_TOL (scaled); the
    returned P has a Riccati residual of at most ~10x that. Raises
    NoConvergence before iterating when (A, B) fails the PBH test, after
    _DARE_MAX_ITER iterations, or on overflow.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    _check_pd("Q", Q)
    _check_pd("R", R)
    lam = _unstabilizable_mode(A, B)
    if lam is not None:
        raise NoConvergence(
            f"(A, B) is not stabilizable: [A - lam I, B] loses rank at "
            f"the eigenvalue lam = {lam:.6g} (|lam| = {abs(lam):.6g})")
    P = Q.copy()
    for k in range(_DARE_MAX_ITER):
        BtP = B.T @ P
        gain = np.linalg.solve(R + BtP @ B, BtP @ A)
        with np.errstate(over="ignore", invalid="ignore"):
            P_next = A.T @ P @ A - A.T @ P @ B @ gain + Q
            P_next = 0.5 * (P_next + P_next.T)
            change = np.abs(P_next - P).max()
        if not np.isfinite(change):   # P is finite, so P_next overflowed
            break
        if change <= _DARE_TOL * (1.0 + np.abs(P_next).max()):
            return P_next
        P = P_next
    raise NoConvergence(
        f"no fixed point after {k + 1} iterations "
        f"(last change {change:.3e}); is (A, B) stabilizable?"
    )


def _unstabilizable_mode(A, B):
    """An eigenvalue lam of A with |lam| >= _UNIT_CIRCLE at which
    [A - lam I, B] has rank below n (the PBH test), or None. Rank is read
    from the SVD at numpy's scaled tolerance, max(n, n + m) eps s_max.
    A NaN or infinite A or B raises ValueError."""
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise ValueError("A and B must be finite")
    n = A.shape[0]
    for lam in np.linalg.eigvals(A):
        if abs(lam) >= _UNIT_CIRCLE and np.linalg.matrix_rank(
                np.hstack([A - lam * np.eye(n), B])) < n:
            return lam
    return None


def lqr_gain(A, B, R, P) -> np.ndarray:
    """Infinite-horizon feedback u = Kx for the cost solved by P."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    BtP = B.T @ P
    return -np.linalg.solve(R + BtP @ B, BtP @ A)


def max_invariant_set(Acl, constraints: Polyhedron) -> Polyhedron:
    """Largest set of states whose closed-loop trajectory never leaves the
    constraints: accumulate rows C Acl^s x <= d until every next-power row
    is already implied, then prune redundant rows. Raises NoTermination,
    carrying the rows so far, when _MAX_POWERS powers leave it open.

    This is the maximal admissible set recursion O_s = O_0 n Acl^-1 O_{s-1}
    (Gilbert & Tan 1991, IEEE TAC 36(9)). A row is implied when the LP's
    maximum of it over the iterate is at most d_j + IMPLIED (1 + |d_j|),
    and two rules settle most rows without their LP:
    - redundancy carries across powers: x in O_s puts Acl x in O_{s-1},
      so a row implied by O_{s-1} at power s is implied by O_s at power
      s+1. Only the rows fresh at the last power are tested again, and
      those implied only within the IMPLIED band of d_j, whose dropped
      rows leave the iterate that much larger than O_s;
    - where every d >= 0 the origin lies in the iterate, and a ray from
      it along a candidate row that runs past the row's bound inside the
      iterate proves the row fresh (polyhedra.rays_pass).
    Candidate rows are read from the full product C Acl^s, so every row
    kept has the bits it would have had with an LP for each."""
    Acl = np.atleast_2d(np.asarray(Acl, dtype=float))
    if constraints.is_empty():
        raise EmptyConstraintSet("constraint polyhedron is empty")
    C_cur = constraints.C.copy()
    d_cur = constraints.d.copy()
    band = IMPLIED * (1.0 + np.abs(constraints.d))
    bound = constraints.d + band
    # the iterate only gains rows of the constraints, so it holds the
    # origin at every power when they do
    origin_in = (constraints.d >= 0.0).all()
    open_rows = np.arange(constraints.n_rows)
    power = Acl.copy()
    for _ in range(_MAX_POWERS):
        cand_C = (constraints.C @ power)[open_rows]
        fresh = np.zeros(len(open_rows), dtype=bool)
        if origin_in:
            fresh = rays_pass(C_cur @ cand_C.T, d_cur,
                              (cand_C * cand_C).sum(axis=1), bound[open_rows])
        near = np.zeros(len(open_rows), dtype=bool)
        for k in (~fresh).nonzero()[0]:
            i = open_rows[k]
            res = lp_solve(-cand_C[k], C_cur, d_cur)
            if res.status == OPTIMAL and -res.objective <= bound[i]:
                near[k] = -res.objective > constraints.d[i] - band[i]
            elif res.status in (OPTIMAL, UNBOUNDED):
                fresh[k] = True
            else:
                raise EmptyConstraintSet("iterate became empty")
        if not fresh.any():
            return Polyhedron(C_cur, d_cur).remove_redundant()
        C_cur = np.vstack([C_cur, cand_C[fresh]])
        d_cur = np.concatenate([d_cur, constraints.d[open_rows[fresh]]])
        open_rows = open_rows[fresh | near]
        power = power @ Acl
    raise NoTermination(
        f"not closed after {_MAX_POWERS} powers", partial=Polyhedron(C_cur, d_cur)
    )


@dataclass
class MpcScenario:
    """A finite-horizon linear-quadratic MPC problem and its mp-QP form."""

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    P: np.ndarray
    N: int
    X: Polyhedron
    U: Polyhedron
    XN: Polyhedron
    condensed: MpQp
    stripped_param_rows: Polyhedron | None
    # condensed row r's row one stage earlier (row_shift[r], -1 for none),
    # and a mask of the terminal block's rows; see condense
    row_shift: np.ndarray
    terminal_rows: np.ndarray
    name: str | None = None

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


def _prediction_matrices(A, B, N):
    """Stacked maps x -> [x_1..x_N] and z -> [x_1..x_N]."""
    n, m = B.shape
    powers = [np.eye(n)]
    for _ in range(N):
        powers.append(A @ powers[-1])
    Sx = np.vstack(powers[1:])
    Su = np.zeros((N * n, N * m))
    for t in range(1, N + 1):
        for s in range(t):
            Su[(t - 1) * n:t * n, s * m:(s + 1) * m] = powers[t - 1 - s] @ B
    return powers, Sx, Su


def condense(A, B, Q, R, N, X, U, XN, P=None, name=None) -> MpcScenario:
    """Eliminate the predicted states to get min_z 1/2 z'Hz + x'Fz over
    Gz <= Sx + w.

    z stacks the N inputs. Constraint rows are ordered per step (state
    block then input block, t = 0..N-1) followed by the terminal block;
    rows whose z-coefficients vanish (the t=0 state block) are stripped
    out and returned as a pure-parameter polyhedron to check directly.
    The parameter-only cost term is dropped; it cannot move the minimizer.

    The scenario's row_shift maps each kept row of stage t >= 1 to the
    same row of stage t-1, which is the row it becomes one step later
    when the plan is shifted. It is built on the unstripped layout and
    composed with the stripping: stage-0 rows, terminal rows and rows whose
    target was stripped (the stage-1 state rows, for one) map to -1.
    terminal_rows marks the terminal block.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    if N < 1:
        raise ValueError(f"horizon must be >= 1, got {N}")
    n, m = B.shape
    if A.shape != (n, n):
        raise ValueError(f"A is {A.shape}, expected ({n}, {n})")
    _check_pd("Q", Q)
    _check_pd("R", R)
    if P is None:
        P = dare(A, B, Q, R)
    P = np.atleast_2d(np.asarray(P, dtype=float))
    for label, poly, want in (("X", X, n), ("U", U, m), ("XN", XN, n)):
        if poly.dim != want:
            raise ValueError(f"{label} lives in dimension {poly.dim}, expected {want}")
        if poly.is_empty():
            raise EmptyConstraintSet(f"{label} is empty")

    powers, Sx, Su = _prediction_matrices(A, B, N)
    q_bar = np.zeros((N * n, N * n))
    for t in range(1, N):
        q_bar[(t - 1) * n:t * n, (t - 1) * n:t * n] = Q
    q_bar[(N - 1) * n:, (N - 1) * n:] = P
    r_bar = np.kron(np.eye(N), R)

    H = 2.0 * (Su.T @ q_bar @ Su + r_bar)
    H = 0.5 * (H + H.T)
    F = 2.0 * (Sx.T @ q_bar @ Su)
    try:
        cholesky(H)
    except NotPositiveDefinite as exc:
        raise NotPd(f"condensed quadratic term is not PD: {exc}")

    g_rows, s_rows, w_rows = [], [], []
    for t in range(N):
        # state block: X applied to x_t = A^t x + (rows of Su for x_t) z
        su_t = np.zeros((n, N * m)) if t == 0 else Su[(t - 1) * n:t * n]
        g_rows.append(X.C @ su_t)
        s_rows.append(-X.C @ powers[t])
        w_rows.append(X.d)
        # input block: U applied to u_t, a slice of z
        sel = np.zeros((m, N * m))
        sel[:, t * m:(t + 1) * m] = np.eye(m)
        g_rows.append(U.C @ sel)
        s_rows.append(np.zeros((U.n_rows, n)))
        w_rows.append(U.d)
    g_rows.append(XN.C @ Su[(N - 1) * n:])
    s_rows.append(-XN.C @ powers[N])
    w_rows.append(XN.d)

    G = np.vstack(g_rows)
    S = np.vstack(s_rows)
    w = np.concatenate(w_rows)
    # one stage earlier on the unstripped layout: a stage's rows sit
    # `stage` rows after the previous stage's
    stage = X.n_rows + U.n_rows
    target = np.arange(len(w)) - stage
    target[:stage] = -1
    terminal = np.arange(len(w)) >= N * stage
    target[terminal] = -1
    zero = np.linalg.norm(G, axis=1) <= 1e-12
    stripped = None
    if zero.any():
        stripped = Polyhedron(-S[zero], w[zero])
        G, S, w = G[~zero], S[~zero], w[~zero]
    # compose with the stripping: unstripped index -> kept index, or -1;
    # the extra last entry sends target -1 to -1
    kept_at = np.full(len(zero) + 1, -1)
    kept_at[:-1][~zero] = np.arange(len(w))
    row_shift = kept_at[target][~zero]

    condensed = MpQp(H=H, F=F, G=G, S=S, w=w, name=name)
    return MpcScenario(A=A, B=B, Q=Q, R=R, P=P, N=int(N), X=X, U=U, XN=XN,
                       condensed=condensed, stripped_param_rows=stripped,
                       row_shift=row_shift, terminal_rows=terminal[~zero],
                       name=name)


def terminal_ingredients(A, B, Q, R, X: Polyhedron, U: Polyhedron):
    """Standard terminal triple: DARE cost, LQR gain, and the maximal set
    where the gain respects both state and input constraints."""
    P = dare(A, B, Q, R)
    K = lqr_gain(A, B, R, P)
    closed = Polyhedron(np.vstack([X.C, U.C @ K]),
                        np.concatenate([X.d, U.d]))
    XN = max_invariant_set(np.atleast_2d(A) + np.atleast_2d(B) @ K, closed)
    return P, K, XN


def scenario_from_dict(data: dict) -> MpcScenario:
    """Build a scenario from the JSON layout: {A, B, Q, R, N, X, U,
    terminal: "auto" | {C, d}, discretize: optional {Ac, Bc, h}}; a missing
    key, or an entry the build refuses with TypeError or ValueError, raises
    BadScenario naming it."""
    try:
        if "discretize" in data and data["discretize"] is not None:
            dz = data["discretize"]
            A, B = zoh_discretize(dz["Ac"], dz["Bc"], float(dz["h"]))
        else:
            A = np.atleast_2d(np.asarray(data["A"], dtype=float))
            B = np.atleast_2d(np.asarray(data["B"], dtype=float))
        Q = np.atleast_2d(np.asarray(data["Q"], dtype=float))
        R = np.atleast_2d(np.asarray(data["R"], dtype=float))
        N = int(data["N"])
        X = Polyhedron.from_dict(data["X"])
        U = Polyhedron.from_dict(data["U"])
        terminal = data.get("terminal", "auto")
        if terminal == "auto":
            P, _, XN = terminal_ingredients(A, B, Q, R, X, U)
        else:
            XN = Polyhedron.from_dict(terminal)
            P = dare(A, B, Q, R)
        return condense(A, B, Q, R, N, X, U, XN, P=P, name=data.get("name"))
    except KeyError as exc:
        raise BadScenario(f"scenario lacks {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise BadScenario(str(exc)) from exc
