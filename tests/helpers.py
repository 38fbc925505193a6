"""Shared generators and spies for tests.

The generic random instance, built around a known strictly feasible point,
and the feasible-parameter search are the release gate's own generators
(qptrim.verify), imported under shorter names.
"""

from dataclasses import dataclass, field

import numpy as np

from qptrim import closedloop, qpsolver
from qptrim.verify import _feasible_shift as random_feasible_x  # noqa: F401
from qptrim.verify import _random_mpqp as random_mpqp  # noqa: F401


def within(P, x, tol):
    """Every row of the polyhedron P holds at x to within tol * (1 + |d_j|),
    the row band Polyhedron.contains applies at FEAS."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return bool(np.all(P.C @ x <= P.d + tol * (1.0 + np.abs(P.d))))


def nnls_spy(monkeypatch):
    """A list that collects the matrix of every nnls call qpsolver makes."""
    seen = []
    real = qpsolver.nnls

    def spy(A, b, maxiter):
        seen.append(A.copy())
        return real(A, b, maxiter=maxiter)

    monkeypatch.setattr(qpsolver, "nnls", spy)
    return seen


@dataclass
class SolveCall:
    """One step of the closed loop: its problem, parameter, solved rows
    (None: all), the guess it was handed and the matrices of the nnls calls
    it made; a step settled at the all-rows first check calls no solve and
    keeps rows and guess None and nnls empty."""

    p: object
    x: object
    rows: object = None
    guess: object = None
    nnls: list = field(default_factory=list)


def solve_spy(monkeypatch, withhold_guess=False):
    """A list that collects a SolveCall for every step closedloop takes;
    with withhold_guess the solve runs without the guess it was handed."""
    calls = []
    seen = nnls_spy(monkeypatch)
    first_check = closedloop._unconstrained
    real = closedloop._solve

    def step(p, x):
        calls.append(SolveCall(p, x.copy()))
        return first_check(p, x)

    def spy(p, x, rows, guess=None, formed=None):
        first = len(seen)
        out = real(p, x, rows, None if withhold_guess else guess, formed)
        call = calls[-1]
        call.rows, call.guess, call.nnls = rows, guess, seen[first:]
        return out

    monkeypatch.setattr(closedloop, "_unconstrained", step)
    monkeypatch.setattr(closedloop, "_solve", spy)
    return calls
