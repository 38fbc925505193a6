"""Degenerate rows and the iteration cap of the dual active-set solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_mpqp
from qptrim.mpqp import IndexSet, MpQp, example_two_halfplanes
from qptrim.qpsolver import INFEASIBLE, qp_solve
from test_qpsolver import kkt_residuals


def test_iteration_cap_raises():
    with pytest.raises(ArithmeticError):
        qp_solve(example_two_halfplanes(), [-2.0], max_iter=1)


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
            stat, feas, comp = kkt_residuals(q, x0, sol, rows)
            bound = 1.0 + np.abs(q.rhs(x0)[rows]).max(initial=0.0)
            assert stat <= 1e-6 * bound
            assert feas <= 1e-8 * bound
            assert comp <= 1e-6 * bound
            assert sol.lam.min(initial=0.0) >= -1e-8
