"""The terminal invariant set settles most of its rows without an LP:
redundancy carried from the last power, and rays from the origin that
prove a row fresh or irredundant. Each skipped LP must have returned the
verdict its proof gives, so the set must come out bitwise equal to
tests/oracles.py:reference_max_invariant_set, which runs every LP."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qptrim import mpc, polyhedra
from qptrim.linalg import zoh_discretize
from qptrim.mpc import EmptyConstraintSet, max_invariant_set, scenario_from_dict
from qptrim.plants import gen_double_integrator, gen_oscillating_masses
from qptrim.polyhedra import Polyhedron, box, rays_pass
from qptrim.tolerances import FEAS

from oracles import reference_max_invariant_set, reference_remove_redundant


def lp_spy(monkeypatch):
    """A list that gets one entry per LP the set-up modules run."""
    calls = []
    real = polyhedra.lp_solve

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(mpc, "lp_solve", spy)
    monkeypatch.setattr(polyhedra, "lp_solve", spy)
    return calls


def closed_loop_body(data):
    """The closed loop and the body terminal_ingredients hands to
    max_invariant_set for a plant's scenario."""
    dz = data["discretize"]
    A, B = zoh_discretize(dz["Ac"], dz["Bc"], float(dz["h"]))
    Q, R = np.asarray(data["Q"], float), np.asarray(data["R"], float)
    X, U = Polyhedron.from_dict(data["X"]), Polyhedron.from_dict(data["U"])
    K = mpc.lqr_gain(A, B, R, mpc.dare(A, B, Q, R))
    body = Polyhedron(np.vstack([X.C, U.C @ K]), np.concatenate([X.d, U.d]))
    return A + B @ K, body


def assert_bitwise(got, want):
    assert got.C.shape == want.C.shape
    assert np.array_equal(got.C, want.C) and np.array_equal(got.d, want.d)


def plant_cases():
    cases = [(f"masses{n}-h{h}", gen_oscillating_masses(n, h, N=5), False)
             for n in range(3, 8) for h in (0.5, 1.0)]
    # at h = 0.1 the sets take hundreds of rows: 4 and 5 masses take
    # about 10 and 25 s with the reference
    cases += [(f"masses{n}-h0.1", gen_oscillating_masses(n, 0.1, N=5), n > 3)
              for n in (3, 4, 5)]
    cases.append(("masses3-h0.5-N10", gen_oscillating_masses(3, 0.5, N=10),
                  False))
    cases += [(f"di-h{h}-N{N}", gen_double_integrator(h, N), False)
              for h in (0.1, 0.2, 0.5, 1.0, 2.0) for N in (4, 10)]
    return [pytest.param(data, id=name,
                         marks=[pytest.mark.slow] if slow else [])
            for name, data, slow in cases]


@pytest.mark.parametrize("data", plant_cases())
def test_plant_sets_match_the_reference_bitwise(data):
    Acl, body = closed_loop_body(data)
    assert_bitwise(max_invariant_set(Acl, body),
                   reference_max_invariant_set(Acl, body))


SHEAR = np.array([[0.5, 1.0], [0.0, 0.5]])


@pytest.mark.parametrize("Acl", [np.zeros((2, 2)), 0.5 * np.eye(2), SHEAR],
                         ids=["nilpotent", "contraction", "shear"])
def test_small_sets_match_the_reference_bitwise(Acl):
    body = box(1.0, dim=2)
    assert_bitwise(max_invariant_set(Acl, body),
                   reference_max_invariant_set(Acl, body))


def test_masses3_build_runs_at_most_80_lps(monkeypatch):
    # 100 invariant-set, 50 pruning and 4 emptiness LPs when each ran
    calls = lp_spy(monkeypatch)
    scenario_from_dict(gen_oscillating_masses(3, 0.5, N=10))
    assert len(calls) <= 80


class TestCertificateEdges:
    def test_duplicate_rows(self):
        # a duplicated body row ties its copy on every ray: both go to the
        # LP, and pruning drops one copy, as the reference does
        b = box(1.0, dim=2)
        body = Polyhedron(np.vstack([b.C, b.C[:1]]), np.append(b.d, b.d[0]))
        assert_bitwise(max_invariant_set(SHEAR, body),
                       reference_max_invariant_set(SHEAR, body))
        dup = Polyhedron([[1.0], [1.0], [-1.0]], [1.0, 1.0, 1.0])
        assert_bitwise(dup.remove_redundant(),
                       reference_remove_redundant(dup.C, dup.d))

    def test_weakly_redundant_row_ties_and_goes(self):
        # x1 + x2 <= 2 touches the unit box at one corner: its ray meets
        # two box rows at the same point, so the LP settles it
        b = box(1.0, dim=2)
        p = Polyhedron(np.vstack([b.C, [[1.0, 1.0]]]), np.append(b.d, 2.0))
        assert_bitwise(p.remove_redundant(), reference_remove_redundant(p.C, p.d))
        assert p.remove_redundant().n_rows == 4

    def test_zero_rows(self):
        # Acl = 0 makes every candidate row zero; its ray would be
        # inf * 0, which the RuntimeWarning filter turns into a failure
        body = Polyhedron(np.vstack([box(1.0, dim=2).C, [[0.0, 0.0]]]),
                          np.append(np.ones(4), 0.5))
        assert_bitwise(max_invariant_set(np.zeros((2, 2)), body),
                       reference_max_invariant_set(np.zeros((2, 2)), body))
        assert max_invariant_set(np.zeros((2, 2)), body).n_rows == 4

    def test_body_without_the_origin(self):
        # no ray proves anything here. The x1 rows creep towards
        # x1 + 0.4 x2 and turn implied only within the IMPLIED band, so
        # they stay open; carrying them would close the set two powers
        # before the reference does
        body = Polyhedron([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                          [2.0, -0.5, 1.0, 1.0])
        drift = np.array([[1.0, 0.2], [0.0, 0.5]])
        got = max_invariant_set(drift, body)
        assert_bitwise(got, reference_max_invariant_set(drift, body))
        assert got.n_rows > 4 and not got.contains([0.0, 0.0])

    def test_body_without_the_origin_empties(self):
        # a contraction pulls every point of the body out of it
        body = Polyhedron([[1.0], [-1.0]], [2.0, -0.5])
        for build in (max_invariant_set, reference_max_invariant_set):
            with pytest.raises(EmptyConstraintSet):
                build([[0.5]], body)

    def test_rays(self):
        # a zero direction proves nothing; a ray no row stops proves any
        # bound passed
        d = np.ones(2)
        gram = np.array([[0.0, -1.0], [0.0, 0.0]])
        assert list(rays_pass(gram, d, np.array([0.0, 1.0]),
                              np.array([-1.0, 5.0]))) == [False, True]
        # a ray stopped at t = 1 with c c = 1 passes 0.5, not 1 or 1 - 1e-9
        gram = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        bound = np.array([0.5, 1.0, 1.0 - 1e-9])
        assert list(rays_pass(gram, d, np.ones(3), bound)) == [True, False,
                                                                False]


class TestEmptiness:
    def test_origin_inside_runs_no_lp(self, monkeypatch):
        calls = lp_spy(monkeypatch)
        assert not box(1.0, dim=3).is_empty()
        assert not Polyhedron([[1.0], [-1.0]], [0.0, 0.0]).is_empty()
        assert calls == []

    def test_origin_outside_runs_the_lp(self, monkeypatch):
        calls = lp_spy(monkeypatch)
        assert Polyhedron([[1.0], [-1.0]], [-2.0, 1.0]).is_empty()
        assert not Polyhedron([[1.0], [-1.0]], [2.0, -1.0]).is_empty()
        assert len(calls) == 2


def random_case(seed, bounded):
    """A stable closed loop (spectral radius 0.2-0.85) in 2-3 states and a
    body of 1-4 random half-spaces holding the origin, inside a box when
    bounded."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    Acl = rng.standard_normal((n, n))
    Acl *= rng.uniform(0.2, 0.85) / np.abs(np.linalg.eigvals(Acl)).max()
    k = int(rng.integers(1, 5))
    C, d = rng.standard_normal((k, n)), rng.uniform(0.2, 2.0, k)
    if bounded:
        b = box(rng.uniform(0.5, 3.0), n)
        C, d = np.vstack([b.C, C]), np.concatenate([b.d, d])
    return Acl, Polyhedron(C, d)


def members(p, points):
    """Which points p contains, to Polyhedron.contains' band."""
    return np.all(points @ p.C.T <= p.d + FEAS * (1.0 + np.abs(p.d)), axis=1)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), bounded=st.booleans())
def test_random_sets_match_the_reference(seed, bounded):
    Acl, body = random_case(seed, bounded)
    if bounded:
        assert_bitwise(max_invariant_set(Acl, body),
                       reference_max_invariant_set(Acl, body))
        return
    # An unbounded body can leave nearly unbounded iterates (|x| near
    # 1e23), where the reference's LP verdict on a row can flip between
    # powers and its simplex can hit the iteration limit. The sets may
    # then differ by rows that cut nothing, so they are compared by
    # membership on shared points at several scales.
    try:
        want = reference_max_invariant_set(Acl, body)
    except ArithmeticError:
        assume(False)
    got = max_invariant_set(Acl, body)
    rng = np.random.default_rng(seed)
    points = np.vstack([rng.standard_normal((2000, Acl.shape[0])) * scale
                        for scale in (0.3, 1.0, 3.0, 10.0, 100.0)])
    assert np.array_equal(members(got, points), members(want, points))
