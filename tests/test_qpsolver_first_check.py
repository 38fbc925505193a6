"""The solver's first check: the fused slack slack_map @ x + w settles a
state at z0 exactly where b - G z0 meets the band FEAS (1 + max|b|), and
a state it settles costs no b = S x + w and no G z0."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qptrim import closedloop, qpsolver
from qptrim.bench import draw_initial_states
from qptrim.closedloop import build_offline_dataset, simulate
from qptrim.mpc import scenario_from_dict
from qptrim.mpqp import IndexSet, MpQp
from qptrim.qpsolver import solve_sample
from qptrim.tolerances import FEAS
from test_loop_golden import CASES, STEPS
from test_qpsolver_degenerate import agrees_with_reference, reference_cases


def band_check(p, x, rows):
    """(min(b - G z0), FEAS (1 + max|b|)) over the solved rows, formed as
    the solver forms them after the fused check; the min of no rows is
    inf."""
    b, G = p.rhs(x), p.G
    if rows is not None:
        b, G = b[rows], G[rows]
    h = b - G @ (-p.hi_ft @ x)
    return h.min(initial=np.inf), FEAS * (1.0 + np.abs(b).max(initial=0.0))


def scaled_to_band(p, x, rows, offset, upper):
    """c x for a c at which min(b - G z0) over the solved rows is about
    `offset` bands from 0, or None where no c reaches that much slack.

    Along c x every slack is affine, c a_j + w_j, so the c whose smallest
    slack is at least t form one interval; `upper` picks its upper end,
    else its lower one, and an unbounded end picks the other. The band
    moves with c, so t is set from the band at the last c, three times."""
    a = (p.S + p.G @ np.linalg.solve(p.H, p.F.T)) @ x
    w = p.w
    if rows is not None:
        a, w = a[rows], w[rows]
    if not len(a):
        return None
    y = x
    for _ in range(3):
        t = offset * band_check(p, y, rows)[1]
        if (w[a == 0.0] < t).any():
            return None
        up, down = a < 0.0, a > 0.0
        hi = ((t - w[up]) / a[up]).min(initial=np.inf)
        lo = ((t - w[down]) / a[down]).max(initial=-np.inf)
        if lo > hi:
            return None
        y = (hi if (upper and hi < np.inf) or lo == -np.inf else lo) * x
    return y


def settles_z0_where_the_band_does(p, x, idx):
    """Assert the solve ends at z0 exactly where min(b - G z0) >=
    -FEAS (1 + max|b|), and that qp_solve agrees with the reference loop.
    Return min(b - G z0) in bands."""
    rows = None if idx is None else idx.zero_based()
    h, band = band_check(p, x, rows)
    sol, active, path = qpsolver._solve(p, x, rows)
    assert (path == "z0") == (h >= -band)
    if path == "z0":
        assert np.array_equal(sol.z_star, -p.hi_ft @ x)
        assert active.size == 0 and sol.iterations == 1
    agrees_with_reference(p, x, idx)
    return h / band


def fused_settles(p, x, rows):
    """Whether no solved row of the fused slack slack_map @ x + w is
    negative, so the solve ends at its first, strict check."""
    fused = p.slack_map @ x + p.w
    return (fused if rows is None else fused[rows]).min(initial=0.0) >= 0.0


def first_check_cases(rng, n_z, n_x, n_c, scale, spread):
    """reference_cases' instance and parameter with its full set and three
    subsets; the full set drops the antiparallel copy of row 1, which z0
    can never meet together with row 1."""
    q, x, subsets = reference_cases(rng, n_z, n_x, n_c, scale, spread)
    full = MpQp(H=q.H, F=q.F, G=q.G[:-1], S=q.S[:-1], w=q.w[:-1])
    return x, [(full, None)] + [(q, idx) for idx in subsets[1:]]


@settings(max_examples=300, deadline=None)
@example(16, 9, 1, 1, 23.966296353178162, 1.028199023584258, -1.0, True)
@example(57, 12, 2, 6, 18.748698415745157, 0.491222298837539, -1.0, True)
@example(150, 12, 2, 1, 1.867191616391364, 1.8116186024124814, -1.0, True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_z=st.integers(1, 12),
    n_x=st.integers(1, 4),
    n_c=st.integers(1, 30),
    scale=st.floats(0.01, 100.0),
    spread=st.floats(0.0, 3.0),
    offset=st.floats(-10.0, 10.0),
    upper=st.booleans(),
)
def test_fused_check_settles_z0_where_the_band_does(seed, n_z, n_x, n_c,
                                                    scale, spread, offset,
                                                    upper):
    # the drawn parameter, and the same scaled so that min(b - G z0) lies
    # `offset` bands from 0: above 0 the fused slack settles it, within
    # one band below 0 the band check does, and further below neither
    rng = np.random.default_rng(seed)
    x, cases = first_check_cases(rng, n_z, n_x, n_c, scale, spread)
    for p, idx in cases:
        rows = None if idx is None else idx.zero_based()
        for y in (x, scaled_to_band(p, x, rows, offset, upper)):
            if y is not None:
                settles_z0_where_the_band_does(p, y, idx)


def test_scaled_states_reach_each_side_of_the_band():
    # the scaled states of the test above cover the fused z0 path, the
    # band's z0 path and the states just past the band, both with and
    # without a row subset
    seen = set()
    for seed in range(40):
        x, cases = first_check_cases(np.random.default_rng(seed), 4, 3,
                                     2 + seed % 8, 2.0, 1.0)
        for (p, idx), offset in itertools.product(cases, (5.0, -0.5, -5.0)):
            rows = None if idx is None else idx.zero_based()
            y = scaled_to_band(p, x, rows, offset, seed % 2 == 0)
            if y is None:
                continue
            bands = settles_z0_where_the_band_does(p, y, idx)
            assert abs(bands - offset) <= 1e-3 * (1.0 + abs(offset))
            side = ("fused" if fused_settles(p, y, rows) else
                    "band" if bands >= -1.0 else "past")
            # the fused slack and b - G z0 part only at rounding level
            assert (bands >= -1e-6) if side == "fused" else (bands <= 1e-6)
            seen.add((side, idx is None))
    assert seen == {(side, full) for side in ("fused", "band", "past")
                    for full in (True, False)}


def rhs_spy(monkeypatch):
    """A list that collects the parameter of every MpQp.rhs call."""
    seen = []
    real = MpQp.rhs

    def spy(self, x):
        seen.append(np.array(x, dtype=float))
        return real(self, x)

    monkeypatch.setattr(MpQp, "rhs", spy)
    return seen


def test_full_loop_forms_b_only_past_the_fused_check(monkeypatch):
    # a `full` step forms b = S x + w once when its solve goes past the
    # fused check and never when it ends there; on the loop golden's
    # masses-3 starts every z0 state ends there
    make, n_starts, seed, _, _ = CASES["masses3"]
    sc = scenario_from_dict(make())
    seen = rhs_spy(monkeypatch)
    paths = []
    for x0 in draw_initial_states(sc, n_starts, seed)[:12]:
        first = len(seen)
        trace = simulate(sc, x0, STEPS)
        solved = [r.x for r in trace.records if r.path != "z0"]
        assert len(seen) - first == len(solved)
        for got, want in zip(seen[first:], solved):
            assert np.array_equal(got, want)
        paths += [r.path for r in trace.records]
    assert paths.count("z0") > 0 and len(paths) - paths.count("z0") > 0


@pytest.mark.parametrize("name, mode", [
    (name, mode) for name in sorted(CASES) for mode in CASES[name][4]])
def test_each_step_forms_b_at_most_once(monkeypatch, name, mode):
    # b = S x + w serves a step's trim, its solve's band and the loop's own
    # triple, and each step forms it once, at its own state; a full step
    # settled at the first check forms none, unless the mode keeps its own
    # triple, which reads b
    make, n_starts, seed, spacing, _ = CASES[name]
    sc = scenario_from_dict(make())
    offline = (None if spacing is None
               else build_offline_dataset(sc, spacing=spacing))
    seen = rhs_spy(monkeypatch)
    marks = []          # len(seen) as each step begins
    first_check = closedloop._unconstrained

    def step(p, x):
        marks.append(len(seen))
        return first_check(p, x)

    monkeypatch.setattr(closedloop, "_unconstrained", step)
    records = []
    for x0 in draw_initial_states(sc, n_starts, seed):
        records += simulate(sc, x0, STEPS, mode=mode, offline=offline).records
    assert len(marks) == len(records)
    keeps_own = mode in ("adaptive-online", "hybrid")
    for r, lo, hi in zip(records, marks, marks[1:] + [len(seen)]):
        none = r.mode == "full" and r.path == "z0" and not keeps_own
        assert hi - lo == (0 if none else 1)
        assert all(np.array_equal(got, r.x) for got in seen[lo:hi])
    assert {r.path for r in records} >= {"z0", "guess"}


def test_sample_at_a_z0_state_reads_the_active_set_off_g_z():
    # z0 = (1, 0) lies on row 1's boundary and the fused slack is 0 there,
    # so the solve ends at its first check; the sample forms G z and reads
    # row 1
    p = MpQp(H=np.eye(2), F=np.eye(2), G=[[1.0, 0.0], [0.0, 1.0]],
             S=np.zeros((2, 2)), w=[1.0, 3.0])
    x = np.array([-1.0, 0.0])
    assert fused_settles(p, x, None)
    assert qpsolver._solve(p, x, None)[2] == "z0"
    sample = solve_sample(p, x)
    assert sample.active == IndexSet([1])
    assert sample.active == p.active_set(x, sample.z_star)
    # and at the masses-3 states that end at the fused check
    make, n_starts, seed, _, _ = CASES["masses3"]
    sc = scenario_from_dict(make())
    p = sc.condensed
    for x0 in draw_initial_states(sc, n_starts, seed)[:4]:
        for r in simulate(sc, x0, STEPS).records:
            if r.path == "z0":
                sample = solve_sample(p, r.x)
                assert np.array_equal(sample.z_star, -p.hi_ft @ r.x)
                assert sample.active == p.active_set(r.x, sample.z_star)
