"""Closed-loop golden: inputs, kept counts and iteration counts per step.

The loop's trimming may be refactored, but it must compute the same
trajectory with the same kept rows: every float is compared exactly (JSON
writes and reads floats by repr, so the file round-trips bit for bit).
Regenerate the data file, only after a deliberate change of output, with

    PYTHONPATH=src python3 tests/test_loop_golden.py

which first prints, for each case and mode, how many starts changed their
inputs, kept counts or iterations against the file it overwrites, and the
largest change of any input.
"""

import functools
import json
import pathlib

import numpy as np
import pytest

from qptrim.bench import draw_initial_states
from qptrim.closedloop import MODES, build_offline_dataset, simulate
from qptrim.mpc import scenario_from_dict
from qptrim.plants import gen_double_integrator, gen_oscillating_masses
from oracles import reference_qp_solve

GOLDEN = pathlib.Path(__file__).parent / "data" / "closed_loop_golden.json"
STEPS = 25

# name: (scenario, starts, seed, offline grid spacing, modes)
CASES = {
    "masses3": (functools.partial(gen_oscillating_masses, 3, h=0.5, N=10),
                36, 0, None, ("full", "adaptive-online")),
    "double-integrator-10": (functools.partial(gen_double_integrator,
                                               h=0.5, N=10),
                             30, 0, 0.2, MODES),
}


def record(name):
    """{"starts": [...], mode: [[inputs, kept counts, iterations], ...]}
    for one case, one entry per start."""
    make, n_starts, seed, spacing, modes = CASES[name]
    sc = scenario_from_dict(make())
    offline = (None if spacing is None
               else build_offline_dataset(sc, spacing=spacing))
    starts = draw_initial_states(sc, n_starts, seed)
    out = {"starts": [x0.tolist() for x0 in starts]}
    for mode in modes:
        runs = []
        for x0 in starts:
            trace = simulate(sc, x0, STEPS, mode=mode, offline=offline)
            runs.append([trace.inputs().tolist(),
                         trace.kept_counts().tolist(),
                         [r.iterations for r in trace.records]])
        out[mode] = runs
    return out


@functools.lru_cache(maxsize=None)
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_closed_loop_matches_golden(name):
    want = golden()[name]
    got = record(name)
    assert got["starts"] == want["starts"]
    for mode in CASES[name][4]:
        for k, (g, w) in enumerate(zip(got[mode], want[mode])):
            assert g[1] == w[1], f"{mode} start {k}: kept counts"
            assert g[2] == w[2], f"{mode} start {k}: iterations"
            assert g[0] == w[0], f"{mode} start {k}: inputs"
        assert len(got[mode]) == len(want[mode])


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_inputs_are_the_full_minimizers(name):
    # the file alone, whatever code wrote it: every trimmed mode's inputs
    # are the full mode's bit for bit, and each full input is the
    # reference loop's first block along the states the stored inputs
    # roll forward from the stored starts
    want = golden()[name]
    full = [run[0] for run in want["full"]]
    for mode in CASES[name][4]:
        assert [run[0] for run in want[mode]] == full, mode
    sc = scenario_from_dict(CASES[name][0]())
    for k, (x0, inputs) in enumerate(zip(want["starts"], full)):
        x = np.array(x0)
        for t, u in enumerate(np.array(inputs)):
            z = reference_qp_solve(sc.condensed, x)[0]
            assert np.all(np.abs(z[:sc.m] - u) <= 1e-9 * (1.0 + np.abs(u))), (
                f"start {k}, step {t}")
            x = sc.A @ x + sc.B @ u


def report_changes(old, new):
    """One line per case and mode: how many starts changed their inputs,
    kept counts or iterations between two goldens, and the largest |du|."""
    for name in CASES:
        for mode in CASES[name][4]:
            if name not in old or mode not in old[name]:
                print(f"{name} {mode}: new")
                continue
            pairs = list(zip(old[name][mode], new[name][mode]))
            changed = [sum(o[i] != g[i] for o, g in pairs) for i in range(3)]
            du = max((np.abs(np.subtract(g[0], o[0])).max(initial=0.0)
                      for o, g in pairs
                      if np.shape(g[0]) == np.shape(o[0])), default=0.0)
            print(f"{name} {mode}: {len(pairs)} starts, changed inputs "
                  f"{changed[0]}, kept counts {changed[1]}, iterations "
                  f"{changed[2]}; max |du| {du:.3g}")


if __name__ == "__main__":
    fresh = {name: record(name) for name in CASES}
    if GOLDEN.exists():
        report_changes(golden(), fresh)
    GOLDEN.write_text(json.dumps(fresh) + "\n")
