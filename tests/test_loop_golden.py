"""Closed-loop golden: inputs, kept counts and iteration counts per step.

The loop's trimming may be refactored, but it must compute the same
trajectory with the same kept rows: every float is compared exactly (JSON
writes and reads floats by repr, so the file round-trips bit for bit).
Regenerate the data file, only after a deliberate change of output, with

    PYTHONPATH=src python3 tests/test_loop_golden.py
"""

import functools
import json
import pathlib

import pytest

from qptrim.bench import draw_initial_states
from qptrim.closedloop import MODES, build_offline_dataset, simulate
from qptrim.mpc import scenario_from_dict
from qptrim.plants import gen_double_integrator, gen_oscillating_masses

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


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: record(name) for name in CASES}) + "\n")
