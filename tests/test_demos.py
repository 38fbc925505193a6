"""The narrative demos run against the public API and print their story.

Demo 05 writes into demos/out/ and demo 06 builds a 12-state terminal set
for minutes, so only 01-04 run here (a few seconds together).
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = ["01_trim_basics", "02_lipschitz_constants", "03_sigma_thresholds",
         "04_mpc_closed_loop"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    run = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip()
