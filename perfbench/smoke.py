"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at a tiny size, untraced and traced, and requires that
each run emits exactly the metrics BENCHMARK.json names for its trace
level, each with its unit, with no failed operation. Then runs a sabotaged closed loop (double
integrator N=3, kappa=0, offline spacing 100) and requires failed
operations, so the output checks are shown to catch a wrong controller.
Last, runs the benchmark from a directory holding only BENCHMARK.json and
perfbench/ and requires it to fail. Exits 0 when all of this holds.
"""

import io
import json
import math
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "0", "--seconds", "0", "--trace", str(trace), "--small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def check_runs(spec, problems):
    """Every workload's tiny runs, untraced and traced, each emitting every
    metric of its trace level with its declared unit."""
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for wl in spec["workloads"]:
        for trace in (0, 1):
            proc = run(wl["name"], trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{wl['name']} trace={trace} exited "
                                f"{proc.returncode}: {proc.stderr[-500:]}")
                continue
            res = json.loads(lines[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{wl['name']}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{wl['name']} trace={trace}: correct="
                                f"{res['correct']} attempted={res['attempted']}"
                                f" failed={res['failed']}")
            for name, m in res["metrics"].items():
                if not math.isfinite(m["value"]):
                    problems.append(f"{name} is {m['value']}")
            compare(declared[trace],
                    {name: m["unit"] for name, m in res["metrics"].items()},
                    f"{wl['name']} trace={trace}", problems)


def compare(declared, seen, label, problems):
    want = {m["name"]: m["unit"] for m in declared}
    for name, unit in want.items():
        if name not in seen:
            problems.append(f"{label}: metric {name} not emitted")
        elif seen[name] != unit:
            problems.append(f"{label}: metric {name} in {seen[name]}, "
                            f"declared {unit}")
    for name in sorted(set(seen) - set(want)):
        problems.append(f"{label}: undeclared metric {name}")


def sabotage(problems):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import kappa_zero, run_loop

    result, _ = run_loop(kappa_zero(), seed=0, seconds=0, trace=False,
                         log=io.StringIO())
    if result["failed"] == 0:
        problems.append("kappa=0 sabotage run reported no failed operation")
    return result


def bare_directory(problems):
    """Without the program's source the benchmark must refuse to run."""
    bare = HERE / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run("masses3-full", 0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("benchmark ran without the program's source")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    check_runs(spec, problems)
    bad = sabotage(problems)
    bare_directory(problems)
    for line in problems:
        print("FAIL:", line)
    print(f"sabotage run: attempted {bad['attempted']}, "
          f"failed {bad['failed']}")
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
