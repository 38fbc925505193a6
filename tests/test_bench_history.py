"""BENCH_history.json: the change side of every recorded perfbench A/B,
oldest first, so a trend reads from one file instead of from git history."""

import json
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SHA = re.compile(r"[0-9a-f]{7,40}")


def load(name):
    return json.loads((ROOT / name).read_text())


def test_every_entry_holds_its_commit_machine_and_quartiles():
    entries = load("BENCH_history.json")["entries"]
    bench = load("BENCHMARK.json")
    metrics = {m["name"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    assert entries
    for k, entry in enumerate(entries):
        assert set(entry) == {"commit", "parent", "machine", "workloads"}
        # only the newest entry may wait for its own commit's hash
        assert (entry["commit"] is None and k == len(entries) - 1
                or SHA.fullmatch(entry["commit"] or ""))
        assert SHA.fullmatch(entry["parent"])
        assert {"cpu", "cores", "python", "numpy"} <= set(entry["machine"])
        assert entry["workloads"] and set(entry["workloads"]) <= workloads
        for runs in entry["workloads"].values():
            assert runs.pop("pairs") >= 1
            assert set(runs) == metrics
            for q in runs.values():
                assert set(q) == {"median", "q1", "q3"}
                assert q["q1"] <= q["median"] <= q["q3"]
    commits = [entry["commit"] for entry in entries]
    assert len(set(commits)) == len(commits)


def test_newest_entry_is_the_recorded_ab():
    newest = load("BENCH_history.json")["entries"][-1]
    current = load("BENCH_perfbench.json")
    assert newest["parent"] == current["parent"]
    assert newest["machine"] == current["machine"]
    assert set(newest["workloads"]) == set(current["workloads"])
    for name, runs in current["workloads"].items():
        assert newest["workloads"][name]["pairs"] == runs["pairs"]
        for metric, sides in runs["metrics"].items():
            change = sides["change"]
            quartiles = {k: change[k] for k in ("median", "q1", "q3")}
            assert newest["workloads"][name][metric] == quartiles
