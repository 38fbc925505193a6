"""End-to-end runs of the command line through main(argv)."""

import json

import numpy as np
import pytest

from qptrim.cli import main
from qptrim.mpqp import example_two_halfplanes, samples_to_json
from qptrim.qpsolver import solve_sample


@pytest.fixture
def prob_file(tmp_path):
    f = tmp_path / "prob.json"
    f.write_text(example_two_halfplanes().to_json())
    return str(f)


@pytest.fixture
def samples_file(tmp_path):
    p = example_two_halfplanes()
    f = tmp_path / "samples.json"
    f.write_text(samples_to_json([solve_sample(p, [-1.0])]))
    return str(f)


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_solve_prints_sample(prob_file, capsys):
    assert main(["solve", prob_file, "-x", "-1"]) == 0
    d = _json_out(capsys)
    assert d["z_star"] == [-3.0] and d["active"] == [2]


def test_solve_writes_out_file(prob_file, tmp_path, capsys):
    out = tmp_path / "s.json"
    assert main(["solve", prob_file, "-x", "-1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["active"] == [2]
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("change, message", [
    ({"H": [[-2.0]]}, "H is not positive definite"),
    ({"G": [[0.0], [1.0]]}, "zero rows in G: [1]"),
    ({"S": [[1.0, 0.0], [-1.0, 0.0]]}, "S shape (2, 2) does not match"),
])
def test_invalid_problem_file_rejected(tmp_path, change, message):
    data = example_two_halfplanes().to_dict()
    data.update(change)
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(f), "-x", "-1"])
    assert message in str(exc.value)


def test_glc_plain_and_scaled(prob_file, capsys):
    assert main(["glc", prob_file]) == 0
    plain = _json_out(capsys)
    assert plain["kappa"] == pytest.approx(0.5 + np.sqrt(5.0))
    assert main(["glc", prob_file, "--scaled"]) == 0
    assert _json_out(capsys)["scaling_used"] is not None


def test_glc_reports_certified_piece(tmp_path, capsys):
    # nearly parallel rows whose joint piece is realizable and steeper
    # than the closed form; the report names it
    f = tmp_path / "parallel.json"
    f.write_text(json.dumps({"H": [[1.0, 0.0], [0.0, 1.0]], "F": [[0.0, 0.0]],
                             "G": [[1.0, 0.0], [1.0, 0.01]],
                             "S": [[1.0], [0.0]], "w": [0.0, -1.0]}))
    assert main(["glc", str(f)]) == 0
    d = _json_out(capsys)
    assert d["steepest_piece"]["rows"] == [1, 2]
    assert d["kappa"] == d["steepest_piece"]["slope"] >= np.sqrt(1.0 + 1e4)


def test_trim_with_formula_kappa(prob_file, samples_file, capsys):
    assert main(["trim", prob_file, "--samples", samples_file,
                 "-x", "-2", "--kappa", "1.0"]) == 0
    d = _json_out(capsys)
    assert d["kept"] == [2] and d["removed"] == [1]

    # symbolic kappa is larger here, so nothing may be removed, but the
    # command must resolve it and run
    assert main(["trim", prob_file, "--samples", samples_file,
                 "-x", "-2", "--kappa", "formula"]) == 0
    assert 2 in _json_out(capsys)["kept"]


def test_sigma_cache_round_trip(prob_file, tmp_path, capsys):
    box = tmp_path / "box.json"
    box.write_text(json.dumps([[-3, 3], [-3, 3]]))
    cache = tmp_path / "cache"
    argv = ["sigma", prob_file, "--box", str(box), "--i-max", "1",
            "--cache-dir", str(cache)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert len(list(cache.glob("sigma-*.json"))) == 1
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert "sigma" in json.loads(first)


def test_invariant_set_builtin_scenario(capsys):
    assert main(["invariant-set", "double-integrator"]) == 0
    d = _json_out(capsys)
    assert len(d["C"]) == len(d["d"]) > 0


def test_unknown_scenario_name_rejected():
    with pytest.raises(SystemExit):
        main(["invariant-set", "no-such-plant"])


def test_mpc_sim_emits_one_line_per_step(capsys):
    assert main(["mpc-sim", "double-integrator", "--x0", "1,0.5",
                 "--steps", "4", "--mode", "adaptive-online"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    recs = [json.loads(l) for l in lines]
    assert [r["k"] for r in recs] == [0, 1, 2, 3]
    assert recs[0]["mode"] == "full"  # first step never trims


def _metrics_without_time(text):
    rows = [r.split(",") for r in text.strip().splitlines()]
    return [r[:4] + r[5:] for r in rows]


def test_bench_seed_determinism_and_outputs(tmp_path, capsys):
    argv = ["bench", "double-integrator", "--modes", "full,adaptive-online",
            "--draws", "2", "--steps", "5", "--seed", "3"]
    assert main(argv) == 0
    a = capsys.readouterr().out
    assert main(argv) == 0
    b = capsys.readouterr().out
    # wall-clock column varies run to run; everything numeric must not
    assert _metrics_without_time(a) == _metrics_without_time(b)

    # global flag placement before the subcommand means the same thing
    assert main(["--seed", "3", "bench", "double-integrator", "--modes",
                 "full,adaptive-online", "--draws", "2", "--steps", "5"]) == 0
    c = capsys.readouterr().out
    assert _metrics_without_time(c) == _metrics_without_time(a)

    out_dir = tmp_path / "bench"
    assert main(argv + ["--out", str(out_dir)]) == 0
    assert (out_dir / "metrics.csv").exists()
    assert (out_dir / "summary.json").exists()
    assert list((out_dir / "traces").glob("*.jsonl"))


def test_bench_flags_equivalence_violation(capsys):
    # kappa forced to zero removes rows it must not; exit turns nonzero
    rc = main(["bench", "double-integrator", "--modes", "offline-nearest",
               "--draws", "2", "--steps", "8", "--kappa", "0",
               "--offline-spacing", "100"])
    capsys.readouterr()
    assert rc == 1


def test_verify_subcommand_writes_report(tmp_path, capsys):
    rep = tmp_path / "rep.json"
    assert main(["verify", "--criteria", "1", "--out", str(rep)]) == 0
    capsys.readouterr()
    d = json.loads(rep.read_text())
    assert d["1"]["ok"] is True
