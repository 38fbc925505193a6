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
    f.write_text(json.dumps(example_two_halfplanes().to_dict()))
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


def test_glc_names_rows_with_singular_gram(tmp_path):
    # rows independent within the rank tolerance whose Gram matrix
    # [[1, 1], [1, 1 + 1e-16]] rounds to a singular one
    f = tmp_path / "singular.json"
    f.write_text(json.dumps({"H": [[1.0, 0.0], [0.0, 1.0]], "F": [[0.0, 0.0]],
                             "G": [[1.0, 0.0], [1.0, 1e-8]],
                             "S": [[1.0], [0.0]], "w": [0.0, -1.0]}))
    with pytest.raises(SystemExit) as exc:
        main(["glc", str(f)])
    assert str(exc.value) == (
        f"cannot certify a constant for {f}: rows [1, 2] are independent "
        "within the rank tolerance, but their Gram matrix G_A H^-1 G_A' is "
        "singular")


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


def test_trim_rejects_malformed_kappa(prob_file, samples_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["trim", prob_file, "--samples", samples_file,
              "-x", "-2", "--kappa", "abc"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--kappa" in err and "'abc'" in err
    assert "formula" in err and "scaled-formula" in err


def _with_dependent_sample(d):
    # at x = -2 both rows of the two-halfplanes problem are active, and
    # their gradients are equal
    return [d, solve_sample(example_two_halfplanes(), [-2.0]).to_dict()]


@pytest.mark.parametrize("spoil, flags, message", [
    (lambda d: [{**d, "active": [2.4]}], [], "integers, got 2.4"),
    (lambda d: [{k: v for k, v in d.items() if k != "z_star"}], [],
     "lacks 'z_star'"),
    (lambda d: [{**d, "x_hat": [-1.0, 0.0]}], [],
     "sample shapes x_hat(2,), z_star(1,) do not match problem"),
    (lambda d: [{**d, "z_star": [0.0]}], [], "sample infeasible at row 2"),
    (_with_dependent_sample, ["--assume-licq"],
     "linearly dependent active rows [1, 2]"),
], ids=["fractional-index", "missing-key", "wrong-length", "infeasible",
        "dependent-active-rows"])
def test_trim_rejects_malformed_samples(prob_file, tmp_path, spoil, flags,
                                        message):
    # a samples file that is malformed, or does not fit the problem, ends
    # the command with one line naming it
    sample = solve_sample(example_two_halfplanes(), [-1.0]).to_dict()
    f = tmp_path / "bad-samples.json"
    f.write_text(json.dumps(spoil(sample)))
    with pytest.raises(SystemExit) as exc:
        main(["trim", prob_file, "--samples", str(f), "-x", "-2",
              "--kappa", "1.0", *flags])
    text = str(exc.value)
    assert message in text and str(f) in text and "\n" not in text


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


@pytest.mark.parametrize("flags, message", [
    (["--i-max", "0"], "argument --i-max: '0' is not an integer >= 1"),
    (["--i-max", "-2"], "argument --i-max: '-2' is not an integer >= 1"),
    (["--mode", "sampled", "--n-samples", "0"],
     "argument --n-samples: '0' is not an integer >= 1"),
    (["--mode", "sampled", "--n-samples", "-5"],
     "argument --n-samples: '-5' is not an integer >= 1"),
])
def test_sigma_counts_below_one_are_usage_errors(prob_file, tmp_path, capsys,
                                                 flags, message):
    box = tmp_path / "box.json"
    box.write_text(json.dumps([[-3, 3], [-3, 3]]))
    with pytest.raises(SystemExit) as exc:
        main(["sigma", prob_file, "--box", str(box), *flags])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_unbuildable_scenario_exits_with_one_line(tmp_path):
    # masses-2's one actuator pushes its pair apart and cannot reach the
    # mode where both masses move together; A = 2, B = 0 fails the PBH
    # test the same way
    f = tmp_path / "unstabilizable.json"
    f.write_text(json.dumps({
        "A": [[2.0]], "B": [[0.0]], "Q": [[1.0]], "R": [[1.0]], "N": 2,
        "X": {"C": [[1.0], [-1.0]], "d": [1.0, 1.0]},
        "U": {"C": [[1.0], [-1.0]], "d": [1.0, 1.0]}, "terminal": "auto"}))
    for scenario in ("masses-2", str(f)):
        with pytest.raises(SystemExit) as exc:
            main(["invariant-set", scenario])
        text = str(exc.value)
        assert text.startswith("invariant-set: cannot build the scenario: "
                               "(A, B) is not stabilizable")
        assert "\n" not in text


_SCENARIO = {
    "A": [[1.0]], "B": [[1.0]], "Q": [[1.0]], "R": [[1.0]], "N": 2,
    "X": {"C": [[1.0], [-1.0]], "d": [1.0, 1.0]},
    "U": {"C": [[1.0], [-1.0]], "d": [1.0, 1.0]}, "terminal": "auto"}


@pytest.mark.parametrize("argv", [["invariant-set"], ["mpc-sim", "--x0", "0"],
                                  ["bench", "--draws", "1", "--steps", "1"]],
                         ids=lambda argv: argv[0])
@pytest.mark.parametrize("data, message", [
    ({**_SCENARIO, "Q": [[-1.0]]}, "Q must be symmetric positive definite"),
    ({k: v for k, v in _SCENARIO.items() if k != "B"}, "scenario lacks 'B'"),
    ({**_SCENARIO, "N": None}, "int() argument must be"),
], ids=["negative-Q", "no-B", "null-N"])
def test_unreadable_scenario_file_exits_with_one_line(tmp_path, argv, data,
                                                      message):
    f = tmp_path / "scenario.json"
    f.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exc:
        main([argv[0], str(f), *argv[1:]])
    text = str(exc.value)
    assert text.startswith(f"{argv[0]}: cannot build the scenario: {message}")
    assert "\n" not in text


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


@pytest.mark.parametrize("argv, message", [
    (["solve", "{prob}", "-x", "1,2"], "-x has 2 entries, expected 1"),
    (["trim", "{prob}", "--samples", "{samples}", "-x", "[1, 2]",
      "--kappa", "1"], "-x has 2 entries, expected 1"),
    (["mpc-sim", "double-integrator", "--x0", "1,2,3", "--steps", "2"],
     "--x0 has 3 entries, expected 2"),
    (["solve", "{prob}", "-x", "one"], "-x 'one' is not a vector of numbers"),
    (["solve", "{prob}", "-x", "nan"], "-x 'nan' has an entry that is not finite"),
    (["mpc-sim", "double-integrator", "--x0", "nan,0", "--steps", "2"],
     "--x0 'nan,0' has an entry that is not finite"),
])
def test_vector_of_wrong_length_rejected(prob_file, samples_file, argv,
                                         message):
    argv = [a.format(prob=prob_file, samples=samples_file) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert str(exc.value) == message


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


@pytest.mark.parametrize("argv, code, message", [
    (["mpc-sim", "double-integrator", "--x0", "1,0", "--steps", "-1"], 2,
     "argument --steps: '-1' is not an integer >= 0"),
    (["mpc-sim", "double-integrator", "--x0", "100,0", "--steps", "3"], None,
     "mpc-sim stopped infeasible at step 0: state violates"),
    (["bench", "double-integrator", "--draws", "0"], 2,
     "argument --draws: '0' is not an integer >= 1"),
    (["bench", "double-integrator", "--modes", "full,bogus"], 2,
     "argument --modes: 'full,bogus' is not a list of modes"),
    (["mpc-sim", "double-integrator", "--x0", "0,0", "--mode",
      "offline-nearest", "--offline-spacing", "-1"], 2,
     "argument --offline-spacing: '-1' is not a finite positive number"),
    (["solve", "missing.json", "-x", "1"], None,
     "[Errno 2] No such file or directory: 'missing.json'"),
    (["invariant-set", "masses-x"], None,
     "no file or builtin scenario named 'masses-x'"),
])
def test_bad_input_exits_with_one_line(tmp_path, monkeypatch, capsys, argv,
                                       code, message):
    # a bad flag value is a usage error (exit 2); a missing file, an
    # unknown builtin or an infeasible start exits with one line naming it
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    if code is None:
        assert str(exc.value).startswith(message)
        assert "\n" not in str(exc.value)
    else:
        assert exc.value.code == code
        assert message in capsys.readouterr().err


def test_bench_flags_equivalence_violation(capsys):
    # kappa forced to zero removes rows it must not; exit turns nonzero
    rc = main(["bench", "double-integrator", "--modes", "offline-nearest",
               "--draws", "2", "--steps", "8", "--kappa", "0",
               "--offline-spacing", "100"])
    capsys.readouterr()
    assert rc == 1


def test_bench_exits_nonzero_on_run_failures(capsys):
    # kappa=0 makes every masses-3 run stop with InfeasibleAtStep
    rc = main(["bench", "masses-3", "--modes", "adaptive-online",
               "--kappa", "0", "--draws", "3", "--steps", "10"])
    assert capsys.readouterr().err.count("run failure") == 3
    assert rc == 1


def test_verify_subcommand_writes_report(tmp_path, capsys):
    rep = tmp_path / "rep.json"
    assert main(["verify", "--criteria", "1", "--out", str(rep)]) == 0
    capsys.readouterr()
    d = json.loads(rep.read_text())
    assert d["1"]["ok"] is True
