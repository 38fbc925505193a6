import json
import pathlib

import numpy as np
import pytest

from qptrim import bench
from qptrim.bench import (
    BenchConfig,
    BenchResult,
    MetricsRow,
    draw_initial_states,
    run_bench,
)
from qptrim.mpc import scenario_from_dict
from qptrim.plants import gen_double_integrator, gen_oscillating_masses


GOLDEN_CSV = pathlib.Path(__file__).parent / "data" / "bench_double_integrator_seed3.csv"


def small_config(**kw):
    base = dict(scenario=gen_double_integrator(h=0.5, N=3),
                modes=("full", "adaptive-online"), n_draws=3, steps=25, seed=0)
    base.update(kw)
    return BenchConfig(**base)


def strip_time_column(csv_text):
    out = []
    for line in csv_text.splitlines():
        cells = line.split(",")
        del cells[4]
        out.append(",".join(cells))
    return "\n".join(out)


class TestRunBench:
    def test_all_modes_clean(self):
        cfg = small_config(modes=("full", "adaptive-online",
                                  "offline-nearest", "hybrid"),
                           offline_spacing=0.5)
        res = run_bench(cfg)
        assert res.ok
        assert res.failures == []
        assert len(res.rows) == 4 * cfg.steps
        for r in res.rows:
            assert 0.0 <= r.kept_pct <= 100.0
            assert np.isfinite(r.time_pct) and r.time_pct > 0
            if r.mode == "full":
                assert r.kept_pct == 100.0

    def test_full_mode_reuses_the_baseline(self, monkeypatch):
        # each draw is simulated once in full, as the baseline that the
        # full mode then reports, and once per other mode
        calls = []
        real = bench.simulate

        def spy(*args, **kw):
            calls.append(kw.get("mode"))
            return real(*args, **kw)

        monkeypatch.setattr(bench, "simulate", spy)
        res = run_bench(small_config())
        assert sorted(calls) == ["adaptive-online"] * 3 + ["full"] * 3
        for r in res.rows:
            if r.mode == "full":
                assert r.time_pct == 100.0

    def test_adaptive_kept_reaches_zero(self):
        res = run_bench(small_config())
        ao = [r for r in res.rows if r.mode == "adaptive-online"]
        assert ao[0].kept_pct == 100.0  # step 0 is always a full solve
        assert ao[-1].kept_mean == 0.0
        # trend: last quarter never above first quarter
        q = len(ao) // 4
        assert max(r.kept_mean for r in ao[-q:]) <= min(
            r.kept_mean for r in ao[:q])

    def test_deterministic_numeric_columns(self):
        a = run_bench(small_config()).csv()
        b = run_bench(small_config()).csv()
        assert strip_time_column(a) == strip_time_column(b)
        header = a.splitlines()[0]
        assert header == "k,mode,kept_mean,kept_pct,time_pct,iters_mean"

    def test_numeric_columns_match_golden(self):
        # `qptrim bench double-integrator --modes full,adaptive-online,
        # offline-nearest,hybrid --draws 8 --steps 40 --seed 3`, recorded
        # without its time_pct column
        res = run_bench(BenchConfig(
            scenario=gen_double_integrator(),
            modes=("full", "adaptive-online", "offline-nearest", "hybrid"),
            n_draws=8, steps=40, seed=3))
        assert strip_time_column(res.csv()) + "\n" == GOLDEN_CSV.read_text()

    def test_bad_kappa_flags_violations(self):
        # an over-confident constant with a too-coarse offline net removes
        # rows that matter; the harness must notice the trajectories split
        cfg = small_config(modes=("offline-nearest",), n_draws=5, steps=15,
                           kappa=0.0,
                           offline_spacing=100.0)
        res = run_bench(cfg)
        assert not res.ok
        assert res.violations
        for v in res.violations:
            assert v["mode"] == "offline-nearest"
            assert v["deviation"] > 1e-8

    def test_understated_kappa_records_failure(self):
        # kappa=0 removes rows the next solve needs, so a step's solution
        # violates a removed row; the next step must stop the run with
        # InfeasibleAtStep, which run_bench records as a failure
        res = run_bench(BenchConfig(
            scenario=gen_oscillating_masses(3, h=0.5, N=10),
            modes=("adaptive-online",), n_draws=3, steps=10, seed=0,
            kappa=0.0))
        assert [f["draw"] for f in res.failures] == [0, 1, 2]
        for f in res.failures:
            assert f["mode"] == "adaptive-online" and f["step"] >= 1
            assert "violates row" in f["error"]
        assert res.rows == [] and res.traces == {}
        assert not res.ok

    def test_output_files(self, tmp_path):
        cfg = small_config(out_dir=str(tmp_path / "bench"))
        res = run_bench(cfg)
        root = tmp_path / "bench"
        csv_text = (root / "metrics.csv").read_text()
        assert csv_text.rstrip("\n") == res.csv()
        traces = sorted((root / "traces").glob("*.jsonl"))
        assert len(traces) == 2 * cfg.n_draws
        lines = traces[0].read_text().strip().splitlines()
        assert len(lines) == cfg.steps
        summary = json.loads((root / "summary.json").read_text())
        assert summary["violations"] == []
        assert summary["seed"] == 0


class TestDrawInitialStates:
    def test_starved_sampling_raises(self, monkeypatch):
        import qptrim.bench as bench_mod

        # each try yields at most one draw, so 3 tries cannot give 4
        monkeypatch.setattr(bench_mod, "_MAX_TRIES", 3)
        sc = scenario_from_dict(gen_double_integrator(h=0.5, N=3))
        with pytest.raises(RuntimeError, match="rejection sampling starved"):
            draw_initial_states(sc, 4, 0)


class TestConfigValidation:
    def test_rejects_bad_settings(self):
        base = dict(scenario=gen_double_integrator())
        with pytest.raises(ValueError):
            BenchConfig(**base, modes=())
        with pytest.raises(ValueError):
            BenchConfig(**base, modes=("sideways",))
        with pytest.raises(ValueError):
            BenchConfig(**base, steps=0)
        with pytest.raises(ValueError):
            BenchConfig(**base, n_draws=0)
        for kappa in ("guess", -1.0, float("nan"), None):
            with pytest.raises(ValueError):
                BenchConfig(**base, kappa=kappa)
        with pytest.raises(TypeError, match="scenario must be a dict"):
            BenchConfig(scenario="scenario.json")

    def test_rejects_fractional_counts(self):
        base = dict(scenario=gen_double_integrator())
        for name in ("steps", "n_draws"):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                BenchConfig(**base, **{name: 2.5})

    def test_csv_row_format(self):
        row = MetricsRow(k=2, mode="full", kept_mean=1.5, kept_pct=50.0,
                         time_pct=99.5, iters_mean=3.25)
        assert row.to_csv_row() == "2,full,1.500000,50.000000,99.500,3.250000"
        res = BenchResult(rows=[row], failures=[], violations=[])
        assert res.csv().splitlines()[1].startswith("2,full")
