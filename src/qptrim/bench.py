"""Benchmark orchestration: run the closed loop in several modes over random
initial states and aggregate per-step metrics against a full-solve baseline.

Numeric columns are deterministic for a fixed seed; wall-time percentages
are measured in-process and naturally jitter, so byte-identity checks must
drop the time_pct column.
"""

import json
import pathlib
from dataclasses import dataclass, field

import numpy as np

from .closedloop import (
    MODES,
    InfeasibleAtStep,
    build_offline_dataset,
    default_offline_spacing,
    simulate,
)
from .lipschitz import KAPPA_FORMULAS, resolve_kappa
from .mpc import scenario_from_dict
from .simplex import INFEASIBLE, lp_solve
from .tolerances import DEFAULT, Tolerances
from .trim import check_kappa

# largest state or input deviation from the full-solve baseline that
# still counts as the same trajectory
EQUIV_TOL = 1e-8


@dataclass
class BenchConfig:
    scenario: object                      # dict or path to scenario JSON
    modes: tuple = ("full", "adaptive-online")
    n_draws: int = 20
    steps: int = 100
    seed: int = 0
    out_dir: str | None = None
    kappa: str | float = "scaled-formula"  # spec, see resolve_kappa
    offline_spacing: float | None = None  # default: a fifth of the XN box
    tol: Tolerances = DEFAULT

    def __post_init__(self):
        self.modes = tuple(self.modes)
        if not self.modes:
            raise ValueError("need at least one mode")
        for m in self.modes:
            if m not in MODES:
                raise ValueError(f"unknown mode {m!r}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.n_draws < 1:
            raise ValueError(f"n_draws must be >= 1, got {self.n_draws}")
        if self.kappa not in KAPPA_FORMULAS:
            check_kappa(float(self.kappa))


@dataclass
class MetricsRow:
    k: int
    mode: str
    kept_mean: float
    kept_pct: float
    time_pct: float
    iters_mean: float

    def to_csv_row(self) -> str:
        return (f"{self.k},{self.mode},{self.kept_mean:.6f},"
                f"{self.kept_pct:.6f},{self.time_pct:.3f},"
                f"{self.iters_mean:.6f}")


CSV_HEADER = "k,mode,kept_mean,kept_pct,time_pct,iters_mean"


@dataclass
class BenchResult:
    rows: list
    failures: list
    violations: list
    traces: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def csv(self) -> str:
        return "\n".join([CSV_HEADER] + [r.to_csv_row() for r in self.rows])


def draw_initial_states(scenario, n_draws, seed, max_tries=100_000):
    """Uniform QP-feasible draws over the state box.

    Feasible starts are recursively feasible thanks to the terminal
    ingredients, and unlike draws restricted to the terminal set they
    put the loop through genuinely active constraints early on.
    """
    rng = np.random.default_rng(seed)
    try:
        bb = scenario.X.bounding_box()
    except ValueError:  # position-only slabs leave some coordinates free
        bb = scenario.XN.bounding_box()
        width = bb[:, 1] - bb[:, 0]
        bb = np.column_stack([bb[:, 0] - 0.5 * width, bb[:, 1] + 0.5 * width])
    p = scenario.condensed
    draws = []
    tries = 0
    while len(draws) < n_draws:
        if tries >= max_tries:
            raise RuntimeError("rejection sampling starved; is the feasible "
                               "region a sliver of the state box?")
        x = rng.uniform(bb[:, 0], bb[:, 1])
        tries += 1
        if not scenario.X.contains(x):
            continue
        if scenario.XN.contains(x):  # invariance makes these feasible
            draws.append(x)
            continue
        feas = lp_solve(np.zeros(p.n_z), p.G, p.rhs(x))
        if feas.status != INFEASIBLE:
            draws.append(x)
    return draws


def run_bench(config: BenchConfig) -> BenchResult:
    scen_data = config.scenario
    if not isinstance(scen_data, dict):
        scen_data = json.loads(pathlib.Path(scen_data).read_text())
    scenario = scenario_from_dict(scen_data)
    p = scenario.condensed
    kappa = resolve_kappa(config.kappa, p)
    draws = draw_initial_states(scenario, config.n_draws, config.seed)

    offline = None
    if any(m in ("offline-nearest", "hybrid") for m in config.modes):
        spacing = config.offline_spacing
        if spacing is None:
            spacing = default_offline_spacing(scenario)
        offline = build_offline_dataset(scenario, spacing=spacing,
                                        tol=config.tol)

    failures, violations = [], []
    traces = {}
    baselines = {}
    for i, x0 in enumerate(draws):
        baselines[i] = simulate(scenario, x0, config.steps, mode="full",
                                tol=config.tol)
    for mode in config.modes:
        for i, x0 in enumerate(draws):
            try:
                trace = simulate(scenario, x0, config.steps, mode=mode,
                                 kappa=kappa, offline=offline, tol=config.tol)
            except InfeasibleAtStep as exc:
                failures.append({"mode": mode, "draw": i, "step": exc.k,
                                 "error": str(exc)})
                continue
            traces[(mode, i)] = trace
            ref = baselines[i]
            dev = max(
                float(np.abs(trace.states() - ref.states()).max()),
                float(np.abs(trace.inputs() - ref.inputs()).max()),
            )
            if dev > EQUIV_TOL:
                violations.append({"mode": mode, "draw": i, "deviation": dev})

    rows = []
    n_c = p.n_c
    for mode in config.modes:
        done = [traces[(mode, i)] for i in range(len(draws))
                if (mode, i) in traces]
        if not done:
            continue
        base = [baselines[i] for i in range(len(draws)) if (mode, i) in traces]
        for k in range(config.steps):
            kept = float(np.mean([t.records[k].kept_count for t in done]))
            wall = float(np.mean([t.records[k].wall_time for t in done]))
            wall_ref = float(np.mean([t.records[k].wall_time for t in base]))
            iters = float(np.mean([t.records[k].iterations for t in done]))
            rows.append(MetricsRow(
                k=k, mode=mode, kept_mean=kept,
                kept_pct=100.0 * kept / n_c,
                time_pct=100.0 * wall / max(wall_ref, 1e-12),
                iters_mean=iters,
            ))

    result = BenchResult(rows=rows, failures=failures, violations=violations,
                         traces=traces)
    if config.out_dir is not None:
        out = pathlib.Path(config.out_dir)
        (out / "traces").mkdir(parents=True, exist_ok=True)
        (out / "metrics.csv").write_text(result.csv() + "\n")
        for (mode, i), trace in traces.items():
            (out / "traces" / f"{mode}-{i}.jsonl").write_text(
                trace.to_jsonl() + "\n")
        summary = {
            "scenario": scenario.name,
            "kappa": kappa,
            "kappa_spec": config.kappa,
            "seed": config.seed,
            "failures": failures,
            "violations": violations,
        }
        (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return result
