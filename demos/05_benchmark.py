"""Benchmark a spring-mass chain: constraint count shrinking to zero.

Three unit masses coupled by unit springs, forces acting between
neighbours, horizon 10. The bench harness draws random feasible starts,
runs every mode against the full controller in the same process, checks
trajectory equivalence, and aggregates per-step metrics. Wall-time
percentages are hardware noise; the portable signals are the kept-row
percentage and the solver iteration count.
"""

import pathlib

from qptrim import BenchConfig, gen_oscillating_masses, run_bench

config = BenchConfig(
    scenario=gen_oscillating_masses(3, h=0.5, N=10),
    modes=("full", "adaptive-online"),
    n_draws=5,
    steps=50,
    seed=0,
    out_dir=str(pathlib.Path(__file__).parent / "out" / "benchmark"),
)
result = run_bench(config)
print(f"equivalence violations: {len(result.violations)}  "
      f"run failures: {len(result.failures)}\n")

by_mode = {}
for row in result.rows:
    by_mode.setdefault(row.mode, []).append(row)

print(f"{'step':>4}  " + "".join(f"{m:>18}" for m in by_mode)
      + "   (kept % | mean iterations)")
for k in range(0, config.steps, 5):
    line = f"{k:>4}  "
    for m, rows in by_mode.items():
        r = rows[k]
        line += f"{r.kept_pct:>10.1f} {r.iters_mean:>6.1f} "
        line = line[:-1] + " "
    print(line)

out = pathlib.Path(config.out_dir)
print(f"\nfull metrics written to {out / 'metrics.csv'}")
print(f"per-run traces under {out / 'traces'}/")
final = {m: rows[-1].kept_pct for m, rows in by_mode.items()}
print("final-step kept %:", {m: f"{v:.1f}" for m, v in final.items()})
