"""Provably-safe constraint trimming for multiparametric QPs and linear MPC.

The package solves problems of the form

    min_z  0.5 z'Hz + x'Fz   s.t.  G z <= S x + w

and removes inequality rows that a Lipschitz argument certifies inactive
near previously solved parameters, so each new instance stays exact while
it shrinks. The MPC layer condenses linear-quadratic scenarios into
this form and runs receding-horizon loops in several trimming modes.
"""

from .bench import BenchConfig, BenchResult, draw_initial_states, run_bench
from .closedloop import (
    MODES,
    ClosedLoopTrace,
    OfflineDataset,
    build_offline_dataset,
    estimate_decay,
    horizon_bounds,
    simulate,
)
from .lifted import (
    LiftedPolyhedron,
    SigmaTable,
    containment_count,
    lift,
    lift_point,
    sigma_milp,
    sigma_sample,
    sigma_table,
    theorem3_bound,
)
from .lipschitz import (
    GlcReport,
    empirical_lipschitz,
    glc,
    glc_estimate,
    glc_scaled,
    glc_scaled_estimate,
)
from .mpc import (
    MpcScenario,
    condense,
    dare,
    lqr_gain,
    max_invariant_set,
    scenario_from_dict,
    terminal_ingredients,
    zoh_discretize,
)
from .mpqp import (
    IndexSet,
    MpQp,
    SolvedSample,
    example_two_halfplanes,
    samples_from_json,
    samples_to_json,
)
from .plants import gen_double_integrator, gen_oscillating_masses
from .polyhedra import Polyhedron
from .qpsolver import qp_solve, solve_sample
from .trim import LicqViolation, TrimOutcome, trim_multi, trim_single

__version__ = "0.1.0"

__all__ = [
    "BenchConfig",
    "BenchResult",
    "ClosedLoopTrace",
    "GlcReport",
    "IndexSet",
    "LicqViolation",
    "LiftedPolyhedron",
    "MODES",
    "MpQp",
    "MpcScenario",
    "OfflineDataset",
    "Polyhedron",
    "SigmaTable",
    "SolvedSample",
    "TrimOutcome",
    "build_offline_dataset",
    "condense",
    "containment_count",
    "dare",
    "draw_initial_states",
    "empirical_lipschitz",
    "estimate_decay",
    "example_two_halfplanes",
    "gen_double_integrator",
    "gen_oscillating_masses",
    "glc",
    "glc_estimate",
    "glc_scaled",
    "glc_scaled_estimate",
    "horizon_bounds",
    "lift",
    "lift_point",
    "lqr_gain",
    "max_invariant_set",
    "qp_solve",
    "run_bench",
    "samples_from_json",
    "samples_to_json",
    "scenario_from_dict",
    "sigma_milp",
    "sigma_sample",
    "sigma_table",
    "simulate",
    "solve_sample",
    "terminal_ingredients",
    "theorem3_bound",
    "trim_multi",
    "trim_single",
    "zoh_discretize",
]
