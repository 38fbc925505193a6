"""argparse front end: problem/scenario JSON in, JSON or CSV out.

Problems are {"H","F","G","S","w"} objects, scenarios {A,B,Q,R,N,X,U,
terminal}. Scenario arguments also accept the builtin names
"double-integrator" and "masses-<k>" so quick runs need no files.
Simulation traces leave as JSON lines, bench metrics as CSV.
"""

import argparse
import hashlib
import json
import os
import pathlib
import sys

import numpy as np

from . import verify
from .bench import BenchConfig, run_bench
from .closedloop import (
    MODES,
    InfeasibleAtStep,
    build_offline_dataset,
    default_offline_spacing,
    simulate,
)
from .lifted import lift, sigma_table
from .lipschitz import (DegenerateRow, check_kappa_spec, glc, glc_scaled,
                        resolve_kappa)
from .mpc import (BadScenario, EmptyConstraintSet, NoConvergence,
                  NoTermination, NotPd, scenario_from_dict)
from .mpqp import MpQp, samples_from_json
from .plants import gen_double_integrator, gen_oscillating_masses
from .qpsolver import solve_sample
from .trim import LicqViolation, trim_multi


def _read_json(path):
    return json.loads(pathlib.Path(path).read_text())


def _load_problem(path) -> MpQp:
    p = MpQp.from_dict(_read_json(path))
    problems = p.validate()
    if problems:
        raise SystemExit(f"invalid problem {path}: " + "; ".join(problems))
    return p


def _load_samples(path) -> list:
    """Solved samples from a JSON list; a malformed file exits naming it."""
    try:
        samples = samples_from_json(pathlib.Path(path).read_text())
    except KeyError as exc:
        raise SystemExit(f"invalid samples {path}: a sample lacks {exc}") from None
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"invalid samples {path}: {exc}") from None
    if not samples:
        raise SystemExit(f"samples file {path} is empty")
    return samples


def _load_scenario(spec: str) -> dict:
    """Path to a scenario file, or a builtin name like masses-3."""
    if os.path.exists(spec):
        return _read_json(spec)
    name = spec.replace("_", "-")
    if name == "double-integrator":
        return gen_double_integrator()
    if name.startswith("masses-") and name[7:].isdigit() and int(name[7:]) > 1:
        return gen_oscillating_masses(int(name[7:]))
    raise SystemExit(f"no file or builtin scenario named {spec!r}")


def _parse_vector(text, n: int, flag: str) -> np.ndarray:
    """Accepts '1.5,-2' or a JSON array of n finite numbers; anything else
    exits naming the flag."""
    try:
        try:
            vals = json.loads(text)
        except json.JSONDecodeError:
            vals = [float(t) for t in text.split(",") if t.strip()]
        vec = np.atleast_1d(np.asarray(vals, dtype=float))
    except (TypeError, ValueError):
        raise SystemExit(f"{flag} {text!r} is not a vector of numbers") from None
    if vec.shape != (n,):
        raise SystemExit(f"{flag} has {vec.size} entries, expected {n}")
    if not np.isfinite(vec).all():
        raise SystemExit(f"{flag} {text!r} has an entry that is not finite")
    return vec


def _emit(args, text: str) -> None:
    if args.out:
        pathlib.Path(args.out).write_text(text + "\n")
    else:
        print(text)


def _checked(parse, ok, what: str):
    """argparse type: parse(text); a usage error if that or ok fails."""
    def convert(text: str):
        try:
            value = parse(text)
            good = ok(value)
        except ValueError:
            good = False
        if not good:
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    return convert


# a --kappa spec, kept as text for resolve_kappa
_KAPPA = _checked(str, lambda t: check_kappa_spec(t) is None,
                  "a finite number >= 0, 'formula' or 'scaled-formula'")
# a count flag: --i-max, --n-samples, --draws, bench's --steps
_COUNT = _checked(int, lambda n: n >= 1, "an integer >= 1")


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_solve(args) -> int:
    p = _load_problem(args.problem)
    sample = solve_sample(p, _parse_vector(args.x, p.n_x, "-x"))
    _emit(args, json.dumps(sample.to_dict(), indent=2))
    return 0


def cmd_glc(args) -> int:
    p = _load_problem(args.problem)
    try:
        report = glc_scaled(p) if args.scaled else glc(p)
    except DegenerateRow as exc:
        raise SystemExit(f"cannot certify a constant for {args.problem}: "
                         f"{exc}") from None
    _emit(args, json.dumps(report.to_dict(), indent=2))
    return 0


def cmd_trim(args) -> int:
    p = _load_problem(args.problem)
    x = _parse_vector(args.x, p.n_x, "-x")
    kappa = resolve_kappa(args.kappa, p)
    samples = _load_samples(args.samples)
    try:
        out = trim_multi(p, kappa, samples, x, assume_licq=args.assume_licq)
    except (ValueError, LicqViolation) as exc:
        # a sample that does not fit the problem: wrong shape, infeasible,
        # inconsistent active set, or dependent active rows
        raise SystemExit(f"cannot trim with samples {args.samples}: {exc}") from None
    _emit(args, out.to_json(indent=2))
    return 0


def cmd_sigma(args) -> int:
    p = _load_problem(args.problem)
    box = np.asarray(_read_json(args.box), dtype=float)
    L = lift(p, box=box)

    cache_file = None
    if args.cache_dir:
        # key: polyhedron content hash plus everything else that shapes the
        # table; a hit skips the search entirely
        tag = f"{L.content_hash()}-{args.i_max}-{args.mode}"
        if args.mode == "sampled":
            tag += f"-{args.n_samples}-{args.seed}"
        digest = hashlib.sha256(tag.encode()).hexdigest()[:16]
        cache_file = pathlib.Path(args.cache_dir) / f"sigma-{digest}.json"
        if cache_file.exists():
            _emit(args, cache_file.read_text().rstrip("\n"))
            return 0

    table = sigma_table(L, i_max=args.i_max, mode=args.mode,
                        n_samples=args.n_samples, seed=args.seed)
    text = table.to_json(indent=2)
    if cache_file is not None:
        cache_file.parent.mkdir(parents=True, exist_ok=True)
        cache_file.write_text(text + "\n")
    _emit(args, text)
    return 0


def cmd_invariant_set(args) -> int:
    sc = scenario_from_dict(_load_scenario(args.scenario))
    _emit(args, json.dumps(sc.XN.to_dict(), indent=2))
    return 0


def cmd_mpc_sim(args) -> int:
    sc = scenario_from_dict(_load_scenario(args.scenario))
    x0 = _parse_vector(args.x0, sc.n, "--x0")
    kappa = None
    if args.mode != "full":
        kappa = resolve_kappa(args.kappa, sc.condensed)
    offline = None
    if args.mode in ("offline-nearest", "hybrid"):
        spacing = args.offline_spacing
        if spacing is None:
            spacing = default_offline_spacing(sc)
        offline = build_offline_dataset(sc, spacing=spacing)
    trace = simulate(sc, x0, args.steps, mode=args.mode,
                     kappa=kappa, offline=offline)
    _emit(args, trace.to_jsonl())
    return 0


def cmd_bench(args) -> int:
    config = BenchConfig(
        scenario=_load_scenario(args.scenario),
        modes=args.modes,
        n_draws=args.draws,
        steps=args.steps,
        seed=args.seed,
        out_dir=args.out,
        kappa=args.kappa,
        offline_spacing=args.offline_spacing,
    )
    result = run_bench(config)
    if args.out is None:
        print(result.csv())
    for v in result.violations:
        print(f"equivalence violation: {v}", file=sys.stderr)
    for f in result.failures:
        print(f"run failure: {f}", file=sys.stderr)
    return 0 if result.ok else 1


def cmd_verify(args) -> int:
    labels = args.criteria.split(",") if args.criteria else None
    results = verify.run_all(labels=labels, seed=args.seed)
    if args.out:
        report = {r.label: r.to_dict() for r in results}
        pathlib.Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0 if all(r.ok for r in results) else 1


# ---------------------------------------------------------------------------
# parser wiring

KAPPA_HELP = "number, or the closed-form estimate 'formula' or 'scaled-formula'"


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps position flexible: the flags work before or after the
    # subcommand without the subparser default clobbering the global one
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="RNG seed (default 0)")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="output file (bench: output directory)")

    trim_flags = argparse.ArgumentParser(add_help=False)
    trim_flags.add_argument("--kappa", default="scaled-formula", type=_KAPPA,
                            help=KAPPA_HELP)
    trim_flags.add_argument("--offline-spacing", default=None, type=_checked(
        float, lambda s: 0.0 < s < np.inf, "a finite positive number"))

    parser = argparse.ArgumentParser(
        prog="qptrim",
        description="Constraint trimming for mp-QPs and linear MPC.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", parents=[common],
                        help="solve a problem at one parameter")
    sp.add_argument("problem", help="problem JSON file")
    sp.add_argument("-x", required=True, help="parameter vector")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("glc", parents=[common],
                        help="certified Lipschitz constant (enumerates row sets)")
    sp.add_argument("problem")
    sp.add_argument("--scaled", action="store_true",
                    help="equalize row curvatures first")
    sp.set_defaults(func=cmd_glc)

    sp = sub.add_parser("trim", parents=[common],
                        help="safe constraint set from solved samples")
    sp.add_argument("problem")
    sp.add_argument("--samples", required=True,
                    help="JSON array of solved samples")
    sp.add_argument("-x", required=True, help="query parameter vector")
    sp.add_argument("--kappa", required=True, type=_KAPPA,
                    help=KAPPA_HELP)
    sp.add_argument("--assume-licq", action="store_true",
                    help="fold every sample instead of trimming against the "
                         "nearest one; a sample whose own active rows are "
                         "dependent is refused")
    sp.set_defaults(func=cmd_trim)

    sp = sub.add_parser("sigma", parents=[common],
                        help="interior-depth threshold table")
    sp.add_argument("problem")
    sp.add_argument("--box", required=True,
                    help="JSON [[lo,hi],...] over the stacked (x,z) space")
    sp.add_argument("--i-max", type=_COUNT, default=None)
    sp.add_argument("--mode", choices=("milp", "sampled"), default="milp")
    sp.add_argument("--n-samples", type=_COUNT, default=20000)
    sp.add_argument("--cache-dir", default=None,
                    help="reuse tables keyed by problem content hash")
    sp.set_defaults(func=cmd_sigma)

    sp = sub.add_parser("invariant-set", parents=[common],
                        help="terminal set of a scenario")
    sp.add_argument("scenario", help="scenario JSON file or builtin name")
    sp.set_defaults(func=cmd_invariant_set)

    sp = sub.add_parser("mpc-sim", parents=[common, trim_flags],
                        help="closed-loop run, one JSON line per step")
    sp.add_argument("scenario")
    sp.add_argument("--x0", required=True, help="initial state")
    sp.add_argument("--steps", default=100, type=_checked(
        int, lambda n: n >= 0, "an integer >= 0"))
    sp.add_argument("--mode", choices=MODES, default="full")
    sp.set_defaults(func=cmd_mpc_sim)

    sp = sub.add_parser("bench", parents=[common, trim_flags],
                        help="run modes against the full baseline")
    sp.add_argument("scenario")
    sp.add_argument("--modes", default=("full", "adaptive-online"),
                    type=_checked(lambda t: tuple(t.split(",")),
                                  lambda ms: set(ms) <= set(MODES),
                                  "a list of modes from " + ",".join(MODES)))
    for flag, default in (("--draws", 20), ("--steps", 100)):
        sp.add_argument(flag, default=default, type=_COUNT)
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("verify", parents=[common],
                        help="run the release gate")
    sp.add_argument("--criteria", default=None,
                    help="comma-separated labels, default all")
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.seed = getattr(args, "seed", 0)
    args.out = getattr(args, "out", None)
    try:
        return args.func(args)
    except OSError as exc:   # an input or output file that cannot be used
        raise SystemExit(str(exc)) from None
    except InfeasibleAtStep as exc:
        raise SystemExit(f"{args.command} stopped infeasible at {exc}") from None
    except (BadScenario, NoConvergence, NoTermination, EmptyConstraintSet,
            NotPd) as exc:
        raise SystemExit(
            f"{args.command}: cannot build the scenario: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
