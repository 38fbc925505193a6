"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from ./src, never
from an installed copy, and BLAS is pinned to one thread. With --trace 0
the result holds the end-to-end metrics; with --trace 1 it holds the
per-layer ones, and the spans go to perfbench/results/.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
NAMES = ("masses3-full", "masses3-adaptive-online", "di10-offline-nearest",
         "di4-certify")


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="tiny inputs, for the smoke test only")
    return ap.parse_args(argv)


def import_program():
    """Import qptrim from the checkout's src/, or exit when it is absent."""
    if not (SRC / "qptrim" / "__init__.py").is_file():
        sys.exit(f"no program source at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import qptrim

    if pathlib.Path(qptrim.__file__).resolve().parent != SRC / "qptrim":
        sys.exit(f"imported qptrim from {qptrim.__file__}, not from {SRC}")


def main(argv=None):
    args = parse(argv)
    import_program()
    from workloads import WORKLOADS

    make, run = WORKLOADS[args.workload]
    result, tracer = run(make(small=args.small), args.seed, args.seconds,
                         bool(args.trace))
    if args.trace:
        RESULTS.mkdir(exist_ok=True)
        tracer.write(RESULTS / f"spans-{args.workload}-{args.seed}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
