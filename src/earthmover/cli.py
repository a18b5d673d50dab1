"""Command-line front end: file-based distance computation and a timing benchmark.

Input point sets are headerless CSV (one observation per row, comma-delimited,
decimal point only); single-column files are treated as one-dimensional
samples. Exit codes: 0 success, 2 validation error, 3 solver failure, 4 I/O
or parse failure.

``bench`` writes one CSV row per trial, whose ``wall_time_ns`` is the time
``wasserstein_distance`` measures itself, and one summary row per size.
"""

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from .api import wasserstein_distance
from .errors import SolverError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_IO = 4


class _CsvError(ValueError):
    """An input file that is not a CSV of numbers in the expected layout."""


def _read_rows(path, skip_header):
    try:
        with open(path, newline="") as fh:
            rows = []
            for index, row in enumerate(csv.reader(fh)):
                if skip_header and index == 0:
                    continue
                if not row:
                    continue
                rows.append([float(cell) for cell in row])
    except (ValueError, csv.Error) as exc:
        raise _CsvError(exc) from None
    if not rows:
        raise _CsvError(f"{path}: no data rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise _CsvError(f"{path}: rows have inconsistent column counts")
    if width == 1:
        return np.array([r[0] for r in rows])
    return np.array(rows)


def _read_weights(path, skip_header):
    values = _read_rows(path, skip_header)
    if values.ndim != 1:
        raise _CsvError(f"{path}: weights file must have one value per row")
    return values


def _json_distance(value):
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf"
    return value


def _cmd_compute(args):
    u = _read_rows(args.u, args.header)
    v = _read_rows(args.v, args.header)
    u_w = _read_weights(args.u_weights, args.header) if args.u_weights else None
    v_w = _read_weights(args.v_weights, args.header) if args.v_weights else None
    result = wasserstein_distance(u, v, u_w, v_w, want_plan=args.plan is not None)

    payload = {
        "distance": _json_distance(result.distance),
        "path": result.path,
        "iterations": result.iterations,
        "wall_time_ns": result.wall_time_ns,
    }
    text = "\n".join(f"{key}: {value}" for key, value in payload.items())
    if args.plan is not None:
        p = result.plan
        plan = [] if p is None else list(zip(p.rows.tolist(), p.cols.tolist(), p.mass.tolist()))
        with open(args.plan, "w") as fh:
            json.dump(plan, fh)
        payload["plan"] = plan
    print(text if args.format == "text" else json.dumps(payload))
    return EXIT_OK


def _non_negative(text):
    """argparse type of the ``bench`` counts: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def _default_summary_path(out_path):
    root, ext = os.path.splitext(out_path)
    return f"{root}_summary{ext or '.csv'}"


def _cmd_bench(args):
    rng = np.random.default_rng(args.seed)
    trials = {}
    for exponent in range(args.min_exp, args.max_exp + 1):
        size = 2 ** exponent
        for _ in range(args.repeats):
            u = rng.random((size, args.dim))
            v = rng.random((size, args.dim))
            trials.setdefault(size, []).append(wasserstein_distance(u, v))

    summary_path = args.summary or _default_summary_path(args.out)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "trial", "wall_time_ns", "distance"])
        for size, results in trials.items():
            for trial, result in enumerate(results):
                writer.writerow([size, trial, result.wall_time_ns, repr(result.distance)])
    with open(summary_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "mean_wall_time_ns", "log_mean", "paper_scaled"])
        for size, results in trials.items():
            mean = sum(result.wall_time_ns for result in results) / len(results)
            # paper_scaled = log(mean_wall_time_ns - 1): the paper's log(t - 1)
            # applied literally to the nanosecond mean
            writer.writerow([size, mean, math.log(mean), math.log(mean - 1)])
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="earthmover",
        description="Exact discrete Wasserstein-1 distances between CSV point sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="distance between two CSV point sets")
    compute.add_argument("--u", required=True, help="CSV of source observations")
    compute.add_argument("--v", required=True, help="CSV of target observations")
    compute.add_argument("--u-weights", default=None, help="CSV of source weights, one per row")
    compute.add_argument("--v-weights", default=None, help="CSV of target weights, one per row")
    compute.add_argument("--plan", default=None, metavar="OUT.json",
                         help="also compute the transport plan and write it here")
    compute.add_argument("--format", choices=["json", "text"], default="json")
    compute.add_argument("--header", action="store_true", help="skip the first row of every CSV")
    compute.set_defaults(func=_cmd_compute)

    bench = sub.add_parser("bench", help="timing benchmark over power-of-two sizes")
    bench.add_argument("--min-exp", type=_non_negative, default=0, help="smallest size exponent")
    bench.add_argument("--max-exp", type=_non_negative, default=9, help="largest size exponent")
    bench.add_argument("--repeats", type=_non_negative, default=100, help="trials per size")
    bench.add_argument("--dim", type=_non_negative, default=2, help="coordinate dimension")
    bench.add_argument("--seed", type=int, default=0, help="random generator seed")
    bench.add_argument("--out", default="bench.csv", help="per-trial CSV output path")
    bench.add_argument("--summary", default=None,
                       help="summary CSV path (default: <out>_summary.csv)")
    bench.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, SolverError, OSError, _CsvError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ValidationError):
            return EXIT_VALIDATION
        return EXIT_SOLVER if isinstance(exc, SolverError) else EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
