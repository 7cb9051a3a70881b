"""Command-line entry point: run check suites and emit reports.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 unknown
group/representation/suite or a --json path that cannot be written or is
the file stdout is redirected to, 3 numerical breakdown while checking.
"""

from __future__ import annotations

import argparse
import math
import os
import stat
import sys
import time
from functools import cache
from pathlib import Path

from .errors import BREAKDOWN, UnknownEntry
from .numdiff import CBRT_EPS, DiffConfig
from .suites import SUITE_NAMES, run_suite


def _fd_step(text: str) -> float:
    if text == "auto":
        return CBRT_EPS
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--fd-step takes 'auto' or a real, got {text!r}")
    if not (0.0 < value < 1.0):
        raise argparse.ArgumentTypeError("--fd-step must lie in (0, 1)")
    return value


def positive_int(text: str) -> int:
    """argparse type for a count of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _positive_real(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive real, got {text!r}")
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


def _json_path_problem(path: Path) -> str | None:
    """Why a report cannot be written to path, checked before any work is done."""
    if path.is_dir():
        return f"--json path {path} is a directory"
    if not path.parent.is_dir():
        return f"--json directory {path.parent} does not exist"
    try:    # a stdout with no file descriptor, such as an io.StringIO, is no file
        out = os.fstat(sys.stdout.fileno())
        same = stat.S_ISREG(out.st_mode) and os.path.samestat(out, path.stat())
    except (AttributeError, OSError, ValueError):
        same = False
    # the report and the console lines would overwrite each other there
    return f"--json path {path} is the file stdout is redirected to" if same else None


@cache
def build_parser() -> argparse.ArgumentParser:
    """The `liechart` parser, built once per process: parse_args keeps no state."""
    parser = argparse.ArgumentParser(
        prog="liechart",
        description="Numeric checks of Lie group composition-law identities.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a check suite against a catalog group")
    run.add_argument("--group", required=True,
                     help="catalog group, e.g. translation:2, affine, gl:2")
    run.add_argument("--rep", default=None,
                     help="representation for the rep suite, e.g. standard; "
                          "without it the rep suite has no rows")
    run.add_argument("--suite", default="all", help=f"one of {', '.join(SUITE_NAMES)}")
    run.add_argument("--seed", type=int, default=DiffConfig.rng_seed)
    run.add_argument("--samples", type=positive_int, default=DiffConfig.sample_count)
    run.add_argument("--fd-step", type=_fd_step, default="auto",
                     help="finite-difference base step; 'auto' picks cbrt(eps)")
    run.add_argument("--tol-scale", type=_positive_real, default=1.0,
                     help="multiplies every default tolerance")
    run.add_argument("--json", type=Path, default=None,
                     help="write the report to this path as deterministic JSON")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = DiffConfig(base_step=args.fd_step, sample_count=args.samples,
                     rng_seed=args.seed)
    problem = _json_path_problem(args.json) if args.json is not None else None
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        report = run_suite(args.group, args.suite, cfg,
                           rep_name=args.rep, tol_scale=args.tol_scale)
    except UnknownEntry as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BREAKDOWN as exc:
        print(f"numerical breakdown: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    report.wall_time_ms = (time.perf_counter() - start) * 1000.0

    print(f"suite={report.suite} group={report.group}"
          + (f" rep={report.rep}" if report.rep else "")
          + f" seed={report.seed} samples={cfg.sample_count}")
    print(report.table())
    if args.json is not None:
        try:
            report.write_json(args.json)
        except OSError as exc:
            print(f"error: cannot write {args.json}: {exc}", file=sys.stderr)
            return 2
        print(f"report written to {args.json}")
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
