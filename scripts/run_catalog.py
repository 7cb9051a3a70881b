"""Sweep every catalog group through every suite and tabulate the verdicts.

The rep column runs each group's catalog representation (standard on
gl:n, matrix on affine) and shows `-` for a group without one.

Usage: python scripts/run_catalog.py [--samples N] [--seed S] [--json-dir DIR]
"""

import argparse
import sys
import time
from pathlib import Path

from liechart.catalog import GROUP_NAMES
from liechart.cli import positive_int
from liechart.numdiff import DiffConfig
from liechart.suites import SUITES, run_suite


def catalog_rep(group: str) -> str | None:
    """The representation the rep column runs: standard on gl:n, matrix on affine."""
    if group == "affine":
        return "matrix"
    return "standard" if group.startswith("gl:") else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=positive_int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--json-dir", type=Path, default=None,
                        help="also write one report file per (group, suite)")
    args = parser.parse_args()

    if args.json_dir is not None:
        try:
            args.json_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"error: cannot use --json-dir {args.json_dir}: {exc}", file=sys.stderr)
            return 2
    cfg = DiffConfig(sample_count=args.samples, rng_seed=args.seed)
    width = max(len(g) for g in GROUP_NAMES)

    print(f"{'group':<{width}}  " + "  ".join(f"{s:>9}" for s in SUITES))
    failures = runs = 0
    t0 = time.perf_counter()
    for group in GROUP_NAMES:
        cells = []
        for suite in SUITES:
            rep = catalog_rep(group) if suite == "rep" else None
            if suite == "rep" and rep is None:
                cells.append("-")
                continue
            report = run_suite(group, suite, cfg, rep_name=rep)
            runs += 1
            n_fail = sum(not c.passed for c in report.checks)
            failures += n_fail
            cells.append(f"{len(report.checks) - n_fail}/{len(report.checks)}")
            if args.json_dir is not None:
                report.write_json(args.json_dir / f"{group.replace(':', '_')}_{suite}.json")
        print(f"{group:<{width}}  " + "  ".join(f"{c:>9}" for c in cells))
    elapsed = time.perf_counter() - t0

    print(f"\n{runs} runs in {elapsed:.1f} s, "
          f"{failures} failed checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
