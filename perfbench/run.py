"""liechart benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; liechart is imported from `src/`.
Everything runs in this process on one thread, apart from the set-up
measurement, which starts fresh interpreters one at a time.

With `--trace 0` the run measures set-up time in fresh interpreters, runs
the first command in process, runs one reference pass, then repeats
timed passes for about S seconds and reports the `end_to_end` metrics of
BENCHMARK.json, its times rescaled to a reference host speed (speed.py).  With `--trace 1` it traces the first command, times
untraced passes for about S/2 seconds, traces one more pass and reports
the `per_layer` metrics.  Either way it checks the outputs (see
`bench.Run.gate`), prints a summary, and prints one JSON result as its
last line.  It exits 0 when every check passed, 1 when an output was
wrong, and 2 when it cannot run at all.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "liechart" / "__init__.py").is_file():
        return _fail(f"no liechart sources under {SRC}")
    if not SPEC.is_file():
        return _fail(f"missing {SPEC}")
    spec = json.loads(SPEC.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return _fail(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds <= 0:
        return _fail("--seed must be non-negative and --seconds positive")
    sys.path.insert(0, str(SRC))

    import bench

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        result = bench.Run(args.workload, args.seed, args.seconds, Path(tmp)).execute(
            traced=bool(args.trace))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in declared:
        if m["name"] not in result.metrics:
            return _fail(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": result.metrics[m["name"]], "unit": m["unit"]}

    for line in result.summary:
        print(line)
    for problem in result.problems:
        print(f"FAILED: {problem}")
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = not result.problems and result.failed == 0
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
