"""Repeat the benchmark over seeds and summarise the spread of each metric.

    python3 perfbench/collect.py --workloads structure_gl3 cli_sweep \
        --seeds 1 2 3 4 5 [--trace] [--out summary.json]

Runs `perfbench/run.py` once per (workload, seed) with the `run_seconds`
of BENCHMARK.json, one run at a time, and prints for every metric its
median, quartiles and the spread (third minus first quartile, as a share
of the median) that the benchmark's bounds are compared against.  With
--trace it also makes one traced run per workload, at the first seed, and
reports whether the dominant layer predicted in layers.json held (its
inclusive time is at least half of the traced pass).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    """The run's result line and the run's own wall time, set-up included."""
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text())
    predicted = layers["predicted_dominant_layer"]

    summary = {"machine": f"{os.cpu_count()} CPUs ({platform.machine()}), "
                          f"Python {platform.python_version()}",
               "run_seconds": spec["run_seconds"], "workloads": {}}
    for w in args.workloads:
        runs, run_s = zip(*(run_once(w, s, spec["run_seconds"], 0) for s in args.seeds))
        entry = {"seeds": args.seeds, "run_s": list(run_s), "end_to_end": {}}
        for name in bounds:
            entry["end_to_end"][name] = spread([r["metrics"][name]["value"] for r in runs])
        if args.trace:
            traced, entry["traced_run_s"] = run_once(w, args.seeds[0], spec["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            share = entry["per_layer"]["trace.predicted_layer_share"]
            entry["prediction"] = {"layer": predicted[w], "share": share, "held": share >= 0.5}
            print(f"{w:14s} prediction {predicted[w]}: {share:.1%} of the traced pass, "
                  f"{'held' if share >= 0.5 else 'did not hold'}", flush=True)
        summary["workloads"][w] = entry
        print(f"{w:14s} one run takes {statistics.median(run_s):.1f} s (median, set-up included)",
              flush=True)
        for name, s in entry["end_to_end"].items():
            flag = "" if s["spread"] <= bounds[name] / 3 or name == "setup_s" else "  <-- wide"
            print(f"{w:14s} {name:14s} median {s['median']:<14.6g} "
                  f"spread {s['spread']:.4f} (bound {bounds[name]}){flag}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n")


if __name__ == "__main__":
    main()
