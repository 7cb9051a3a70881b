"""One benchmark run: set-up, reference pass, timed passes, gates, metrics."""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from liechart import catalog, cli

import workloads
from speed import SpeedProbe
from tracing import EvalCounter, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYERS = Path(__file__).resolve().with_name("layers.json")

# the first command of a session: small, but it reaches every module
FIRST_COMMAND = ["run", "--group", "translation:1", "--suite", "all"]
SETUP_RUNS = 3
MIN_PASSES = 2


@dataclass
class Result:
    metrics: dict[str, float] = field(default_factory=dict)
    summary: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def measure_setup(workdir: Path) -> tuple[list[float], list[float], list[str]]:
    """Wall times of the first command, each in a fresh interpreter.

    Returns the raw times, the same times at the reference host speed
    (probed just before and after each run, while this process is idle
    during it) and any problems.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "liechart.cli", *FIRST_COMMAND,
            "--json", str(workdir / "setup.json")]
    times, normalised, problems = [], [], []
    for _ in range(SETUP_RUNS):
        probe = SpeedProbe()
        probe.burst()
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        t1 = time.perf_counter()
        probe.burst()
        times.append(t1 - t0)
        normalised.append((t1 - t0) / probe.mean_slowdown())
        if proc.returncode != 0:
            problems.append(f"set-up command exited {proc.returncode}: {proc.stderr[-500:]}")
    return times, normalised, problems


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, workdir: Path) -> None:
        self.counter = EvalCounter()
        self.workload = workloads.BUILDERS[workload](workdir)
        self.charts = ([catalog.get_group(g) for g in catalog.GROUP_NAMES]
                       + list(self.workload.charts.values()))
        for chart in self.charts:
            self.counter.attach(chart)
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.result = Result()
        self._first: workloads.PassResult | None = None

    # --- gate ---------------------------------------------------------------

    def problem(self, msg: str) -> None:
        self.result.problems.append(msg)

    def gate(self, p: workloads.PassResult) -> None:
        """Every check passes, and each pass repeats the first one's bytes and count."""
        attempted, failed, _ = p.checks()
        self.result.attempted += attempted
        self.result.failed += failed
        for err in p.errors:
            self.problem(f"breakdown: {err}")
        if failed:
            self.problem(f"{failed} of {attempted} checks failed")
        first = self._first = self._first or p
        if p.reports != first.reports:
            bad = [u.name for u, a, b in zip(self.workload.units, first.reports, p.reports)
                   if a != b]
            self.problem(f"reports differ between passes at one seed: {bad}")
        if p.evals != first.evals:
            self.problem(f"compose_evals {p.evals} != {first.evals} at one seed")

    def first_command(self) -> None:
        console = io.StringIO()
        argv = FIRST_COMMAND + ["--json", str(self.workdir / "first.json")]
        with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
            code = cli.main(argv)
        if code != 0:
            self.problem(f"first command exited {code}: {console.getvalue()[-500:]}")

    def timed_passes(self, budget_s: float, min_passes: int,
                     probe: SpeedProbe | None = None) -> list[workloads.PassResult]:
        passes = []
        start = time.perf_counter()
        while True:
            gc.collect()
            with probe.running() if probe else contextlib.nullcontext():
                p = workloads.run_pass(self.workload, self.seed, self.counter)
            self.gate(p)
            passes.append(p)
            elapsed = time.perf_counter() - start
            # stop when one more pass would overshoot the budget by more
            # than stopping now falls short of it
            typical = statistics.median(q.wall_s for q in passes)
            if len(passes) >= min_passes and elapsed + typical / 2 > budget_s:
                return passes

    # --- the two modes --------------------------------------------------------

    def execute(self, traced: bool) -> Result:
        res = self.result
        if traced:
            setup_tracer = Tracer(self.counter)
            with setup_tracer.installed(self.charts):
                self.first_command()
        else:
            setup_times, setup_norm, problems = measure_setup(self.workdir)
            for msg in problems:
                self.problem(msg)
            self.first_command()
        # untimed: warms the workload's own code paths, which the first
        # command does not reach, and is what later passes must reproduce
        self.gate(workloads.run_pass(self.workload, self.seed, self.counter, reference=True))
        for msg in workloads.oracle_problems(self.workload, self.seed):
            self.problem(msg)

        if traced:
            passes = self.timed_passes(self.seconds / 2, 1)
            pass_tracer = Tracer(self.counter)
            gc.collect()
            with pass_tracer.installed(self.charts):
                traced_pass = workloads.run_pass(self.workload, self.seed, self.counter)
            self.gate(traced_pass)
            untraced = statistics.median(p.wall_s for p in passes)
            self.layer_metrics(setup_tracer.merged(pass_tracer), pass_tracer,
                               traced_pass, untraced)
        else:
            probe = SpeedProbe()
            passes = self.timed_passes(self.seconds, MIN_PASSES, probe)
            self.end_to_end_metrics(setup_times, setup_norm, passes, probe)
        res.summary.insert(0, f"workload {self.workload.name}: {len(passes)} timed passes, "
                              f"{res.attempted} checks, {res.failed} failed")
        return res

    def end_to_end_metrics(self, setup_times, setup_norm, passes, probe) -> None:
        """Times are at the reference host speed (see speed.py); the raw ones go
        to the summary."""
        per_pass = [[probe.normalise(t0, t1) for t0, t1 in p.spans] for p in passes]
        # each command's median over the passes, then quantiles across the
        # commands: a pooled quantile of a few distinct commands falls
        # between two of them and takes the extremes of their repeats
        units = [statistics.median(ts) for ts in zip(*per_pass)]
        q = (statistics.quantiles(units, n=10, method="inclusive") if len(units) > 1
             else units * 9)
        m = self.result.metrics
        m["setup_s"] = statistics.median(setup_norm)
        m["wall_s"] = statistics.median(sum(ts) for ts in per_pass)
        m["unit_ms_p50"] = q[4] * 1000.0
        m["unit_ms_p90"] = q[8] * 1000.0
        m["compose_evals"] = self._first.evals
        m["worst_margin"] = self._first.checks()[2]
        m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        slowdown = [probe.slowdown(p.spans[0][0], p.spans[-1][1]) for p in passes]
        self.result.summary += [
            f"set-up runs {len(setup_times)}: "
            + ", ".join(f"{t:.3f}" for t in setup_times) + " s raw",
            "raw pass wall times: " + ", ".join(f"{p.wall_s:.3f}" for p in passes) + " s",
            "host slowdown per pass: " + ", ".join(f"{x:.3f}" for x in slowdown),
            f"unit latency: median of {len(passes)} passes for each of {len(units)} commands",
        ] + [f"  {k} = {v}" for k, v in m.items()]

    def layer_metrics(self, tracer: Tracer, pass_tracer: Tracer, traced_pass,
                      untraced_s: float) -> None:
        m = self.result.metrics
        for name, st in tracer.stats.items():
            m[f"{name}.calls"] = st.calls
            m[f"{name}.self_s"] = st.self_s
            m[f"{name}.total_s"] = st.total_s
            m[f"{name}.compose_evals"] = st.compose_evals
        attempts = tracer.edges.get(("group.sample_points", "group.inverse"), 0)
        m["group.sample_points.accept_ratio"] = (
            tracer.counts.get("sample_points.accepted", 0) / attempts if attempts else 1.0)
        psi_calls = tracer.stats["group.psi_flavored"].calls
        m["group.psi_flavored.repeat_frac"] = (
            tracer.counts["psi_flavored.repeats"] / psi_calls if psi_calls else 0.0)
        m["reps.rep_evals"] = tracer.counts.get("rep_evals", 0)
        m["trace.overhead_s"] = traced_pass.wall_s - untraced_s
        m["trace.compose_evals"] = traced_pass.evals

        layer = json.loads(LAYERS.read_text())["predicted_dominant_layer"][self.workload.name]
        share = pass_tracer.stats[layer].total_s / traced_pass.wall_s
        m["trace.predicted_layer_share"] = share
        held = "held" if share >= 0.5 else "did NOT hold"
        self.result.summary += [
            f"traced pass {traced_pass.wall_s:.3f} s vs untraced {untraced_s:.3f} s; "
            f"compose_evals {traced_pass.evals}",
            f"prediction: {layer} dominates the pass ({share:.1%} of its time): {held}",
        ] + [f"  {k} = {v}" for k, v in sorted(m.items())]
