"""Tests of the benchmark itself: counts, tracer, gate and seed handling.

    PYTHONPATH=src python3 -m pytest -q perfbench

They run whole workload passes, so they take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from liechart.errors import NoConvergence  # noqa: E402

# composition-law evaluations of one pass at seed 42, measured on the
# seed commit of the benchmark
SEED_EVALS = {"structure_gl3": 1_006_708, "cli_sweep": 599_998,
              "custom_newton": 25_994 + 62_496}
HELD_OUT_SEED = 2026


def verdicts(p: workloads.PassResult) -> list[list[tuple[str, bool]]]:
    return [[(c["id"], c["pass"]) for c in json.loads(text)["checks"]] for text in p.reports]


@pytest.mark.parametrize("name", workloads.BUILDERS)
def test_counts_repeat_and_held_out_seed_keeps_verdicts(name, tmp_path):
    run = bench.Run(name, 42, 1.0, tmp_path)
    ref = workloads.run_pass(run.workload, 42, run.counter, reference=True)
    again = workloads.run_pass(run.workload, 42, run.counter)
    assert ref.evals == again.evals == SEED_EVALS[name]
    assert ref.reports == again.reports     # cli output == run_suite output, byte for byte
    held_out = workloads.run_pass(run.workload, HELD_OUT_SEED, run.counter)
    assert verdicts(held_out) == verdicts(ref)
    assert all(ok for unit in verdicts(ref) for _, ok in unit)


def test_traced_pass_counts_and_reports_match_untraced(tmp_path):
    run = bench.Run("structure_gl3", 42, 1.0, tmp_path)
    unit = workloads.Unit("affine/shift", workloads.suite_unit("affine", "shift"))
    small = workloads.Workload("affine_shift", [unit], ("affine",))
    plain = workloads.run_pass(small, 42, run.counter)
    tracer = tracing.Tracer(run.counter)
    with tracer.installed(run.charts):
        traced = workloads.run_pass(small, 42, run.counter)
    assert traced.evals == plain.evals
    assert traced.reports == plain.reports
    assert tracer.stats["compose"].calls == plain.evals
    assert tracer.edges[("group.sample_points", "group.inverse")] > 0
    assert tracer.stats["group.psi_flavored"].calls > 0
    # tracing is removed again on exit
    again = workloads.run_pass(small, 42, run.counter)
    assert again.evals == plain.evals
    assert all(c.compose.__qualname__.endswith("counted") for c in run.charts)


def test_reentrant_span_self_and_total_time(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: now[0])
    counter = tracing.EvalCounter()
    tracer = tracing.Tracer(counter)

    def work(depth):
        now[0] += 1.0
        counter.evals += 10
        if depth:
            outer(depth - 1)
        now[0] += 2.0

    outer = tracer.span("f", work)
    outer(2)                      # three nested calls of 3 s each
    st = tracer.stats["f"]
    assert st.calls == 3
    assert st.self_s == pytest.approx(9.0)
    assert st.total_s == pytest.approx(9.0)        # the outermost span only
    assert st.compose_evals == 30


def test_batched_compose_counts_rows():
    counter = tracing.EvalCounter()
    law = counter.wrap(lambda a, b: a + b)
    law(np.zeros(2), np.zeros(2))
    law(np.zeros((5, 2)), np.zeros(2))
    law(np.zeros((3, 1, 2)), np.zeros((4, 2)))
    assert counter.evals == 1 + 5 + 12


def test_gate_flags_a_seed_whose_reports_or_count_change(tmp_path):
    run = bench.Run("structure_gl3", 42, 1.0, tmp_path)
    text = '{"tol": {"a": 1.0}, "checks": [{"id": "a", "max_residual": 0.5, "pass": true}]}'
    run.gate(workloads.PassResult(42, [1.0], [text], [], 10, 1.0))
    assert run.result.problems == []
    run.gate(workloads.PassResult(42, [1.0], [text.replace("0.5", "0.25")], [], 11, 1.0))
    assert len(run.result.problems) == 2


def test_breakdown_counts_as_failed_check_without_crashing():
    def breaks(seed):
        raise NoConvergence("no damping step improved the residual")

    w = workloads.Workload("broken", [workloads.Unit("u", breaks)], ())
    p = workloads.run_pass(w, 42, tracing.EvalCounter())
    assert p.reports == [None]
    assert p.checks()[:2] == (1, 1)
    assert "NoConvergence" in p.errors[0]


def test_speed_probe_removes_its_own_time_and_rescales():
    probe = speed.SpeedProbe(window_s=0.5)
    ref = speed.REFERENCE_KERNEL_S
    # the host runs the kernel at half the reference speed throughout
    probe.starts = [0.1 * k for k in range(40)]
    probe.durations = [2 * ref] * 40
    # 1 s interval holding 10 samples: 1 - 20 ref of program time, twice as slow
    assert probe.normalise(1.0, 2.0) == pytest.approx((1.0 - 20 * ref) / 2)
    assert probe.mean_slowdown() == pytest.approx(2.0)


def test_speed_probe_samples_on_the_timer_and_stops():
    probe = speed.SpeedProbe(interval_s=0.01)
    with probe.running():
        t0 = speed.clock()
        while speed.clock() - t0 < 0.2:
            sum(range(1000))
    taken = len(probe.durations)
    assert taken >= 5
    t1 = speed.clock()
    while speed.clock() - t1 < 0.05:
        pass
    assert len(probe.durations) == taken
    assert 0 < probe.probe_time(t0, t1) < t1 - t0
    assert probe.normalise(t0, t1) > 0


def test_command_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(spec["command"] + ["--workload", "cli_sweep", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
