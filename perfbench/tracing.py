"""Evaluation counting and per-layer spans, installed from outside liechart.

Nothing here edits the package source.  `EvalCounter` wraps the `compose`
attribute of the chart objects a workload hands to liechart, so every
composition-law evaluation is counted.  `Tracer` temporarily rebinds the
public functions named in `SPANS` in every liechart module that holds
them (several modules bind `jacobian` with `from .numdiff import`), and
aggregates one span per call: calls, self time, inclusive time and
inclusive evaluations per layer name.
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# layer name -> (module, function name); each is rebound wherever bound
SPANS = {
    "numdiff.jacobian": ("liechart.numdiff", "jacobian"),
    "numdiff.mixed_second": ("liechart.numdiff", "mixed_second"),
    "numdiff.invert": ("liechart.numdiff", "invert"),
    "group.inverse": ("liechart.group", "inverse"),
    "group.sample_points": ("liechart.group", "sample_points"),
    "group.psi_flavored": ("liechart.group", "psi_flavored"),
    "structure.group_generators": ("liechart.structure", "group_generators"),
    "structure.constancy_residual": ("liechart.structure", "constancy_residual"),
    "structure.maurer_residual": ("liechart.structure", "maurer_residual"),
    "structure.invariant_field_commutators":
        ("liechart.structure", "invariant_field_commutators"),
    "flows.one_param_subgroup": ("liechart.flows", "one_param_subgroup"),
    "flows.canonical_coordinate": ("liechart.flows", "canonical_coordinate"),
    "cli.main": ("liechart.cli", "main"),
}

# every public function of these modules shares one span named after it
MODULE_SPANS = ("reps", "pde")


def _rows(a, b) -> int:
    """Evaluations in one compose call: one per row of a leading batch axis."""
    if getattr(a, "ndim", 1) <= 1 and getattr(b, "ndim", 1) <= 1:
        return 1
    lead = np.broadcast_shapes(np.shape(a)[:-1], np.shape(b)[:-1])
    return int(np.prod(lead, dtype=np.int64))


class EvalCounter:
    """Running count of composition-law evaluations."""

    def __init__(self) -> None:
        self.evals = 0

    def wrap(self, law):
        def counted(a, b):
            self.evals += _rows(a, b)
            return law(a, b)

        counted.__wrapped__ = law
        return counted

    def attach(self, chart) -> None:
        """Count the chart's law with this counter, replacing any earlier one."""
        chart.compose = self.wrap(getattr(chart.compose, "__wrapped__", chart.compose))


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    compose_evals: int = 0

    def add(self, other: "LayerStats") -> None:
        self.calls += other.calls
        self.self_s += other.self_s
        self.total_s += other.total_s
        self.compose_evals += other.compose_evals


class Tracer:
    """Aggregated spans for one traced stretch of a run.

    A span's self time is its duration minus the durations of its direct
    child spans.  Inclusive time and evaluations are added only for the
    outermost active span of a name, so a reentrant `jacobian` (a
    Jacobian of a field that is itself a Jacobian) is not counted twice.
    """

    def __init__(self, counter: EvalCounter) -> None:
        self.counter = counter
        self.stats: dict[str, LayerStats] = {}
        self.edges: dict[tuple[str | None, str], int] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []        # [name, child seconds]
        self._active: dict[str, int] = {}

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name: str, fn):
        stats = self.stats.setdefault(name, LayerStats())
        clock = time.perf_counter
        counter = self.counter
        stack = self._stack
        active = self._active

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            edge = (parent, name)
            self.edges[edge] = self.edges.get(edge, 0) + 1
            stats.calls += 1
            outermost = not active.get(name)
            active[name] = active.get(name, 0) + 1
            frame = [name, 0.0]
            stack.append(frame)
            evals0 = counter.evals
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                active[name] -= 1
                stats.self_s += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if outermost:
                    stats.total_s += dur
                    stats.compose_evals += counter.evals - evals0

        return traced

    def merged(self, other: "Tracer") -> "Tracer":
        out = Tracer(self.counter)
        for src in (self, other):
            for name, st in src.stats.items():
                out.stats.setdefault(name, LayerStats()).add(st)
            for edge, n in src.edges.items():
                out.edges[edge] = out.edges.get(edge, 0) + n
            for key, n in src.counts.items():
                out.count(key, n)
        return out

    @contextmanager
    def installed(self, charts):
        """Rebind traced functions for the duration of the block."""
        import liechart.report
        import liechart.reps

        patches: list[tuple[object, str, object]] = []

        def patch(obj, attr: str, value) -> None:
            patches.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, value)

        def rebind(orig, wrapper) -> None:
            for mod in _liechart_modules():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        patch(mod, attr, wrapper)

        seen_psi: set = set()
        group = sys.modules["liechart.group"]
        orig_psi = group.psi_flavored
        orig_rng = group.check_rng
        orig_sample = group.sample_points
        rep_call = liechart.reps.RepChart.__call__
        rep_depth = [0]

        def psi_flavored(chart, a, flavor, cfg):
            key = (id(chart), flavor, cfg, np.asarray(a, float).tobytes())
            if key in seen_psi:
                self.count("psi_flavored.repeats")
            else:
                seen_psi.add(key)
            return orig_psi(chart, a, flavor, cfg)

        def check_rng(cfg, check_id):
            seen_psi.clear()      # repeats are counted within one check
            return orig_rng(cfg, check_id)

        def sample_points(*args, **kwargs):
            pts = orig_sample(*args, **kwargs)
            self.count("sample_points.accepted", len(pts))
            return pts

        def rep_evaluate(rep, a):
            # composite representations evaluate their factors; count the
            # evaluation the caller asked for, not the nested ones
            if rep_depth[0] == 0:
                self.count("rep_evals")
            rep_depth[0] += 1
            try:
                return rep_call(rep, a)
            finally:
                rep_depth[0] -= 1

        local = {"group.psi_flavored": psi_flavored, "group.sample_points": sample_points}
        self.count("psi_flavored.repeats", 0)
        try:
            for name, (modname, attr) in SPANS.items():
                orig = getattr(sys.modules[modname], attr)
                rebind(orig, self.span(name, local.get(name, orig)))
            rebind(orig_rng, check_rng)
            for modname in MODULE_SPANS:
                mod = sys.modules[f"liechart.{modname}"]
                for attr, fn in list(vars(mod).items()):
                    if (inspect.isfunction(fn) and not attr.startswith("_")
                            and fn.__module__ == mod.__name__):
                        rebind(fn, self.span(modname, fn))
            report_cls = liechart.report.CheckReport
            patch(report_cls, "to_json", self.span("report.to_json", report_cls.to_json))
            patch(liechart.reps.RepChart, "__call__", rep_evaluate)
            for chart in charts:
                patch(chart, "compose", self.span("compose", chart.compose))
            yield self
        finally:
            for obj, attr, orig in reversed(patches):
                setattr(obj, attr, orig)


def _liechart_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "liechart" or name.startswith("liechart."))]
