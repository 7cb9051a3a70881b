"""The benchmark's workloads: what one pass runs and how its output is checked.

A pass runs a fixed list of units at one seed.  A unit is one user-level
command and returns the JSON text of the report it produced; the seed
reaches liechart only through `DiffConfig.rng_seed` or `--seed`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from liechart import catalog, cli, group, structure, suites
from liechart.errors import LieChartError, UnknownEntry
from liechart.numdiff import DiffConfig

# the structure constants of every catalog law are integers, and the
# generator stencil is exact on bilinear laws up to roundoff
C_LEFT_TOL = 1e-6
# Newton stops at a residual of 1e-12 in compose(a, x) = e, and the
# shift Jacobian is well conditioned within the sample radius
NEWTON_INVERSE_TOL = 1e-10

NEWTON_GROUPS = ("affine", "gl:2")

CLI_GROUPS = ("translation:1", "translation:2", "translation:3", "multiplicative",
              "affine", "gl:1", "gl:2")
CLI_SUITES = ("shift", "structure", "flows", "rep", "pde")


@dataclass
class Unit:
    name: str
    run: Callable[[int], str]          # seed -> report JSON text
    # the same reports by another route (run_suite for a CLI unit) for
    # the untimed reference pass; None runs `run` there too
    reference: Callable[[int], str] | None = None


@dataclass
class PassResult:
    seed: int
    times: list[float]
    reports: list[str | None]          # None where the unit broke down
    errors: list[str]
    evals: int
    wall_s: float
    spans: list[tuple[float, float]] = field(default_factory=list)  # (start, end) per unit

    def checks(self) -> tuple[int, int, float]:
        """(attempted, failed, worst residual/tolerance) over this pass.

        A unit that raised a breakdown counts as one failed check.
        """
        attempted = failed = 0
        worst = 0.0
        for text in self.reports:
            if text is None:
                attempted += 1
                failed += 1
                continue
            rep = json.loads(text)
            for c in rep["checks"]:
                attempted += 1
                failed += not c["pass"]
                worst = max(worst, c["max_residual"] / rep["tol"][c["id"]])
        return attempted, failed, worst


@dataclass
class Workload:
    name: str
    units: list[Unit]
    oracle_groups: tuple[str, ...]     # catalog groups whose c_left is checked
    # charts the workload builds itself, by the catalog group whose
    # oracle inverse their Newton inverse is checked against
    charts: dict[str, group.GroupChart] = field(default_factory=dict)


def run_pass(workload: Workload, seed: int, counter, reference: bool = False) -> PassResult:
    clock = time.perf_counter
    spans, reports, errors = [], [], []
    evals0 = counter.evals
    start = clock()
    for unit in workload.units:
        fn = unit.reference if reference and unit.reference else unit.run
        t0 = clock()
        try:
            text = fn(seed)
        except LieChartError as exc:
            if isinstance(exc, UnknownEntry):
                raise
            text = None
            errors.append(f"{unit.name}: {type(exc).__name__}: {exc}")
        spans.append((t0, clock()))
        reports.append(text)
    times = [t1 - t0 for t0, t1 in spans]
    return PassResult(seed, times, reports, errors, counter.evals - evals0, clock() - start,
                      spans)


# --- the workloads ----------------------------------------------------


def suite_unit(group_name: str, suite: str, rep: str | None = None) -> Callable[[int], str]:
    def run(seed: int) -> str:
        cfg = DiffConfig(rng_seed=seed)
        return suites.run_suite(group_name, suite, cfg, rep_name=rep).to_json()

    return run


def _cli_rep(group_name: str, suite: str) -> str | None:
    if suite != "rep":
        return None
    if group_name == "affine":
        return "matrix"
    if group_name.startswith("gl:"):
        return "standard"
    return None


class _CliBreakdown(LieChartError):
    """`liechart run` exited 3: a numerical breakdown while checking."""


def _cli_unit(group_name: str, suite: str, rep: str | None, out: Path) -> Callable[[int], str]:
    argv = ["run", "--group", group_name, "--suite", suite, "--json", str(out)]
    if rep is not None:
        argv += ["--rep", rep]

    def run(seed: int) -> str:
        console = io.StringIO()
        with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
            code = cli.main(argv + ["--seed", str(seed)])
        if code == 3:
            raise _CliBreakdown(console.getvalue().strip())
        if code not in (0, 1):
            raise RuntimeError(f"liechart run {' '.join(argv)} exited {code}")
        return out.read_text()

    return run


def structure_gl3(workdir: Path) -> Workload:
    return Workload(
        name="structure_gl3",
        units=[Unit("gl:3/structure", suite_unit("gl:3", "structure"))],
        oracle_groups=("gl:3",),
    )


def cli_sweep(workdir: Path) -> Workload:
    out = workdir / "report.json"
    units = []
    for suite in CLI_SUITES:
        for g in CLI_GROUPS:
            rep = _cli_rep(g, suite)
            units.append(Unit(f"{g}/{suite}", _cli_unit(g, suite, rep, out),
                              suite_unit(g, suite, rep)))
    return Workload(name="cli_sweep", units=units, oracle_groups=CLI_GROUPS)


def hint_free(name: str) -> group.GroupChart:
    """A user's own copy of a catalog law: with no inverse hint, every
    inverse and every sampled point goes through the damped Newton solve."""
    chart = catalog.get_group(name)
    return dataclasses.replace(chart, compose=getattr(chart.compose, "__wrapped__", chart.compose),
                               inverse_hint=None, name=f"{name}-newton")


def chart_unit(check, chart: group.GroupChart) -> Callable[[int], str]:
    def run(seed: int) -> str:
        return check(chart, DiffConfig(rng_seed=seed)).to_json()

    return run


def custom_newton(workdir: Path) -> Workload:
    charts = {g: hint_free(g) for g in NEWTON_GROUPS}
    units = [Unit(f"{c.name}/{check.__name__}", chart_unit(check, c))
             for c in charts.values()
             for check in (group.check_chart_axioms, group.verify_shift_identities)]
    return Workload(name="custom_newton", units=units, oracle_groups=(), charts=charts)


BUILDERS = {"structure_gl3": structure_gl3, "cli_sweep": cli_sweep,
            "custom_newton": custom_newton}


# --- output checks outside the timed passes ---------------------------------


def oracle_problems(workload: Workload, seed: int) -> list[str]:
    """Structure constants measured from the law, and inverses found by
    Newton, against the catalog oracles."""
    cfg = DiffConfig(rng_seed=seed)
    problems = []
    for name in workload.oracle_groups:
        gens = structure.group_generators(catalog.get_group(name), cfg)
        measured = structure.structure_constants(gens, "left").c
        err = float(np.max(np.abs(measured - catalog.get_oracles(name).c_left)))
        if not err <= C_LEFT_TOL:
            problems.append(f"{name}: c_left differs from the oracle by {err:.3e}")
    for name, chart in workload.charts.items():
        oracle = catalog.get_oracles(name).inverse
        pts = group.sample_points(chart, cfg, group.check_rng(cfg, "newton_vs_oracle"))
        err = max(float(np.max(np.abs(group.inverse(chart, a, cfg) - oracle(a)))) for a in pts)
        if not err <= NEWTON_INVERSE_TOL:
            problems.append(f"{chart.name}: Newton inverse differs from the oracle by {err:.3e}")
    return problems
