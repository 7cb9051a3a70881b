"""Named check suites over catalog entries, shared by the CLI and tests.

Each suite is a generator over (chart, rep, cfg, generators), rep None
unless one is named, that yields (check_id, samples, residual) triples in
report order; `run_suite` hands them to `group.build_report`, which turns
them into verdicts against `group.TOLERANCES`.  `generators` is
`structure.group_generators`, which `run_suite` caches for one run, so
`all` measures the tensor once.
"""

from __future__ import annotations

from functools import cache, partial
from typing import Callable

import numpy as np

from . import catalog, flows, pde, reps, structure
from .errors import LieChartError, UnknownEntry
from .group import (
    Checks,
    GroupChart,
    _opposite,
    axiom_checks,
    build_report,
    check_rng,
    named,
    sampled_checks,
    shift_checks,
)
from .numdiff import DiffConfig
from .report import CheckReport
from .reps import RepChart

Generators = Callable[[GroupChart, DiffConfig], np.ndarray]


def shift_suite(chart: GroupChart, rep: RepChart | None, cfg: DiffConfig,
                generators: Generators) -> Checks:
    yield from axiom_checks(chart, cfg)
    yield from shift_checks(chart, cfg)


def structure_suite(chart: GroupChart, rep: RepChart | None, cfg: DiffConfig,
                    generators: Generators) -> Checks:
    # Rows the dimension fixes at 0.0 are not yielded.  A 1-d algebra is
    # abelian, so its constants and every antisymmetrization read 0.0 for
    # any law; the Jacobiator of antisymmetric constants is an alternating
    # 3-form, which vanishes on a 2-d space.
    if chart.n == 1:
        return
    gens = generators(chart, cfg)
    c_left = structure.structure_constants(gens, "left")
    c_right = structure.structure_constants(gens, "right")
    table = []
    if chart.n >= 3:
        table.append(("jacobi_left", 0, 1, partial(structure.jacobi_residual, c_left)))
    for consts in (c_left, c_right):
        flavor = consts.flavor
        table += [
            (f"maurer_{flavor}", 1, None, partial(structure.maurer_residual, chart, consts, cfg=cfg)),
            (f"field_commutators_{flavor}", 1, None,
             partial(structure.invariant_field_commutators, chart, consts, cfg=cfg)),
        ]
    yield from sampled_checks(chart, cfg, table)


def flows_suite(chart: GroupChart, rep: RepChart | None, cfg: DiffConfig,
                generators: Generators) -> Checks:
    rng = check_rng(cfg, "flow_direction")
    alpha = rng.uniform(-0.2, 0.2, chart.n)

    # both flows are one RK4 stack; a flow that broke down raises at its turn
    stack = flows.one_param_subgroups(chart, alpha, 1.0, ("right", "left"), cfg=cfg)
    for check_id, path in zip(("flow_homomorphism", "flow_homomorphism_left"), stack):
        with named(check_id):
            if isinstance(path, LieChartError):
                raise path
            residual = flows.homomorphism_residual(chart, path)
        yield check_id, len(flows.homomorphism_pairs(path)), residual
    if chart.n == 1:
        yield from sampled_checks(chart, cfg, [
            ("canonical_additivity", 2, None, partial(flows.additivity_residual, chart, cfg=cfg))])


def rep_suite(chart: GroupChart, rep: RepChart | None, cfg: DiffConfig,
              generators: Generators) -> Checks:
    # without a named representation the suite has no rows
    if rep is None:
        return
    if rep.group is not chart and rep.group is not _opposite(chart):
        raise ValueError(f"representation {rep.name!r} of chart {rep.group.name!r} "
                         f"cannot run on chart {chart.name!r}")
    gens = reps.rep_generators(rep, cfg)

    def integrability() -> float:
        t = generators(chart, cfg)      # the opposite group's is t with its lower slots swapped
        t = t if rep.group is chart else t.transpose(0, 2, 1)
        return reps.integrability_check(gens, structure.structure_constants(t, "left"))

    yield from sampled_checks(chart, cfg, [
        ("rep_identity", 0, 1, lambda: rep(chart.identity) - np.eye(rep.m)),
        ("rep_homomorphism", 2, None, partial(reps.rep_homomorphism_residual, rep)),
        ("rep_inverse", 1, None, partial(reps.rep_inverse_residual, rep, cfg=cfg)),
        ("rep_pde_map", 1, None, partial(reps.rep_pde_residual, rep, gens, cfg=cfg)),
        # one generator commutes with itself, so at n = 1 this row reads 0.0
        *([("rep_integrability", 0, 1, integrability)] if chart.n > 1 else []),
        ("rep_mixed_identity", 1, None, partial(reps.mixed_identity_residual, rep, gens, cfg=cfg)),
    ])


def pde_suite(chart: GroupChart, rep: RepChart | None, cfg: DiffConfig,
              generators: Generators) -> Checks:
    fam = pde.group_composition_family(chart)
    with named("essential_count_group_family"):
        count = pde.essential_count(fam, cfg)
    yield "essential_count_group_family", cfg.sample_count, float(abs(count - chart.n))


SUITES = {
    "shift": shift_suite,
    "structure": structure_suite,
    "flows": flows_suite,
    "rep": rep_suite,
    "pde": pde_suite,
}
SUITE_NAMES = (*SUITES, "all")


def run_suite(group_name: str, suite: str, cfg: DiffConfig,
              rep_name: str | None = None, tol_scale: float = 1.0) -> CheckReport:
    """Assemble one CheckReport for a named suite over a catalog group."""
    if suite not in SUITE_NAMES:
        raise UnknownEntry(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}")
    names = list(SUITES) if suite == "all" else [suite]
    # look every entry up before any work, so an unknown name costs nothing,
    # whatever the suite; only a suite that takes a representation names it
    chart = catalog.get_group(group_name)
    rep = catalog.get_rep(group_name, rep_name) if rep_name is not None else None
    generators = cache(structure.group_generators)
    checks = (row for name in names for row in SUITES[name](chart, rep, cfg, generators))
    return build_report(suite, chart, cfg, checks, tol_scale,
                        rep_name if "rep" in names else None)
