"""Named check suites over catalog entries, shared by the CLI and tests.

Each suite is a generator over (chart, rep, cfg, generators), rep None
unless one is named, that yields (check_id, samples, residual) triples in
report order; `run_suite` alone turns them into verdicts against
`group.TOLERANCES`.  `generators` is `structure.group_generators`, which
`run_suite` caches for one run, so `all` measures the tensor once.
"""

from __future__ import annotations

import functools
from typing import Callable

from . import catalog, flows, pde, reps, structure
from .errors import UnknownEntry
from .group import (
    TOLERANCES,  # noqa: F401  re-exported for callers of the suites
    Checks,
    GroupChart,
    axiom_checks,
    check_rng,
    maxabs,
    named,
    record,
    shift_checks,
    worst_over_samples,
)
from .numdiff import DiffConfig, rowwise
from .report import CheckReport
from .reps import RepChart

Generators = Callable[[GroupChart, DiffConfig], structure.GroupGenerators]


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
    n = cfg.sample_count

    if chart.n >= 3:
        yield "jacobi_left", 1, structure.jacobi_residual(c_left)
    yield "anti_isomorphism_measured", 1, worst_over_samples(
        chart, cfg, "anti_isomorphism_measured", rowwise(lambda pt: maxabs(
            structure.structure_constants_at_point(chart, pt, "right", cfg)
            + structure.structure_constants_at_point(chart, pt, "left", cfg))), count=1)

    for consts in (c_left, c_right):
        flavor = consts.flavor
        yield f"constancy_{flavor}", structure.CONSTANCY_POINTS, structure.constancy_residual(
            chart, consts, cfg)
        yield f"maurer_{flavor}", n, structure.maurer_residual(chart, consts, cfg)
        yield f"field_commutators_{flavor}", n, structure.invariant_field_commutators(
            chart, consts, cfg)


def flows_suite(chart: GroupChart, rep: RepChart | None, cfg: DiffConfig,
                generators: Generators) -> Checks:
    rng = check_rng(cfg, "flow_direction")
    alpha = rng.uniform(-0.2, 0.2, chart.n)

    for check_id, flavor in (("flow_homomorphism", "right"), ("flow_homomorphism_left", "left")):
        with named(check_id):
            flow = flows.one_param_subgroup(chart, alpha, 1.0, flavor=flavor, cfg=cfg)
            residual = flows.homomorphism_residual(chart, flow)
        yield check_id, len(flows.homomorphism_pairs(flow)), residual
    if chart.n == 1:
        yield "canonical_additivity", cfg.sample_count, flows.additivity_residual(chart, cfg)


def rep_suite(chart: GroupChart, rep: RepChart | None, cfg: DiffConfig,
              generators: Generators) -> Checks:
    # without a named representation the suite has no rows
    if rep is None:
        return
    gens = reps.rep_generators(rep, cfg)
    n = cfg.sample_count

    axioms = reps.rep_axiom_residuals(rep, cfg)
    yield "rep_identity", 1, axioms["rep_identity"]
    yield "rep_homomorphism", n, axioms["rep_homomorphism"]
    yield "rep_inverse", n, axioms["rep_inverse"]
    yield "rep_pde_map", n, reps.rep_pde_residual(rep, gens, cfg)
    # one generator commutes with itself, so at n = 1 this row reads 0.0
    if chart.n > 1:
        c_left = structure.structure_constants(generators(chart, cfg), "left")
        yield "rep_integrability", 1, reps.integrability_check(gens, c_left, rep.side)
    yield "rep_mixed_identity", n, reps.mixed_identity_residual(rep, gens, cfg)
    yield ("generator_transform_constancy", reps.GENERATOR_TRANSFORM_POINTS,
           reps.generator_transform_residual(rep, gens, cfg))


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
    rep_name = rep_name if "rep" in names else None
    report = CheckReport(suite=suite, group=group_name, rep=rep_name,
                         seed=cfg.rng_seed, fd_step=cfg.base_step)
    generators = functools.cache(structure.group_generators)
    for name in names:
        report.extend(record(check_id, residual, samples, tol_scale)
                      for check_id, samples, residual in SUITES[name](chart, rep, cfg, generators))
    return report
