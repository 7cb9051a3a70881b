"""Named check suites over catalog entries, shared by the CLI and tests."""

from __future__ import annotations

import numpy as np

from . import catalog, flows, pde, reps, structure
from .errors import UnknownEntry
from .group import (
    TOLERANCES,  # noqa: F401  re-exported for callers of the suites
    check_chart_axioms,
    check_rng,
    maxabs,
    record,
    verify_shift_identities,
    worst_of,
    worst_over_samples,
)
from .numdiff import DiffConfig
from .report import CheckRecord, CheckReport

SUITE_NAMES = ("shift", "structure", "flows", "rep", "pde", "all")

def shift_suite(group_name: str, cfg: DiffConfig, tol_scale: float = 1.0) -> list[CheckRecord]:
    chart = catalog.get_group(group_name)
    records = list(check_chart_axioms(chart, cfg, tol_scale).checks)
    records.extend(verify_shift_identities(chart, cfg, tol_scale).checks)
    return records


def structure_suite(group_name: str, cfg: DiffConfig, tol_scale: float = 1.0) -> list[CheckRecord]:
    chart = catalog.get_group(group_name)
    gens = structure.group_generators(chart, cfg)
    c_left = structure.structure_constants(gens, "left")
    c_right = structure.structure_constants(gens, "right")
    n = cfg.sample_count

    records = [record("generator_swap", structure.swap_residual(gens), 1, tol_scale)]
    records.append(record("antisymmetry_left",
                          structure.antisymmetry_residual(c_left), 1, tol_scale))
    records.append(record("antisymmetry_right",
                          structure.antisymmetry_residual(c_right), 1, tol_scale))
    records.append(record("jacobi_left", structure.jacobi_residual(c_left), 1, tol_scale))
    records.append(record("jacobi_right", structure.jacobi_residual(c_right), 1, tol_scale))
    records.append(record("anti_isomorphism", maxabs(c_left.c + c_right.c), 1, tol_scale))

    measured = worst_over_samples(
        chart, cfg, "anti_isomorphism_measured",
        lambda pt: maxabs(structure.structure_constants_at_point(chart, pt, "right", cfg)
                          + structure.structure_constants_at_point(chart, pt, "left", cfg)),
        count=1)
    records.append(record("anti_isomorphism_measured", measured, 1, tol_scale))

    for flavor, consts in (("left", c_left), ("right", c_right)):
        records.append(record(f"constancy_{flavor}",
                              structure.constancy_residual(chart, flavor, cfg,
                                                           constants=consts),
                              5, tol_scale))
        records.append(record(f"maurer_{flavor}",
                              structure.maurer_residual(chart, flavor, cfg, consts),
                              n, tol_scale))
        comm, rank = structure.invariant_field_commutators(chart, flavor, cfg, consts)
        records.append(record(f"field_commutators_{flavor}", comm, n, tol_scale))
        records.append(record(f"frame_rank_{flavor}", float(abs(rank - chart.n)),
                              n, tol_scale))
    return records


def flows_suite(group_name: str, cfg: DiffConfig, tol_scale: float = 1.0) -> list[CheckRecord]:
    chart = catalog.get_group(group_name)
    rng = check_rng(cfg, "flow_direction")
    alpha = rng.uniform(-0.2, 0.2, chart.n)
    records = []

    flow = flows.one_param_subgroup(chart, alpha, 1.0, flavor="right", cfg=cfg)
    records.append(record("flow_starts_at_identity",
                          maxabs(flow.path[0] - chart.identity), 1, tol_scale))
    records.append(record("flow_homomorphism",
                          flows.homomorphism_residual(chart, flow), 10, tol_scale))
    flow_l = flows.one_param_subgroup(chart, alpha, 1.0, flavor="left", cfg=cfg)
    records.append(record("flow_homomorphism_left",
                          flows.homomorphism_residual(chart, flow_l), 10, tol_scale))
    records.append(record("flow_reparameterization",
                          flows.reparameterization_residual(chart, alpha, cfg), 1,
                          tol_scale))
    if chart.n == 1:
        records.append(record("canonical_identity",
                              abs(flows.canonical_coordinate(chart, chart.identity, cfg)),
                              1, tol_scale))
        records.append(record("canonical_additivity",
                              flows.additivity_residual(chart, cfg),
                              cfg.sample_count, tol_scale))
    return records


def rep_suite(group_name: str, rep_name: str, cfg: DiffConfig,
              tol_scale: float = 1.0) -> list[CheckRecord]:
    rep = catalog.get_rep(group_name, rep_name)
    chart = rep.group
    gens = reps.rep_generators(rep, cfg)
    c_left = structure.structure_constants(structure.group_generators(chart, cfg), "left")
    n = cfg.sample_count

    records = []
    axioms = reps.rep_axiom_residuals(rep, cfg)
    records.append(record("rep_identity", axioms["rep_identity"], 1, tol_scale))
    records.append(record("rep_homomorphism", axioms["rep_homomorphism"], n, tol_scale))
    records.append(record("rep_inverse", axioms["rep_inverse"], n, tol_scale))

    pde_res = reps.rep_pde_residual(rep, cfg, gens)
    records.append(record("rep_pde_map", pde_res["rep_pde_map"], n, tol_scale))
    records.append(record("rep_pde_vector", pde_res["rep_pde_vector"], n, tol_scale))
    records.append(record("rep_integrability",
                          reps.integrability_check(gens, c_left, rep.side), 1, tol_scale))
    records.append(record("rep_mixed_identity",
                          reps.mixed_identity_residual(rep, cfg, gens), n, tol_scale))
    records.append(record("conjugate_pairing",
                          reps.conjugate_pairing_residual(rep, cfg), n, tol_scale))
    records.append(record("conjugate_generators",
                          reps.conjugate_generators_check(rep, cfg), 1, tol_scale))
    records.append(record("conjugate_involution",
                          reps.conjugate_involution_residual(rep, cfg), n, tol_scale))

    square = reps.tensor_product(rep, rep)
    expected = reps.tensor_generators(gens, gens)
    measured = reps.rep_generators(square, cfg)
    records.append(record("tensor_generators_match",
                          worst_of(maxabs(a - b) for a, b in zip(measured, expected)),
                          1, tol_scale))
    summed = reps.direct_sum(rep, rep)
    expected = reps.direct_sum_generators(gens, gens)
    measured = reps.rep_generators(summed, cfg)
    records.append(record("direct_sum_generators_match",
                          worst_of(maxabs(a - b) for a, b in zip(measured, expected)),
                          1, tol_scale))
    records.append(record("generator_transform_constancy",
                          reps.generator_transform_residual(rep, cfg), 5, tol_scale))
    return records


def pde_suite(group_name: str, cfg: DiffConfig, tol_scale: float = 1.0) -> list[CheckRecord]:
    records = []
    exp_sys = pde.exponential_system()
    records.append(record("integrable_example_residual",
                          pde.integrability_residual(exp_sys, cfg),
                          cfg.sample_count, tol_scale))
    records.append(record("nonintegrable_example_flag",
                          abs(pde.integrability_residual(pde.shear_system(), cfg) - 1.0),
                          cfg.sample_count, tol_scale))

    x0 = np.zeros(2)
    x1 = np.array([0.1, 0.2])
    direct = pde.taylor_solve(exp_sys, np.ones(1), x0, x1, cfg, check=False)
    records.append(record("taylor_exponential",
                          abs(float(direct[0]) - float(np.exp(0.3))), 1, tol_scale))
    corner = pde.solve_along_path(exp_sys, np.ones(1),
                                  [x0, np.array([0.1, 0.0]), x1], cfg)
    records.append(record("taylor_path_independence",
                          maxabs(direct - corner), 1, tol_scale))
    _, first, second = pde.taylor_coefficients(exp_sys, np.ones(1), x0, cfg)
    records.append(record("taylor_quadratic_term",
                          worst_of((maxabs(first - 1.0), maxabs(second - 1.0))), 1, tol_scale))

    mismatch = 0
    for item in pde.bundled_families():
        if pde.essential_count(item.family, cfg) != item.expected_count:
            mismatch += 1
    records.append(record("essential_counts_bundled", float(mismatch),
                          len(pde.bundled_families()), tol_scale))

    chart = catalog.get_group(group_name)
    fam = pde.group_composition_family(chart)
    records.append(record("essential_count_group_family",
                          float(abs(pde.essential_count(fam, cfg) - chart.n)),
                          cfg.sample_count, tol_scale))
    return records


def run_suite(group_name: str, suite: str, cfg: DiffConfig,
              rep_name: str | None = None, tol_scale: float = 1.0) -> CheckReport:
    """Assemble one CheckReport for a named suite over a catalog group."""
    if suite not in SUITE_NAMES:
        raise UnknownEntry(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}")
    catalog.get_group(group_name)  # raise UnknownEntry before any work
    effective_rep = rep_name or "trivial"
    report = CheckReport(
        suite=suite, group=group_name,
        rep=effective_rep if suite in ("rep", "all") else None,
        seed=cfg.rng_seed, fd_step=cfg.base_step)
    if suite in ("shift", "all"):
        report.extend(shift_suite(group_name, cfg, tol_scale))
    if suite in ("structure", "all"):
        report.extend(structure_suite(group_name, cfg, tol_scale))
    if suite in ("flows", "all"):
        report.extend(flows_suite(group_name, cfg, tol_scale))
    if suite in ("rep", "all"):
        report.extend(rep_suite(group_name, effective_rep, cfg, tol_scale))
    if suite in ("pde", "all"):
        report.extend(pde_suite(group_name, cfg, tol_scale))
    return report
