"""Named check suites over catalog entries, shared by the CLI and tests."""

from __future__ import annotations

import numpy as np

from . import catalog, flows, pde, reps, structure
from .errors import UnknownEntry
from .group import check_chart_axioms, check_rng, maxabs, verify_shift_identities
from .numdiff import DiffConfig
from .report import CheckRecord, CheckReport

SUITE_NAMES = ("shift", "structure", "flows", "rep", "pde", "all")

# Check-id -> default tolerance.  --tol-scale multiplies these.
TOLERANCES = {
    "generator_swap": 1e-4,
    "antisymmetry_left": 1e-6,
    "antisymmetry_right": 1e-6,
    "jacobi_left": 1e-4,
    "jacobi_right": 1e-4,
    "anti_isomorphism": 1e-6,
    "anti_isomorphism_measured": 1e-3,
    "constancy_left": 1e-3,
    "constancy_right": 1e-3,
    "maurer_left": 1e-3,
    "maurer_right": 1e-3,
    "field_commutators_left": 1e-3,
    "field_commutators_right": 1e-3,
    "frame_rank_left": 0.5,
    "frame_rank_right": 0.5,
    "flow_starts_at_identity": 1e-12,
    "flow_homomorphism": 1e-5,
    "flow_homomorphism_left": 1e-5,
    "flow_reparameterization": 1e-6,
    "canonical_identity": 1e-12,
    "canonical_additivity": 1e-6,
    "rep_identity": 1e-10,
    "rep_homomorphism": 1e-8,
    "rep_inverse": 1e-7,
    "rep_pde_map": 1e-3,
    "rep_pde_vector": 1e-3,
    "rep_integrability": 1e-6,
    "rep_mixed_identity": 1e-3,
    "conjugate_pairing": 1e-7,
    "conjugate_generators": 1e-5,
    "conjugate_involution": 1e-5,
    "tensor_generators_match": 1e-4,
    "direct_sum_generators_match": 1e-5,
    "generator_transform_constancy": 1e-4,
    "integrable_example_residual": 1e-8,
    "nonintegrable_example_flag": 1e-6,
    "taylor_exponential": 1e-5,
    "taylor_path_independence": 1e-6,
    "taylor_quadratic_term": 1e-6,
    "essential_counts_bundled": 0.5,
    "essential_count_group_family": 0.5,
}


def _record(check_id: str, residual: float, samples: int, tol_scale: float) -> CheckRecord:
    return CheckRecord.from_residual(check_id, residual,
                                     TOLERANCES[check_id] * tol_scale, samples)


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

    records = [_record("generator_swap", structure.swap_residual(gens), 1, tol_scale)]
    records.append(_record("antisymmetry_left",
                           structure.antisymmetry_residual(c_left), 1, tol_scale))
    records.append(_record("antisymmetry_right",
                           structure.antisymmetry_residual(c_right), 1, tol_scale))
    records.append(_record("jacobi_left", structure.jacobi_residual(c_left), 1, tol_scale))
    records.append(_record("jacobi_right", structure.jacobi_residual(c_right), 1, tol_scale))
    records.append(_record("anti_isomorphism", maxabs(c_left.c + c_right.c), 1, tol_scale))

    rng = check_rng(cfg, "anti_isomorphism_measured")
    from .group import sample_points

    pt = sample_points(chart, cfg, rng, 1)[0]
    measured = (structure.structure_constants_at_point(chart, pt, "right", cfg)
                + structure.structure_constants_at_point(chart, pt, "left", cfg))
    records.append(_record("anti_isomorphism_measured", maxabs(measured), 1, tol_scale))

    for flavor, consts in (("left", c_left), ("right", c_right)):
        records.append(_record(f"constancy_{flavor}",
                               structure.constancy_residual(chart, flavor, cfg,
                                                            constants=consts),
                               5, tol_scale))
        records.append(_record(f"maurer_{flavor}",
                               structure.maurer_residual(chart, flavor, cfg, consts),
                               n, tol_scale))
        comm, rank = structure.invariant_field_commutators(chart, flavor, cfg, consts)
        records.append(_record(f"field_commutators_{flavor}", comm, n, tol_scale))
        records.append(_record(f"frame_rank_{flavor}", float(abs(rank - chart.n)),
                               n, tol_scale))
    return records


def flows_suite(group_name: str, cfg: DiffConfig, tol_scale: float = 1.0) -> list[CheckRecord]:
    chart = catalog.get_group(group_name)
    rng = check_rng(cfg, "flow_direction")
    alpha = rng.uniform(-0.2, 0.2, chart.n)
    records = []

    flow = flows.one_param_subgroup(chart, alpha, 1.0, flavor="right", cfg=cfg)
    records.append(_record("flow_starts_at_identity",
                           maxabs(flow.path[0] - chart.identity), 1, tol_scale))
    records.append(_record("flow_homomorphism",
                           flows.homomorphism_residual(chart, flow), 10, tol_scale))
    flow_l = flows.one_param_subgroup(chart, alpha, 1.0, flavor="left", cfg=cfg)
    records.append(_record("flow_homomorphism_left",
                           flows.homomorphism_residual(chart, flow_l), 10, tol_scale))
    records.append(_record("flow_reparameterization",
                           flows.reparameterization_residual(chart, alpha, cfg), 1,
                           tol_scale))
    if chart.n == 1:
        records.append(_record("canonical_identity",
                               abs(flows.canonical_coordinate(chart, chart.identity, cfg)),
                               1, tol_scale))
        records.append(_record("canonical_additivity",
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
    records.append(_record("rep_identity", axioms["rep_identity"], 1, tol_scale))
    records.append(_record("rep_homomorphism", axioms["rep_homomorphism"], n, tol_scale))
    records.append(_record("rep_inverse", axioms["rep_inverse"], n, tol_scale))

    pde_res = reps.rep_pde_residual(rep, cfg, gens)
    records.append(_record("rep_pde_map", pde_res["rep_pde_map"], n, tol_scale))
    records.append(_record("rep_pde_vector", pde_res["rep_pde_vector"], n, tol_scale))
    records.append(_record("rep_integrability",
                           reps.integrability_check(gens, c_left, rep.side), 1, tol_scale))
    records.append(_record("rep_mixed_identity",
                           reps.mixed_identity_residual(rep, cfg, gens), n, tol_scale))
    records.append(_record("conjugate_pairing",
                           reps.conjugate_pairing_residual(rep, cfg), n, tol_scale))
    records.append(_record("conjugate_generators",
                           reps.conjugate_generators_check(rep, cfg), 1, tol_scale))
    records.append(_record("conjugate_involution",
                           reps.conjugate_involution_residual(rep, cfg), n, tol_scale))

    square = reps.tensor_product(rep, rep)
    expected = reps.tensor_generators(gens, gens)
    measured = reps.rep_generators(square, cfg)
    records.append(_record("tensor_generators_match",
                           max(maxabs(a - b) for a, b in zip(measured, expected)),
                           1, tol_scale))
    summed = reps.direct_sum(rep, rep)
    expected = reps.direct_sum_generators(gens, gens)
    measured = reps.rep_generators(summed, cfg)
    records.append(_record("direct_sum_generators_match",
                           max(maxabs(a - b) for a, b in zip(measured, expected)),
                           1, tol_scale))
    records.append(_record("generator_transform_constancy",
                           reps.generator_transform_residual(rep, cfg), 5, tol_scale))
    return records


def pde_suite(group_name: str, cfg: DiffConfig, tol_scale: float = 1.0) -> list[CheckRecord]:
    records = []
    exp_sys = pde.exponential_system()
    records.append(_record("integrable_example_residual",
                           pde.integrability_residual(exp_sys, cfg),
                           cfg.sample_count, tol_scale))
    records.append(_record("nonintegrable_example_flag",
                           abs(pde.integrability_residual(pde.shear_system(), cfg) - 1.0),
                           cfg.sample_count, tol_scale))

    x0 = np.zeros(2)
    x1 = np.array([0.1, 0.2])
    direct = pde.taylor_solve(exp_sys, np.ones(1), x0, x1, cfg, check=False)
    records.append(_record("taylor_exponential",
                           abs(float(direct[0]) - float(np.exp(0.3))), 1, tol_scale))
    corner = pde.solve_along_path(exp_sys, np.ones(1),
                                  [x0, np.array([0.1, 0.0]), x1], cfg)
    records.append(_record("taylor_path_independence",
                           maxabs(direct - corner), 1, tol_scale))
    _, first, second = pde.taylor_coefficients(exp_sys, np.ones(1), x0, cfg)
    records.append(_record("taylor_quadratic_term",
                           max(maxabs(first - 1.0), maxabs(second - 1.0)), 1, tol_scale))

    mismatch = 0
    for item in pde.bundled_families():
        if pde.essential_count(item.family, cfg) != item.expected_count:
            mismatch += 1
    records.append(_record("essential_counts_bundled", float(mismatch),
                           len(pde.bundled_families()), tol_scale))

    chart = catalog.get_group(group_name)
    fam = pde.group_composition_family(chart)
    records.append(_record("essential_count_group_family",
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
