"""End-to-end acceptance checks.

One test per criterion; each prints a single `[criterion NN] PASS|FAIL`
line (routed past pytest's capture so the verdicts always appear in the
run log) and then asserts, so a red criterion fails the suite too.
Tolerances are pinned here on purpose: loosening them is a contract
change, not a tuning knob.
"""

import json

import numpy as np
import pytest

import liechart.cli as cli
from conftest import check_points
from liechart.catalog import (
    GROUP_NAMES,
    get_group,
    get_oracles,
    get_rep,
)
from liechart.errors import SingularMatrix
from liechart.flows import (
    additivity_residual,
    canonical_coordinate,
    homomorphism_residual,
    one_param_subgroup,
)
from liechart.group import (
    check_rng,
    maxabs,
    psi_flavored,
    sample_points,
    verify_shift_identities,
)
from liechart.numdiff import DiffConfig, invert
from liechart.pde import (
    bundled_families,
    essential_count,
    essential_param_ranks,
    exponential_system,
    group_composition_family,
    integrability_residual,
    shear_system,
    solve_along_path,
    taylor_solve,
)
from liechart.reps import (
    conjugate_rep,
    direct_sum,
    direct_sum_generators,
    integrability_check,
    mixed_identity_residual,
    rep_generators,
    rep_homomorphism_residual,
    rep_inverse_residual,
    rep_pde_residual,
    tensor_generators,
    tensor_product,
)
from liechart.structure import (
    group_generators,
    invariant_field_commutators,
    jacobi_residual,
    maurer_residual,
    structure_constants,
)

CFG = DiffConfig(sample_count=20)


@pytest.fixture
def emit(capsys):
    def _emit(num: int, ok: bool, label: str) -> None:
        status = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"\n[criterion {num:02d}] {status}  {label}", flush=True)

    return _emit


def test_criterion_01_gl2_operators_match_closed_forms(emit):
    chart = get_group("gl:2")
    oracles = get_oracles("gl:2")
    rng = check_rng(CFG, "acceptance_operators")
    worst = 0.0
    for a in sample_points(chart, CFG, rng, 20):
        left, right = psi_flavored(chart, a, "left", CFG), psi_flavored(chart, a, "right", CFG)
        worst = max(worst,
                    np.max(np.abs(left - oracles.psi_left(a))),
                    np.max(np.abs(right - oracles.psi_right(a))),
                    np.max(np.abs(invert(left) - oracles.lam_left(a))),
                    np.max(np.abs(invert(right) - oracles.lam_right(a))))
    ok = worst < 1e-5
    emit(1, ok, f"gl:2 basic operators vs closed forms, worst {worst:.2e} (tol 1e-5)")
    assert ok


def test_criterion_02_gl2_structure_constants(emit):
    gens = group_generators(get_group("gl:2"), CFG)
    c_left = structure_constants(gens, "left")
    c_right = structure_constants(gens, "right")
    err_closed = np.max(np.abs(c_left.c - get_oracles("gl:2").c_left))
    err_anti_iso = np.max(np.abs(c_right.c + c_left.c))
    err_jacobi = max(jacobi_residual(c_left), jacobi_residual(c_right))
    ok = err_closed < 1e-4 and err_anti_iso < 1e-6 and err_jacobi < 1e-4
    emit(2, ok, "gl:2 constants: closed form "
         f"{err_closed:.2e}/1e-4, flavor sign {err_anti_iso:.2e}/1e-6, "
         f"jacobi {err_jacobi:.2e}/1e-4")
    assert ok


def test_criterion_03_affine_constant_frozen_value(emit):
    c_left = structure_constants(group_generators(get_group("affine"), CFG), "left")
    # second basis direction against the first: coefficient on the second
    # output, a hand-derived value for the ax+b law
    err = abs(c_left.c[1, 0, 1] - (-1.0))
    ok = err < 1e-4
    emit(3, ok, f"affine c[1,0,1] = -1 within {err:.2e} (tol 1e-4)")
    assert ok


def test_criterion_04_maurer_equation(emit):
    worst = 0.0
    for name in ("translation:2", "affine", "gl:2"):
        chart = get_group(name)
        for flavor in ("left", "right"):
            c = structure_constants(group_generators(chart, CFG), flavor)
            [a] = check_points(chart, CFG, f"maurer_{flavor}")
            worst = max(worst, maxabs(maurer_residual(chart, c, a, CFG)))
    ok = worst < 1e-3
    emit(4, ok, f"Maurer equation both flavors on 3 groups, worst {worst:.2e} (tol 1e-3)")
    assert ok


def test_criterion_05_shift_identity_suite_whole_catalog(emit):
    all_pass = True
    worst_overall = 0.0
    translation_worst = None
    for name in GROUP_NAMES:
        report = verify_shift_identities(get_group(name), CFG)
        all_pass = all_pass and report.all_passed
        worst = max(r.max_residual for r in report.checks)
        worst_overall = max(worst_overall, worst)
        if name == "translation:2":
            translation_worst = worst
    ok = all_pass and worst_overall < 1e-4 and translation_worst < 1e-9
    emit(5, ok, f"shift identities on {len(GROUP_NAMES)} groups, worst "
         f"{worst_overall:.2e} (tol 1e-4), translation:2 {translation_worst:.2e} (tol 1e-9)")
    assert ok


def test_criterion_06_invariant_frames_whole_catalog(emit):
    worst = 0.0
    ranks_ok = True
    for name in GROUP_NAMES:
        chart = get_group(name)
        for flavor in ("left", "right"):
            # a frame that loses rank at a sampled point breaks down
            try:
                c = structure_constants(group_generators(chart, CFG), flavor)
                [a] = check_points(chart, CFG, f"field_commutators_{flavor}")
                worst = max(worst, maxabs(invariant_field_commutators(chart, c, a, CFG)))
            except SingularMatrix:
                ranks_ok = False
    ok = worst < 1e-3 and ranks_ok
    emit(6, ok, f"frame commutators on {len(GROUP_NAMES)} groups, worst "
         f"{worst:.2e} (tol 1e-3), frames full rank: {ranks_ok}")
    assert ok


def test_criterion_07_one_parameter_subgroups(emit):
    gl2 = get_group("gl:2")
    nilpotent = np.array([0.0, 0.7, 0.0, 0.0])
    end = one_param_subgroup(gl2, nilpotent, 1.0, cfg=CFG)[-1]
    err_nilpotent = np.max(np.abs(end - (gl2.identity + nilpotent)))

    generic = one_param_subgroup(gl2, np.array([0.2, 0.3, -0.1, 0.1]), 1.0, cfg=CFG)
    err_hom = homomorphism_residual(gl2, generic)

    mult = get_group("multiplicative")
    err_log = abs(canonical_coordinate(mult, np.array([2.0]), CFG) - np.log(2.0))
    err_add = maxabs(additivity_residual(
        mult, *check_points(mult, CFG, "canonical_additivity", arity=2), CFG))

    ok = (err_nilpotent < 1e-8 and err_hom < 1e-5
          and err_log < 1e-7 and err_add < 1e-6)
    emit(7, ok, f"flows: nilpotent {err_nilpotent:.2e}/1e-8, homomorphism "
         f"{err_hom:.2e}/1e-5, log {err_log:.2e}/1e-7, additivity {err_add:.2e}/1e-6")
    assert ok


def test_criterion_08_representation_identities(emit):
    cases = [get_rep("gl:2", "standard"), get_rep("gl:2", "conjugate"),
             get_rep("affine", "matrix"), get_rep("gl:2", "trivial")]
    ok = True
    worst_note = []
    for rep in cases:
        gens = rep_generators(rep, CFG)
        c_left = structure_constants(group_generators(rep.group, CFG), "left")
        chart = rep.group
        tensor_err = max(
            np.max(np.abs(a - b)) for a, b in zip(
                rep_generators(tensor_product(rep, rep), CFG),
                tensor_generators(gens, gens)))
        sum_err = max(
            np.max(np.abs(a - b)) for a, b in zip(
                rep_generators(direct_sum(rep, rep), CFG),
                direct_sum_generators(gens, gens)))
        checks = [
            (maxabs(rep(chart.identity) - np.eye(rep.m)), 1e-8),
            (maxabs(rep_homomorphism_residual(
                rep, *check_points(chart, CFG, "rep_homomorphism", arity=2))), 1e-8),
            (maxabs(rep_inverse_residual(rep, *check_points(chart, CFG, "rep_inverse"), CFG)),
             1e-8),
            (maxabs(rep_pde_residual(rep, gens, *check_points(chart, CFG, "rep_pde_map"),
                                     CFG)), 1e-3),
            (integrability_check(gens, c_left), 1e-6),
            (maxabs(mixed_identity_residual(
                rep, gens, *check_points(chart, CFG, "rep_mixed_identity"), CFG)), 1e-4),
            (maxabs(rep_generators(rep, CFG) + rep_generators(conjugate_rep(rep), CFG)), 1e-5),
            (tensor_err, 1e-4),
            (sum_err, 1e-5),
        ]
        rep_ok = all(res < tol for res, tol in checks)
        ok = ok and rep_ok
        worst_note.append(f"{rep.name}:{'ok' if rep_ok else 'FAIL'}")
    emit(8, ok, "representation identities on " + ", ".join(worst_note))
    assert ok


def test_criterion_09_pde_solver_and_parameter_counts(emit):
    err_int = integrability_residual(exponential_system(), CFG)
    err_flag = abs(integrability_residual(shear_system(), CFG) - 1.0)

    x0 = np.zeros(2)
    x1 = np.array([0.1, 0.2])
    direct = taylor_solve(exponential_system(), np.ones(1), x0, x1, CFG)
    err_exp = abs(float(direct[0]) - float(np.exp(0.3)))
    corner = solve_along_path(exponential_system(), np.ones(1),
                              [x0, np.array([0.1, 0.0]), x1], CFG)
    err_path = abs(float(direct[0] - corner[0]))

    counts_ok = all(
        tuple(essential_param_ranks(item.family, CFG)) == item.expected_ranks
        and essential_count(item.family, CFG) == item.expected_count
        for item in bundled_families())
    group_counts_ok = all(
        essential_count(group_composition_family(get_group(name)), CFG)
        == get_group(name).n
        for name in GROUP_NAMES)

    ok = (err_int < 1e-8 and err_flag < 1e-6 and err_exp < 1e-5
          and err_path < 1e-6 and counts_ok and group_counts_ok)
    emit(9, ok, f"pde: integrable {err_int:.2e}/1e-8, flagged {err_flag:.2e}/1e-6, "
         f"value {err_exp:.2e}/1e-5, path {err_path:.2e}/1e-6, "
         f"param counts {'ok' if counts_ok and group_counts_ok else 'FAIL'}")
    assert ok


def test_criterion_10_deterministic_reports(tmp_path, capsys, emit):
    # byte-identical artifacts for identical flags and seed
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    flags = ["run", "--group", "gl:2", "--suite", "all", "--seed", "7"]
    code_a = cli.main(flags + ["--json", str(a)])
    code_b = cli.main(flags + ["--json", str(b)])
    bytes_equal = a.read_bytes() == b.read_bytes()

    # verdicts stable across seeds
    verdicts = []
    for seed in range(1, 11):
        target = tmp_path / f"seed{seed}.json"
        cli.main(["run", "--group", "gl:2", "--suite", "all",
                  "--seed", str(seed), "--json", str(target)])
        doc = json.loads(target.read_text())
        verdicts.append(tuple(c["pass"] for c in doc["checks"]))
    capsys.readouterr()
    stable = len(set(verdicts)) == 1 and all(verdicts[0])

    ok = code_a == 0 and code_b == 0 and bytes_equal and stable
    emit(10, ok, f"reports byte-identical: {bytes_equal}, verdicts stable over "
         f"seeds 1-10: {stable}")
    assert ok
