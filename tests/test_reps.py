import numpy as np
import pytest

from liechart.catalog import get_group, get_rep, rep_generator_oracle
from liechart.group import GroupChart
from liechart.numdiff import DiffConfig
from liechart.reps import (
    RepChart,
    conjugate_generators_check,
    conjugate_involution_residual,
    conjugate_pairing_residual,
    conjugate_rep,
    direct_sum,
    direct_sum_generators,
    generator_transform_residual,
    integrability_check,
    mixed_identity_residual,
    rep_axiom_residuals,
    rep_generators,
    rep_pde_residual,
    tensor_generators,
    tensor_product,
)
from liechart.structure import group_generators, structure_constants

CFG = DiffConfig(sample_count=5)

REP_CASES = [
    ("gl:2", "standard"),
    ("gl:2", "conjugate"),
    ("affine", "matrix"),
    ("gl:2", "trivial"),
]


def unit_matrix(m, k, l):
    out = np.zeros((m, m))
    out[k, l] = 1.0
    return out


def test_rep_chart_validation():
    chart = get_group("affine")
    with pytest.raises(ValueError):
        RepChart(group=chart, m=2, f=lambda a: np.eye(2), side="up")
    with pytest.raises(ValueError):
        RepChart(group=chart, m=0, f=lambda a: np.eye(0))
    bad_shape = RepChart(group=chart, m=3, f=lambda a: np.eye(2))
    with pytest.raises(ValueError):
        bad_shape(chart.identity)


def test_standard_rep_generators_are_unit_matrices():
    gens = rep_generators(get_rep("gl:2", "standard"), CFG)
    for k in range(2):
        for l in range(2):
            expected = unit_matrix(2, k, l)
            assert np.max(np.abs(gens[2 * k + l] - expected)) < 1e-7


def test_conjugate_rep_generators_are_negated():
    gens = rep_generators(get_rep("gl:2", "conjugate"), CFG)
    for k in range(2):
        for l in range(2):
            assert np.max(np.abs(gens[2 * k + l] + unit_matrix(2, k, l))) < 1e-7


def test_affine_matrix_rep_generators_frozen():
    gens = rep_generators(get_rep("affine", "matrix"), CFG)
    assert np.max(np.abs(gens[0] - unit_matrix(2, 0, 0))) < 1e-7
    assert np.max(np.abs(gens[1] - unit_matrix(2, 0, 1))) < 1e-7


def test_rep_generator_oracle_matches_measured():
    for group_name, rep_name in REP_CASES:
        oracle = rep_generator_oracle(group_name, rep_name)
        measured = rep_generators(get_rep(group_name, rep_name), CFG)
        for a, b in zip(oracle, measured):
            assert np.max(np.abs(a - b)) < 1e-6, (group_name, rep_name)


@pytest.mark.parametrize("group_name,rep_name", REP_CASES)
def test_rep_axioms(group_name, rep_name):
    rep = get_rep(group_name, rep_name)
    res = rep_axiom_residuals(rep, CFG)
    assert res["rep_identity"] < 1e-10
    assert res["rep_homomorphism"] < 1e-8
    assert res["rep_inverse"] < 1e-7


@pytest.mark.parametrize("group_name,rep_name", REP_CASES)
def test_rep_pde(group_name, rep_name):
    rep = get_rep(group_name, rep_name)
    res = rep_pde_residual(rep, CFG)
    assert res["rep_pde_map"] < 1e-3
    assert res["rep_pde_vector"] < 1e-3


@pytest.mark.parametrize("group_name,rep_name", REP_CASES)
def test_rep_integrability(group_name, rep_name):
    rep = get_rep(group_name, rep_name)
    gens = rep_generators(rep, CFG)
    c_left = structure_constants(group_generators(rep.group, CFG), "left")
    assert integrability_check(gens, c_left, rep.side) < 1e-6


def test_integrability_affine_by_hand():
    # [I_1, I_2] = E_12 for the triangular matrix form; the same product
    # computed from the structure constants must match entry for entry.
    rep = get_rep("affine", "matrix")
    gens = rep_generators(rep, CFG)
    comm = gens[0] @ gens[1] - gens[1] @ gens[0]
    assert np.max(np.abs(comm - unit_matrix(2, 0, 1))) < 1e-6


def test_integrability_requires_left_constants():
    rep = get_rep("gl:2", "standard")
    gens = rep_generators(rep, CFG)
    c_right = structure_constants(group_generators(rep.group, CFG), "right")
    with pytest.raises(ValueError):
        integrability_check(gens, c_right, rep.side)


@pytest.mark.parametrize("group_name,rep_name", [
    ("gl:2", "standard"), ("affine", "matrix"),
])
def test_conjugate_identities(group_name, rep_name):
    rep = get_rep(group_name, rep_name)
    assert conjugate_generators_check(rep, CFG) < 1e-5
    assert conjugate_pairing_residual(rep, CFG) < 1e-7
    assert conjugate_involution_residual(rep, CFG) < 1e-5


def test_conjugate_flips_side():
    rep = get_rep("gl:2", "standard")
    conj = conjugate_rep(rep)
    assert rep.side == "left"
    assert conj.side == "right"
    assert conjugate_rep(conj).side == "left"


def test_tensor_product_generators():
    rep = get_rep("gl:2", "standard")
    prod = tensor_product(rep, rep)
    assert prod.m == 4
    measured = rep_generators(prod, CFG)
    gens = rep_generators(rep, CFG)
    expected = tensor_generators(gens, gens)
    for a, b in zip(measured, expected):
        assert np.max(np.abs(a - b)) < 1e-4


def test_direct_sum_generators():
    rep = get_rep("affine", "matrix")
    summed = direct_sum(rep, rep)
    assert summed.m == 4
    measured = rep_generators(summed, CFG)
    expected = direct_sum_generators(rep_generators(rep, CFG),
                                     rep_generators(rep, CFG))
    for a, b in zip(measured, expected):
        assert np.max(np.abs(a - b)) < 1e-5


def test_combination_requires_matching_sides():
    rep = get_rep("gl:2", "standard")
    conj = get_rep("gl:2", "conjugate")
    with pytest.raises(ValueError):
        tensor_product(rep, conj)
    with pytest.raises(ValueError):
        direct_sum(rep, conj)


def test_combination_requires_same_group():
    with pytest.raises(ValueError):
        tensor_product(get_rep("gl:2", "standard"), get_rep("affine", "matrix"))


@pytest.mark.parametrize("group_name,rep_name", [
    ("gl:2", "standard"), ("gl:2", "conjugate"), ("affine", "matrix"),
])
def test_generator_transform_is_constant(group_name, rep_name):
    rep = get_rep(group_name, rep_name)
    assert generator_transform_residual(rep, CFG, points=5) < 1e-4


@pytest.mark.parametrize("group_name,rep_name", REP_CASES)
def test_mixed_identity(group_name, rep_name):
    rep = get_rep(group_name, rep_name)
    assert mixed_identity_residual(rep, CFG) < 1e-3


def test_trivial_rep_is_flat():
    rep = get_rep("translation:3", "trivial")
    assert rep.m == 1
    gens = rep_generators(rep, CFG)
    assert all(np.max(np.abs(g)) < 1e-9 for g in gens)


def test_integrability_check_keeps_nan():
    # a NaN generator must fail the check, not fold into a 0.0 pass
    c_left = structure_constants(group_generators(get_group("affine"), CFG), "left")
    gens = [np.full((2, 2), np.nan), np.eye(2)]
    assert np.isnan(integrability_check(gens, c_left))


def test_combination_rejects_distinct_same_named_charts():
    # both charts carry the default name "custom" but are different groups
    line = GroupChart(n=1, compose=lambda a, b: a + b, identity=np.zeros(1))
    plane = GroupChart(n=2, compose=lambda a, b: a + b, identity=np.zeros(2))
    r1 = RepChart(group=line, m=1, f=lambda a: np.ones((1, 1)))
    r2 = RepChart(group=plane, m=1, f=lambda a: np.ones((1, 1)))
    assert line.name == plane.name
    with pytest.raises(ValueError):
        tensor_product(r1, r2)
    with pytest.raises(ValueError):
        direct_sum(r1, r2)
