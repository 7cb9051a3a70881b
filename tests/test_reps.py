import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import check_points
from liechart.catalog import get_group, get_rep, rep_generator_oracle
from liechart.group import (
    GroupChart,
    check_rng,
    inverse,
    maxabs,
    psi_flavored,
    sample_points,
)
from liechart.numdiff import DiffConfig, invert, jacobian, rowwise
from liechart.reps import (
    GENERATOR_TRANSFORM_POINTS,
    RepChart,
    conjugate_rep,
    direct_sum,
    direct_sum_generators,
    generator_transform,
    generator_transform_residual,
    integrability_check,
    mixed_identity_residual,
    rep_generators,
    rep_homomorphism_residual,
    rep_inverse_residual,
    rep_pde_residual,
    tensor_generators,
    tensor_product,
)
from liechart.structure import group_generators, structure_constants
from liechart.suites import rep_suite

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
    def marked_eye(a):
        return np.eye(2)    # ignores the stack axes

    marked_eye.broadcasts = True
    stack = np.tile(chart.identity, (3, 1))
    for bad_shape, at in ((RepChart(group=chart, m=3, f=lambda a: np.eye(2)), chart.identity),
                          (RepChart(group=chart, m=3, f=lambda a: np.eye(2)), stack),
                          (RepChart(group=chart, m=2, f=marked_eye), stack)):
        with pytest.raises(ValueError):
            bad_shape(at)


def test_rep_chart_lifts_an_unmarked_map_only():
    chart = get_group("gl:2")

    def point_map(a):
        return a.reshape(2, 2).copy()

    def stack_map(a):
        return a.reshape(a.shape[:-1] + (2, 2)).copy()

    stack_map.broadcasts = True
    assert RepChart(group=chart, m=2, f=stack_map).f is stack_map
    lifted = RepChart(group=chart, m=2, f=point_map).f
    assert lifted is not point_map and lifted.broadcasts
    # a lifted map is not lifted again when the representation is copied
    rep = RepChart(group=chart, m=2, f=point_map)
    assert dataclasses.replace(rep, side="right").f is rep.f


@pytest.mark.parametrize("group_name,rep_name", [
    *REP_CASES, ("gl:2", "tensor:standard,standard"), ("affine", "sum:matrix,trivial"),
])
def test_rep_of_a_stack_is_rep_of_each_point(group_name, rep_name):
    rep = get_rep(group_name, rep_name)
    pts = sample_points(rep.group, CFG, np.random.default_rng(5), 6).reshape(2, 3, -1)
    got = rep(pts)
    assert got.shape == (2, 3, rep.m, rep.m)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(got[idx], rep(pts[idx]))


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
    chart = rep.group
    b, a = check_points(chart, CFG, "rep_homomorphism", arity=2)
    assert maxabs(rep(chart.identity) - np.eye(rep.m)) < 1e-10
    assert maxabs(rep_homomorphism_residual(rep, b, a)) < 1e-8
    [a] = check_points(chart, CFG, "rep_inverse")
    assert maxabs(rep_inverse_residual(rep, a, CFG)) < 1e-7


@pytest.mark.parametrize("group_name,rep_name", REP_CASES)
def test_rep_pde(group_name, rep_name):
    rep = get_rep(group_name, rep_name)
    [a] = check_points(rep.group, CFG, "rep_pde_map")
    assert maxabs(rep_pde_residual(rep, rep_generators(rep, CFG), a, CFG)) < 1e-3


@pytest.mark.parametrize("group_name,rep_name", REP_CASES)
def test_rep_integrability(group_name, rep_name):
    rep = get_rep(group_name, rep_name)
    gens = rep_generators(rep, CFG)
    c_left = structure_constants(group_generators(rep.group, CFG), "left")
    assert integrability_check(gens, c_left, rep.side) < 1e-6


@given(st.integers(1, 3).flatmap(
    lambda m: arrays(float, (1, m, m), elements=st.floats(-10.0, 10.0))))
def test_integrability_is_zero_in_1d(gens):
    # one generator commutes with itself and a 1-d algebra's constants are
    # zero, so the rep suite yields no rep_integrability row at n = 1
    c_left = structure_constants(group_generators(get_group("multiplicative"), CFG), "left")
    for side in ("left", "right"):
        assert integrability_check(gens, c_left, side) == 0.0


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
    assert maxabs(rep_generators(rep, CFG) + rep_generators(conjugate_rep(rep), CFG)) < 1e-5


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
    [g] = check_points(rep.group, CFG, "generator_transform_constancy",
                       GENERATOR_TRANSFORM_POINTS)
    assert maxabs(generator_transform_residual(rep, rep_generators(rep, CFG), g, CFG)) < 1e-4


@pytest.mark.parametrize("group_name,rep_name", REP_CASES)
def test_mixed_identity(group_name, rep_name):
    rep = get_rep(group_name, rep_name)
    [a] = check_points(rep.group, CFG, "rep_mixed_identity")
    assert maxabs(mixed_identity_residual(rep, rep_generators(rep, CFG), a, CFG)) < 1e-3


def test_trivial_rep_is_flat():
    rep = get_rep("translation:3", "trivial")
    assert rep.m == 1
    gens = rep_generators(rep, CFG)
    assert all(np.max(np.abs(g)) < 1e-9 for g in gens)


def test_integrability_check_keeps_nan():
    # a NaN generator must fail the check, not fold into a 0.0 pass
    c_left = structure_constants(group_generators(get_group("affine"), CFG), "left")
    gens = np.array([np.full((2, 2), np.nan), np.eye(2)])
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


# --- loop references for the generator contractions -------------------------
#
# Each function below spells out one contraction over the generator index
# with explicit loops, one matrix at a time.  The package computes the
# same sums on the (n, m, m) stack at once.  The two routes agree bit for
# bit on every case, on either side, except the vector form of the
# defining equation: f(x) v over the whole stack at once may round a
# last digit differently from one matrix-vector product per column.
# The references also go one sample point at a time, where the package
# runs each residual once over the (count, n) stack of its points.

SIDED_CASES = [(group_name, rep_name, side)
               for group_name, rep_name in REP_CASES for side in ("left", "right")]


def sided(group_name, rep_name, side):
    # the side only changes the order of the matrix products, so flipping
    # it on a real representation still exercises both code paths
    return dataclasses.replace(get_rep(group_name, rep_name), side=side)


def loop_pde_residual(rep, gens):
    chart = rep.group
    pts = sample_points(chart, CFG, check_rng(CFG, "rep_pde_map"), CFG.sample_count)
    map_res = []
    for a in pts:
        fa = rep(a)
        lam_left = invert(psi_flavored(chart, a, "left", CFG))
        d = jacobian(rowwise(lambda x: rep(x).ravel()), a, CFG).reshape(rep.m, rep.m, chart.n)
        expected = np.empty((rep.m, rep.m, chart.n))
        for col in range(chart.n):
            acc = np.zeros((rep.m, rep.m))
            for k in range(chart.n):
                acc += lam_left[k, col] * rep.product(gens[k], fa)
            expected[:, :, col] = acc
        map_res.append(maxabs(d - expected))
    return maxabs(map_res)


def loop_integrability(gens, c, side):
    n = len(gens)
    worst = []
    for k in range(n):
        for p in range(n):
            comm = gens[k] @ gens[p] - gens[p] @ gens[k]
            weights = c[:, p, k] if side == "left" else c[:, k, p]
            worst.append(maxabs(comm - sum(weights[t] * gens[t] for t in range(n))))
    return maxabs(worst)


def loop_generator_transform(rep, g, gens):
    adjoint = (invert(psi_flavored(rep.group, g, "left", CFG))
               @ psi_flavored(rep.group, g, "right", CFG))
    fg = rep(g)
    fg_inv = invert(fg)
    conj = [fg_inv @ gen @ fg if rep.side == "left" else fg @ gen @ fg_inv for gen in gens]
    out = []
    for p in range(rep.group.n):
        acc = np.zeros((rep.m, rep.m))
        for k in range(rep.group.n):
            acc += adjoint[k, p] * conj[k]
        out.append(acc)
    return np.array(out)


def loop_rep_axioms(rep):
    chart = rep.group
    pairs = sample_points(chart, CFG, check_rng(CFG, "rep_homomorphism"), 2 * CFG.sample_count)
    pts = sample_points(chart, CFG, check_rng(CFG, "rep_inverse"), CFG.sample_count)
    return {
        "rep_identity": maxabs(rep(chart.identity) - np.eye(rep.m)),
        "rep_homomorphism": maxabs([maxabs(rep(chart.compose(b, a)) - rep.product(rep(b), rep(a)))
                                    for b, a in pairs.reshape(-1, 2, chart.n)]),
        "rep_inverse": maxabs([maxabs(rep(inverse(chart, a, CFG)) - invert(rep(a)))
                               for a in pts]),
    }


def loop_generator_transform_residual(rep, gens):
    pts = sample_points(rep.group, CFG, check_rng(CFG, "generator_transform_constancy"),
                        GENERATOR_TRANSFORM_POINTS)
    return maxabs([maxabs(loop_generator_transform(rep, g, list(gens)) - gens) for g in pts])


def loop_mixed_identity(rep, gens):
    def residual(a):
        fa = rep(a)
        lam_left = invert(psi_flavored(rep.group, a, "left", CFG))
        lam_right = invert(psi_flavored(rep.group, a, "right", CFG))
        worst = []
        for col in range(rep.group.n):
            left_form = np.zeros((rep.m, rep.m))
            right_form = np.zeros((rep.m, rep.m))
            for k in range(rep.group.n):
                left_form += lam_left[k, col] * rep.product(gens[k], fa)
                right_form += lam_right[k, col] * rep.product(fa, gens[k])
            worst.append(maxabs(left_form - right_form))
        return maxabs(worst)

    pts = sample_points(rep.group, CFG, check_rng(CFG, "rep_mixed_identity"), CFG.sample_count)
    return maxabs([residual(a) for a in pts])


@pytest.mark.parametrize("group_name,rep_name,side", SIDED_CASES)
def test_generator_stack_matches_loop_references(group_name, rep_name, side):
    rep = sided(group_name, rep_name, side)
    gens = rep_generators(rep, CFG)
    assert gens.shape == (rep.group.n, rep.m, rep.m)
    c_left = structure_constants(group_generators(rep.group, CFG), "left")
    rows = {check_id: residual
            for check_id, _, residual in rep_suite(rep.group, rep, CFG, group_generators)}

    assert rows["rep_pde_map"] == loop_pde_residual(rep, list(gens))
    assert (integrability_check(gens, c_left, side)
            == loop_integrability(list(gens), c_left.c, side))
    assert rows["rep_mixed_identity"] == loop_mixed_identity(rep, list(gens))
    g = sample_points(rep.group, CFG, np.random.default_rng(3), 1)[0]
    assert np.array_equal(generator_transform(rep, g, gens, CFG),
                          loop_generator_transform(rep, g, list(gens)))
    pts = sample_points(rep.group, CFG, np.random.default_rng(4), 3)
    stacked = generator_transform(rep, pts, gens, CFG)
    for row, p in zip(stacked, pts):
        assert np.array_equal(row, loop_generator_transform(rep, p, list(gens)))
    for check_id, residual in loop_rep_axioms(rep).items():
        assert rows[check_id] == residual, check_id
    assert rows["generator_transform_constancy"] == loop_generator_transform_residual(rep, gens)


def test_integrability_nan_matches_loop_reference():
    c_left = structure_constants(group_generators(get_group("affine"), CFG), "left")
    gens = np.array([np.full((2, 2), np.nan), np.eye(2)])
    for side in ("left", "right"):
        assert np.isnan(integrability_check(gens, c_left, side))
        assert np.isnan(loop_integrability(list(gens), c_left.c, side))
