import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import liechart.reps
from conftest import check_points
from liechart.catalog import GROUP_NAMES, get_group, get_rep, rep_generator_oracle
from liechart.group import (
    GroupChart,
    _opposite,
    _Opposite,
    check_rng,
    inverse,
    maxabs,
    psi_flavored,
    sample_points,
)
from liechart.numdiff import DiffConfig, invert, jacobian, rowwise
from liechart.reps import (
    RepChart,
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
from liechart.structure import group_generators, structure_constants
from liechart.suites import rep_suite
from test_mutations import REP_MUTANTS

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
        RepChart(group=chart, m=0, f=lambda a: np.eye(0))
    # True used to pass here and raise at the first call
    for m in (True, 2.0):
        with pytest.raises(ValueError, match="m must be an integer"):
            RepChart(group=chart, m=m, f=lambda a: np.eye(2))
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
    assert dataclasses.replace(rep, group=_opposite(chart)).f is rep.f


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


# every representation the library builds broadcasts by itself
LIBRARY_REPS = [
    *((group_name, "trivial") for group_name in GROUP_NAMES),
    *((f"gl:{n}", rep_name) for n in (1, 2, 3) for rep_name in ("standard", "conjugate")),
    ("affine", "matrix"),
    ("gl:2", "sum:standard,trivial"),
    ("gl:2", "tensor:conjugate,conjugate"),
    ("gl:2", "tensor:standard,standard"),
    ("affine", "sum:matrix,trivial"),
]


def assert_stacks_match_points(rep, k=3):
    pts = sample_points(rep.group, CFG, np.random.default_rng(11), 2 * k)
    each = np.array([rep(p) for p in pts])
    assert np.array_equal(rep(pts[:k]), each[:k])
    assert np.array_equal(rep(pts.reshape(2, k, -1)), each.reshape(2, k, rep.m, rep.m))
    assert rep(np.empty((0, rep.group.n))).shape == (0, rep.m, rep.m)


@pytest.mark.parametrize("group_name,rep_name", LIBRARY_REPS)
def test_library_reps_broadcast_with_the_bits_of_each_point(group_name, rep_name, monkeypatch):
    def no_lift(fn, shape=()):
        assert getattr(fn, "broadcasts", False), "a library representation was lifted"
        return fn

    monkeypatch.setattr(liechart.reps, "rowwise", no_lift)
    rep = get_rep(group_name, rep_name)
    conj = conjugate_rep(rep)
    monkeypatch.undo()
    assert rep.f.broadcasts is True and conj.f.broadcasts is True
    assert_stacks_match_points(rep)
    assert_stacks_match_points(conj)


@pytest.mark.parametrize("group_name,halves", [
    ("gl:2", ("standard", "trivial")), ("gl:2", ("conjugate", "conjugate")),
    ("gl:3", ("standard", "standard")), ("affine", ("matrix", "trivial")),
])
def test_composites_keep_the_values_of_their_point_forms(group_name, halves):
    r1, r2 = (get_rep(group_name, half) for half in halves)
    pts = sample_points(r1.group, CFG, np.random.default_rng(12), 4)
    for p, t, s, c in zip(pts, tensor_product(r1, r2)(pts), direct_sum(r1, r2)(pts),
                          conjugate_rep(r1)(pts)):
        assert np.array_equal(t, np.kron(r1(p), r2(p)))
        assert np.array_equal(s, scipy.linalg.block_diag(r1(p), r2(p)))
        assert np.array_equal(c, invert(r1(p)))
    g1, g2 = (rep_generator_oracle(group_name, half) for half in halves)
    assert np.array_equal(tensor_generators(g1, g2), np.kron(g1, np.eye(r2.m)[None])
                          + np.kron(np.eye(r1.m)[None], g2))


def test_composites_of_a_lifted_point_map_match_each_point():
    matrix = get_rep("affine", "matrix")
    user = RepChart(group=matrix.group, m=2, name="user",
                    f=lambda a: np.array([[a[0], a[1]], [0.0, 1.0]]))
    assert user.f.broadcasts is True        # the rowwise lift
    pts = sample_points(user.group, CFG, np.random.default_rng(13), 4)
    for rep, point_form in (
            (tensor_product(user, matrix), lambda p: np.kron(user(p), matrix(p))),
            (direct_sum(matrix, user), lambda p: scipy.linalg.block_diag(matrix(p), user(p))),
            (conjugate_rep(user), lambda p: invert(user(p)))):
        assert_stacks_match_points(rep)
        assert np.array_equal(rep(pts), np.array([point_form(p) for p in pts]))


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
    assert integrability_check(gens, c_left) < 1e-6


@given(st.integers(1, 3).flatmap(
    lambda m: arrays(float, (1, m, m), elements=st.floats(-10.0, 10.0))))
def test_integrability_is_zero_in_1d(gens):
    # one generator commutes with itself and a 1-d algebra's constants are
    # zero, so the rep suite yields no rep_integrability row at n = 1
    mult = get_group("multiplicative")
    for chart in (mult, _opposite(mult)):
        c_left = structure_constants(group_generators(chart, CFG), "left")
        assert integrability_check(gens, c_left) == 0.0


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
        integrability_check(gens, c_right)


@pytest.mark.parametrize("group_name,rep_name", [
    ("gl:2", "standard"), ("affine", "matrix"),
])
def test_conjugate_identities(group_name, rep_name):
    rep = get_rep(group_name, rep_name)
    assert maxabs(rep_generators(rep, CFG) + rep_generators(conjugate_rep(rep), CFG)) < 1e-5


def test_conjugate_flips_side():
    # the conjugate reverses every product: a representation of the opposite group
    rep = get_rep("gl:2", "standard")
    conj = conjugate_rep(rep)
    assert rep.group is get_group("gl:2")
    assert conj.group is _opposite(rep.group)
    assert conjugate_rep(conj).group is rep.group


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
    # the suite checks this through rep_mixed_identity; see the fold below
    rep = get_rep(group_name, rep_name)
    gens = rep_generators(rep, CFG)
    [pts] = check_points(rep.group, CFG, "rep_mixed_identity")
    assert maxabs([loop_generator_transform(rep, g, gens) - gens for g in pts]) < 1e-4


@pytest.mark.parametrize("group_name,rep_name", REP_CASES)
def test_mixed_identity(group_name, rep_name):
    rep = get_rep(group_name, rep_name)
    [a] = check_points(rep.group, CFG, "rep_mixed_identity")
    assert maxabs(mixed_identity_residual(rep, rep_generators(rep, CFG), a, CFG)) < 1e-4


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
#
# The references keep both sides.  A representation of an opposite group
# is the reversed-side representation of the opposite's base chart, and a
# reference runs it there with every product reversed (y @ x), where the
# package runs the one left-side form on the opposite group.

SIDED_CASES = [(group_name, rep_name, side)
               for group_name, rep_name in REP_CASES for side in ("left", "right")]


def sided(group_name, rep_name, side):
    # the side only changes the order of the matrix products, so moving a
    # real representation to either chart still exercises both forms
    chart = get_group(group_name)
    return dataclasses.replace(get_rep(group_name, rep_name),
                               group=chart if side == "left" else _opposite(chart))


def handed(rep):
    """(chart, side) of a representation as the references run it."""
    if isinstance(rep.group, _Opposite):
        return rep.group.base, "right"
    return rep.group, "left"


def product(side, x, y):
    """x @ y on the left side, y @ x on the reversed side."""
    return x @ y if side == "left" else y @ x


def loop_pde_residual(rep, gens, cfg=CFG):
    chart, side = handed(rep)
    pts = sample_points(chart, cfg, check_rng(cfg, "rep_pde_map"), cfg.sample_count)
    map_res = []
    for a in pts:
        fa = rep(a)
        lam_left = invert(psi_flavored(chart, a, "left", cfg))
        d = jacobian(rowwise(lambda x: rep(x).ravel()), a, cfg).reshape(rep.m, rep.m, chart.n)
        expected = np.empty((rep.m, rep.m, chart.n))
        for col in range(chart.n):
            acc = np.zeros((rep.m, rep.m))
            for k in range(chart.n):
                acc += lam_left[k, col] * product(side, gens[k], fa)
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
    chart, side = handed(rep)
    adjoint = (invert(psi_flavored(chart, g, "left", CFG))
               @ psi_flavored(chart, g, "right", CFG))
    fg = rep(g)
    fg_inv = invert(fg)
    conj = [fg_inv @ gen @ fg if side == "left" else fg @ gen @ fg_inv for gen in gens]
    out = []
    for p in range(chart.n):
        acc = np.zeros((rep.m, rep.m))
        for k in range(chart.n):
            acc += adjoint[k, p] * conj[k]
        out.append(acc)
    return np.array(out)


def loop_rep_axioms(rep, cfg=CFG):
    chart, side = handed(rep)
    pairs = sample_points(chart, cfg, check_rng(cfg, "rep_homomorphism"), 2 * cfg.sample_count)
    pts = sample_points(chart, cfg, check_rng(cfg, "rep_inverse"), cfg.sample_count)
    return {
        "rep_identity": maxabs(rep(chart.identity) - np.eye(rep.m)),
        "rep_homomorphism": maxabs([maxabs(rep(chart.compose(b, a))
                                           - product(side, rep(b), rep(a)))
                                    for b, a in pairs.reshape(-1, 2, chart.n)]),
        "rep_inverse": maxabs([maxabs(rep(inverse(chart, a, cfg)) - invert(rep(a)))
                               for a in pts]),
    }


def loop_mixed_difference(rep, a, gens, cfg=CFG):
    """R[L] at the point a: the left-weighted form of d f / d a^L minus the right-weighted one."""
    chart, side = handed(rep)
    fa = rep(a)
    lam_left = invert(psi_flavored(chart, a, "left", cfg))
    lam_right = invert(psi_flavored(chart, a, "right", cfg))
    out = []
    for col in range(chart.n):
        left_form = np.zeros((rep.m, rep.m))
        right_form = np.zeros((rep.m, rep.m))
        for k in range(chart.n):
            left_form += lam_left[k, col] * product(side, gens[k], fa)
            right_form += lam_right[k, col] * product(side, fa, gens[k])
        out.append(left_form - right_form)
    return np.array(out)


def loop_mixed_identity(rep, gens, cfg=CFG):
    chart, _ = handed(rep)
    pts = sample_points(chart, cfg, check_rng(cfg, "rep_mixed_identity"), cfg.sample_count)
    return maxabs([maxabs(loop_mixed_difference(rep, a, list(gens), cfg)) for a in pts])


def suite_rows(rep, cfg):
    chart, _ = handed(rep)
    return {check_id: residual
            for check_id, _, residual in rep_suite(chart, rep, cfg, group_generators)}


def assert_rows_match_references(rep, cfg):
    """The rows a side leaves as they were are the references' own values."""
    chart, side = handed(rep)
    gens = rep_generators(rep, cfg)
    rows = suite_rows(rep, cfg)
    axioms = loop_rep_axioms(rep, cfg)
    for check_id in ("rep_identity", "rep_inverse"):
        assert rows[check_id] == axioms[check_id], check_id
    if chart.n > 1:
        c_left = structure_constants(group_generators(chart, cfg), "left")
        assert rows["rep_integrability"] == loop_integrability(list(gens), c_left.c, side)
    assert rows["rep_mixed_identity"] == loop_mixed_identity(rep, list(gens), cfg)
    return gens, rows, axioms


@pytest.mark.parametrize("group_name,rep_name,side", SIDED_CASES)
def test_generator_stack_matches_loop_references(group_name, rep_name, side):
    rep = sided(group_name, rep_name, side)
    assert handed(rep) == (get_group(group_name), side)
    gens, rows, axioms = assert_rows_match_references(rep, CFG)
    assert gens.shape == (rep.group.n, rep.m, rep.m)
    # the package writes the defining equation and the homomorphism in
    # their left-side form only, which is the references' own on that side
    if side == "left":
        assert rows["rep_pde_map"] == loop_pde_residual(rep, list(gens))
        assert rows["rep_homomorphism"] == axioms["rep_homomorphism"]


REVERSED_REPS = [*((f"gl:{n}", "conjugate") for n in (1, 2, 3)),
                 ("gl:2", "tensor:conjugate,conjugate"), ("gl:2", "sum:conjugate,conjugate")]


@pytest.mark.parametrize("seed", [42, 2026, 7])
@pytest.mark.parametrize("group_name,rep_name", REVERSED_REPS)
def test_reversed_side_rows_stay_near_their_references(group_name, rep_name, seed):
    # On the opposite group the defining equation is weighted by the other
    # frame, lam_right of the base chart, and the homomorphism reads each
    # pair in the other order, so these two rows move by roundoff from the
    # reversed-side references; the other four keep their bits.
    cfg = DiffConfig(rng_seed=seed)
    rep = get_rep(group_name, rep_name)
    assert handed(rep)[1] == "right"
    gens, rows, axioms = assert_rows_match_references(rep, cfg)
    reference = loop_pde_residual(rep, list(gens), cfg)
    assert 0.9 * reference <= rows["rep_pde_map"] <= 1.1 * reference
    assert rows["rep_homomorphism"] <= 1e-14
    assert axioms["rep_homomorphism"] <= 1e-14


# --- rep_mixed_identity restates the transformed generators -------------------
#
# Take G_p = sum_k Ad[k, p] f(a)^-1 I_k f(a) - I_p, the generators
# transformed by a against the originals, with Ad = lam_left psi_right,
# and R_L, the mixed residual, at the same point a.  Then
# R_L = f(a) sum_p lam_right[p, L] G_p, since Ad lam_right = lam_left with
# both frames from the same numeric psi; on the reversed side f(a)
# multiplies from the right.  So the suite checks only R.


def transformed_generator_prediction(rep, a, gens):
    """f(a) sum_p lam_right[p, L] G_p for each L, G from the loop reference."""
    chart, side = handed(rep)
    g = loop_generator_transform(rep, a, gens) - gens
    lam_right = invert(psi_flavored(chart, a, "right", CFG))
    n = chart.n
    return np.array([product(side, rep(a), sum(lam_right[p, col] * g[p] for p in range(n)))
                     for col in range(n)])


FOLD_CASES = {**REP_MUTANTS,
              "conjugate(gl:2 bumped)": lambda: conjugate_rep(REP_MUTANTS["gl:2 bumped"]())}


@pytest.mark.parametrize("name", FOLD_CASES)
def test_mixed_residual_is_the_transformed_generators_reweighted(name):
    rep = FOLD_CASES[name]()
    gens = rep_generators(rep, CFG)
    [pts] = check_points(rep.group, CFG, "rep_mixed_identity")
    mixed = [loop_mixed_difference(rep, a, gens) for a in pts]
    for a, r in zip(pts, mixed):
        assert maxabs(r - transformed_generator_prediction(rep, a, gens)) <= 1e-12
    # far above roundoff, so the identity is seen where both sides are large
    assert maxabs(mixed) > 1e-5


@pytest.mark.parametrize("group_name,rep_name", [
    ("gl:2", "standard"), ("gl:2", "conjugate"), ("gl:2", "tensor:standard,standard"),
    ("affine", "matrix"), ("gl:3", "standard"),
])
def test_mixed_residual_reads_as_high_as_the_transformed_generators(group_name, rep_name):
    # so the mixed row keeps the folded row's 1e-4 bound and its power
    rep = get_rep(group_name, rep_name)
    gens = rep_generators(rep, CFG)
    [pts] = check_points(rep.group, CFG, "rep_mixed_identity")
    transformed = maxabs([loop_generator_transform(rep, a, gens) - gens for a in pts])
    assert 0.5 <= maxabs(mixed_identity_residual(rep, gens, pts, CFG)) / transformed <= 2.0


def test_integrability_nan_matches_loop_reference():
    affine = get_group("affine")
    gens = np.array([np.full((2, 2), np.nan), np.eye(2)])
    for chart, side in ((affine, "left"), (_opposite(affine), "right")):
        assert np.isnan(integrability_check(
            gens, structure_constants(group_generators(chart, CFG), "left")))
        c_left = structure_constants(group_generators(affine, CFG), "left")
        assert np.isnan(loop_integrability(list(gens), c_left.c, side))
