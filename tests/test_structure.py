import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import check_points
from liechart import catalog
from liechart.catalog import get_group, get_oracles
from liechart.group import GroupChart, _opposite, check_rng, maxabs, psi_flavored, sample_points
from liechart.numdiff import (QUART_EPS, DiffConfig, invert, jacobian, mixed_second, numeric_rank,
                              vf_commutator)
from liechart.structure import (
    StructureConstants,
    _flat_field,
    bracket,
    constancy_residual,
    group_generators,
    invariant_field_commutators,
    jacobi_residual,
    maurer_residual,
    structure_constants,
)
from liechart.suites import run_suite

CFG = DiffConfig(sample_count=5)


def gl2_commutator_table():
    """Structure constants of 2x2 matrices from literal matrix products.

    Basis U = (k, l) -> E_kl flattened row-major.  The coefficient of E_U
    in E_T E_V - E_V E_T is just entry U of the flattened commutator, so
    this table needs nothing but matmul.
    """
    basis = []
    for k in range(2):
        for l in range(2):
            m = np.zeros((2, 2))
            m[k, l] = 1.0
            basis.append(m)
    table = np.zeros((4, 4, 4))
    for t, v in itertools.product(range(4), range(4)):
        table[:, t, v] = (basis[t] @ basis[v] - basis[v] @ basis[t]).ravel()
    return table


def nested_right_jacobian(chart, cfg):
    """Derivative of the right basic-operator field at the identity by nested
    first differences, the outer step widened to eps**(1/4) so that roundoff
    from the inner stencil does not dominate."""
    outer = dataclasses.replace(cfg, base_step=max(cfg.base_step, QUART_EPS))
    return jacobian(_flat_field(_opposite(chart), cfg), chart.identity, outer)


def test_generators_translation_vanish():
    chart = get_group("translation:2")
    gens = group_generators(chart, CFG)
    assert np.max(np.abs(gens)) < 1e-10
    assert np.max(np.abs(nested_right_jacobian(chart, CFG))) < 1e-8


def test_generators_affine_frozen():
    gens = group_generators(get_group("affine"), CFG)
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = 1.0
    expected[1, 0, 1] = 1.0
    assert np.max(np.abs(gens - expected)) < 1e-6


def test_generators_gl2_delta_pattern():
    gens = group_generators(get_group("gl:2"), CFG)
    expected = np.zeros((4, 4, 4))
    # (E_ij b)_kl = delta_ki b_jl: unit entry at U=(k,l), T=(k,j), V=(j,l)
    for k, l, j in itertools.product(range(2), repeat=3):
        expected[2 * k + l, 2 * k + j, 2 * j + l] = 1.0
    assert np.max(np.abs(gens - expected)) < 1e-6


def test_structure_constants_affine_frozen():
    gens = group_generators(get_group("affine"), CFG)
    c_left = structure_constants(gens, "left")
    expected = np.zeros((2, 2, 2))
    expected[1, 0, 1] = -1.0
    expected[1, 1, 0] = 1.0
    assert np.max(np.abs(c_left.c - expected)) < 1e-6
    c_right = structure_constants(gens, "right")
    assert np.max(np.abs(c_right.c + c_left.c)) < 1e-12


def test_gl2_constants_match_matrix_commutators():
    # The right-flavor constants must agree with the matrix commutator
    # table; the left flavor is its negative.
    gens = group_generators(get_group("gl:2"), CFG)
    table = gl2_commutator_table()
    c_right = structure_constants(gens, "right")
    assert np.max(np.abs(c_right.c - table)) < 1e-4
    c_left = structure_constants(gens, "left")
    assert np.max(np.abs(c_left.c + table)) < 1e-4


def test_catalog_oracle_matches_measured_constants():
    for name in ("affine", "gl:2", "gl:3"):
        oracle = get_oracles(name).c_left
        measured = structure_constants(group_generators(get_group(name), CFG), "left")
        assert np.max(np.abs(measured.c - oracle)) < 1e-4, name


def test_bracket_affine_example():
    c_left = structure_constants(group_generators(get_group("affine"), CFG), "left")
    out = bracket(c_left, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert np.allclose(out, [0.0, -1.0], atol=1e-6)


@given(st.lists(st.integers(-3, 3), min_size=12, max_size=12))
def test_bracket_bilinear_antisymmetric(entries):
    c = structure_constants(group_generators(get_group("gl:2"), CFG), "left")
    x = np.array(entries[:4], dtype=float)
    y = np.array(entries[4:8], dtype=float)
    z = np.array(entries[8:], dtype=float)
    assert np.allclose(bracket(c, x, y), -bracket(c, y, x), atol=1e-9)
    assert np.allclose(bracket(c, x + 2.0 * z, y),
                       bracket(c, x, y) + 2.0 * bracket(c, z, y), atol=1e-9)


# Why the structure suite yields no row at n = 1 and no jacobi_left at n = 2:
# there the dimension fixes those rows at 0.0 whatever the law.

@given(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4), st.floats(-0.2, 0.2))
def test_1d_laws_have_zero_constants(coef, x):
    # e = 0 for every draw; the a^2 b and a b^2 terms break associativity
    p, q, r, s = coef
    chart = GroupChart(n=1, identity=np.zeros(1), name="drawn 1-d", compose=lambda a, b: (
        a + b + p * a * b + q * a * a * b + r * a * b * b + s * a * a * b * b))
    for flavor in ("left", "right"):
        c = structure_constants(group_generators(chart, CFG), flavor)
        assert not c.c.any()
        assert not constancy_residual(chart, c, np.array([[x]]), CFG).any()


def _antisymmetric(raw):
    return StructureConstants(raw - raw.transpose(0, 2, 1), "left")


@given(arrays(float, (2, 2, 2), elements=st.floats(-10.0, 10.0)))
def test_jacobi_vanishes_in_2d(raw):
    # the Jacobiator of antisymmetric constants is an alternating 3-form
    assert jacobi_residual(_antisymmetric(raw)) == 0.0


def test_jacobi_can_fail_in_3d():
    rng = np.random.default_rng(0)
    assert jacobi_residual(_antisymmetric(rng.uniform(-1.0, 1.0, (3, 3, 3)))) > 0.1


@pytest.mark.parametrize("name", ["affine", "gl:2", "gl:3"])
def test_algebra_residuals(name):
    c = structure_constants(group_generators(get_group(name), CFG), "left")
    assert jacobi_residual(c) < 1e-4


@pytest.mark.parametrize("name", ["multiplicative", "affine", "gl:2"])
@pytest.mark.parametrize("flavor", ["left", "right"])
def test_constancy(name, flavor):
    chart = get_group(name)
    c_ref = structure_constants(group_generators(chart, CFG), flavor)
    a = sample_points(chart, CFG, check_rng(CFG, "pointwise"))
    assert maxabs(constancy_residual(chart, c_ref, a, CFG)) < 1e-3


@pytest.mark.parametrize("name", ["translation:2", "affine", "gl:2"])
@pytest.mark.parametrize("flavor", ["left", "right"])
def test_maurer_equation(name, flavor):
    chart = get_group(name)
    c = structure_constants(group_generators(chart, CFG), flavor)
    [a] = check_points(chart, CFG, f"maurer_{flavor}")
    assert maxabs(maurer_residual(chart, c, a, CFG)) < 1e-3


@pytest.mark.parametrize("name", ["affine", "gl:2"])
@pytest.mark.parametrize("flavor", ["left", "right"])
def test_invariant_field_commutators(name, flavor):
    chart = get_group(name)
    c = structure_constants(group_generators(chart, CFG), flavor)
    [a] = check_points(chart, CFG, f"field_commutators_{flavor}")
    assert maxabs(invariant_field_commutators(chart, c, a, CFG)) < 1e-3


@pytest.mark.parametrize("residual", [constancy_residual, maurer_residual,
                                      invariant_field_commutators])
def test_residuals_of_no_points_are_empty(residual):
    chart = get_group("affine")
    c = structure_constants(group_generators(chart, CFG), "left")
    values = residual(chart, c, np.empty((0, chart.n)), CFG)
    assert values.shape == (0,)
    assert maxabs(values) == 0.0


@pytest.mark.parametrize("name", ["affine", "gl:2"])
def test_right_flavor_functions_give_the_suite_rows(name):
    # the flavor comes from the constants alone
    chart = get_group(name)
    c_right = structure_constants(group_generators(chart, CFG), "right")
    rows = {c.check_id: c.max_residual for c in run_suite(name, "structure", CFG).checks}
    for check_id, fn in (("maurer_right", maurer_residual),
                         ("field_commutators_right", invariant_field_commutators)):
        [a] = check_points(chart, CFG, check_id)
        assert maxabs(fn(chart, c_right, a, CFG)) == rows[check_id], check_id


def per_pair_field_commutators(chart, flavor, cfg, constants):
    """Reference: one vf_commutator, with its own nested Jacobians, per pair."""
    rng = check_rng(cfg, f"field_commutators_{flavor}")
    pts = sample_points(chart, cfg, rng, cfg.sample_count)

    def frame_field(v):
        return lambda x: psi_flavored(chart, x, flavor, cfg)[:, v]

    worst = 0.0
    for a in pts:
        psi = psi_flavored(chart, a, flavor, cfg)
        assert numeric_rank(psi) == chart.n
        for t in range(chart.n):
            for v in range(t + 1, chart.n):
                measured = vf_commutator(frame_field(t), frame_field(v), a, cfg)
                worst = max(worst, maxabs(measured - psi @ constants.c[:, t, v]))
    return worst


def two_handed_frame_derivatives(chart, a, flavor, cfg):
    """Reference: (psi, lam, dlam) at the point a, the right flavor taken on
    the chart itself, by mixed_second at (a, e) with its slots transposed,
    where the package runs the left form on the opposite group."""
    e = chart.identity
    psi = psi_flavored(chart, a, flavor, cfg)
    if flavor == "right":
        dpsi = np.transpose(mixed_second(chart.compose, (a, e), cfg), (0, 2, 1))
    else:
        dpsi = mixed_second(chart.compose, (e, a), cfg)
    lam = np.asfortranarray(invert(psi))
    return psi, lam, -np.einsum("ur,rsp,sv->uvp", lam, dpsi, lam)


def two_handed_right_rows(chart, cfg):
    """Reference values of the structure rows that read the right frame."""
    c = structure_constants(group_generators(chart, cfg), "right")

    def maurer(a):
        _, lam, dlam = two_handed_frame_derivatives(chart, a, "right", cfg)
        curl = dlam - np.transpose(dlam, (0, 2, 1))
        return maxabs(np.einsum("utv,tp,vr->upr", c.c, lam, lam) - curl)

    [pts] = check_points(chart, cfg, "maurer_right")
    return {
        "maurer_right": maxabs([maurer(a) for a in pts]),
        "field_commutators_right": per_pair_field_commutators(chart, "right", cfg, c),
    }


@pytest.mark.parametrize("name", ["affine", "gl:2", "gl:3"])
def test_right_rows_match_their_two_handed_references(name):
    # each right row runs as the left form on the opposite group, with the bits
    # of the right form written out on the chart
    rows = {c.check_id: c.max_residual for c in run_suite(name, "structure", CFG).checks}
    for check_id, reference in two_handed_right_rows(get_group(name), CFG).items():
        assert rows[check_id] == reference, check_id


@pytest.mark.parametrize("name", ["affine", "gl:2"])
@pytest.mark.parametrize("flavor", ["left", "right"])
def test_field_commutators_match_per_pair_reference(name, flavor):
    chart = get_group(name)
    c = structure_constants(group_generators(chart, CFG), flavor)
    [a] = check_points(chart, CFG, f"field_commutators_{flavor}")
    worst = maxabs(invariant_field_commutators(chart, c, a, CFG))
    assert np.array_equal(worst, per_pair_field_commutators(chart, flavor, CFG, c))


# composition-law evaluations of the seed-42 structure suite at the default
# 20 samples.  CEILING_EVALS are the counts of the per-pair route above
# with the generator tensor measured once per flavor, on three of the
# groups; no change to the suite should rise above them.  A 1-d suite
# yields no row and measures nothing.
STRUCTURE_EVALS = {"gl:3": 27_885, "gl:2": 6_025, "translation:3": 3_597, "affine": 1_817,
                   "translation:2": 1_817, "translation:1": 0}
CEILING_EVALS = {"gl:3": 1_006_708, "gl:2": 39_528, "translation:1": 756}


@pytest.mark.parametrize("name", sorted(STRUCTURE_EVALS))
def test_structure_suite_eval_count(name, monkeypatch, law_counter):
    chart = law_counter.chart(get_group(name))
    monkeypatch.setattr(catalog, "get_group", lambda _: chart)
    assert run_suite(name, "structure", DiffConfig()).all_passed
    assert law_counter.evals == STRUCTURE_EVALS[name]
    if name in CEILING_EVALS:
        assert law_counter.evals <= CEILING_EVALS[name]


# law calls of the seed-42 structure suite: one table, so one vetting per
# sampler round for all its rows
STRUCTURE_CALLS = dict.fromkeys(["affine", "gl:2", "gl:3"], 204)


@pytest.mark.parametrize("name", sorted(STRUCTURE_CALLS))
def test_structure_suite_law_calls(name, monkeypatch, law_counter):
    chart = law_counter.chart(get_group(name))
    monkeypatch.setattr(catalog, "get_group", lambda _: chart)
    assert run_suite(name, "structure", DiffConfig()).all_passed
    assert law_counter.calls == STRUCTURE_CALLS[name]


def test_structure_constants_rejects_unknown_flavor():
    gens = group_generators(get_group("affine"), CFG)
    with pytest.raises(ValueError):
        structure_constants(gens, "middle")
