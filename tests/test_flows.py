import numpy as np
import pytest
from scipy.linalg import expm

from liechart.catalog import get_group
from liechart.errors import LeftChart, ZeroPsi
from liechart.flows import (
    additivity_residual,
    canonical_coordinate,
    homomorphism_residual,
    one_param_subgroup,
    reparameterization_residual,
)
from liechart.group import GroupChart
from liechart.numdiff import DiffConfig

CFG = DiffConfig()


def test_translation_flow_is_straight_line():
    chart = get_group("translation:2")
    alpha = np.array([0.3, -0.1])
    flow = one_param_subgroup(chart, alpha, 1.0, cfg=CFG)
    assert np.max(np.abs(flow.endpoint - alpha)) < 1e-10
    mid = flow.path[len(flow.path) // 2]
    assert np.max(np.abs(mid - 0.5 * alpha)) < 1e-10


def test_flow_starts_at_identity():
    chart = get_group("gl:2")
    flow = one_param_subgroup(chart, 0.1 * np.arange(4), 0.5, cfg=CFG)
    assert np.array_equal(flow.path[0], chart.identity)
    assert flow.t_grid[0] == 0.0
    assert flow.t_grid[-1] == pytest.approx(0.5)


def test_gl2_nilpotent_direction_exact():
    # exp of a strictly triangular direction is I + that direction.
    chart = get_group("gl:2")
    alpha = np.array([0.0, 0.7, 0.0, 0.0])
    flow = one_param_subgroup(chart, alpha, 1.0, cfg=CFG)
    assert np.max(np.abs(flow.endpoint - (chart.identity + alpha))) < 1e-8


@pytest.mark.parametrize("flavor", ["left", "right"])
def test_gl2_flow_matches_matrix_exponential(flavor):
    chart = get_group("gl:2")
    rng = np.random.default_rng(7)
    for _ in range(3):
        alpha = rng.uniform(-0.4, 0.4, 4)
        flow = one_param_subgroup(chart, alpha, 1.0, flavor=flavor, cfg=CFG)
        expected = expm(alpha.reshape(2, 2)).ravel()
        assert np.max(np.abs(flow.endpoint - expected)) < 1e-5


def test_homomorphism_residual_small():
    chart = get_group("gl:2")
    flow = one_param_subgroup(chart, np.array([0.2, 0.3, -0.1, 0.1]), 1.0, cfg=CFG)
    assert homomorphism_residual(chart, flow, pairs=10) < 1e-5


def test_reparameterization_consistency():
    chart = get_group("affine")
    alpha = np.array([0.15, -0.2])
    assert reparameterization_residual(chart, alpha, CFG) < 1e-6


def test_multiplicative_flow_hits_exp():
    chart = get_group("multiplicative")
    flow = one_param_subgroup(chart, np.array([1.0]), np.log(2.0), cfg=CFG)
    assert abs(flow.endpoint[0] - 2.0) < 1e-7


def test_flow_escaping_chart_raises():
    # exp(2) - 1 is far outside the multiplicative trust region.
    chart = get_group("multiplicative")
    with pytest.raises(LeftChart):
        one_param_subgroup(chart, np.array([1.0]), 2.0, cfg=CFG)


def test_canonical_coordinate_identity_is_zero():
    chart = get_group("multiplicative")
    assert canonical_coordinate(chart, chart.identity, CFG) == pytest.approx(0.0, abs=1e-12)


def test_canonical_coordinate_translation_is_identity_map():
    chart = get_group("translation:1")
    assert canonical_coordinate(chart, np.array([0.7]), CFG) == pytest.approx(0.7, abs=1e-10)


def test_canonical_coordinate_multiplicative_is_log():
    chart = get_group("multiplicative")
    assert canonical_coordinate(chart, np.array([2.0]), CFG) == pytest.approx(
        np.log(2.0), abs=1e-8)
    assert canonical_coordinate(chart, np.array([0.5]), CFG) == pytest.approx(
        np.log(0.5), abs=1e-8)


def test_canonical_coordinate_additive_on_products():
    chart = get_group("multiplicative")
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b = rng.uniform(0.5, 2.0, 2)
        lhs = canonical_coordinate(chart, np.array([a * b]), CFG)
        rhs = (canonical_coordinate(chart, np.array([a]), CFG)
               + canonical_coordinate(chart, np.array([b]), CFG))
        assert abs(lhs - rhs) < 1e-6


def test_additivity_residual_sampled():
    assert additivity_residual(get_group("multiplicative"), CFG) < 1e-6


def test_canonical_coordinate_rejects_higher_dims():
    with pytest.raises(ValueError):
        canonical_coordinate(get_group("translation:2"), np.array([0.1, 0.2]), CFG)


def test_canonical_coordinate_degenerate_operator_raises():
    # The path from 1 to -0.5 crosses 0 where the basic operator vanishes.
    chart = get_group("multiplicative")
    with pytest.raises(ZeroPsi):
        canonical_coordinate(chart, np.array([-0.5]), CFG)


def test_homomorphism_residual_keeps_nan():
    def compose(a, b):
        # translation that breaks down once both factors pass 0.1; the flow
        # itself only ever pairs a state with a point near the identity
        return np.full(1, np.nan) if a[0] > 0.1 and b[0] > 0.1 else a + b

    chart = GroupChart(n=1, compose=compose, identity=np.zeros(1),
                       chart_radius=10.0, name="nan-translation")
    flow = one_param_subgroup(chart, np.array([0.3]), 1.0, cfg=CFG)
    assert np.isnan(homomorphism_residual(chart, flow))
