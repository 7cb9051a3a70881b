import dataclasses
import math
import re

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import check_points
from liechart import catalog, flows
from liechart.catalog import GROUP_NAMES, get_group
from liechart.errors import LeftChart, ZeroPsi
from liechart.flows import (
    additivity_residual,
    canonical_coordinate,
    homomorphism_residual,
    one_param_subgroup,
)
from liechart.group import GroupChart, check_rng, sample_points
from liechart.numdiff import DiffConfig
from liechart.structure import group_generators
from liechart.suites import SUITES, run_suite

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
    assert homomorphism_residual(chart, flow) < 1e-5


@pytest.mark.parametrize("steps, compared", [(16, 15), (32, 10), (1, 0)])
def test_homomorphism_pairs_are_the_compositions_made(steps, compared, law_counter):
    # all pairs in one law call, none on a path too short to have any
    chart = law_counter.chart(get_group("translation:2"))
    flow = one_param_subgroup(chart, np.array([0.1, -0.2]), 1.0, steps=steps)
    assert len(flows.homomorphism_pairs(flow)) == compared
    evals, calls = law_counter.evals, law_counter.calls
    homomorphism_residual(chart, flow)
    assert law_counter.evals - evals == compared
    assert law_counter.calls - calls == min(1, compared)


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_flows_suite_reports_the_pairs_it_compares(name, monkeypatch, law_counter):
    compared = []
    residual = flows.homomorphism_residual

    def counted_residual(chart, flow):
        before = law_counter.evals
        out = residual(law_counter.chart(chart), flow)
        compared.append(law_counter.evals - before)
        return out

    monkeypatch.setattr(flows, "homomorphism_residual", counted_residual)
    report = run_suite(name, "flows", DiffConfig())
    assert [c.samples for c in report.checks
            if c.check_id.startswith("flow_homomorphism")] == compared


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
    chart = get_group("multiplicative")
    a, b = check_points(chart, CFG, "canonical_additivity", arity=2)
    assert np.max(additivity_residual(chart, a, b, CFG)) < 1e-6


@pytest.mark.parametrize("name", [name for name in GROUP_NAMES if get_group(name).n == 1])
def test_canonical_coordinate_of_a_stack_is_that_of_each_point(name):
    chart = get_group(name)
    pts = sample_points(chart, CFG, check_rng(CFG, "canonical_stack"), 6)
    got = canonical_coordinate(chart, pts, CFG)
    assert got.shape == (6,)
    assert np.array_equal(got, [canonical_coordinate(chart, p, CFG) for p in pts])
    assert np.array_equal(canonical_coordinate(chart, pts.reshape(2, 3, 1), CFG),
                          got.reshape(2, 3))


def test_canonical_coordinate_rejects_higher_dims():
    with pytest.raises(ValueError):
        canonical_coordinate(get_group("translation:2"), np.array([0.1, 0.2]), CFG)


def test_canonical_coordinate_degenerate_operator_raises():
    # The path from 1 to -0.5 crosses 0 where the basic operator vanishes.
    chart = get_group("multiplicative")
    with pytest.raises(ZeroPsi):
        canonical_coordinate(chart, np.array([-0.5]), CFG)
    # one path of a stack through the zero is enough
    with pytest.raises(ZeroPsi):
        canonical_coordinate(chart, np.array([[2.0], [-0.5], [0.5]]), CFG)


@pytest.mark.parametrize("centre", [0.3, 0.37, 0.5123])
def test_canonical_coordinate_catches_a_narrow_dip(centre):
    # psi(tau) = 1 - 2 exp(-((tau - centre) / 0.01)^2) is negative only on
    # a band about 0.017 wide and positive again past it; the quadrature
    # nodes alone step over the dips at 0.3 and 0.37, so a cheaper guard
    # than the sign scan must still raise here
    def psi(tau):
        return 1.0 - 2.0 * np.exp(-((tau - centre) / 0.01) ** 2)

    def law(a, b):
        return a + psi(a) * b

    def marked_law(a, b):
        return law(a, b)

    marked_law.broadcasts = True
    for compose in (law, marked_law):
        chart = GroupChart(n=1, compose=compose, identity=np.zeros(1), name="dip")
        canonical_coordinate(chart, np.array([0.2]), CFG)     # short of every dip
        for target in (np.array([1.0]), np.array([[0.2], [1.0]])):
            with pytest.raises(ZeroPsi):
                canonical_coordinate(chart, target, CFG)


def _dip_chart(centre):
    # the narrow-dip law above: psi is negative on a band about 0.017 wide
    def law(a, b):
        return a + (1.0 - 2.0 * np.exp(-((a - centre) / 0.01) ** 2)) * b

    return GroupChart(n=1, compose=law, identity=np.zeros(1), name="dip")


def _named_node(exc_info) -> float:
    return float(re.search(r"at x = (\S+) on the path", str(exc_info.value)).group(1))


@pytest.mark.parametrize("centre, target", [
    (0.3, [[0.2], [1.0]]), (0.37, [[0.2], [1.0]]), (0.5123, [[0.2], [1.0]]),
    # a path of length 0.2 gets 28 intervals, not 128: the dip is where
    # the grid is coarsest against the fixed one
    (0.15, [0.2]),
])
def test_zero_psi_names_a_node_in_the_dip(centre, target):
    with pytest.raises(ZeroPsi) as info:
        canonical_coordinate(_dip_chart(centre), np.array(target), CFG)
    assert str(info.value).endswith(f"on the path from 0 to {np.ravel(target)[-1]:g}")
    assert abs(_named_node(info) - centre) <= 0.02


def test_additivity_residual_names_the_dip_it_meets():
    # the sample ball of the dip chart reaches past 0.15
    with pytest.raises(ZeroPsi) as info:
        list(SUITES["flows"](_dip_chart(0.15), None, CFG, group_generators))
    assert str(info.value).startswith("canonical_additivity: ")
    assert abs(_named_node(info) - 0.15) <= 0.02


@pytest.mark.parametrize("length, intervals", [(0.0, 4), (0.05, 8), (0.2, 28), (1.0, 128),
                                               (2.0, 128)])
def test_canonical_coordinate_grid_grows_with_the_path(length, intervals, law_counter):
    chart = law_counter.chart(get_group("translation:1"))
    assert canonical_coordinate(chart, np.array([length])) == pytest.approx(length, abs=1e-10)
    assert law_counter.evals == 2 * (intervals + 1)
    assert law_counter.calls == 1


@pytest.mark.parametrize("name", [name for name in GROUP_NAMES if get_group(name).n == 1])
def test_canonical_coordinate_of_a_mixed_stack_is_that_of_each_point(name):
    # the identity, two short paths, a unit path and paths of length 0.5 and 2
    chart = get_group(name)
    pts = chart.identity + np.array([[0.0], [0.05], [-0.2], [1.0], [0.5], [2.0]])
    got = canonical_coordinate(chart, pts, CFG)
    assert got[0] == 0.0
    assert np.array_equal(got, [canonical_coordinate(chart, p, CFG) for p in pts])


def test_canonical_coordinate_matches_log_at_sampled_points():
    chart = get_group("multiplicative")
    pts = sample_points(chart, CFG, check_rng(CFG, "canonical_log"), 50)
    assert np.max(np.abs(canonical_coordinate(chart, pts, CFG) - np.log(pts[:, 0]))) <= 1e-11


def test_homomorphism_residual_keeps_nan():
    def compose(a, b):
        # translation that breaks down once both factors pass 0.1; the flow
        # itself only ever pairs a state with a point near the identity
        return np.full(1, np.nan) if a[0] > 0.1 and b[0] > 0.1 else a + b

    chart = GroupChart(n=1, compose=compose, identity=np.zeros(1),
                       chart_radius=10.0, name="nan-translation")
    flow = one_param_subgroup(chart, np.array([0.3]), 1.0, cfg=CFG)
    assert np.isnan(homomorphism_residual(chart, flow))


@pytest.mark.parametrize("flavor", ["left", "right"])
def test_step_doubling_reaches_matrix_exponential(flavor):
    # long enough a direction that 16 or 32 steps still miss by more than 1e-9
    chart = get_group("gl:2")
    alpha = np.random.default_rng(7).uniform(-1.0, 1.0, 4)
    expected = expm(alpha.reshape(2, 2)).ravel()
    flow = one_param_subgroup(chart, alpha, 1.0, flavor=flavor, cfg=CFG)
    assert np.max(np.abs(flow.endpoint - expected)) < 1e-9
    coarse = one_param_subgroup(chart, alpha, 1.0, steps=2, flavor=flavor, cfg=CFG)
    assert np.max(np.abs(coarse.endpoint - expected)) > 1e-9


def test_step_doubling_stops_at_the_step_cap(monkeypatch):
    # a tolerance no pair of endpoints can meet must still end the loop
    monkeypatch.setattr(flows, "_FLOW_TOL", 0.0)
    t_end = 0.3
    flow = one_param_subgroup(get_group("gl:2"), np.array([0.2, 0.3, -0.1, 0.1]),
                              t_end, cfg=CFG)
    assert len(flow.path) <= math.ceil(1000 * t_end) + 1
    assert flow.t_grid[-1] == pytest.approx(t_end)


def _stiff_compose(a, b):
    # a + b - 40ab has psi(c) = 1 - 40c, so the flow in direction +1 is
    # c(t) = (1 - exp(-40 t)) / 40.  RK4 with 8 steps on [0, 1] is unstable
    # on it and runs away; 16 steps already stay near 1/40.
    return a + b - 40.0 * a * b


def _nan_past_half(a, b):
    # the same law, undefined once a factor leaves [-1/2, 1/2]
    return np.full(1, np.nan) if max(abs(a[0]), abs(b[0])) > 0.5 else _stiff_compose(a, b)


@pytest.mark.parametrize("compose, radius", [(_stiff_compose, 1.0), (_nan_past_half, 10.0)],
                         ids=["left-chart", "non-finite"])
def test_step_doubling_outlasts_an_unstable_coarse_pass(compose, radius):
    chart = GroupChart(n=1, compose=compose, identity=np.zeros(1),
                       chart_radius=radius, name="stiff")
    flow = one_param_subgroup(chart, np.array([1.0]), 1.0, cfg=CFG)
    assert abs(flow.endpoint[0] - (1.0 - math.exp(-40.0)) / 40.0) < 1e-9


def test_step_doubling_raises_left_chart_from_the_capped_pass():
    # in direction -1 the stiff flow c(t) = (1 - exp(40 t)) / 40 really
    # leaves radius 1, at t = log(41) / 40; only the capped pass of 1000
    # steps places the escape within one of its 1e-3 steps (8 steps say 0.125)
    chart = GroupChart(n=1, compose=_stiff_compose, identity=np.zeros(1),
                       chart_radius=1.0, name="stiff")
    with pytest.raises(LeftChart) as info:
        one_param_subgroup(chart, np.array([-1.0]), 1.0, cfg=CFG)
    escape = float(str(info.value).rsplit("=", 1)[1])
    assert abs(escape - math.log(41.0) / 40.0) <= 1e-3



def test_flow_breakdown_names_its_row():
    # the seed-42 flow direction leaves a radius of 0.05 before t = 1
    chart = dataclasses.replace(get_group("translation:2"), chart_radius=0.05)
    with pytest.raises(LeftChart, match="^flow_homomorphism: flow left the trust region"):
        list(SUITES["flows"](chart, None, DiffConfig(), group_generators))

# composition-law evaluations of the seed-42 flows suite at the default 20
# samples.  CEILING_EVALS are the counts with a fixed 1000 RK4 steps per
# unit time; no change to the suite should rise above them.
FLOWS_EVALS = {"translation:1": 2_570, "translation:2": 798, "translation:3": 1_182,
               "multiplicative": 2_586, "affine": 798, "gl:1": 2_586,
               "gl:2": 1_566, "gl:3": 8_084}
CEILING_EVALS = {"translation:1": 44_502, "translation:2": 56_018, "translation:3": 84_018,
                 "multiplicative": 45_414, "affine": 56_018, "gl:1": 45_414,
                 "gl:2": 112_018, "gl:3": 252_018}


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_flows_suite_eval_count(name, monkeypatch, law_counter):
    chart = law_counter.chart(get_group(name))
    monkeypatch.setattr(catalog, "get_group", lambda _: chart)
    assert run_suite(name, "flows", DiffConfig()).all_passed
    assert law_counter.evals == FLOWS_EVALS[name]
    assert law_counter.evals <= CEILING_EVALS[name]
