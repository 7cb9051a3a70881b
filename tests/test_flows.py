import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import check_points, counted_calls
from liechart import catalog, flows, numdiff
from liechart.catalog import GROUP_NAMES, get_group
from liechart.errors import LeftChart, NonFiniteEvaluation, SingularMatrix, ZeroPsi
from liechart.flows import (
    additivity_residual,
    canonical_coordinate,
    homomorphism_residual,
    one_param_subgroup,
)
from liechart.group import GroupChart, check_rng, maxabs, psi_flavored, sample_points
from liechart.numdiff import DiffConfig, as_finite_array, nonfinite_rows, unchecked_jacobian
from liechart.pde import exponential_system, taylor_solve
from liechart.structure import group_generators
from liechart.suites import SUITES, run_suite

CFG = DiffConfig()


def test_translation_flow_is_straight_line():
    chart = get_group("translation:2")
    alpha = np.array([0.3, -0.1])
    flow = one_param_subgroup(chart, alpha, 1.0, cfg=CFG)
    assert np.max(np.abs(flow[-1] - alpha)) < 1e-10
    mid = flow[len(flow) // 2]
    assert np.max(np.abs(mid - 0.5 * alpha)) < 1e-10


def test_flow_starts_at_identity():
    chart = get_group("gl:2")
    flow = one_param_subgroup(chart, 0.1 * np.arange(4), 0.5, cfg=CFG)
    assert np.array_equal(flow[0], chart.identity)
    # a path is its (steps + 1, n) array of states, from the identity on
    path = one_param_subgroup(chart, 0.1 * np.arange(4), 0.5, steps=6, cfg=CFG)
    assert isinstance(path, np.ndarray) and path.shape == (7, 4)
    assert np.array_equal(path[0], chart.identity)


def test_gl2_nilpotent_direction_exact():
    # exp of a strictly triangular direction is I + that direction.
    chart = get_group("gl:2")
    alpha = np.array([0.0, 0.7, 0.0, 0.0])
    flow = one_param_subgroup(chart, alpha, 1.0, cfg=CFG)
    assert np.max(np.abs(flow[-1] - (chart.identity + alpha))) < 1e-8


@pytest.mark.parametrize("flavor", ["left", "right"])
def test_gl2_flow_matches_matrix_exponential(flavor):
    chart = get_group("gl:2")
    rng = np.random.default_rng(7)
    for _ in range(3):
        alpha = rng.uniform(-0.4, 0.4, 4)
        flow = one_param_subgroup(chart, alpha, 1.0, flavor=flavor, cfg=CFG)
        expected = expm(alpha.reshape(2, 2)).ravel()
        assert np.max(np.abs(flow[-1] - expected)) < 1e-5


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
    assert abs(flow[-1, 0] - 2.0) < 1e-7


@pytest.mark.parametrize("steps", [0, -3])
def test_flow_rejects_a_step_count_below_one(steps):
    with pytest.raises(ValueError, match="steps must be at least 1"):
        one_param_subgroup(get_group("translation:2"), np.array([0.1, 0.2]), 1.0, steps=steps)


@pytest.mark.parametrize("t_end", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("steps", [None, 4])
def test_flow_rejects_a_t_end_that_is_not_finite(t_end, steps, law_counter):
    chart = law_counter.chart(get_group("translation:2"))
    with pytest.raises(ValueError, match="^t_end must be finite, got"):
        one_param_subgroup(chart, np.array([0.1, 0.2]), t_end, steps=steps)
    assert law_counter.calls == 0


@pytest.mark.parametrize("steps", [2.5, 2.0, True, "4"])
def test_flow_rejects_a_step_count_that_is_not_an_integer(steps, law_counter):
    chart = law_counter.chart(get_group("translation:2"))
    with pytest.raises(ValueError, match="^steps must be an integer, got"):
        one_param_subgroup(chart, np.array([0.1, 0.2]), 1.0, steps=steps)
    assert law_counter.calls == 0
    # a numpy integer is an integer
    assert np.array_equal(one_param_subgroup(chart, np.array([0.1, 0.2]), 1.0, steps=np.int64(3)),
                          one_param_subgroup(chart, np.array([0.1, 0.2]), 1.0, steps=3))


@pytest.mark.parametrize("steps", [None, 4])
def test_no_flavors_give_no_flows(steps, law_counter):
    chart = law_counter.chart(get_group("gl:2"))
    assert flows.one_param_subgroups(chart, np.zeros(4), 1.0, (), steps=steps) == []
    assert law_counter.calls == 0


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
    assert np.max(np.abs(flow[-1] - expected)) < 1e-9
    coarse = one_param_subgroup(chart, alpha, 1.0, steps=2, flavor=flavor, cfg=CFG)
    assert np.max(np.abs(coarse[-1] - expected)) > 1e-9


def test_step_doubling_stops_at_the_step_cap(monkeypatch):
    # a tolerance no pair of endpoints can meet must still end the loop
    monkeypatch.setattr(flows, "_FLOW_TOL", 0.0)
    t_end = 0.3
    flow = one_param_subgroup(get_group("gl:2"), np.array([0.2, 0.3, -0.1, 0.1]),
                              t_end, cfg=CFG)
    assert len(flow) <= math.ceil(1000 * t_end) + 1


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
    assert abs(flow[-1, 0] - (1.0 - math.exp(-40.0)) / 40.0) < 1e-9


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
# samples: 2 per row and stage, whatever n, then one per homomorphism pair.
# CEILING_EVALS are the counts when every stage took the 2n-point Jacobian
# of the frame at each row; no change to the suite should rise above them.
FLOWS_EVALS = {"translation:1": 2_570, "translation:2": 414, "translation:3": 414,
               "multiplicative": 2_586, "affine": 414, "gl:1": 2_586,
               "gl:2": 414, "gl:3": 916}
# law calls of the same runs: 4 per RK4 round of the one stack that takes
# both flavors' passes of 8 and 16 steps, 64 in all, 128 more on gl:3, where
# one flavor also needs 32 steps; then one call per homomorphism residual,
# and at n = 1 four more for canonical_additivity
FLOWS_CALLS = {"translation:1": 70, "translation:2": 66, "translation:3": 66,
               "multiplicative": 70, "affine": 66, "gl:1": 70, "gl:2": 66, "gl:3": 194}
CEILING_EVALS = {"translation:1": 2_570, "translation:2": 798, "translation:3": 1_182,
                 "multiplicative": 2_586, "affine": 798, "gl:1": 2_586,
                 "gl:2": 1_566, "gl:3": 8_084}


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_flows_suite_eval_count(name, monkeypatch, law_counter):
    chart = law_counter.chart(get_group(name))
    monkeypatch.setattr(catalog, "get_group", lambda _: chart)
    assert run_suite(name, "flows", DiffConfig()).all_passed
    assert law_counter.evals == FLOWS_EVALS[name]
    assert law_counter.evals <= CEILING_EVALS[name]
    assert law_counter.calls == FLOWS_CALLS[name]


# --- the stacked RK4 against the one-row integrator it replaced -------------
#
# A test-local copy of the one-row integrator: one state per RK4 stage, each
# pass of the step doubling run alone, and every breakdown raised at once.

def _one_row_rk4(rhs, y0, t_end, steps, check):
    h = t_end / steps
    path = np.empty((steps + 1, y0.size))
    path[0] = y = y0
    for i in range(steps):
        s = i * h
        k1 = rhs(y, s)
        k2 = rhs(y + 0.5 * h * k1, s + 0.5 * h)
        k3 = rhs(y + 0.5 * h * k2, s + 0.5 * h)
        k4 = rhs(y + h * k3, s + h)
        path[i + 1] = y = check(y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), (i + 1) * h)
    return path


def _one_row_step_doubled(integrate, first, cap, errors):
    steps = min(first, cap)
    coarse = None
    while steps < cap:
        try:
            path = integrate(steps)
        except errors:
            path = None
        if path is not None and coarse is not None and maxabs(path[-1] - coarse[-1]) <= 1e-10:
            return path
        coarse = path
        steps = min(2 * steps, cap)
    return integrate(cap)


def _directional_stage(chart, c, alpha, flavor):
    """psi_flavored(chart, c, flavor) @ alpha at one point c, as one central
    difference along alpha at the identity: tau |alpha|_inf is the widest
    stencil step at e, and alpha is not 0."""
    e = chart.identity
    tau = CFG.base_step * max(1.0, float(np.max(np.abs(e)))) / float(np.max(np.abs(alpha)))
    plus, minus = e + tau * alpha, e - tau * alpha
    if flavor == "left":
        return (chart.compose(plus, c) - chart.compose(minus, c)) / (2.0 * tau)
    return (chart.compose(c, plus) - chart.compose(c, minus)) / (2.0 * tau)


def _one_row_flow(chart, alpha, t_end, flavor, steps=None):
    def rhs(c, _s):
        return as_finite_array(_directional_stage(chart, c, alpha, flavor), "jacobian probe")

    def in_chart(c, s):
        c = as_finite_array(c, "flow state")
        if maxabs(c - chart.identity) > chart.chart_radius:
            raise LeftChart(f"flow left the trust region at t = {s:.6g}")
        return c

    def integrate(m):
        return _one_row_rk4(rhs, chart.identity, t_end, m, in_chart)

    if steps is not None:
        return integrate(steps)
    return _one_row_step_doubled(integrate, max(1, math.ceil(8 * abs(t_end))),
                                 max(1, math.ceil(1000 * abs(t_end))),
                                 (LeftChart, NonFiniteEvaluation))


def _flow_direction(chart, seed):
    return check_rng(DiffConfig(rng_seed=seed), "flow_direction").uniform(-0.2, 0.2, chart.n)


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_stacked_flows_keep_the_bits_of_the_one_row_integrator(name):
    chart = get_group(name)
    steps_taken = set()
    for seed in range(1, 11):
        alpha = _flow_direction(chart, seed)
        stack = flows.one_param_subgroups(chart, alpha, 1.0, ("right", "left"), cfg=CFG)
        for flavor, flow in zip(("right", "left"), stack):
            expected = _one_row_flow(chart, alpha, 1.0, flavor)
            assert np.array_equal(flow, expected), (seed, flavor)
            assert np.array_equal(one_param_subgroup(chart, alpha, 1.0, flavor=flavor,
                                                     cfg=CFG), expected)
            steps_taken.add(len(expected) - 1)
        # a uniform grid of steps given by the caller
        for flow, flavor in zip(flows.one_param_subgroups(chart, alpha, 0.7, ("left", "right"),
                                                          steps=5 + seed, cfg=CFG),
                                ("left", "right")):
            assert np.array_equal(flow, _one_row_flow(chart, alpha, 0.7, flavor, 5 + seed))
    # the range reaches rows that need a third pass
    assert max(steps_taken) >= (32 if name in ("gl:2", "gl:3") else 16)


def test_stacked_taylor_solve_keeps_the_bits_of_the_one_row_integrator():
    sys = exponential_system()
    for x1 in ([0.3, 0.0], [0.2, -0.4], [-0.5, 0.5]):
        x0, x1 = np.zeros(2), np.array(x1)

        def rhs(th, s):
            return sys.rhs(th, x0 + s * (x1 - x0)) @ (x1 - x0)

        expected = _one_row_step_doubled(
            lambda m: _one_row_rk4(rhs, np.ones(1), 1.0, m,
                                   lambda th, _s: as_finite_array(th, "pde solution")),
            8, 500, NonFiniteEvaluation)[-1]
        assert np.array_equal(taylor_solve(sys, np.ones(1), x0, x1, CFG, check=False), expected)


# --- breakdowns are per row ------------------------------------------------


def _raises_past_half(a, b):
    # the stiff law, which itself raises once a factor leaves [-1/2, 1/2]
    if max(np.max(np.abs(a)), np.max(np.abs(b))) > 0.5:
        raise NonFiniteEvaluation("law undefined past 1/2")
    return _stiff_compose(a, b)


_raises_past_half.broadcasts = True      # one stacked call for all rows


def _stiff_chart(compose, radius):
    return GroupChart(n=1, compose=compose, identity=np.zeros(1), chart_radius=radius,
                      name="stiff")


def test_stiff_and_undefined_laws_break_per_row_in_one_stack():
    # rows 0, 1 follow the stiff law in a radius of 1, rows 2, 3 the law
    # that is NaN past 1/2; the 8-step rows break, the 16-step rows go on
    charts = [_stiff_chart(_stiff_compose, 1.0), _stiff_chart(_nan_past_half, 10.0)]
    law = np.array([0, 0, 1, 1])
    one = np.ones(1)

    def stage(c, _s, rows):
        psi = np.empty((len(rows), 1, 1))
        for j, chart in enumerate(charts):
            at = law[rows] == j
            if at.any():
                psi[at] = unchecked_jacobian(
                    lambda y: chart.compose(c[at][:, None, :], y), np.zeros((at.sum(), 1)), CFG)
        return psi @ one

    def check(c, s, rows):
        radius = np.array([charts[j].chart_radius for j in law[rows]])
        failed = {p: LeftChart(f"flow left the trust region at t = {s[p]:.6g}")
                  for p in np.flatnonzero(np.abs(c[:, 0]) > radius).tolist()}
        failed.update(nonfinite_rows(c, "flow state"))
        return failed

    paths = flows.rk4_path(stage, np.zeros((4, 1)), 1.0, [8, 16, 8, 16], check, "jacobian probe")
    assert isinstance(paths[0], LeftChart)
    assert isinstance(paths[2], NonFiniteEvaluation)
    for row, chart in ((0, charts[0]), (2, charts[1])):
        with pytest.raises(type(paths[row]), match=f"^{re.escape(str(paths[row]))}$"):
            _one_row_flow(chart, one, 1.0, "right", steps=8)
    for row, chart in ((1, charts[0]), (3, charts[1])):
        assert np.array_equal(paths[row], _one_row_flow(chart, one, 1.0, "right", steps=16))
    # and through the flows themselves: the endpoint of today's step doubling
    for chart in charts:
        assert np.array_equal(one_param_subgroup(chart, one, 1.0, cfg=CFG)[-1],
                              _one_row_flow(chart, one, 1.0, "right")[-1])


def test_a_law_that_raises_breaks_only_its_own_row():
    # the stacked call raises once the 8-step row runs away; that round is
    # run again one row at a time, so only the 8-step row leaves the stack
    chart = _stiff_chart(_raises_past_half, 10.0)
    with pytest.raises(NonFiniteEvaluation, match="^law undefined past 1/2$"):
        _one_row_flow(chart, np.ones(1), 1.0, "right", steps=8)
    flow = one_param_subgroup(chart, np.ones(1), 1.0, cfg=CFG)
    assert np.array_equal(flow, _one_row_flow(chart, np.ones(1), 1.0, "right"))
    assert abs(flow[-1, 0] - (1.0 - math.exp(-40.0)) / 40.0) < 1e-9


def _one_sided_chart(broken_slot, raises):
    # translation in 2-d, undefined once the factor in `broken_slot` leaves
    # radius 0.05 while the other factor sits within 1e-3 of the identity:
    # only the flow whose stencil holds the state in that slot breaks, and
    # the homomorphism pairs, both factors away from e, never do
    def law(a, b):
        state, probe = (a, b) if broken_slot == "left" else (b, a)
        bad = ((np.max(np.abs(state), axis=-1) > 0.05)
               & (np.max(np.abs(probe), axis=-1) < 1e-3))
        if raises and bad.any():
            raise NonFiniteEvaluation("law undefined past 0.05")
        return np.where(bad[..., None], np.nan, a + b)

    law.broadcasts = True
    return GroupChart(n=2, compose=law, identity=np.zeros(2), name="one-sided")


@pytest.mark.parametrize("raises", [False, True], ids=["nan", "raising"])
def test_a_flavor_that_breaks_at_the_cap_raises_at_its_turn(raises):
    # the state sits in the right slot of the left flavor's stencil
    chart = _one_sided_chart("right", raises)
    alpha = _flow_direction(chart, 42)
    with pytest.raises(NonFiniteEvaluation) as alone:
        _one_row_flow(chart, alpha, 1.0, "left")
    rows = SUITES["flows"](chart, None, DiffConfig(), group_generators)
    check_id, samples, residual = next(rows)
    assert check_id == "flow_homomorphism" and residual < 1e-12
    with pytest.raises(NonFiniteEvaluation,
                       match=f"^flow_homomorphism_left: {re.escape(str(alone.value))}$"):
        next(rows)


@pytest.mark.parametrize("raises", [False, True], ids=["nan", "raising"])
def test_a_right_flow_that_breaks_at_the_cap_stops_the_suite_at_once(raises):
    # the reverse order: the right flow breaks, and the left one is not reported
    chart = _one_sided_chart("left", raises)
    alpha = _flow_direction(chart, 42)
    assert np.array_equal(flows.one_param_subgroups(chart, alpha, 1.0, ("left",))[0],
                          _one_row_flow(chart, alpha, 1.0, "left"))
    with pytest.raises(NonFiniteEvaluation) as alone:
        _one_row_flow(chart, alpha, 1.0, "right")
    with pytest.raises(NonFiniteEvaluation,
                       match=f"^flow_homomorphism: {re.escape(str(alone.value))}$"):
        list(SUITES["flows"](chart, None, DiffConfig(), group_generators))


@pytest.mark.parametrize("steps", [None, 8], ids=["doubled", "8 steps"])
@pytest.mark.parametrize("raises", [False, True], ids=["nan", "raising"])
@pytest.mark.parametrize("broken_slot", ["left", "right"])
def test_the_real_rhs_keeps_each_flavors_one_row_flow_or_error(broken_slot, raises, steps):
    # the flavor whose stencil holds the state in the broken slot breaks,
    # as a jacobian probe (NaN) or with the law's own error (raised), never
    # as a flow state; the other keeps its one-row bits
    chart = _one_sided_chart(broken_slot, raises)
    alpha = _flow_direction(chart, 42)
    flavors = ("right", "left")
    broken = "right" if broken_slot == "left" else "left"
    got = flows.one_param_subgroups(chart, alpha, 1.0, flavors, steps=steps, cfg=CFG)
    for flavor, path in zip(flavors, got):
        if flavor != broken:
            assert np.array_equal(path, _one_row_flow(chart, alpha, 1.0, flavor, steps))
            continue
        with pytest.raises(NonFiniteEvaluation) as alone:
            _one_row_flow(chart, alpha, 1.0, flavor, steps)
        assert type(path) is NonFiniteEvaluation and str(path) == str(alone.value)
        assert str(path) == ("law undefined past 0.05" if raises
                             else "jacobian probe produced a non-finite value")
    if steps is None:
        check_id = dict(zip(flavors, ("flow_homomorphism", "flow_homomorphism_left")))[broken]
        with pytest.raises(NonFiniteEvaluation,
                           match=f"^{check_id}: {re.escape(str(got[flavors.index(broken)]))}$"):
            list(SUITES["flows"](chart, None, DiffConfig(), group_generators))


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_a_flow_that_never_breaks_runs_no_checked_stage(name, monkeypatch):
    # stages are checked only where a round runs again alone; a clean run
    # never does, a broken one does
    seen = counted_calls(monkeypatch, flows, "_alone")
    list(SUITES["flows"](get_group(name), None, DiffConfig(), group_generators))
    assert seen == []
    chart = _one_sided_chart("left", False)
    flows.one_param_subgroups(chart, _flow_direction(chart, 42), 1.0, ("right",), steps=8, cfg=CFG)
    assert seen


@pytest.mark.parametrize("driver, steps", [("rk4_path", 8), ("step_doubled", None)])
def test_one_param_subgroups_returns_the_drivers_paths_and_errors(driver, steps, monkeypatch):
    # the left flow runs, the right one breaks: each flavor gets the very
    # array or error its RK4 driver gave for its row
    chart = _one_sided_chart("left", False)
    real, given = getattr(flows, driver), []

    def spy(*args):
        given.extend(real(*args))
        return given

    monkeypatch.setattr(flows, driver, spy)
    got = flows.one_param_subgroups(chart, _flow_direction(chart, 42), 1.0, ("left", "right"),
                                    steps=steps, cfg=CFG)
    assert len(got) == len(given) == 2
    assert all(g is d for g, d in zip(got, given))
    assert isinstance(got[0], np.ndarray) and got[0].shape[1:] == (2,)
    assert isinstance(got[1], NonFiniteEvaluation)


def _singular_past(bound):
    # the stiff law, which raises a breakdown that is not "unsettled" once a
    # factor leaves [-bound, bound], naming the factor it met
    def law(a, b):
        big = max(np.max(np.abs(a)), np.max(np.abs(b)))
        if big > bound:
            raise SingularMatrix(f"law undefined at {big:.6g}")
        return _stiff_compose(a, b)

    return _stiff_chart(law, 10.0)


def test_a_breakdown_below_the_cap_that_is_not_unsettled_ends_the_flow():
    # only LeftChart and NonFiniteEvaluation mean "not converged"; any other
    # breakdown in the pass of 8 steps is the flow's result, as it was alone
    chart = _singular_past(0.5)
    with pytest.raises(SingularMatrix) as alone:
        _one_row_flow(chart, np.ones(1), 1.0, "right")
    with pytest.raises(SingularMatrix, match=f"^{re.escape(str(alone.value))}$"):
        one_param_subgroup(chart, np.ones(1), 1.0, cfg=CFG)


def test_the_coarser_pass_names_the_breakdown_when_both_first_passes_break():
    # at a bound of 0.02 the passes of 8 and 16 steps both break, at other
    # factors; the flow raises the breakdown of the pass of 8, as it was alone
    chart = _singular_past(0.02)
    with pytest.raises(SingularMatrix) as coarse:
        _one_row_flow(chart, np.ones(1), 1.0, "right", steps=8)
    with pytest.raises(SingularMatrix) as fine:
        _one_row_flow(chart, np.ones(1), 1.0, "right", steps=16)
    assert str(coarse.value) != str(fine.value)
    with pytest.raises(SingularMatrix, match=f"^{re.escape(str(coarse.value))}$"):
        one_param_subgroup(chart, np.ones(1), 1.0, cfg=CFG)


def test_a_state_that_overflows_breaks_its_row_as_a_flow_state():
    # the stencil stays finite at 1e308 per unit, but the RK4 combination
    # of four such stages overflows: the state, not the probe, is non-finite
    def law(a, b):
        return a + 1e308 * b

    chart = GroupChart(n=1, compose=law, identity=np.zeros(1), chart_radius=np.inf,
                       name="steep")
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteEvaluation, match="^flow state produced a non-finite value$"):
            _one_row_flow(chart, np.ones(1), 1.0, "right", steps=8)
        first, second = flows.one_param_subgroups(chart, np.ones(1), 1.0, ("right", "right"),
                                                 steps=8, cfg=CFG)
    assert str(first) == str(second) == "flow state produced a non-finite value"


# --- two probes around the identity per run ---------------------------------
#
# A stage is psi_flavored(c) alpha by one central difference along alpha;
# `_directional_stage` above is its one-row reference.

_MIXED = ("right", "left", "left", "right", "left")


def _stage(chart, alpha, flavors, monkeypatch):
    """The stage and the probe name that one_param_subgroups hands rk4_path,
    here never run by it."""
    given = []
    monkeypatch.setattr(flows, "rk4_path",
                        lambda stage, *args: given.append((stage, args[-1])) or [])
    flows.one_param_subgroups(chart, alpha, 1.0, flavors, steps=1, cfg=CFG)
    return given[0]


def _point_law_chart():
    # ax+b written for single points, lifted by numdiff.rowwise
    return GroupChart(n=2, compose=lambda a, b: np.array([a[0] * b[0], a[0] * b[1] + a[1]]),
                      identity=np.array([1.0, 0.0]), name="ax+b")


@pytest.mark.parametrize("name", [*GROUP_NAMES, "ax+b"])
def test_a_stage_is_psi_flavored_times_alpha_bit_for_bit(name, monkeypatch):
    # bit for bit the one-row directional difference, and psi_flavored(c)
    # alpha, the product of the 2n-point Jacobian, up to difference error
    chart = _point_law_chart() if name == "ax+b" else get_group(name)
    alpha = _flow_direction(chart, 42)
    stage, _ = _stage(chart, alpha, _MIXED, monkeypatch)
    # the rows of a stack name the flavors they take, in any order
    for rows in (np.arange(len(_MIXED)), np.array([4, 0, 3, 1])):
        c = sample_points(chart, CFG, check_rng(CFG, "stage"), len(rows))
        k = stage(c, np.zeros(len(rows)), rows)
        for p, r in enumerate(rows.tolist()):
            assert np.array_equal(k[p], _directional_stage(chart, c[p], alpha, _MIXED[r]))
            assert maxabs(k[p] - psi_flavored(chart, c[p], _MIXED[r], CFG) @ alpha) <= 1e-9


@pytest.mark.parametrize("flavor", ["left", "right"])
def test_a_zero_direction_gives_the_constant_path(flavor, monkeypatch):
    # the step along 0 is the widest stencil step, so the probes are e and
    # every stage is exactly 0: nothing divides by zero
    chart = get_group("gl:2")
    stage, _ = _stage(chart, np.zeros(4), (flavor,), monkeypatch)
    c = sample_points(chart, CFG, check_rng(CFG, "stage"), 3)
    assert np.array_equal(stage(c, np.zeros(3), np.zeros(3, dtype=int)), np.zeros((3, 4)))
    monkeypatch.undo()
    path = one_param_subgroup(chart, np.zeros(4), 1.0, flavor=flavor, cfg=CFG)
    assert np.array_equal(path, np.tile(chart.identity, (len(path), 1)))


def test_a_nan_stencil_value_breaks_only_its_rows_stage_as_a_jacobian_probe(monkeypatch):
    # the law is NaN where its left factor is a state past 0.05 and its
    # right one a probe near e: only the right flavor of the far state is
    # NaN, which the driver names a jacobian probe
    chart = _one_sided_chart("left", False)
    alpha = _flow_direction(chart, 42)
    stage, probe = _stage(chart, alpha, ("right", "left"), monkeypatch)
    assert probe == "jacobian probe"
    c = np.array([[0.1, 0.0], [0.1, 0.0], [0.01, 0.0]])
    k = stage(c, np.zeros(3), np.array([0, 1, 0]))
    assert np.isnan(k[0]).all()
    assert np.array_equal(k[1:], [_directional_stage(chart, c[1], alpha, "left"),
                                  _directional_stage(chart, c[2], alpha, "right")])


@pytest.mark.parametrize("steps, rounds", [(1, 1), (5, 5), (40, 40), (None, 16)])
def test_one_run_builds_its_stencil_once_whatever_its_rounds(steps, rounds, monkeypatch):
    # the probes e +- tau alpha are built once per run, a run makes 4 law
    # calls a round, and a call evaluates the law at 2 probes per live row
    built, real = [], flows.direction_step
    monkeypatch.setattr(flows, "direction_step", lambda *args: built.append(args) or real(*args))
    chart, calls = get_group("gl:2"), []
    law = chart.compose

    def spy(a, b):
        calls.append((a.copy(), b.copy()))
        return law(a, b)

    spy.broadcasts = True
    chart = dataclasses.replace(chart, compose=spy)
    alpha = _flow_direction(chart, 42)
    flows.one_param_subgroups(chart, alpha, 1.0, ("right", "left"), steps=steps, cfg=CFG)
    assert len(built) == 1 and np.array_equal(built[0][0], chart.identity)
    assert len(calls) == 4 * rounds
    # with `steps`, one row per flavor; without, both flavors' passes of 8
    # and 16 steps, those of 16 alone after round 8
    live = [2] * 4 * rounds if steps else [4] * 32 + [2] * 32
    assert [a.shape for a, _ in calls] == [(j, 2, 4) for j in live]
    tau = real(chart.identity, alpha, CFG)
    probes = np.stack([chart.identity + tau * alpha, chart.identity - tau * alpha])
    for a, b in calls:
        # every row holds the probes in one slot, the left one for a left row
        left = [np.array_equal(a[p], probes) for p in range(len(a))]
        right = [np.array_equal(b[p], probes) for p in range(len(b))]
        assert all(x != y for x, y in zip(left, right)) and sum(left) == len(a) // 2


@pytest.mark.parametrize("flavors", ["left", "right", ""])
def test_one_param_subgroups_rejects_a_bare_flavor_name(flavors, law_counter):
    # a string is a sequence of letters, which used to fail as "unknown flavor 'l'"
    chart = law_counter.chart(get_group("gl:2"))
    with pytest.raises(ValueError, match="^flavors must be a sequence of flavors"):
        flows.one_param_subgroups(chart, np.ones(4), 1.0, flavors)
    assert law_counter.calls == 0


@pytest.mark.parametrize("base_step", [1e-7, 1e-4, 1e-2, numdiff.CBRT_EPS],
                         ids=["1e-7", "1e-4", "1e-2", "auto"])
@pytest.mark.parametrize("name", GROUP_NAMES)
def test_flows_suite_passes_on_a_grid_of_steps(name, base_step):
    # tau scales with base_step as the stencil's steps do
    assert run_suite(name, "flows", DiffConfig(base_step=base_step)).all_passed


# --- the driver against the one-row integrator ------------------------------
#
# Row r of a stack follows y' = a_r y (1 - y) + s b in + - * only, so a
# stacked call gives each row the bits of its one-row call.  A breakdown is
# injected into a row at one (round, stage): that stage gives NaN or Inf,
# or raises, or the check finds the round's new state outside the chart.
# A stage is hit by its time and its input state, both from the row's
# one-row run, so the two middle stages, which share a time, are told
# apart.  The driver names a non-finite stage by the probe name "stage",
# and the check a non-finite state "state": a stage breakdown must never
# read as one.  Each system counts, per row, the calls that took it and
# returned.

_A = np.array([0.5, -0.8, 1.1, 0.3, -0.4])
_B = np.array([0.2, -0.1])
_STAGE_WAYS = ("nan", "inf", "raise")


def _broke(r, way, s):
    return f"row {int(r)} broke through {way} at s = {float(s)!r}"


def _stage_inputs(r, y0, t_end, steps):
    """(y, s) of each stage call of row r's clean one-row run, in order."""
    seen = []

    def stage(y, s):
        seen.append((y.copy(), s))
        return _A[r] * y * (1.0 - y) + s * _B

    _one_row_rk4(stage, y0, t_end, steps, lambda y, _s: y)
    return seen


def _hit(targets, r, y, s):
    way, at, x = targets.get(r, (None, None, None))
    return way if way in _STAGE_WAYS and s == at and np.array_equal(y, x) else None


def _stacked_system(targets, calls):
    """stage and check for rk4_path, appending to `calls` (kind, row
    numbers) per call that returns; targets maps a row number to (way,
    time, input state), the state None for "chart"."""
    def stage(y, s, rows):
        # a non-finite input reads as 0, so that only the broken stage's own
        # weight in the RK4 sum carries its breakdown into the new state
        y = np.where(np.isfinite(y), y, 0.0)
        k = _A[rows][:, None] * y * (1.0 - y) + s[:, None] * _B
        for p, r in enumerate(rows.tolist()):
            way = _hit(targets, r, y[p], s[p])
            if way == "raise":
                raise NonFiniteEvaluation(_broke(r, "raise", s[p]))
            if way:
                k[p] = np.nan if way == "nan" else np.inf
        calls.append(("stage", rows.tolist()))
        return k

    def check(y, s, rows):
        calls.append(("check", rows.tolist()))
        failed = {p: LeftChart(_broke(r, "chart", t))
                  for p, (r, t) in enumerate(zip(rows.tolist(), s.tolist()))
                  if targets.get(r, (None, None))[:2] == ("chart", t)}
        failed.update({p: NonFiniteEvaluation(_broke(rows[p], "state", s[p]))
                       for p in np.flatnonzero(~np.isfinite(y).all(axis=1)).tolist()})
        return failed

    return stage, check


def _one_row_system(r, targets, returned):
    """stage and check for _one_row_rk4, raising row r's breakdown as the
    driver names it, and counting in `returned` the calls of each kind that
    return."""
    def stage(y, s):
        way = _hit(targets, r, y, s)
        if way == "raise":
            raise NonFiniteEvaluation(_broke(r, "raise", s))
        returned["stage"] += 1
        if way:
            raise NonFiniteEvaluation("stage produced a non-finite value")
        return _A[r] * y * (1.0 - y) + s * _B

    def check(y, s):
        if not np.isfinite(y).all():
            raise NonFiniteEvaluation(_broke(r, "state", s))
        returned["check"] += 1
        if targets.get(r, (None, None))[:2] == ("chart", s):
            raise LeftChart(_broke(r, "chart", s))
        return y

    return stage, check


@settings(max_examples=200)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=5),
       st.one_of(st.floats(-2.0, -0.01), st.floats(0.01, 2.0)), st.data())
def test_a_stack_keeps_each_rows_one_row_path_or_breakdown(steps, t_end, data):
    k = len(steps)
    rows = np.array(data.draw(st.permutations(range(k))))
    y0 = np.linspace(0.1, 0.6, 2 * k).reshape(k, 2)
    targets = {}
    for p in data.draw(st.sets(st.integers(0, k - 1))):
        r = int(rows[p])
        way = data.draw(st.sampled_from([*_STAGE_WAYS, "chart"]))
        i = data.draw(st.integers(0, steps[p] - 1))
        if way == "chart":
            targets[r] = (way, (i + 1) * (t_end / steps[p]), None)
        else:
            x, s = _stage_inputs(r, y0[p], t_end, steps[p])[4 * i + data.draw(st.integers(0, 3))]
            targets[r] = (way, s, x)
    calls = []
    stage, check = _stacked_system(targets, calls)
    with np.errstate(invalid="ignore", over="ignore"):    # a broken row runs on in its round
        paths = flows.rk4_path(stage, y0, t_end, steps, check, "stage", rows)
    raised = any(way == "raise" for way, _, _ in targets.values())
    for p, path in enumerate(paths):
        r, returned = int(rows[p]), {"stage": 0, "check": 0}
        stage, check = _one_row_system(r, targets, returned)
        try:
            expected = _one_row_rk4(stage, y0[p], t_end, steps[p], check)
        except (NonFiniteEvaluation, LeftChart) as exc:
            assert type(path) is type(exc) and str(path) == str(exc)
        else:
            assert np.array_equal(path, expected)
        # the stack calls each row as often as it ran alone, and a broken
        # row for one more round, the clean one before it ran alone (a round
        # in which a stage raised runs every live row alone, with more calls)
        if not raised:
            for kind, more in (("stage", 4), ("check", 1)):
                assert sum(r in taken for of, taken in calls if of == kind) \
                    == returned[kind] + more * (r in targets)
    # every injected breakdown stops its own row and no other, and a stage
    # breakdown keeps its stage's message
    assert {int(rows[p]) for p, path in enumerate(paths) if isinstance(path, Exception)} \
        == set(targets)
    assert not any(" through state " in str(path) for path in paths)
    assert all(taken for _, taken in calls)
    # a clean stack: 4 stage calls and one check a round
    if not targets:
        assert [sum(of == kind for of, _ in calls) for kind in ("stage", "check")] \
            == [4 * max(steps), max(steps)]


def _rounds(*live):
    """The calls of one whole round, four stages and a check, per stack of
    row numbers in `live`."""
    return [call for rows in live for call in [("stage", rows)] * 4 + [("check", rows)]]


def test_a_round_runs_again_only_for_the_rows_its_check_reports():
    # rows 1 and 3 leave the chart at the end of round 3 of 4: that round
    # runs again for each of them alone, while rows 0 and 2 keep their
    # clean-round states and take no further stage call until round 4
    y0 = np.linspace(0.1, 0.6, 8).reshape(4, 2)
    targets = {1: ("chart", 0.75, None), 3: ("chart", 0.75, None)}
    calls = []
    stage, check = _stacked_system(targets, calls)
    paths = flows.rk4_path(stage, y0, 1.0, [4] * 4, check, "stage")
    everyone = [0, 1, 2, 3]
    assert calls == _rounds(everyone, everyone, everyone, [1], [3], [0, 2])
    for r in (1, 3):
        assert type(paths[r]) is LeftChart and str(paths[r]) == _broke(r, "chart", 0.75)
    for r in (0, 2):
        stage, check = _one_row_system(r, targets, {"stage": 0, "check": 0})
        assert np.array_equal(paths[r], _one_row_rk4(stage, y0[r], 1.0, 4, check))


def test_a_round_in_which_a_stage_raises_runs_again_for_every_live_row():
    # row 1's second stage of round 3 raises for the whole call: that round
    # runs again for every live row alone, and row 1 breaks at that stage
    y0 = np.linspace(0.1, 0.6, 8).reshape(4, 2)
    x, s = _stage_inputs(1, y0[1], 1.0, 4)[4 * 2 + 1]
    calls = []
    stage, check = _stacked_system({1: ("raise", s, x)}, calls)
    paths = flows.rk4_path(stage, y0, 1.0, [4] * 4, check, "stage")
    everyone = [0, 1, 2, 3]
    assert calls == (_rounds(everyone, everyone) + [("stage", everyone)] + _rounds([0])
                     + [("stage", [1])] + _rounds([2], [3], [0, 2, 3]))
    assert type(paths[1]) is NonFiniteEvaluation and str(paths[1]) == _broke(1, "raise", s)
    assert all(isinstance(path, np.ndarray) for r, path in enumerate(paths) if r != 1)


@pytest.mark.parametrize("steps, message", [
    ([-2], "steps must be at least 1, got -2"),
    ([2.5], "steps must be an integer, got 2.5"),
    ([0], "steps must be at least 1, got 0"),
    ([3, 0], "steps must be at least 1, got 0"),
])
def test_rk4_path_rejects_a_step_count_before_any_call(steps, message):
    calls = []
    stage, check = _stacked_system({}, calls)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        flows.rk4_path(stage, np.zeros((len(steps), 2)), 1.0, steps, check, "stage")
    assert calls == []


def test_rk4_path_of_no_rows_is_empty():
    calls = []
    stage, check = _stacked_system({}, calls)
    assert flows.rk4_path(stage, np.zeros((0, 2)), 1.0, [], check, "stage") == []
    assert calls == []


@pytest.mark.parametrize("first, cap, message", [
    (-1, 4, "first must be at least 1, got -1"),
    (2, 0, "cap must be at least 1, got 0"),
    (2.0, 4, "first must be an integer, got 2.0"),
])
def test_step_doubled_rejects_a_step_count_before_any_call(first, cap, message):
    calls = []
    stage, check = _stacked_system({}, calls)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        flows.step_doubled(stage, np.zeros((1, 2)), 1.0, first, cap, check, "stage",
                           NonFiniteEvaluation)
    assert calls == []


def test_canonical_coordinate_rejects_a_point_of_two_coordinates():
    # it used to integrate to the first coordinate, log 2, and drop the 3
    with pytest.raises(ValueError, match=r"got shape \(2,\)$"):
        canonical_coordinate(get_group("multiplicative"), np.array([2.0, 3.0]), CFG)


def test_canonical_coordinate_rejects_a_0d_array():
    with pytest.raises(ValueError, match=r"got shape \(\)$"):
        canonical_coordinate(get_group("multiplicative"), np.array(2.0), CFG)
