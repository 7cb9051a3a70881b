"""The stacked check residuals against their per-point reference forms.

Every chart-axiom and shift-identity residual runs once per check over
(count, n) stacks of its sample points.  The reference below is the
one-point-at-a-time form of each residual, with every map it
differentiates lifted by `rowwise`; the stacked form must reproduce its
value at every sample bit for bit, on laws that broadcast themselves and
on lifted point laws alike.  `sample_sets`, which draws and vets a
whole round of points for a table of checks at once, must keep each
check's points and generator state of drawing and vetting one point at
a time, as must `sample_points`, its one-set case, and `inverse`, which
solves a whole stack in one damped Newton, must give each row the bits,
the evaluations and the breakdown of solving it alone.
"""

import copy as copy_module
import dataclasses

import numpy as np
import pytest

from conftest import captured_table, check_points
from liechart import group, structure, suites
from liechart.catalog import GROUP_NAMES, get_group
from liechart.errors import LieChartError, NoConvergence, NonFiniteEvaluation, SingularMatrix
from liechart.group import (
    GroupChart,
    _a_left,
    _a_right,
    check_rng,
    inverse,
    maxabs,
    psi_flavored,
    psi_pair,
    sample_points,
)
from liechart.numdiff import DiffConfig, as_finite_array, broadcasting, invert, jacobian, rowwise
from test_mutations import MUTANTS

# --- the per-point reference forms ------------------------------------------

AXIOM_REFERENCE = (
    ("chart_identity_left", 1,
     lambda chart, cfg, a: maxabs(chart.compose(chart.identity, a) - a)),
    ("chart_identity_right", 1,
     lambda chart, cfg, a: maxabs(chart.compose(a, chart.identity) - a)),
    ("chart_associativity", 3, lambda chart, cfg, a, b, c: maxabs(
        chart.compose(chart.compose(a, b), c) - chart.compose(a, chart.compose(b, c)))),
    ("inverse_left", 1, lambda chart, cfg, a: maxabs(
        chart.compose(inverse(chart, a, cfg), a) - chart.identity)),
    ("inverse_roundtrip", 1, lambda chart, cfg, a: maxabs(
        inverse(chart, inverse(chart, a, cfg), cfg) - a)),
)


def _res_cocycle_left(chart, cfg, a, b, c):
    ab = chart.compose(a, b)
    bc = chart.compose(b, c)
    lhs = _a_left(chart, ab, c, cfg) @ _a_left(chart, a, b, cfg)
    return maxabs(lhs - _a_left(chart, a, bc, cfg))


def _res_cocycle_right(chart, cfg, a, b, c):
    ab = chart.compose(a, b)
    bc = chart.compose(b, c)
    lhs = _a_right(chart, a, bc, cfg) @ _a_right(chart, b, c, cfg)
    return maxabs(lhs - _a_right(chart, ab, c, cfg))


def _res_cocycle_mixed(chart, cfg, a, b, c):
    ab = chart.compose(a, b)
    bc = chart.compose(b, c)
    lhs = _a_right(chart, a, bc, cfg) @ _a_left(chart, b, c, cfg)
    return maxabs(lhs - _a_left(chart, ab, c, cfg) @ _a_right(chart, a, b, cfg))


def _res_inverse_operator_left(chart, cfg, a, b):
    ab = chart.compose(a, b)
    b_inv = inverse(chart, b, cfg)
    lhs = _a_left(chart, ab, b_inv, cfg) @ _a_left(chart, a, b, cfg)
    return maxabs(lhs - np.eye(chart.n))


def _res_inverse_operator_right(chart, cfg, b, c):
    bc = chart.compose(b, c)
    b_inv = inverse(chart, b, cfg)
    lhs = _a_right(chart, b_inv, bc, cfg) @ _a_right(chart, b, c, cfg)
    return maxabs(lhs - np.eye(chart.n))


def _res_lambda_left_closed_form(chart, cfg, a):
    lam = invert(psi_flavored(chart, a, "left", cfg))
    return maxabs(lam - _a_left(chart, a, inverse(chart, a, cfg), cfg))


def _res_lambda_right_closed_form(chart, cfg, a):
    lam = invert(psi_flavored(chart, a, "right", cfg))
    return maxabs(lam - _a_right(chart, inverse(chart, a, cfg), a, cfg))


def _res_factorization_left(chart, cfg, a, b):
    ab = chart.compose(a, b)
    psi_l_ab = psi_flavored(chart, ab, "left", cfg)
    lam_l_a = invert(psi_flavored(chart, a, "left", cfg))
    return maxabs(_a_left(chart, a, b, cfg) - psi_l_ab @ lam_l_a)


def _res_factorization_right(chart, cfg, a, b):
    ab = chart.compose(a, b)
    psi_r_ab = psi_flavored(chart, ab, "right", cfg)
    lam_r_b = invert(psi_flavored(chart, b, "right", cfg))
    return maxabs(_a_right(chart, a, b, cfg) - psi_r_ab @ lam_r_b)


def _res_inverse_jacobian_left_route(chart, cfg, a):
    a_inv = inverse(chart, a, cfg)
    j_num = jacobian(rowwise(lambda x: inverse(chart, x, cfg)), a, cfg)
    psi_l_inv = psi_flavored(chart, a_inv, "left", cfg)
    lam_r_a = invert(psi_flavored(chart, a, "right", cfg))
    return maxabs(j_num + psi_l_inv @ lam_r_a)


def _res_inverse_jacobian_right_route(chart, cfg, a):
    a_inv = inverse(chart, a, cfg)
    j_num = jacobian(rowwise(lambda x: inverse(chart, x, cfg)), a, cfg)
    psi_r_inv = psi_flavored(chart, a_inv, "right", cfg)
    lam_l_a = invert(psi_flavored(chart, a, "left", cfg))
    return maxabs(j_num + psi_r_inv @ lam_l_a)


def _res_quotient_left(chart, cfg, a, b):
    j_num = jacobian(rowwise(lambda x: chart.compose(inverse(chart, x, cfg), b)), a, cfg)
    w = chart.compose(inverse(chart, a, cfg), b)
    psi_l_w = psi_flavored(chart, w, "left", cfg)
    lam_r_a = invert(psi_flavored(chart, a, "right", cfg))
    return maxabs(j_num + psi_l_w @ lam_r_a)


def _res_quotient_right(chart, cfg, a, b):
    j_num = jacobian(rowwise(lambda x: chart.compose(b, inverse(chart, x, cfg))), a, cfg)
    w = chart.compose(b, inverse(chart, a, cfg))
    psi_r_w = psi_flavored(chart, w, "right", cfg)
    lam_l_a = invert(psi_flavored(chart, a, "left", cfg))
    return maxabs(j_num + psi_r_w @ lam_l_a)


def _res_triple_product_left_route(chart, cfg, a, b, c):
    ab = chart.compose(a, b)
    abc = chart.compose(ab, c)
    j_num = jacobian(rowwise(lambda y: chart.compose(chart.compose(a, y), c)), b, cfg)
    psi_l_abc = psi_flavored(chart, abc, "left", cfg)
    psi_l_ab, psi_r_ab = psi_pair(chart, ab, cfg)
    lam_l_ab = invert(psi_l_ab)
    lam_r_b = invert(psi_flavored(chart, b, "right", cfg))
    return maxabs(j_num - psi_l_abc @ lam_l_ab @ psi_r_ab @ lam_r_b)


def _res_triple_product_right_route(chart, cfg, a, b, c):
    bc = chart.compose(b, c)
    abc = chart.compose(a, bc)
    j_num = jacobian(rowwise(lambda y: chart.compose(chart.compose(a, y), c)), b, cfg)
    psi_r_abc = psi_flavored(chart, abc, "right", cfg)
    psi_l_bc, psi_r_bc = psi_pair(chart, bc, cfg)
    lam_r_bc = invert(psi_r_bc)
    lam_l_b = invert(psi_flavored(chart, b, "left", cfg))
    return maxabs(j_num - psi_r_abc @ lam_r_bc @ psi_l_bc @ lam_l_b)


def _conjugate(chart, cfg, a, b):
    return chart.compose(chart.compose(a, b), inverse(chart, a, cfg))


def _res_conjugation_outer(chart, cfg, a, b):
    j_num = jacobian(rowwise(lambda x: _conjugate(chart, cfg, x, b)), a, cfg)
    w = _conjugate(chart, cfg, a, b)
    psi_l_w, psi_r_w = psi_pair(chart, w, cfg)
    lam_l_a = invert(psi_flavored(chart, a, "left", cfg))
    return maxabs(j_num - (psi_l_w - psi_r_w) @ lam_l_a)


def _res_conjugation_inner_left(chart, cfg, a, b):
    j_num = jacobian(rowwise(lambda y: _conjugate(chart, cfg, a, y)), b, cfg)
    ab = chart.compose(a, b)
    w = _conjugate(chart, cfg, a, b)
    psi_l_w = psi_flavored(chart, w, "left", cfg)
    psi_l_ab, psi_r_ab = psi_pair(chart, ab, cfg)
    lam_l_ab = invert(psi_l_ab)
    lam_r_b = invert(psi_flavored(chart, b, "right", cfg))
    return maxabs(j_num - psi_l_w @ lam_l_ab @ psi_r_ab @ lam_r_b)


def _res_conjugation_inner_right(chart, cfg, a, b):
    j_num = jacobian(rowwise(lambda y: _conjugate(chart, cfg, a, y)), b, cfg)
    a_inv = inverse(chart, a, cfg)
    ba_inv = chart.compose(b, a_inv)
    w = _conjugate(chart, cfg, a, b)
    psi_r_w = psi_flavored(chart, w, "right", cfg)
    psi_l_bainv, psi_r_bainv = psi_pair(chart, ba_inv, cfg)
    lam_r_bainv = invert(psi_r_bainv)
    lam_l_b = invert(psi_flavored(chart, b, "left", cfg))
    return maxabs(j_num - psi_r_w @ lam_r_bainv @ psi_l_bainv @ lam_l_b)


def _res_adjoint_at_identity(chart, cfg, a):
    j_num = jacobian(rowwise(lambda y: _conjugate(chart, cfg, a, y)), chart.identity, cfg)
    psi_l_a, psi_r_a = psi_pair(chart, a, cfg)
    return maxabs(j_num - invert(psi_l_a) @ psi_r_a)


SHIFT_REFERENCE = (
    ("cocycle_left", 3, _res_cocycle_left),
    ("cocycle_right", 3, _res_cocycle_right),
    ("cocycle_mixed", 3, _res_cocycle_mixed),
    ("inverse_operator_left", 2, _res_inverse_operator_left),
    ("inverse_operator_right", 2, _res_inverse_operator_right),
    ("lambda_left_closed_form", 1, _res_lambda_left_closed_form),
    ("lambda_right_closed_form", 1, _res_lambda_right_closed_form),
    ("factorization_left", 2, _res_factorization_left),
    ("factorization_right", 2, _res_factorization_right),
    ("inverse_jacobian_left_route", 1, _res_inverse_jacobian_left_route),
    ("inverse_jacobian_right_route", 1, _res_inverse_jacobian_right_route),
    ("quotient_left", 2, _res_quotient_left),
    ("quotient_right", 2, _res_quotient_right),
    ("triple_product_left_route", 3, _res_triple_product_left_route),
    ("triple_product_right_route", 3, _res_triple_product_right_route),
    ("conjugation_outer", 2, _res_conjugation_outer),
    ("conjugation_inner_left", 2, _res_conjugation_inner_left),
    ("conjugation_inner_right", 2, _res_conjugation_inner_right),
    ("adjoint_at_identity", 1, _res_adjoint_at_identity),
)


# --- stacked against per point ------------------------------------------------


def checks_against_reference():
    """(check_id, arity, stacked form, reference form), in table order."""
    tables = group._AXIOM_CHECKS + group._SHIFT_CHECKS
    reference = AXIOM_REFERENCE + SHIFT_REFERENCE
    assert [(cid, arity) for cid, arity, _ in tables] == \
        [(cid, arity) for cid, arity, _ in reference]
    return [(cid, arity, fn, ref) for (cid, arity, fn), (_, _, ref) in zip(tables, reference)]


def assert_stacked_matches_reference(chart, cfg):
    count = cfg.sample_count
    for check_id, arity, fn, ref in checks_against_reference():
        pts = sample_points(chart, cfg, check_rng(cfg, check_id), count * arity)
        want = np.array([ref(chart, cfg, *pts[i * arity:(i + 1) * arity])
                         for i in range(count)])
        got = fn(chart, cfg, *(np.ascontiguousarray(pts[j::arity]) for j in range(arity)))
        assert got.shape == (count,), check_id
        assert np.array_equal(got, want), f"{chart.name} {check_id}: {got} != {want}"


@pytest.mark.parametrize("seed", [42, 2026])
@pytest.mark.parametrize("name", GROUP_NAMES)
def test_stacked_residuals_match_per_point_reference(name, seed):
    assert_stacked_matches_reference(get_group(name), DiffConfig(rng_seed=seed))


@pytest.mark.parametrize("name", ["gl:2", "translation:2"])
def test_stacked_residuals_match_reference_with_newton_inverses(name):
    # no hint: every inverse in the stack is its own Newton solve
    chart = dataclasses.replace(get_group(name), inverse_hint=None, name=f"{name}-newton")
    assert_stacked_matches_reference(chart, DiffConfig(sample_count=4))


def _point_affine_law(a, b):
    return np.array([a[0] * b[0], a[0] * b[1] + a[1]])


def _point_affine_inverse(a):
    return np.array([1.0 / a[0], -a[1] / a[0]])


def test_stacked_residuals_match_reference_on_a_point_law():
    # a user's ax+b law (and hint) written for single points, lifted row by row
    for hint in (_point_affine_inverse, None):
        chart = GroupChart(n=2, compose=_point_affine_law, identity=np.array([1.0, 0.0]),
                           inverse_hint=hint, chart_radius=0.8, name="ax+b")
        assert_stacked_matches_reference(chart, DiffConfig(sample_count=4))


# --- the adjoint's flavor symmetry, which the inverse-Jacobian routes restate ---
#
# S = Ad(a) - lam_right(a^-1) psi_left(a^-1) is no report row.  Both
# inverse-Jacobian routes subtract their closed form from one numeric
# J = d a^-1 / d a, so S = -lam_right(a^-1) (R_left - R_right) psi_right(a),
# and S is small wherever both routes are.


def _res_adjoint_flavor_symmetry(chart, cfg, a):
    a_inv = inverse(chart, a, cfg)
    psi_l_a, psi_r_a = psi_pair(chart, a, cfg)
    psi_l_inv, psi_r_inv = psi_pair(chart, a_inv, cfg)
    return invert(psi_l_a) @ psi_r_a - invert(psi_r_inv) @ psi_l_inv


def _inverse_jacobian_routes(chart, cfg, a):
    """(R_left, R_right), whose maxabs the two route rows read at a."""
    j_num = jacobian(rowwise(lambda x: inverse(chart, x, cfg)), a, cfg)
    psi_l_inv, psi_r_inv = psi_pair(chart, inverse(chart, a, cfg), cfg)
    psi_l_a, psi_r_a = psi_pair(chart, a, cfg)
    return j_num + psi_l_inv @ invert(psi_r_a), j_num + psi_r_inv @ invert(psi_l_a)


def _adjoint_cases():
    charts = [get_group(name) for name in GROUP_NAMES]
    charts += [dataclasses.replace(get_group(name), inverse_hint=None, name=f"{name}-newton")
               for name in ("affine", "gl:2")]
    # the collapsed law has no inverse
    charts += [make() for name, (make, _) in MUTANTS.items() if name != "translation:2 collapsed"]
    return [pytest.param(chart, id=chart.name) for chart in charts]


@pytest.mark.parametrize("chart", _adjoint_cases())
def test_adjoint_flavor_symmetry_is_the_difference_of_the_inverse_jacobian_routes(chart):
    cfg = DiffConfig(sample_count=4)
    [pts] = check_points(chart, cfg, "inverse_jacobian_left_route")
    for a in pts:
        gap = _res_adjoint_flavor_symmetry(chart, cfg, a)
        r_left, r_right = _inverse_jacobian_routes(chart, cfg, a)
        assert maxabs(r_left) == _res_inverse_jacobian_left_route(chart, cfg, a)
        assert maxabs(r_right) == _res_inverse_jacobian_right_route(chart, cfg, a)
        lam_r_inv = invert(psi_flavored(chart, inverse(chart, a, cfg), "right", cfg))
        predicted = -lam_r_inv @ (r_left - r_right) @ psi_flavored(chart, a, "right", cfg)
        assert maxabs(gap - predicted) <= 1e-14
        # the factor reads up to 1.42 on the census laws: S stays near the routes' size
        assert maxabs(gap) <= 1.5 * max(maxabs(r_left), maxabs(r_right)) + 1e-14


# --- the opposite group, which runs the right rows with a left twin -----------


def _opposite_cases():
    charts = [get_group(name) for name in GROUP_NAMES]
    charts.append(dataclasses.replace(get_group("gl:2"), inverse_hint=None, name="gl:2-newton"))
    for hint, label in ((_point_affine_inverse, "ax+b"), (None, "ax+b-newton")):
        charts.append(GroupChart(n=2, compose=_point_affine_law, identity=np.array([1.0, 0.0]),
                                 inverse_hint=hint, chart_radius=0.8, name=label))
    return [pytest.param(chart, id=chart.name) for chart in charts]


def _opposite_points(chart, count=4):
    return sample_points(chart, DiffConfig(), check_rng(DiffConfig(), "opposite"), count)


@pytest.mark.parametrize("chart", _opposite_cases())
def test_opposite_swaps_the_basic_operators_bit_for_bit(chart):
    op, cfg = group._opposite(chart), DiffConfig()
    pts = _opposite_points(chart)
    for flavor, twin in (("left", "right"), ("right", "left")):
        assert np.array_equal(psi_flavored(op, pts, flavor, cfg),
                              psi_flavored(chart, pts, twin, cfg))
        assert np.array_equal(psi_flavored(op, pts[0], flavor, cfg),
                              psi_flavored(chart, pts[0], twin, cfg))


@pytest.mark.parametrize("chart", _opposite_cases())
def test_opposite_inverse_has_the_bits_and_evaluations_of_the_charts(chart, law_counter):
    cfg = DiffConfig()
    pts = _opposite_points(chart)
    counted = law_counter.chart(chart)
    want = inverse(counted, pts, cfg)
    spent = (law_counter.evals, law_counter.calls)
    law_counter.evals = law_counter.calls = 0
    got = inverse(group._opposite(counted), pts, cfg)
    assert np.array_equal(got, want)
    assert (law_counter.evals, law_counter.calls) == spent
    assert spent[0] > 0


@pytest.mark.parametrize("chart", _opposite_cases())
def test_opposite_of_the_opposite_composes_like_the_chart(chart):
    a, b = np.split(_opposite_points(chart, 8), 2)
    op = group._opposite(chart)
    assert np.array_equal(op.compose(a, b), chart.compose(b, a))
    twice = group._opposite(op)
    assert np.array_equal(twice.compose(a, b), chart.compose(a, b))
    assert np.array_equal(inverse(twice, a), inverse(chart, a))


def test_opposite_law_looks_the_chart_law_up_at_each_call(law_counter):
    # a law wrapped after the opposite is built, as a tracer wraps it, sees its calls
    chart = dataclasses.replace(get_group("affine"))
    a, b = np.split(_opposite_points(chart, 6), 2)
    op = group._opposite(chart)
    chart.compose = law_counter.wrap(chart.compose)
    op.compose(a, b)
    assert (law_counter.evals, law_counter.calls) == (3, 1)
    # the opposite is kept on the chart, and still sees a law wrapped again
    chart.compose = law_counter.wrap(chart.compose)
    group._opposite(chart).compose(a, b)
    assert (law_counter.evals, law_counter.calls) == (9, 3)


def test_opposite_is_one_object_per_chart():
    chart = dataclasses.replace(get_group("affine"))
    op = group._opposite(chart)
    assert group._opposite(chart) is op
    assert group._opposite(op) is chart
    # a copy is a chart of its own, with an opposite of its own
    for copy in (dataclasses.replace(chart), copy_module.copy(chart)):
        assert group._opposite(copy) is not op
        assert group._opposite(copy).base is copy
        assert group._opposite(group._opposite(copy)) is copy


# --- sample_points against a one-at-a-time sampler --------------------------


def sequential_sample_points(chart, cfg, rng, count):
    """The sampler as it drew and vetted one point at a time."""
    radius = min(group.SAMPLE_RADIUS, chart.chart_radius)
    out = np.empty((count, chart.n))
    got = 0
    attempts = 0
    while got < count:
        attempts += 1
        if attempts > 200 * count:
            raise NoConvergence("sampler rejected too many points; shrink chart_radius")
        a = chart.identity + rng.uniform(-radius, radius, chart.n)
        try:
            inv = inverse(chart, a, cfg)
            as_finite_array(chart.compose(a, inv))
            as_finite_array(chart.compose(inv, a))
        except (SingularMatrix, NoConvergence, NonFiniteEvaluation):
            continue
        if maxabs(inv - chart.identity) > chart.chart_radius:
            continue
        out[got] = a
        got += 1
    return out


def _nan_beyond(cut):
    """Translation that breaks down where the left argument's first coordinate exceeds cut."""
    return broadcasting(lambda a, b: np.where(a[..., :1] > cut, np.nan, a + b))


def _rejecting_charts():
    # the inverse leaves chart_radius for some draws (no error raised) ...
    narrow = dataclasses.replace(get_group("multiplicative"), chart_radius=0.15)
    # ... or a draw breaks down in compose, which rejects it with an error
    broken = GroupChart(n=2, compose=_nan_beyond(0.15), identity=np.zeros(2),
                        inverse_hint=broadcasting(lambda a: -a), name="nan-beyond")
    hintless = dataclasses.replace(broken, inverse_hint=None)
    # ... and the same law without the marker, lifted row by row; the
    # ax+b law cut the same way has structure residuals that do not vanish
    affine = get_group("affine")
    return {"narrow": narrow, "broken": broken, "broken-newton": hintless,
            "broken-unbatched": dataclasses.replace(broken, compose=lambda a, b: np.where(
                a[..., :1] > 0.15, np.nan, a + b)),
            "broken-affine": dataclasses.replace(affine, compose=broadcasting(
                lambda a, b: np.where(a[..., :1] > 1.15, np.nan, affine.compose(a, b))))}


@pytest.mark.parametrize("kind", ["narrow", "broken", "broken-newton", "broken-unbatched"])
def test_sample_points_keeps_the_sequential_points_and_generator_state(kind):
    chart = _rejecting_charts()[kind]
    cfg = DiffConfig()
    for seed in range(3):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_points(chart, cfg, rng, 30)
        want = sequential_sample_points(chart, cfg, ref_rng, 30)
        assert np.array_equal(got, want)
        assert rng.uniform() == ref_rng.uniform()
    # the charts do reject draws: 30 accepted points need more than 30 draws
    probe = np.random.default_rng(0)
    sequential_sample_points(chart, cfg, probe, 30)
    assert probe.bit_generator.state != _after_draws(chart, 30)


def _after_draws(chart, draws, seed=0):
    """Generator state after `draws` uniform points from seed."""
    rng = np.random.default_rng(seed)
    rng.uniform(-0.2, 0.2, (draws, chart.n))
    return rng.bit_generator.state


def _nowhere_chart(marked=True):
    """A law that is NaN everywhere, so the sampler rejects every draw."""
    law = (lambda a, b: np.full(np.broadcast_shapes(np.shape(a), np.shape(b)), np.nan))
    return GroupChart(n=2, compose=broadcasting(law) if marked else law,
                      identity=np.zeros(2), inverse_hint=broadcasting(lambda a: -a),
                      name="nowhere")


@pytest.mark.parametrize("marked", [True, False])
def test_sample_points_gives_up_after_the_same_draws(marked):
    chart = _nowhere_chart(marked)
    cfg = DiffConfig()
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    with pytest.raises(NoConvergence):
        sample_points(chart, cfg, rng, 3)
    with pytest.raises(NoConvergence):
        sequential_sample_points(chart, cfg, ref_rng, 3)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert rng.bit_generator.state == _after_draws(chart, 200 * 3, seed=7)


# --- one sampler round for a whole check table ------------------------------


@pytest.mark.parametrize("kind", ["narrow", "broken", "broken-newton", "broken-unbatched"])
def test_joint_sets_keep_each_sets_sequential_points_and_generator_state(kind):
    chart = _rejecting_charts()[kind]
    cfg = DiffConfig()
    counts = (7, 30, 1, 12)
    for seed in range(3):
        rngs = [np.random.default_rng((seed, i)) for i in range(len(counts))]
        drawn, error = group.sample_sets(chart, cfg, list(zip(rngs, counts)))
        assert error is None
        assert len(drawn) == len(counts)
        for i, (rng, count) in enumerate(zip(rngs, counts)):
            ref_rng = np.random.default_rng((seed, i))
            want = sequential_sample_points(chart, cfg, ref_rng, count)
            assert np.array_equal(drawn[i], want)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


class _Corner:
    """A generator whose every draw lands at 0.9 of the upper bound."""

    def uniform(self, low, high, size):
        return np.full(size, 0.9 * high)


def test_a_set_that_runs_out_stops_itself_and_the_sets_after_it():
    # the corner draws all break down on the nan-beyond law; the set before
    # it still gets its sequential points and the set after it none
    chart = _rejecting_charts()["broken"]
    cfg = DiffConfig()
    first, last = np.random.default_rng(1), np.random.default_rng(2)
    drawn, error = group.sample_sets(chart, cfg, [(first, 5), (_Corner(), 2), (last, 4)])
    assert isinstance(error, NoConvergence)
    assert len(drawn) == 1
    ref_rng = np.random.default_rng(1)
    assert np.array_equal(drawn[0], sequential_sample_points(chart, cfg, ref_rng, 5))
    assert first.bit_generator.state == ref_rng.bit_generator.state


def _outcomes(checks):
    """Residuals of a stream of checks up to the first breakdown, and the
    breakdown as `type: message`."""
    out = []
    try:
        for check_id, residual in checks:
            out.append((check_id, repr(residual)))
    except LieChartError as exc:
        out.append(f"{type(exc).__name__}: {exc}")
    return out


def _alone(chart, cfg, table):
    """(check_id, residual) of each row of a check table, each drawing its
    own points with `sample_points` before its residual runs."""
    for check_id, arity, count, residual in table:
        count = cfg.sample_count if count is None else count
        with group.named(check_id):
            pts = sample_points(chart, cfg, check_rng(cfg, check_id), count * arity)
            yield check_id, maxabs(residual(*(np.ascontiguousarray(pts[j::arity])
                                              for j in range(arity))))


CHECK_TABLES = {
    "axioms": group.axiom_checks,
    "shifts": group.shift_checks,
    "structure": lambda chart, cfg: suites.structure_suite(chart, None, cfg,
                                                           structure.group_generators),
}


@pytest.mark.parametrize("kind", ["narrow", "broken", "broken-newton", "broken-unbatched",
                                  "broken-affine"])
@pytest.mark.parametrize("table", sorted(CHECK_TABLES))
def test_check_tables_report_what_each_check_reports_alone(kind, table, monkeypatch):
    # the same residuals bit for bit, and the same breakdown at the same row;
    # the 1-d narrow chart has no structure rows
    chart = _rejecting_charts()[kind]
    cfg = DiffConfig(sample_count=6)
    rows = captured_table(monkeypatch, lambda: CHECK_TABLES[table](chart, cfg))
    assert rows or (table, chart.n) == ("structure", 1)
    joint = ((check_id, residual)
             for check_id, _, residual in group.sampled_checks(chart, cfg, rows))
    assert _outcomes(joint) == _outcomes(_alone(chart, cfg, rows))


def test_a_table_that_cannot_be_drawn_names_its_first_check():
    with pytest.raises(NoConvergence) as caught:
        group.check_chart_axioms(_nowhere_chart(), DiffConfig())
    assert str(caught.value) == ("chart_identity_left: sampler rejected too many points; "
                                 "shrink chart_radius")


def test_a_law_that_raises_in_a_round_is_named_by_the_first_check_drawing():
    def hint(a):
        raise SingularMatrix("hint gave up")

    chart = dataclasses.replace(get_group("affine"), inverse_hint=hint)
    with pytest.raises(SingularMatrix, match="^cocycle_left: hint gave up$"):
        group.verify_shift_identities(chart, DiffConfig())


# --- inverse against a one-row-at-a-time Newton -----------------------------


def sequential_inverse(chart, a, cfg):
    """The inverse of one point as it was solved alone: a damped Newton
    loop on that point, started from the hint or else from the identity."""
    e = chart.identity
    x = e.copy()
    if chart.inverse_hint is not None:
        x = as_finite_array(chart.inverse_hint(a), "inverse hint")
    for _ in range(group._NEWTON_MAX_ITER):
        r = as_finite_array(chart.compose(a, x), "inverse residual") - e
        rn = maxabs(r)
        if rn < group._NEWTON_TOL:
            return x
        j = _a_right(chart, a, x, cfg)
        try:
            delta = np.linalg.solve(j, -r)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrix("inverse Newton hit a singular shift Jacobian") from exc
        t = 1.0
        while t >= group._DAMPING_FLOOR:
            xn = x + t * delta
            trial = np.asarray(chart.compose(a, xn), dtype=float)
            if np.isfinite(trial).all() and maxabs(trial - e) < rn:
                x = xn
                break
            t *= 0.5
        else:
            raise NoConvergence("inverse Newton: no damping step improved the residual")
    raise NoConvergence(f"inverse Newton did not converge in {group._NEWTON_MAX_ITER} iterations")


def _sinh_chart():
    # compose(a, x) = a + sinh(x): the full Newton step from x = 0 lands on
    # x = -a, whose residual |a - sinh(a)| beats |a| only for |a| below about
    # 2.2, so the far rows of a stack halve their first steps and the near
    # ones do not
    return GroupChart(n=2, compose=broadcasting(lambda a, b: a + np.sinh(b)),
                      identity=np.zeros(2), chart_radius=10.0, name="sinh")


def _inverse_cases():
    gl2 = get_group("gl:2")
    pts = {name: sample_points(chart, DiffConfig(), check_rng(DiffConfig(), "inverse_bits"), 20)
           for name, chart in (("affine", get_group("affine")), ("gl:2", gl2))}
    sinh = _sinh_chart()
    return {
        "affine-newton": (dataclasses.replace(get_group("affine"), inverse_hint=None),
                          pts["affine"]),
        "gl:2-newton": (dataclasses.replace(gl2, inverse_hint=None), pts["gl:2"]),
        # off by 1e-6: Newton polishes every row from the hint
        "gl:2-sloppy": (dataclasses.replace(
            gl2, inverse_hint=broadcasting(lambda a: gl2.inverse_hint(a) * (1.0 + 1e-6))),
            pts["gl:2"]),
        # shuffled, so that the first rows, which the (2, 3) stack takes, mix both kinds
        "sinh-damped": (sinh, np.random.default_rng(1).permutation(
            np.linspace(-6.0, 6.0, 40)).reshape(20, 2)),
    }


@pytest.mark.parametrize("case", ["affine-newton", "gl:2-newton", "gl:2-sloppy", "sinh-damped"])
@pytest.mark.parametrize("shape", [(20,), (2, 3)])
def test_inverse_of_a_stack_matches_one_row_at_a_time(case, shape, law_counter):
    chart, pts = _inverse_cases()[case]
    cfg = DiffConfig()
    stack = pts[:int(np.prod(shape))].reshape(shape + (chart.n,))
    counted = law_counter.chart(chart)
    got = inverse(counted, stack, cfg)
    stacked_evals = law_counter.evals
    per_row = []
    for a in stack.reshape(-1, chart.n):
        before = law_counter.evals
        want = sequential_inverse(counted, a, cfg)
        per_row.append(law_counter.evals - before)
        assert np.array_equal(got.reshape(-1, chart.n)[len(per_row) - 1], want)
    assert got.shape == stack.shape
    assert stacked_evals == sum(per_row)
    if case == "sinh-damped":
        # the near rows take full steps, the far ones halve theirs
        assert len(set(per_row)) > 1


def test_a_hint_that_misses_by_more_than_the_newton_tolerance_is_polished():
    gl2 = get_group("gl:2")
    cfg = DiffConfig()
    pts = sample_points(gl2, cfg, check_rng(cfg, "inverse_bits"), 20)
    nearly = dataclasses.replace(
        gl2, inverse_hint=broadcasting(lambda a: gl2.inverse_hint(a) * (1.0 + 1e-11)))
    missed = maxabs(gl2.compose(pts, nearly.inverse_hint(pts)) - gl2.identity)
    assert group._NEWTON_TOL < missed <= 1e-10
    assert maxabs(gl2.compose(pts, inverse(nearly, pts, cfg)) - gl2.identity) < group._NEWTON_TOL


def test_a_sloppy_hint_costs_one_newton_step_a_row(law_counter):
    # 11 evaluations a row: Newton's first residual, its 8-point stencil,
    # one full step and the residual that settles it
    chart, pts = _inverse_cases()["gl:2-sloppy"]
    inverse(law_counter.chart(chart), pts, DiffConfig())
    assert law_counter.evals == 220


def _breaking_charts():
    """(chart, stack, breaking row): every row but one has an inverse."""
    plain = dict(identity=np.zeros(1), chart_radius=10.0)
    nan_law = GroupChart(n=2, compose=_nan_beyond(0.15), identity=np.zeros(2), name="nan")
    # a + x^2: the central difference of x^2 at 0 is exactly 0
    flat = GroupChart(n=1, compose=broadcasting(lambda a, b: a + b * b), name="flat", **plain)
    # 5 + x + x^2 never reaches 0 over the reals
    no_root = GroupChart(n=1, compose=broadcasting(lambda a, b: a + b + b * b),
                         name="no-root", **plain)
    # NaN off b's first axis where a's first coordinate exceeds 0.15: the
    # residual from x = 0 is finite, the stencil around it is not
    nan_stencil = GroupChart(n=2, compose=broadcasting(lambda a, b: np.where(
        (a[..., :1] > 0.15) & (b[..., :1] != 0.0), np.nan, a + b)), identity=np.zeros(2),
        name="nan-stencil")
    return {
        "non-finite": (nan_law, np.array([[0.1, 0.0], [-0.1, 0.05], [0.18, 0.0], [0.0, 0.1]]), 2),
        "non-finite-stencil": (nan_stencil, np.array([[0.1, 0.0], [0.18, 0.0], [0.0, 0.1]]), 1),
        "singular": (flat, np.array([[0.0], [0.0], [-0.1], [0.0]]), 2),
        "no-convergence": (no_root, np.array([[-0.1], [5.0], [0.1]]), 1),
    }


@pytest.mark.parametrize("kind", ["non-finite", "non-finite-stencil", "singular",
                                  "no-convergence"])
def test_a_stack_raises_only_what_a_breaking_row_raises_alone(kind):
    chart, stack, bad = _breaking_charts()[kind]
    cfg = DiffConfig()
    with pytest.raises((NonFiniteEvaluation, SingularMatrix, NoConvergence)) as alone:
        inverse(chart, stack[bad], cfg)
    with pytest.raises(type(alone.value)) as reference:
        sequential_inverse(chart, stack[bad], cfg)
    with pytest.raises(type(alone.value)) as stacked:
        inverse(chart, stack, cfg)
    assert str(stacked.value) == str(alone.value) == str(reference.value)
    # without the breaking row the stack solves, each row as it would alone
    rest = np.delete(stack, bad, axis=0)
    assert np.array_equal(inverse(chart, rest, cfg),
                          [sequential_inverse(chart, a, cfg) for a in rest])


def _two_ways_chart(hint=None):
    # a + x^2, plus x itself where a > 1: from x = 0 the row a = -0.1 meets
    # a singular Jacobian at once (the central difference of x^2 at 0 is 0),
    # while the row a = 5 (5 + x + x^2 has no real root) breaks down only
    # after several steps
    law = broadcasting(lambda a, b: a + b * b + np.where(a > 1.0, b, 0.0))
    return GroupChart(n=1, compose=law, identity=np.zeros(1), chart_radius=10.0,
                      inverse_hint=hint, name="two-ways")


def _ordered_breakdowns():
    """(chart, stack, the row whose error the stack raises)."""
    # the hint misses a = 5 and is NaN at a = -0.1; the lowest row comes first
    nan_hint = broadcasting(lambda a: np.where(a < 0.0, np.nan, 0.0))
    return {
        "newton-late-first": (_two_ways_chart(), np.array([[5.0], [-0.1]]), 0),
        "newton-early-first": (_two_ways_chart(), np.array([[-0.1], [5.0]]), 0),
        "hint-after-newton": (_two_ways_chart(nan_hint), np.array([[5.0], [-0.1]]), 0),
    }


@pytest.mark.parametrize("case", ["newton-late-first", "newton-early-first", "hint-after-newton"])
def test_a_stack_raises_the_error_of_solving_its_rows_in_order(case):
    chart, stack, first = _ordered_breakdowns()[case]
    cfg = DiffConfig()
    errors = []
    for a in stack:
        with pytest.raises((NonFiniteEvaluation, SingularMatrix, NoConvergence)) as alone:
            inverse(chart, a, cfg)
        errors.append(alone.value)
    # the rows break down differently, so the stack's error names its row
    assert type(errors[0]) is not type(errors[1])
    with pytest.raises(type(errors[first])) as stacked:
        inverse(chart, stack, cfg)
    assert str(stacked.value) == str(errors[first])


def _no_root_chart():
    # a + x + 3 x^2 = 0 has no real root for a > 1/12: Newton breaks down on
    # those draws only after several steps
    return GroupChart(n=1, compose=broadcasting(lambda a, b: a + b + 3.0 * b * b),
                      identity=np.zeros(1), chart_radius=10.0, name="no-root")


@pytest.mark.parametrize("kind", ["broken", "broken-newton", "broken-unbatched", "no-root",
                                  "nan-stencil"])
def test_a_rejecting_round_costs_no_more_than_vetting_one_point_at_a_time(kind, law_counter):
    # a round with breaking rows is vetted once, as one stack: fewer law
    # calls than the per-point sampler and no more evaluations
    chart = {**_rejecting_charts(), "no-root": _no_root_chart(),
             "nan-stencil": _breaking_charts()["non-finite-stencil"][0]}[kind]
    counted = law_counter.chart(chart)
    got = sample_points(counted, DiffConfig(), np.random.default_rng(0), 30)
    evals, calls = law_counter.evals, law_counter.calls
    want = sequential_sample_points(counted, DiffConfig(), np.random.default_rng(0), 30)
    assert np.array_equal(got, want)
    assert evals <= law_counter.evals - evals
    assert calls < law_counter.calls - calls
