"""The stacked check residuals against their per-point reference forms.

Every chart-axiom and shift-identity residual runs once per check over
(count, n) stacks of its sample points.  The reference below is the
one-point-at-a-time form of each residual, with every map it
differentiates lifted by `rowwise`; the stacked form must reproduce its
value at every sample bit for bit, on laws that broadcast themselves and
on lifted point laws alike.  `sample_points`, which draws a whole round
of points at once, must keep the points and the generator state of
drawing and vetting one point at a time.
"""

import dataclasses

import numpy as np
import pytest

from liechart import group
from liechart.catalog import GROUP_NAMES, get_group
from liechart.errors import NoConvergence, NonFiniteEvaluation, SingularMatrix
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
from liechart.numdiff import DiffConfig, as_finite_array, invert, jacobian, rowwise

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


def _res_adjoint_flavor_symmetry(chart, cfg, a):
    a_inv = inverse(chart, a, cfg)
    psi_l_a, psi_r_a = psi_pair(chart, a, cfg)
    psi_l_inv, psi_r_inv = psi_pair(chart, a_inv, cfg)
    adj = invert(psi_l_a) @ psi_r_a
    return maxabs(adj - invert(psi_r_inv) @ psi_l_inv)


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
    ("adjoint_flavor_symmetry", 1, _res_adjoint_flavor_symmetry),
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


def _broadcasting(fn):
    fn.broadcasts = True
    return fn


def _nan_beyond(cut):
    """Translation that breaks down where the left argument's first coordinate exceeds cut."""
    return _broadcasting(lambda a, b: np.where(a[..., :1] > cut, np.nan, a + b))


def _rejecting_charts():
    # the inverse leaves chart_radius for some draws (no error raised) ...
    narrow = dataclasses.replace(get_group("multiplicative"), chart_radius=0.15)
    # ... or a draw breaks down in compose, which rejects it with an error
    broken = GroupChart(n=2, compose=_nan_beyond(0.15), identity=np.zeros(2),
                        inverse_hint=_broadcasting(lambda a: -a), name="nan-beyond")
    hintless = dataclasses.replace(broken, inverse_hint=None)
    # ... and the same law without the marker, lifted row by row
    return {"narrow": narrow, "broken": broken, "broken-newton": hintless,
            "broken-unbatched": dataclasses.replace(broken, compose=lambda a, b: np.where(
                a[..., :1] > 0.15, np.nan, a + b))}


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


@pytest.mark.parametrize("marked", [True, False])
def test_sample_points_gives_up_after_the_same_draws(marked):
    law = (lambda a, b: np.full(np.broadcast_shapes(np.shape(a), np.shape(b)), np.nan))
    chart = GroupChart(n=2, compose=_broadcasting(law) if marked else law,
                       identity=np.zeros(2), inverse_hint=_broadcasting(lambda a: -a),
                       name="nowhere")
    cfg = DiffConfig()
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    with pytest.raises(NoConvergence):
        sample_points(chart, cfg, rng, 3)
    with pytest.raises(NoConvergence):
        sequential_sample_points(chart, cfg, ref_rng, 3)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert rng.bit_generator.state == _after_draws(chart, 200 * 3, seed=7)
