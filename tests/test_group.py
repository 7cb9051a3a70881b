import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import captured_table, check_points, counted_calls
from liechart import catalog, group, structure
from liechart.catalog import GROUP_NAMES, get_group
from liechart.errors import NoConvergence
from liechart.flows import canonical_coordinate
from liechart.group import (
    GroupChart,
    _a_left,
    _a_right,
    adjoint,
    check_chart_axioms,
    check_rng,
    inverse,
    maxabs,
    maxabs_rows,
    psi_flavored,
    sample_points,
    sampled_checks,
    verify_shift_identities,
    SAMPLE_RADIUS,
    SHIFT_CHECK_IDS,
)
from liechart.numdiff import QUART_EPS, DiffConfig, broadcasting, invert, jacobian, rowwise
from liechart.suites import run_suite

CFG = DiffConfig(sample_count=6)


@pytest.mark.parametrize("name", ["affine", "gl:2", "gl:3"])
def test_adjoint_is_lambda_left_times_psi_right(name):
    chart, oracles = get_group(name), catalog.get_oracles(name)
    pts = sample_points(chart, CFG, np.random.default_rng(3), 4)
    ad = adjoint(chart, pts, CFG)
    assert np.array_equal(ad, invert(psi_flavored(chart, pts, "left", CFG))
                          @ psi_flavored(chart, pts, "right", CFG))
    for a, got in zip(pts, ad):
        assert np.array_equal(got, adjoint(chart, a, CFG))
        assert maxabs(got - oracles.lam_left(a) @ oracles.psi_right(a)) < 1e-6


def hintless(chart):
    return GroupChart(n=chart.n, compose=chart.compose, identity=chart.identity,
                      chart_radius=chart.chart_radius, name=chart.name + "-nohint")


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_chart_axioms_hold(name):
    chart = get_group(name)
    cfg = dataclasses.replace(CFG, sample_count=4)
    for rec in check_chart_axioms(chart, cfg).checks:
        assert rec.passed, f"{name}: {rec.check_id} residual {rec.max_residual}"


def test_inverse_translation():
    chart = get_group("translation:2")
    a = np.array([0.3, -1.1])
    assert np.allclose(inverse(chart, a, CFG), -a, atol=1e-12)


def test_inverse_affine_frozen_value():
    # (a1, a2) -> (1/a1, -a2/a1): (2, 3) -> (0.5, -1.5)
    chart = get_group("affine")
    got = inverse(chart, np.array([2.0, 3.0]), CFG)
    assert np.allclose(got, [0.5, -1.5], atol=1e-12)


def test_inverse_gl2_matches_matrix_inverse():
    chart = get_group("gl:2")
    a = np.array([[2.0, 1.0], [0.0, 1.0]])
    got = inverse(chart, a.ravel(), CFG).reshape(2, 2)
    assert np.max(np.abs(got - np.linalg.inv(a))) < 1e-12


def test_newton_inverse_without_hint():
    chart = hintless(get_group("affine"))
    got = inverse(chart, np.array([2.0, 3.0]), CFG)
    assert np.allclose(got, [0.5, -1.5], atol=1e-10)


def test_newton_inverse_without_hint_gl2():
    chart = hintless(get_group("gl:2"))
    a = np.array([[1.2, 0.3], [-0.1, 0.9]])
    got = inverse(chart, a.ravel(), CFG).reshape(2, 2)
    assert np.max(np.abs(got - np.linalg.inv(a))) < 1e-10


def test_newton_inverse_failure_raises():
    # compose(5, x) = 5 + x + x^2 never reaches 0 over the reals, so the
    # search must surface a numerics error rather than a bogus inverse.
    from liechart.errors import SingularMatrix

    broken = GroupChart(n=1,
                        compose=lambda a, b: np.array([a[0] + b[0] + b[0] ** 2]),
                        identity=np.zeros(1), name="broken")
    with pytest.raises((NoConvergence, SingularMatrix)):
        inverse(broken, np.array([5.0]), CFG)


@pytest.mark.parametrize("hint", ["broadcasting", "row by row", "sloppy", "none"])
@pytest.mark.parametrize("marked", [True, False])
def test_inverse_of_a_stack_matches_each_point(hint, marked):
    base = get_group("gl:2")
    hints = {"broadcasting": base.inverse_hint,
             "row by row": lambda a: np.linalg.inv(a.reshape(2, 2)).ravel(),
             # off by 1e-6: every row fails the hint check and is polished by Newton
             "sloppy": broadcasting(lambda a: base.inverse_hint(a) * (1.0 + 1e-6)),
             "none": None}
    law = base.compose if marked else (lambda a, b: base.compose(a, b))
    chart = dataclasses.replace(base, compose=law, inverse_hint=hints[hint])
    stack = sample_points(chart, CFG, check_rng(CFG, "inverse_stack"), 6).reshape(2, 3, 4)
    got = inverse(chart, stack, CFG)
    assert got.shape == stack.shape
    for idx in np.ndindex(2, 3):
        assert np.array_equal(got[idx], inverse(chart, stack[idx], CFG))
    assert np.max(np.abs(got - base.inverse_hint(stack))) < 1e-10


def test_shift_jacobians_at_identity_are_identity():
    chart = get_group("affine")
    a = np.array([2.0, 3.0])
    assert np.max(np.abs(_a_left(chart, a, chart.identity, CFG) - np.eye(2))) < 1e-8
    assert np.max(np.abs(_a_right(chart, chart.identity, a, CFG) - np.eye(2))) < 1e-8


def test_shift_jacobians_affine_frozen():
    chart = get_group("affine")
    a = np.array([2.0, 3.0])
    b = np.array([1.0, 1.0])
    # d compose / d a at fixed b = (1, 1): rows [b1, 0], [b2, 1]
    assert np.max(np.abs(_a_left(chart, a, b, CFG) - np.array([[1.0, 0.0], [1.0, 1.0]]))) < 1e-8
    # d compose / d b at fixed a = (2, 3): a1 * I
    assert np.max(np.abs(_a_right(chart, a, b, CFG) - 2.0 * np.eye(2))) < 1e-8


def test_basic_operators_affine_frozen():
    chart = get_group("affine")
    a = np.array([2.0, 3.0])
    left, right = psi_flavored(chart, a, "left", CFG), psi_flavored(chart, a, "right", CFG)
    assert np.max(np.abs(left - np.array([[2.0, 0.0], [3.0, 1.0]]))) < 1e-8
    assert np.max(np.abs(right - 2.0 * np.eye(2))) < 1e-8
    assert np.max(np.abs(invert(left) - np.array([[0.5, 0.0], [-1.5, 1.0]]))) < 1e-8
    assert np.max(np.abs(invert(right) - 0.5 * np.eye(2))) < 1e-8


def test_basic_operators_gl2_diagonal_frozen():
    chart = get_group("gl:2")
    a = np.array([2.0, 0.0, 0.0, 1.0])
    right, left = psi_flavored(chart, a, "right", CFG), psi_flavored(chart, a, "left", CFG)
    assert np.max(np.abs(right - np.diag([2.0, 2.0, 1.0, 1.0]))) < 1e-7
    assert np.max(np.abs(left - np.diag([2.0, 1.0, 2.0, 1.0]))) < 1e-7


@pytest.mark.parametrize("changes, message", [
    ({"chart_radius": float("nan")}, "chart_radius must be positive"),
    ({"chart_radius": 0.0}, "chart_radius must be positive"),
    ({"chart_radius": -1.0}, "chart_radius must be positive"),
    ({"n": 0, "identity": np.zeros(0)}, "n must be at least 1"),
    # these two used to pass here and fail later in check_chart_axioms
    ({"n": 2.0}, "n must be an integer"),
    ({"n": True}, "n must be an integer"),
], ids=["nan-radius", "zero-radius", "negative-radius", "no-dimension", "float-dimension",
        "bool-dimension"])
def test_group_chart_rejects_a_bad_radius_or_dimension(changes, message):
    # a NaN radius would reject every sample point and never stop a flow
    fields = {"n": 2, "compose": broadcasting(lambda a, b: a + b), "identity": np.zeros(2)}
    with pytest.raises(ValueError, match=message):
        GroupChart(**{**fields, **changes})


def test_psi_flavored_rejects_an_unknown_flavor():
    chart = get_group("gl:2")
    a = chart.identity + 0.05 * np.arange(4)
    with pytest.raises(ValueError):
        psi_flavored(chart, a, "middle", CFG)


def test_sample_points_deterministic_and_bounded():
    chart = get_group("multiplicative")
    pts1 = sample_points(chart, CFG, check_rng(CFG, "demo"), 8)
    pts2 = sample_points(chart, CFG, check_rng(CFG, "demo"), 8)
    assert np.array_equal(pts1, pts2)
    assert pts1.shape == (8, 1)
    assert np.max(np.abs(pts1 - chart.identity)) <= SAMPLE_RADIUS + 1e-15


def test_sample_points_of_count_zero_draws_nothing():
    chart = get_group("affine")
    rng, untouched = check_rng(CFG, "demo"), check_rng(CFG, "demo")
    assert sample_points(chart, CFG, rng, 0).shape == (0, chart.n)
    assert rng.bit_generator.state == untouched.bit_generator.state


def test_check_rng_distinct_streams():
    a = check_rng(CFG, "alpha").uniform(size=4)
    b = check_rng(CFG, "beta").uniform(size=4)
    assert not np.array_equal(a, b)


def test_shift_identities_translation_tight():
    report = verify_shift_identities(get_group("translation:2"), CFG)
    assert report.all_passed
    assert max(r.max_residual for r in report.checks) < 1e-9


@pytest.mark.parametrize("name", ["multiplicative", "affine", "gl:2"])
def test_shift_identities_pass(name):
    report = verify_shift_identities(get_group(name), CFG)
    failed = [r.check_id for r in report.checks if not r.passed]
    assert not failed, f"{name} failed: {failed}"
    assert {r.check_id for r in report.checks} == set(SHIFT_CHECK_IDS)


def test_shift_identities_tol_scale_forces_failure():
    report = verify_shift_identities(get_group("affine"), CFG, tol_scale=1e-12)
    assert not report.all_passed


def _skewed_scalar_law():
    # not associative: (a b) c and a (b c) differ in their a^2 b c terms
    return GroupChart(n=1, compose=lambda a, b: a + b + 0.3 * a * a * b,
                      identity=np.zeros(1), name="skewed-scalar")


def test_tol_scale_of_one_fails_a_broken_law():
    chart = _skewed_scalar_law()
    cfg = DiffConfig(sample_count=5)
    assert not check_chart_axioms(chart, cfg).all_passed
    assert not verify_shift_identities(chart, cfg).all_passed


@pytest.mark.parametrize("scale", [math.inf, math.nan, 0.0, -1.0])
@pytest.mark.parametrize("entry", ["run_suite", "check_chart_axioms", "verify_shift_identities"])
def test_a_bad_tol_scale_raises_before_any_law_call(entry, scale, monkeypatch, law_counter):
    # inf would pass the broken law's every check; NaN, 0 and -1 fail any law's
    chart = law_counter.chart(_skewed_scalar_law())
    monkeypatch.setattr(catalog, "get_group", lambda _: chart)
    law_counter.evals = law_counter.calls = 0
    run = {"run_suite": lambda: run_suite("skewed-scalar", "all", CFG, tol_scale=scale),
           "check_chart_axioms": lambda: check_chart_axioms(chart, CFG, tol_scale=scale),
           "verify_shift_identities": lambda: verify_shift_identities(chart, CFG,
                                                                      tol_scale=scale)}
    with pytest.raises(ValueError, match="tol_scale must be finite and positive"):
        run[entry]()
    assert (law_counter.evals, law_counter.calls) == (0, 0)


def test_maxabs_keeps_nan():
    nan = float("nan")
    assert maxabs([]) == 0.0
    assert maxabs(np.zeros((0, 3))) == 0.0
    assert maxabs([1e-9, -3e-7, 2e-8]) == 3e-7
    # max(0.0, nan) would keep 0.0; the NaN must survive wherever it sits
    for residuals in ([nan, 1.0], [1.0, nan], [0.0, nan, 0.5], [[0.5, 0.0], [0.0, nan]]):
        assert np.isnan(maxabs(residuals))


def test_maxabs_rows_keeps_nan():
    got = maxabs_rows(np.array([[1.0, np.nan], [2.0, -3.0]]), np.zeros((2, 2)))
    assert np.isnan(got[0])
    assert got[1] == 3.0
    assert np.isnan(maxabs_rows(np.array([[np.nan, 0.0], [0.5, 1.0]]), np.zeros(2)))


def test_maxabs_rows_of_an_empty_stack_is_empty():
    # a stacked residual that sees no rows needs no guard of its own
    for x in (np.zeros((0, 2)), np.zeros((0, 2, 2))):
        got = maxabs_rows(x, np.zeros((0, 2)))
        assert got.shape == (0,)


def test_nan_law_fails_associativity_and_serializes():
    def compose(a, b):
        # addition that breaks down past 0.25, which a single sample point
        # (|a| <= 0.2) never reaches but some sampled products do
        return np.full(1, np.nan) if a[0] + b[0] > 0.25 else a + b

    chart = GroupChart(n=1, compose=compose, identity=np.zeros(1),
                       inverse_hint=lambda a: -a, name="nan-law")
    report = check_chart_axioms(chart, DiffConfig(sample_count=20))
    assoc = next(r for r in report.checks if r.check_id == "chart_associativity")
    assert np.isnan(assoc.max_residual)
    assert not assoc.passed
    doc = json.loads(report.to_json())
    row = next(c for c in doc["checks"] if c["id"] == "chart_associativity")
    assert row["max_residual"] is None
    assert row["pass"] is False


def test_sampled_checks_groups_the_check_stream():
    chart = get_group("affine")
    seen = []

    def residual(a, b):
        seen.append((a, b))
        return float("nan") if len(seen) == 2 else 1e-9

    [(check_id, samples, worst)] = sampled_checks(
        chart, CFG, [("some_check", 2, 3, rowwise(residual))])
    assert (check_id, samples) == ("some_check", 3)
    assert np.isnan(worst)
    pts = sample_points(chart, CFG, check_rng(CFG, "some_check"), 6)
    assert np.array_equal(np.array(seen), pts.reshape(3, 2, chart.n))


def test_sampled_checks_runs_a_row_of_arity_zero_in_its_place():
    chart = get_group("affine")
    order = []
    table = [("first", 1, None, lambda a: order.append("first") or maxabs_rows(a, a)),
             ("algebra", 0, 1, lambda: order.append("algebra") or -2.5),
             ("last", 1, 2, lambda a: order.append("last") or maxabs_rows(a, a))]
    rows = list(sampled_checks(chart, CFG, table))
    assert order == ["first", "algebra", "last"]
    assert rows[1] == ("algebra", 1, 2.5)
    assert [samples for _, samples, _ in rows] == [CFG.sample_count, 1, 2]


# composition-law evaluations at seed 42 and the default 20 samples, with
# the inner conjugations finding a^-1 once per point and the right one
# conjugating at a(ba^-1), the right triple product's point.  The ceilings are
# the counts when the closed-form lambda residuals took both operator
# flavors and both inverses to use one of them; no change should rise
# above them.
SHIFT_SUITE_EVALS = {"affine": 8_448, "gl:2": 14_216, "gl:3": 28_636,
                     "translation:1": 5_564}
SHIFT_SUITE_CEILING = {"affine": 10_288, "gl:2": 16_776, "gl:3": 32_996,
                       "translation:1": 7_044}
HINT_FREE_EVALS = {"affine": 17_656, "gl:2": 42_570}
HINT_FREE_CEILING = {"affine": 21_254, "gl:2": 53_410}
# law calls of the same runs: one damped Newton per stack and one vetting
# per sampler round of the whole check table, whatever the number of rows
SHIFT_SUITE_CALLS = dict.fromkeys(SHIFT_SUITE_EVALS, 122)
HINT_FREE_CALLS = {"affine": 216, "gl:2": 216}
# LAPACK inverse calls (np.linalg.inv) of the same runs: one per `invert`
# call, whatever its stack, and on gl:n one more for each stack its
# closed-form inverse hint inverts (360 and 382 when `invert` solved each
# matrix alone)
SHIFT_SUITE_LAPACK_CALLS = {"affine": 18, "gl:2": 40, "gl:3": 40, "translation:1": 18}


@pytest.mark.parametrize("name", sorted(SHIFT_SUITE_EVALS))
def test_shift_suite_eval_count(name, monkeypatch, law_counter):
    chart = law_counter.chart(get_group(name))
    monkeypatch.setattr(catalog, "get_group", lambda _: chart)
    lapack = counted_calls(monkeypatch, np.linalg, "inv")
    assert run_suite(name, "shift", DiffConfig()).all_passed
    assert law_counter.evals == SHIFT_SUITE_EVALS[name]
    assert law_counter.evals <= SHIFT_SUITE_CEILING[name]
    assert law_counter.calls == SHIFT_SUITE_CALLS[name]
    assert len(lapack) == SHIFT_SUITE_LAPACK_CALLS[name]


@pytest.mark.parametrize("name", sorted(HINT_FREE_EVALS))
def test_hint_free_shift_identities_eval_count(name, monkeypatch, law_counter):
    chart = law_counter.chart(get_group(name), inverse_hint=None, name=f"{name}-newton")
    lapack = counted_calls(monkeypatch, np.linalg, "inv")
    inverts = counted_calls(monkeypatch, group, "invert")
    assert verify_shift_identities(chart, DiffConfig()).all_passed
    assert law_counter.evals == HINT_FREE_EVALS[name]
    assert law_counter.evals <= HINT_FREE_CEILING[name]
    assert law_counter.calls == HINT_FREE_CALLS[name]
    # with no hint every inverse is a Newton solve, so LAPACK runs only in invert
    assert len(lapack) == len(inverts) > 0


# (evaluations, law calls) of each row's own residual call on gl:2 at seed
# 42 and the default 20 samples, its points drawn beforehand: (catalog
# chart, hint-free copy).  A moved suite count above shows here by row.
ROW_COSTS_GL2 = {
    "chart_identity_left": ((20, 1), (20, 1)),
    "chart_identity_right": ((20, 1), (20, 1)),
    "chart_associativity": ((80, 4), (80, 4)),
    "inverse_left": ((40, 2), (340, 8)),
    "inverse_roundtrip": ((40, 2), (650, 14)),
    "basic_ops_at_identity": ((16, 2), (16, 2)),
    "cocycle_left": ((520, 5), (520, 5)),
    "cocycle_right": ((520, 5), (520, 5)),
    "cocycle_mixed": ((680, 6), (680, 6)),
    "inverse_operator_left": ((360, 4), (670, 10)),
    "inverse_operator_right": ((360, 4), (680, 10)),
    "lambda_left_closed_form": ((340, 3), (630, 9)),
    "lambda_right_closed_form": ((340, 3), (640, 9)),
    "factorization_left": ((500, 4), (500, 4)),
    "factorization_right": ((500, 4), (500, 4)),
    "inverse_jacobian_left_route": ((500, 4), (3420, 16)),
    "inverse_jacobian_right_route": ((500, 4), (3320, 16)),
    "quotient_left": ((680, 6), (3710, 18)),
    "quotient_right": ((680, 6), (3480, 18)),
    "triple_product_left_route": ((1000, 8), (1000, 8)),
    "triple_product_right_route": ((1000, 8), (1000, 8)),
    "conjugation_outer": ((1020, 9), (3680, 21)),
    "conjugation_inner_left": ((1020, 9), (1370, 15)),
    "conjugation_inner_right": ((1020, 9), (1340, 15)),
    "adjoint_at_identity": ((660, 5), (980, 11)),
}


@pytest.mark.parametrize("hint_free", [False, True], ids=["catalog", "hint-free"])
def test_each_row_costs_its_pinned_evaluations_and_law_calls(hint_free, monkeypatch,
                                                             law_counter):
    changes = {"inverse_hint": None, "name": "gl:2-newton"} if hint_free else {}
    chart = law_counter.chart(get_group("gl:2"), **changes)
    cfg = DiffConfig()
    rows = [*captured_table(monkeypatch, lambda: group.axiom_checks(chart, cfg)),
            *captured_table(monkeypatch, lambda: group.shift_checks(chart, cfg))]
    costs = {}
    for check_id, arity, count, residual in rows:
        points = check_points(chart, cfg, check_id, count, arity)
        law_counter.evals = law_counter.calls = 0
        residual(*points)
        costs[check_id] = (law_counter.evals, law_counter.calls)
    assert costs == {cid: pair[hint_free] for cid, pair in ROW_COSTS_GL2.items()}


@pytest.mark.parametrize("name", ["affine", "gl:2", "translation:2"])
def test_shift_suite_law_calls_do_not_grow_with_samples(name, monkeypatch, law_counter):
    # a law that broadcasts gets each check's samples as whole stacks, so
    # the residuals make one set of law calls per check stencil at any
    # sample count, and the sampler one set per round of draws
    chart = law_counter.chart(get_group(name))
    monkeypatch.setattr(catalog, "get_group", lambda _: chart)
    calls = []
    for count in (5, 20):
        law_counter.calls = 0
        assert run_suite(name, "shift", DiffConfig(sample_count=count)).all_passed
        calls.append(law_counter.calls)
    assert calls[0] == calls[1]


# --- broadcasting laws against their row-by-row lifts -----------------------


def per_point(chart):
    """The same law behind a wrapper without the marker, so lifted row by row."""
    return dataclasses.replace(chart, compose=lambda a, b: chart.compose(a, b))


def test_catalog_laws_and_hints_broadcast_natively():
    # every catalog law and hint takes stacks itself, so no catalog chart,
    # and no benchmark chart built from one, runs through the row adapter
    lift = rowwise(len).__code__       # every lift runs this one code object
    for name in GROUP_NAMES:
        chart = get_group(name)
        for fn in (chart.compose, chart.inverse_hint):
            assert fn.broadcasts is True, name
            assert fn.__code__ is not lift, name


def test_lifted_law_survives_unwrapping():
    # a counting wrapper may replace the law with getattr(law, "__wrapped__",
    # law); a lifted point law must come back as the lift, not as the point
    # law, or the wrapper would hand single-point code a stack
    def matrix_law(a, b):           # reshape(2, 2) takes single points only
        return (a.reshape(2, 2) @ b.reshape(2, 2)).ravel()

    chart = GroupChart(n=4, compose=matrix_law, identity=np.eye(2).ravel())
    assert chart.compose.broadcasts is True
    law = getattr(chart.compose, "__wrapped__", chart.compose)
    stack = sample_points(chart, CFG, check_rng(CFG, "unwrap"), 5)
    out = law(stack, stack[::-1])
    assert out.shape == (5, 4)
    for i in range(5):
        assert np.array_equal(out[i], matrix_law(stack[i], stack[4 - i]))
    # the marker belongs to the law: a copy of a chart keeps its law as it is
    assert dataclasses.replace(chart, name="copy").compose is chart.compose


@pytest.mark.parametrize("name", GROUP_NAMES)
@pytest.mark.parametrize("flavor", ["left", "right"])
def test_batched_psi_matches_per_point(name, flavor):
    chart = get_group(name)
    ref = per_point(chart)
    pts = sample_points(chart, CFG, check_rng(CFG, "batched_psi"))
    singles = np.array([psi_flavored(ref, a, flavor, CFG) for a in pts])
    for a, want in zip(pts, singles):
        assert np.array_equal(psi_flavored(chart, a, flavor, CFG), want)
    stack = psi_flavored(chart, pts, flavor, CFG)
    assert stack.shape == (len(pts), chart.n, chart.n)
    assert np.array_equal(stack, singles)
    assert np.array_equal(psi_flavored(ref, pts, flavor, CFG), singles)


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_batched_shift_jacobians_and_newton_match_per_point(name):
    chart = get_group(name)
    ref = per_point(chart)
    pts = sample_points(chart, CFG, check_rng(CFG, "batched_shift"), 2 * CFG.sample_count)
    for a, b in zip(pts[::2], pts[1::2]):
        assert np.array_equal(_a_left(chart, a, b, CFG), _a_left(ref, a, b, CFG))
        assert np.array_equal(_a_right(chart, a, b, CFG), _a_right(ref, a, b, CFG))
        assert np.array_equal(inverse(hintless(chart), a, CFG), inverse(hintless(ref), a, CFG))


@pytest.mark.parametrize("name", [name for name in GROUP_NAMES if get_group(name).n == 1])
def test_batched_canonical_coordinate_matches_per_point(name):
    chart = get_group(name)
    ref = per_point(chart)
    for a in sample_points(chart, CFG, check_rng(CFG, "batched_canonical")):
        assert canonical_coordinate(chart, a, CFG) == canonical_coordinate(ref, a, CFG)


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_batched_structure_measurements_match_per_point(name):
    chart = get_group(name)
    ref = per_point(chart)
    gens, ref_gens = structure.group_generators(chart, CFG), structure.group_generators(ref, CFG)
    assert np.array_equal(gens, ref_gens)
    # the right operator field differentiated at the identity by nested differences
    outer = dataclasses.replace(CFG, base_step=max(CFG.base_step, QUART_EPS))
    nested = [jacobian(structure._flat_field(group._opposite(c), CFG), c.identity, outer)
              for c in (chart, ref)]
    assert np.array_equal(*nested)
    for flavor in ("left", "right"):
        c = structure.structure_constants(gens, flavor)
        a = sample_points(chart, CFG, check_rng(CFG, "batched_structure"), 1)[0]
        assert np.array_equal(structure.structure_constants_at_point(chart, a, flavor, CFG),
                              structure.structure_constants_at_point(ref, a, flavor, CFG))
        [pts] = check_points(chart, CFG, f"field_commutators_{flavor}")
        assert np.array_equal(structure.invariant_field_commutators(chart, c, pts, CFG),
                              structure.invariant_field_commutators(ref, c, pts, CFG))
