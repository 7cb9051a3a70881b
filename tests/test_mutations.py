"""The mutation matrix: each check id paired with a broken law it must FAIL on.

A check that reads 0.0 on every law proves nothing, so every entry below
names a known-bad chart or representation and a check that has to reject
it.  The broken laws carry no inverse_hint, so inverses come from the
Newton solve on the broken law itself.
"""

import dataclasses
from functools import cache, partial

import numpy as np
import pytest

from conftest import check_points
from liechart.catalog import get_group
from liechart.errors import SingularMatrix
from liechart.group import SHIFT_CHECK_IDS, TOLERANCES, GroupChart, check_chart_axioms, record
from liechart.numdiff import DiffConfig
from liechart.reps import RepChart
from liechart.structure import (group_generators, invariant_field_commutators,
                                structure_constants)
from liechart.suites import SUITES

CFG = DiffConfig()


def _gl2_skewed(eps: float = 0.05) -> GroupChart:
    # adds eps (a0 - 1)^2 b3 to coordinate 1: not associative
    chart = get_group("gl:2")
    law = chart.compose
    bump = np.eye(4)[1]
    return dataclasses.replace(
        chart, compose=lambda a, b: law(a, b) + eps * (a[0] - 1.0) ** 2 * b[3] * bump,
        inverse_hint=None, name="gl:2 skewed")


def _gl2_skewed_left() -> GroupChart:
    # the same bump with its slots swapped, 0.05 (b0 - 1)^2 a3 on coordinate 1:
    # it moves compose(e, b) off b, and it bends the left-slot fields
    chart = get_group("gl:2")
    law = chart.compose
    bump = np.eye(4)[1]
    return dataclasses.replace(
        chart, compose=lambda a, b: law(a, b) + 0.05 * (b[0] - 1.0) ** 2 * a[3] * bump,
        inverse_hint=None, name="gl:2 skewed left")


def _affine_skewed() -> GroupChart:
    # the affine twin of the gl:2 skewed law, 0.05 (a0 - 1)^2 b1 on coordinate 1;
    # b1 = 0 at the identity, so compose(a, e) stays a
    chart = get_group("affine")
    law = chart.compose
    bump = np.eye(2)[1]
    return dataclasses.replace(
        chart, compose=lambda a, b: law(a, b) + 0.05 * (a[0] - 1.0) ** 2 * b[1] * bump,
        inverse_hint=None, name="affine skewed")


def _affine_skewed_left() -> GroupChart:
    # its slot swap, 0.05 (b0 - 1)^2 a1 on coordinate 1, which bends the left-slot fields
    chart = get_group("affine")
    law = chart.compose
    bump = np.eye(2)[1]
    return dataclasses.replace(
        chart, compose=lambda a, b: law(a, b) + 0.05 * (b[0] - 1.0) ** 2 * a[1] * bump,
        inverse_hint=None, name="affine skewed left")


def _multiplicative_skewed(eps: float = 0.05) -> GroupChart:
    # a b + eps (a - 1)^2 (b - 1): keeps the identity, breaks associativity
    chart = get_group("multiplicative")
    return dataclasses.replace(
        chart, compose=lambda a, b: a * b + eps * (a - 1.0) ** 2 * (b - 1.0),
        inverse_hint=None, name="multiplicative skewed")


def _translation2_collapsed() -> GroupChart:
    # b + (a0 + a1) (1, 1): the left slot moves b along one direction only,
    # so the law as a family of maps of b has one essential parameter, not 2
    chart = get_group("translation:2")
    return dataclasses.replace(
        chart, compose=lambda a, b: b + (a[0] + a[1]) * np.ones(2),
        inverse_hint=None, name="translation:2 collapsed")


def _translation1_scaled() -> GroupChart:
    # 1.01 a + b: associative with e = 0, but the left-slot derivative at the
    # identity is 1.01, not 1
    chart = get_group("translation:1")
    return dataclasses.replace(chart, compose=lambda a, b: 1.01 * a + b,
                               inverse_hint=None, name="translation:1 scaled")


def _translation3_non_lie() -> GroupChart:
    # a + b + a0 b1 e0 + a0 b2 e1, with e = 0: the brackets of its
    # generators, [e0, e1] along e0 and [e0, e2] along e1, are no Lie
    # algebra's: they break the Jacobi identity.  So the law cannot be
    # associative, since the constants of every local Lie group satisfy
    # Jacobi: (ab)c - a(bc) = a0 (b1 c1 - b0 c2, b1 c2, 0), up to 1.6e-2
    # on the sample ball [-0.2, 0.2]^3
    chart = get_group("translation:3")
    return dataclasses.replace(
        chart, compose=lambda a, b: a + b + a[0] * np.array([b[1], b[2], 0.0]),
        inverse_hint=None, name="translation:3 non-Lie")


# mutant -> (broken chart, the suites run on it); the collapsed law has no
# inverse, so only the pde suite, which never inverts, can run on it
MUTANTS = {
    "gl:2 skewed": (_gl2_skewed, ("shift", "structure", "flows")),
    "gl:2 skewed left": (_gl2_skewed_left, ("shift", "structure")),
    "affine skewed": (_affine_skewed, ("structure",)),
    "affine skewed left": (_affine_skewed_left, ("structure",)),
    "multiplicative skewed": (_multiplicative_skewed, ("shift", "flows")),
    "translation:2 collapsed": (_translation2_collapsed, ("pde",)),
    "translation:1 scaled": (_translation1_scaled, ("shift",)),
    "translation:3 non-Lie": (_translation3_non_lie, ("structure",)),
}

# every shift id and the axioms a non-associative law breaks
_NONASSOCIATIVE_FAILS = (*SHIFT_CHECK_IDS, "chart_associativity", "inverse_left",
                         "inverse_roundtrip")


@cache
def _verdicts(mutant: str) -> dict[str, bool]:
    factory, suites = MUTANTS[mutant]
    chart = factory()
    return {check_id: record(check_id, residual, samples, 1.0).passed
            for suite in suites
            for check_id, samples, residual in SUITES[suite](chart, None, CFG, group_generators)}


LAW_MATRIX = [
    *(("gl:2 skewed", check_id) for check_id in (*_NONASSOCIATIVE_FAILS, "chart_identity_right")),
    *(("multiplicative skewed", check_id) for check_id in _NONASSOCIATIVE_FAILS),
    ("gl:2 skewed", "anti_isomorphism_measured"),
    ("gl:2 skewed", "constancy_right"),
    ("gl:2 skewed", "maurer_right"),
    ("gl:2 skewed", "field_commutators_right"),
    ("gl:2 skewed left", "chart_identity_left"),
    ("gl:2 skewed left", "constancy_left"),
    ("gl:2 skewed left", "maurer_left"),
    ("gl:2 skewed left", "field_commutators_left"),
    # the affine twins fail every structure row yielded at n = 2
    ("affine skewed", "anti_isomorphism_measured"),
    ("affine skewed", "constancy_right"),
    ("affine skewed", "maurer_right"),
    ("affine skewed", "field_commutators_right"),
    ("affine skewed left", "anti_isomorphism_measured"),
    ("affine skewed left", "constancy_left"),
    ("affine skewed left", "maurer_left"),
    ("affine skewed left", "field_commutators_left"),
    ("gl:2 skewed", "flow_homomorphism"),
    ("gl:2 skewed", "flow_homomorphism_left"),
    ("multiplicative skewed", "flow_homomorphism"),
    ("multiplicative skewed", "flow_homomorphism_left"),
    ("multiplicative skewed", "canonical_additivity"),
    ("translation:2 collapsed", "essential_count_group_family"),
    ("translation:1 scaled", "basic_ops_at_identity"),
    ("translation:3 non-Lie", "jacobi_left"),
]


@pytest.mark.parametrize("mutant, check_id", LAW_MATRIX)
def test_check_fails_on_broken_law(mutant, check_id):
    assert _verdicts(mutant)[check_id] is False


# the flow rows' power: the skew each mutant needs before both flow rows
# FAIL, and a tenth of it, which they pass.  Each row reads about linearly
# in the skew: gl:2 1.5e-5 at 1e-3, multiplicative 3.4e-5 at 1e-1, against 1e-5
FLOW_POWER = [(_gl2_skewed, 1e-3, 1e-4), (_multiplicative_skewed, 1e-1, 1e-2)]


@pytest.mark.parametrize("factory, caught, passed", FLOW_POWER,
                         ids=["gl:2 skewed", "multiplicative skewed"])
def test_flow_rows_catch_a_skew_a_decade_above_the_one_they_pass(factory, caught, passed):
    for eps, verdict in ((caught, False), (passed, True)):
        rows = {check_id: record(check_id, residual, samples, 1.0).passed
                for check_id, samples, residual in SUITES["flows"](factory(eps), None, CFG,
                                                                   group_generators)}
        assert rows["flow_homomorphism"] is verdict, eps
        assert rows["flow_homomorphism_left"] is verdict, eps


def _gl2_rep_bumped(eps: float = 0.05) -> RepChart:
    # A + eps (a0 - 1)^2 E01: still I at the identity, no longer multiplicative
    bump = np.array([[0.0, 1.0], [0.0, 0.0]])
    return RepChart(group=get_group("gl:2"), m=2, name="bumped",
                    f=lambda a: a.reshape(2, 2) + eps * (a[0] - 1.0) ** 2 * bump)


def _gl2_rep_transposed() -> RepChart:
    # A^T reverses every product: a representation of the opposite group, not of gl:2
    return RepChart(group=get_group("gl:2"), m=2, name="transposed",
                    f=lambda a: a.reshape(2, 2).T.copy())


def _gl2_rep_offset() -> RepChart:
    # A + 0.01 E01: the identity no longer maps to the unit matrix
    offset = np.array([[0.0, 0.01], [0.0, 0.0]])
    return RepChart(group=get_group("gl:2"), m=2, name="offset",
                    f=lambda a: a.reshape(2, 2) + offset)


REP_MUTANTS = {"gl:2 bumped": _gl2_rep_bumped, "gl:2 transposed": _gl2_rep_transposed,
               "gl:2 offset": _gl2_rep_offset,
               # a bump ten times smaller, which only the 1e-4 mixed bound catches
               "gl:2 bumped 0.005": partial(_gl2_rep_bumped, 0.005)}


@cache
def _rep_verdicts(mutant: str) -> dict[str, bool]:
    rep = REP_MUTANTS[mutant]()
    return {check_id: record(check_id, residual, samples, 1.0).passed
            for check_id, samples, residual in SUITES["rep"](rep.group, rep, CFG, group_generators)}


_REP_CHECKS = ("rep_homomorphism", "rep_pde_map", "rep_mixed_identity")


REP_MATRIX = [
    *(("gl:2 bumped", check_id) for check_id in (*_REP_CHECKS, "rep_inverse")),
    *(("gl:2 transposed", check_id) for check_id in (*_REP_CHECKS, "rep_integrability")),
    ("gl:2 offset", "rep_identity"),
    ("gl:2 bumped 0.005", "rep_mixed_identity"),
]


@pytest.mark.parametrize("mutant, check_id", REP_MATRIX)
def test_check_fails_on_broken_representation(mutant, check_id):
    assert _rep_verdicts(mutant)[check_id] is False


@pytest.mark.parametrize("seed", [42, 7, 2026])
def test_mixed_identity_catches_the_small_bump_at_every_seed(seed):
    # it reads about 2.3e-4, so it needs the 1e-4 bound: 1e-3 passed it
    rep = REP_MUTANTS["gl:2 bumped 0.005"]()
    rows = {check_id: record(check_id, residual, samples, 1.0)
            for check_id, samples, residual in SUITES["rep"](
                rep.group, rep, DiffConfig(rng_seed=seed), group_generators)}
    assert 1e-4 < rows["rep_mixed_identity"].max_residual < 1e-3
    assert rows["rep_mixed_identity"].passed is False


def test_every_check_id_has_a_mutant_or_a_stated_exemption():
    # no id is exempt: each one has a known-bad chart or representation
    assert set(TOLERANCES) == {check_id for _, check_id in (*LAW_MATRIX, *REP_MATRIX)}


_CUBE_LAWS = [
    # (a0 + b0^3, a1 + b1): the right-slot derivative at b = e has rank 1
    ("right", lambda a, b: np.array([a[0] + b[0] ** 3, a[1] + b[1]]),
     lambda a: np.array([np.cbrt(-a[0]), -a[1]])),
    # its mirror (a0^3 + b0, a1 + b1), for the left-slot derivative at a = e
    ("left", lambda a, b: np.array([a[0] ** 3 + b[0], a[1] + b[1]]),
     lambda a: np.array([-a[0] ** 3, -a[1]])),
]


def _cube_chart(law, hint) -> GroupChart:
    return GroupChart(n=2, compose=law, identity=np.zeros(2), inverse_hint=hint, name="cube")


@pytest.mark.parametrize("flavor, law, hint", _CUBE_LAWS)
def test_singular_frame_breaks_down_before_frame_rank_is_read(flavor, law, hint):
    chart = _cube_chart(law, hint)
    rank_drop = rf"{flavor} frame has rank 1 of 2 at a = \[-?0\.\d+, -?0\.\d+\]$"
    with pytest.raises(SingularMatrix, match="^anti_isomorphism_measured: " + rank_drop):
        list(SUITES["structure"](chart, None, CFG, group_generators))
    constants = structure_constants(group_generators(chart, CFG), flavor)
    [a] = check_points(chart, CFG, f"field_commutators_{flavor}")
    with pytest.raises(SingularMatrix, match="^" + rank_drop):
        invariant_field_commutators(chart, constants, a, CFG)


@pytest.mark.parametrize("flavor, law, hint", _CUBE_LAWS)
def test_singular_frame_fails_basic_ops_at_identity(flavor, law, hint):
    # the row reads the frames at the identity without inverting them, so
    # the rank-1 frame is reported: |psi(e) - I| = 1 where b0^3 has slope 0
    records = {c.check_id: c for c in check_chart_axioms(_cube_chart(law, hint), CFG).checks}
    row = records["basic_ops_at_identity"]
    assert not row.passed
    assert row.max_residual == pytest.approx(1.0, abs=1e-9)


def test_a_singular_right_frame_breaks_the_mixed_identity_down():
    # the row inverts both frames, so on a law whose right frame has rank 1
    # the trivial rep stops there with a named breakdown rather than a pass
    _, law, hint = _CUBE_LAWS[0]
    rep = RepChart(group=_cube_chart(law, hint), m=1, f=lambda a: np.ones((1, 1)),
                   name="trivial")
    rows = SUITES["rep"](rep.group, rep, CFG, group_generators)
    with pytest.raises(SingularMatrix, match="^rep_mixed_identity: "):
        list(rows)
