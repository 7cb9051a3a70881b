"""The mutation matrix: each check id paired with a broken law it must FAIL on.

A check that reads 0.0 on every law proves nothing, so every entry below
names a known-bad chart or representation and a check that has to reject
it.  The broken laws carry no inverse_hint, so inverses come from the
Newton solve on the broken law itself.
"""

import dataclasses
from functools import cache

import numpy as np
import pytest

from liechart.catalog import get_group
from liechart.group import SHIFT_CHECK_IDS, GroupChart, record
from liechart.numdiff import DiffConfig
from liechart.reps import RepChart
from liechart.suites import SUITES

CFG = DiffConfig()


def _gl2_skewed() -> GroupChart:
    # adds 0.05 (a0 - 1)^2 b3 to coordinate 1: not associative
    chart = get_group("gl:2")
    law = chart.compose
    bump = np.eye(4)[1]
    return dataclasses.replace(
        chart, compose=lambda a, b: law(a, b) + 0.05 * (a[0] - 1.0) ** 2 * b[3] * bump,
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


def _multiplicative_skewed() -> GroupChart:
    # a b + 0.05 (a - 1)^2 (b - 1): keeps the identity, breaks associativity
    chart = get_group("multiplicative")
    return dataclasses.replace(
        chart, compose=lambda a, b: a * b + 0.05 * (a - 1.0) ** 2 * (b - 1.0),
        inverse_hint=None, name="multiplicative skewed")


def _translation2_collapsed() -> GroupChart:
    # b + (a0 + a1) (1, 1): the left slot moves b along one direction only,
    # so the law as a family of maps of b has one essential parameter, not 2
    chart = get_group("translation:2")
    return dataclasses.replace(
        chart, compose=lambda a, b: b + (a[0] + a[1]) * np.ones(2),
        inverse_hint=None, name="translation:2 collapsed")


# mutant -> (broken chart, the suites run on it); the collapsed law has no
# inverse, so only the pde suite, which never inverts, can run on it
MUTANTS = {
    "gl:2 skewed": (_gl2_skewed, ("shift", "structure", "flows")),
    "gl:2 skewed left": (_gl2_skewed_left, ("shift", "structure")),
    "multiplicative skewed": (_multiplicative_skewed, ("shift", "structure", "flows")),
    "translation:2 collapsed": (_translation2_collapsed, ("pde",)),
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
            for check_id, samples, residual in SUITES[suite](chart, None, CFG)}


@pytest.mark.parametrize("mutant, check_id", [
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
    ("gl:2 skewed", "flow_homomorphism"),
    ("gl:2 skewed", "flow_homomorphism_left"),
    ("multiplicative skewed", "flow_homomorphism"),
    ("multiplicative skewed", "flow_homomorphism_left"),
    ("multiplicative skewed", "canonical_additivity"),
    ("translation:2 collapsed", "essential_count_group_family"),
])
def test_check_fails_on_broken_law(mutant, check_id):
    assert _verdicts(mutant)[check_id] is False


def _gl2_rep_bumped() -> RepChart:
    # A + 0.05 (a0 - 1)^2 E01: still I at the identity, no longer multiplicative
    bump = np.array([[0.0, 1.0], [0.0, 0.0]])
    return RepChart(group=get_group("gl:2"), m=2, name="bumped",
                    f=lambda a: a.reshape(2, 2) + 0.05 * (a[0] - 1.0) ** 2 * bump)


def _gl2_rep_transposed() -> RepChart:
    # A^T reverses every product, so as a left-side representation it is wrong
    return RepChart(group=get_group("gl:2"), m=2, name="transposed",
                    f=lambda a: a.reshape(2, 2).T.copy(), side="left")


def _gl2_rep_offset() -> RepChart:
    # A + 0.01 E01: the identity no longer maps to the unit matrix
    offset = np.array([[0.0, 0.01], [0.0, 0.0]])
    return RepChart(group=get_group("gl:2"), m=2, name="offset",
                    f=lambda a: a.reshape(2, 2) + offset)


REP_MUTANTS = {"gl:2 bumped": _gl2_rep_bumped, "gl:2 transposed": _gl2_rep_transposed,
               "gl:2 offset": _gl2_rep_offset}


@cache
def _rep_verdicts(mutant: str) -> dict[str, bool]:
    rep = REP_MUTANTS[mutant]()
    return {check_id: record(check_id, residual, samples, 1.0).passed
            for check_id, samples, residual in SUITES["rep"](rep.group, rep, CFG)}


_REP_CHECKS = ("rep_homomorphism", "rep_pde_map", "rep_pde_vector",
               "rep_mixed_identity", "generator_transform_constancy")


@pytest.mark.parametrize("mutant, check_id", [
    *(("gl:2 bumped", check_id) for check_id in (*_REP_CHECKS, "rep_inverse")),
    *(("gl:2 transposed", check_id) for check_id in (*_REP_CHECKS, "rep_integrability")),
    ("gl:2 offset", "rep_identity"),
])
def test_check_fails_on_broken_representation(mutant, check_id):
    assert _rep_verdicts(mutant)[check_id] is False
