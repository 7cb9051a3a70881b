"""The mutation matrix: each check id paired with a broken law it must FAIL on.

A check that reads 0.0 on every law proves nothing, so every entry below
names a known-bad chart and a check that has to reject it.  The broken
laws carry no inverse_hint, so inverses come from the Newton solve on the
broken law itself.
"""

import dataclasses
from functools import cache

import numpy as np
import pytest

from liechart.catalog import get_group
from liechart.group import GroupChart, record
from liechart.numdiff import DiffConfig
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


def _multiplicative_skewed() -> GroupChart:
    # a b + 0.05 (a - 1)^2 (b - 1): keeps the identity, breaks associativity
    chart = get_group("multiplicative")
    return dataclasses.replace(
        chart, compose=lambda a, b: a * b + 0.05 * (a - 1.0) ** 2 * (b - 1.0),
        inverse_hint=None, name="multiplicative skewed")


MUTANTS = {"gl:2 skewed": _gl2_skewed, "multiplicative skewed": _multiplicative_skewed}


@cache
def _verdicts(mutant: str) -> dict[str, bool]:
    chart = MUTANTS[mutant]()
    return {check_id: record(check_id, residual, samples, 1.0).passed
            for suite in ("structure", "flows")
            for check_id, samples, residual in SUITES[suite](chart, None, CFG)}


@pytest.mark.parametrize("mutant, check_id", [
    ("gl:2 skewed", "anti_isomorphism_measured"),
    ("gl:2 skewed", "constancy_right"),
    ("gl:2 skewed", "maurer_right"),
    ("gl:2 skewed", "field_commutators_right"),
    ("gl:2 skewed", "flow_homomorphism"),
    ("gl:2 skewed", "flow_homomorphism_left"),
    ("multiplicative skewed", "flow_homomorphism"),
    ("multiplicative skewed", "flow_homomorphism_left"),
    ("multiplicative skewed", "canonical_additivity"),
])
def test_check_fails_on_broken_law(mutant, check_id):
    assert _verdicts(mutant)[check_id] is False
