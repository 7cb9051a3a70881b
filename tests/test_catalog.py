import numpy as np
import pytest

from liechart.catalog import (
    GROUP_NAMES,
    get_group,
    get_oracles,
    get_rep,
    rep_generator_oracle,
)
from liechart.errors import UnknownEntry
from liechart.group import check_rng, inverse, psi_flavored, sample_points
from liechart.numdiff import DiffConfig, invert
from liechart.structure import group_generators, structure_constants

CFG = DiffConfig(sample_count=4)


def test_group_names_resolve():
    for name in GROUP_NAMES:
        chart = get_group(name)
        assert chart.name == name
        assert chart.identity.shape == (chart.n,)


def test_translation_scales_beyond_catalog_list():
    # any dimension up to the parse limit works, listed or not
    chart = get_group("translation:7")
    assert chart.n == 7


@pytest.mark.parametrize("bad", [
    "bogus", "translation:0", "translation:-2", "translation:99",
    "gl:0", "gl:4", "gl:x", "affine:2", "",
    # int() reads these as 2 or 10, but each group has one spelling
    "gl: 2", "gl:02", "gl:2 ", "translation:+02", "translation:1_0", "translation:٣",
])
def test_unknown_groups_raise(bad):
    with pytest.raises(UnknownEntry):
        get_group(bad)


def test_group_lookup_is_cached():
    assert get_group("affine") is get_group("affine")


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_operator_oracles_match_measured(name):
    chart = get_group(name)
    oracles = get_oracles(name)
    rng = check_rng(CFG, "catalog_oracles")
    for a in sample_points(chart, CFG, rng, 3):
        left, right = psi_flavored(chart, a, "left", CFG), psi_flavored(chart, a, "right", CFG)
        assert np.max(np.abs(left - oracles.psi_left(a))) < 1e-5
        assert np.max(np.abs(right - oracles.psi_right(a))) < 1e-5
        assert np.max(np.abs(invert(left) - oracles.lam_left(a))) < 1e-5
        assert np.max(np.abs(invert(right) - oracles.lam_right(a))) < 1e-5
        assert np.max(np.abs(inverse(chart, a, CFG) - oracles.inverse(a))) < 1e-8


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_generator_oracles_match_measured(name):
    chart = get_group(name)
    oracles = get_oracles(name)
    gens = group_generators(chart, CFG)
    assert np.max(np.abs(gens - oracles.generators)) < 1e-4
    c_left = structure_constants(gens, "left")
    assert np.max(np.abs(c_left.c - oracles.c_left)) < 1e-4


def test_gl2_oracle_shapes():
    oracles = get_oracles("gl:2")
    a = get_group("gl:2").identity
    assert oracles.psi_left(a).shape == (4, 4)
    assert oracles.generators.shape == (4, 4, 4)
    assert oracles.c_left.shape == (4, 4, 4)


def test_affine_oracle_structure_constants_frozen():
    c = get_oracles("affine").c_left
    expected = np.zeros((2, 2, 2))
    expected[1, 0, 1] = -1.0
    expected[1, 1, 0] = 1.0
    assert np.array_equal(c, expected)


def test_rep_lookup():
    rep = get_rep("gl:2", "standard")
    assert rep.m == 2
    assert rep.side == "left"
    conj = get_rep("gl:2", "conjugate")
    assert conj.side == "right"
    assert get_rep("affine", "matrix").m == 2
    assert get_rep("translation:3", "trivial").m == 1


@pytest.mark.parametrize("group_name,rep_name", [
    ("gl:2", "bogus"),
    ("affine", "standard"),
    ("translation:2", "matrix"),
    ("gl:2", "tensor:standard"),
    ("gl:2", "tensor:standard,bogus"),
])
def test_unknown_reps_raise(group_name, rep_name):
    with pytest.raises(UnknownEntry):
        get_rep(group_name, rep_name)


def test_composite_rep_assembly():
    prod = get_rep("gl:2", "tensor:standard,standard")
    assert prod.m == 4
    summed = get_rep("gl:2", "sum:standard,standard")
    assert summed.m == 4
    nested = get_rep("gl:2", "sum:standard,sum:standard,standard")
    assert nested.m == 6


def test_composite_generator_oracles():
    oracle = rep_generator_oracle("gl:2", "tensor:standard,standard")
    assert oracle is not None
    assert oracle[0].shape == (4, 4)
    # generator of the product on the first basis direction:
    # E00 x I + I x E00
    e00 = np.zeros((2, 2))
    e00[0, 0] = 1.0
    expected = np.kron(e00, np.eye(2)) + np.kron(np.eye(2), e00)
    assert np.array_equal(oracle[0], expected)


def test_mixed_side_composite_rejected():
    with pytest.raises(UnknownEntry):
        get_rep("gl:2", "sum:standard,conjugate")


def test_trivial_rep_available_everywhere():
    for name in GROUP_NAMES:
        rep = get_rep(name, "trivial")
        assert rep.m == 1
        oracle = rep_generator_oracle(name, "trivial")
        assert all(np.array_equal(g, np.zeros((1, 1))) for g in oracle)
