import dataclasses
import math

import numpy as np
import pytest

from liechart import flows, pde
from liechart.catalog import get_group
from liechart.errors import NotIntegrable
from liechart.numdiff import DiffConfig, jacobian, rowwise
from liechart.pde import (
    FunctionFamily,
    PDESystem,
    bundled_families,
    essential_count,
    essential_param_ranks,
    exponential_system,
    group_composition_family,
    integrability_residual,
    shear_system,
    solve_along_path,
    taylor_coefficients,
    taylor_solve,
)

CFG = DiffConfig(sample_count=6)


def test_rhs_shape_validation():
    sys = PDESystem(m=2, n=1, psi=lambda th, x: np.zeros((1, 1)),
                    theta_box=np.zeros((2, 2)), x_box=np.zeros((1, 2)))
    with pytest.raises(ValueError):
        sys.rhs(np.zeros(2), np.zeros(1))


def test_exponential_system_is_integrable():
    assert integrability_residual(exponential_system(), CFG) < 1e-8


def test_shear_system_residual_is_one():
    # d psi_1 / d x2 = 1 and every other cross term vanishes, so the
    # antisymmetric part has magnitude exactly 1.
    assert integrability_residual(shear_system(), CFG) == pytest.approx(1.0, abs=1e-6)


def test_taylor_coefficients_exponential():
    sys = exponential_system()
    theta, first, second = taylor_coefficients(sys, np.array([1.0]), np.zeros(2), CFG)
    assert theta[0] == 1.0
    assert np.max(np.abs(first - np.ones((1, 2)))) < 1e-12
    # second derivative of C exp(x1 + x2) is the value itself in every slot
    assert np.max(np.abs(second - np.ones((1, 2, 2)))) < 1e-6


def test_taylor_solve_hits_exponential():
    sys = exponential_system()
    out = taylor_solve(sys, np.array([1.0]), np.zeros(2), np.array([0.3, 0.0]), CFG)
    assert abs(out[0] - np.exp(0.3)) < 1e-10


def test_taylor_solve_path_independent():
    sys = exponential_system()
    direct = taylor_solve(sys, np.array([1.0]), np.zeros(2), np.array([0.2, 0.1]), CFG)
    dogleg = solve_along_path(
        sys, np.array([1.0]),
        [np.zeros(2), np.array([0.2, 0.0]), np.array([0.2, 0.1])], CFG)
    assert abs(direct[0] - dogleg[0]) < 1e-9
    assert abs(direct[0] - np.exp(0.3)) < 1e-9


def _counted(sys, limit):
    """sys with its psi calls counted; past `limit` calls psi fails the test."""
    calls = [0]

    def psi(th, x):
        calls[0] += 1
        if calls[0] > limit:
            raise AssertionError(f"more than {limit} right-hand side calls")
        return sys.psi(th, x)

    return dataclasses.replace(sys, psi=psi), calls


# rhs calls of every pass up to the cap: 4 per RK4 step at 8, 16, ..., 256
# steps, then the capped pass of 500
CAPPED_CALLS = 4 * (8 + 16 + 32 + 64 + 128 + 256 + pde._TAYLOR_STEPS)


def test_taylor_solve_step_doubling_stops_below_the_cap():
    sys, calls = _counted(exponential_system(), CAPPED_CALLS)
    out = taylor_solve(sys, np.ones(1), np.zeros(2), np.array([0.1, 0.2]), CFG, check=False)
    assert calls[0] < 4 * pde._TAYLOR_STEPS
    assert abs(out[0] - np.exp(0.3)) < 1e-10


def test_taylor_solve_step_doubling_stops_at_the_cap(monkeypatch):
    # a tolerance no pair of endpoints can meet must still end the loop
    monkeypatch.setattr(flows, "_FLOW_TOL", 0.0)
    sys, calls = _counted(exponential_system(), CAPPED_CALLS)
    out = taylor_solve(sys, np.ones(1), np.zeros(2), np.array([0.1, 0.2]), CFG, check=False)
    assert calls[0] == CAPPED_CALLS
    assert abs(out[0] - np.exp(0.3)) < 1e-10


def test_taylor_solve_outlasts_an_unstable_coarse_pass():
    # theta' = -40 theta on [0, 1]: each of 8 RK4 steps multiplies theta by
    # about 13.7, so the first pass ends near 1e9 while the solution decays
    stiff = PDESystem(m=1, n=1, psi=lambda th, x: np.array([[-40.0 * th[0]]]),
                      theta_box=np.array([[0.5, 2.0]]), x_box=np.array([[0.0, 1.0]]),
                      name="stiff")
    sys, calls = _counted(stiff, CAPPED_CALLS)
    out = taylor_solve(sys, np.ones(1), np.zeros(1), np.ones(1), CFG, check=False)
    assert calls[0] > 4 * 8
    assert abs(out[0] - math.exp(-40.0)) < 1e-12


def test_taylor_solve_rejects_nonintegrable():
    with pytest.raises(NotIntegrable):
        taylor_solve(shear_system(), np.array([0.0]), np.zeros(2),
                     np.array([0.5, 0.5]), CFG)
    with pytest.raises(NotIntegrable):
        solve_along_path(shear_system(), np.array([0.0]),
                         [np.zeros(2), np.array([0.5, 0.5])], CFG)


def test_taylor_solve_unchecked_runs_anyway():
    out = taylor_solve(shear_system(), np.array([0.0]), np.zeros(2),
                       np.array([1.0, 1.0]), CFG, check=False)
    assert np.isfinite(out[0])


def test_constant_system_stays_put():
    sys = PDESystem(m=1, n=2, psi=lambda th, x: np.zeros((1, 2)),
                    theta_box=np.array([[-1.0, 1.0]]),
                    x_box=np.array([[-1.0, 1.0], [-1.0, 1.0]]))
    out = taylor_solve(sys, np.array([0.4]), np.zeros(2), np.array([0.7, -0.2]), CFG)
    assert out[0] == pytest.approx(0.4, abs=1e-12)


def test_bundled_family_ranks_and_counts():
    for item in bundled_families():
        ranks = essential_param_ranks(item.family, CFG)
        assert tuple(ranks) == item.expected_ranks, item.family.name
        assert essential_count(item.family, CFG) == item.expected_count


def test_rank_sequence_is_monotone():
    for item in bundled_families():
        ranks = essential_param_ranks(item.family, CFG)
        assert all(b >= a for a, b in zip(ranks, ranks[1:]))


def test_redundant_pair_with_one_useful_direction():
    # Three parameters entering through two combinations: the family
    # a0*x + (a1 + a2) has exactly two essential parameters.
    fam = FunctionFamily(
        n_out=1, n_x=1, r=3,
        f=lambda x, a: np.array([a[0] * x[0] + a[1] + a[2]]),
        a0=np.array([0.9, 0.3, -0.2]), x_box=np.array([[-1.0, 1.0]]),
        name="three_to_two")
    assert essential_count(fam, CFG) == 2


@pytest.mark.parametrize("name", ["translation:2", "multiplicative", "affine", "gl:2"])
def test_group_composition_family_count_is_n(name):
    chart = get_group(name)
    fam = group_composition_family(chart)
    assert essential_count(fam, CFG) == chart.n


def test_family_value_shape_validation():
    fam = FunctionFamily(n_out=2, n_x=1, r=1,
                         f=lambda x, a: np.array([x[0]]),
                         a0=np.zeros(1), x_box=np.array([[-1.0, 1.0]]))
    with pytest.raises(ValueError):
        fam.value(np.zeros(1), np.zeros(1))


def test_nan_integrability_residual_is_not_integrable(monkeypatch):
    monkeypatch.setattr(pde, "integrability_residual", lambda sys, cfg: float("nan"))
    x0, x1 = np.zeros(2), np.array([0.1, 0.2])
    with pytest.raises(NotIntegrable):
        taylor_solve(exponential_system(), np.ones(1), x0, x1, CFG)
    with pytest.raises(NotIntegrable):
        solve_along_path(exponential_system(), np.ones(1), [x0, x1], CFG)


def loop_parameter_derivative(fam, x, multi, step):
    """Reference: one central difference per parameter, written out."""
    a0 = np.asarray(fam.a0, float)
    rows = []
    for alpha in range(fam.r):
        ha = step * max(1.0, abs(float(a0[alpha])))
        ap = a0.copy()
        am = a0.copy()
        ap[alpha] += ha
        am[alpha] -= ha
        rows.append((pde._nested_x_derivative(fam, x.copy(), ap, multi, step)
                     - pde._nested_x_derivative(fam, x.copy(), am, multi, step)) / (2.0 * ha))
    return np.stack(rows)


@pytest.mark.parametrize("fam", [item.family for item in bundled_families()]
                         + [group_composition_family(get_group("affine"))],
                         ids=lambda fam: fam.name)
def test_parameter_jacobian_matches_loop_reference(fam):
    x = np.asarray(fam.x_box, float).mean(axis=1) + 0.3
    for s, multi in ((0, ()), (1, (0,)), (2, (0, fam.n_x - 1))):
        step = CFG.base_step ** (1.0 / (s + 2.0))
        measured = jacobian(rowwise(lambda a: pde._nested_x_derivative(fam, x, a, multi, step)),
                            fam.a0, CFG.replace(base_step=step)).T
        assert np.array_equal(measured, loop_parameter_derivative(fam, x, multi, step))
