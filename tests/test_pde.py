import dataclasses
import math

import numpy as np
import pytest

from liechart import flows, pde
from liechart.catalog import GROUP_NAMES, get_group
from liechart.errors import NotIntegrable
from liechart.group import check_rng
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
from liechart.suites import SUITES

CFG = DiffConfig(sample_count=6)


def test_rhs_shape_validation():
    sys = PDESystem(psi=lambda th, x: np.zeros((1, 1)),
                    theta_box=np.zeros((2, 2)), x_box=np.zeros((1, 2)))
    with pytest.raises(ValueError):
        sys.rhs(np.zeros(2), np.zeros(1))
    # psi gives (1, 2), but the x box has three rows, so n = 3
    sys = PDESystem(psi=lambda th, x: np.array([[th[0], x[0]]]),
                    theta_box=np.array([[0.0, 1.0]]), x_box=np.zeros((3, 2)))
    with pytest.raises(ValueError, match="boxes"):
        integrability_residual(sys, CFG)
    with pytest.raises(ValueError, match="boxes"):
        taylor_coefficients(sys, np.ones(1), np.zeros(3), CFG)
    with pytest.raises(ValueError, match="boxes"):
        taylor_solve(sys, np.ones(1), np.zeros(3), np.ones(3), CFG, check=False)


def test_exponential_system_is_integrable():
    assert integrability_residual(exponential_system(), CFG) < 1e-8


def test_shear_system_residual_is_one():
    # d psi_1 / d x2 = 1 and every other cross term vanishes, so the
    # antisymmetric part has magnitude exactly 1.
    assert integrability_residual(shear_system(), CFG) == pytest.approx(1.0, abs=1e-6)


def loop_integrability_residual(sys, cfg):
    """Reference: the cross-derivative residual one sample point at a time."""
    rng = check_rng(cfg, f"pde_integrability_{sys.name}")
    thetas = pde._sample_box(sys.theta_box, rng, cfg.sample_count)
    xs = pde._sample_box(sys.x_box, rng, cfg.sample_count)
    worst = 0.0
    for theta, x in zip(thetas, xs):
        m, n = theta.size, x.size
        psi = sys.rhs(theta, x)
        dpsi_dx = jacobian(rowwise(lambda v: sys.rhs(theta, v).ravel()), x, cfg)
        dpsi_dth = jacobian(rowwise(lambda v: sys.rhs(v, x).ravel()), theta, cfg)
        total = dpsi_dx.reshape(m, n, n) + np.einsum("ais,sj->aij", dpsi_dth.reshape(m, n, m), psi)
        worst = max(worst, float(np.abs(total - total.transpose(0, 2, 1)).max()))
    return worst


def coupled_system():
    """Two unknowns in two variables whose cross derivatives disagree."""
    return PDESystem(
        psi=lambda th, x: np.array([[th[1] * x[1], np.sin(th[0])],
                                    [th[0] * x[0], th[1] ** 2 + x[1]]]),
        theta_box=np.array([[-1.0, 1.0], [0.5, 1.5]]),
        x_box=np.array([[-1.0, 1.0], [-1.0, 1.0]]),
        name="coupled")


@pytest.mark.parametrize("make", [exponential_system, shear_system, coupled_system])
def test_integrability_residual_matches_loop_reference(make):
    sys = make()
    for cfg in (CFG, DiffConfig(rng_seed=7)):
        assert integrability_residual(sys, cfg) == loop_integrability_residual(sys, cfg)
    if make is coupled_system:
        assert integrability_residual(sys, CFG) > 0.1


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
    stiff = PDESystem(psi=lambda th, x: np.array([[-40.0 * th[0]]]),
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
    sys = PDESystem(psi=lambda th, x: np.zeros((1, 2)),
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
        n_out=1,
        f=lambda x, a: np.array([a[0] * x[0] + a[1] + a[2]]),
        a0=np.array([0.9, 0.3, -0.2]), x_box=np.array([[-1.0, 1.0]]),
        name="three_to_two")
    assert essential_count(fam, CFG) == 2


@pytest.mark.parametrize("name", ["translation:2", "multiplicative", "affine", "gl:2"])
def test_group_composition_family_count_is_n(name):
    chart = get_group(name)
    fam = group_composition_family(chart)
    assert essential_count(fam, CFG) == chart.n


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_pde_suite_makes_one_law_call_per_jet_order(name, law_counter):
    cfg = DiffConfig()
    orders = len(essential_param_ranks(group_composition_family(get_group(name)), cfg))
    chart = law_counter.chart(get_group(name))
    rows = list(SUITES["pde"](chart, None, cfg))
    assert rows[0][2] == 0.0
    # every catalog law saturates at order 0: one jet order, so one call, for
    # 2 n stencil points at each of the sample points, as before the stacks
    assert law_counter.calls == orders == 1
    assert law_counter.evals == 2 * chart.n * cfg.sample_count


def test_family_value_shape_validation():
    fam = FunctionFamily(n_out=2,
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
    for alpha in range(a0.size):
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
    n_x = len(fam.x_box)
    # a (k, n_x) stack of x, with the point above as its first row
    xs = x + np.random.default_rng(3).uniform(-0.2, 0.2, (4, n_x)) * np.arange(4)[:, None]
    for s, multi in ((0, ()), (1, (0,)), (2, (0, n_x - 1))):
        step = CFG.base_step ** (1.0 / (s + 2.0))
        measured = jacobian(rowwise(lambda a: pde._nested_x_derivative(fam, x, a, multi, step)),
                            fam.a0, CFG.replace(base_step=step)).T
        assert np.array_equal(measured, loop_parameter_derivative(fam, x, multi, step))
        # the stacked block: x-major, then output, as essential_param_ranks pools it
        stacked = pde._parameter_jacobian(fam, xs, multi, step, CFG)
        assert np.array_equal(stacked, np.concatenate(
            [loop_parameter_derivative(fam, row, multi, step) for row in xs], axis=1))
