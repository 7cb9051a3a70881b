"""Completely integrable PDE systems and essential-parameter counting.

A system prescribes every first derivative of the unknowns:
d theta^alpha / d x^i = psi^alpha_i(theta, x).  Such a system has a
solution through every initial value exactly when the cross derivatives
agree, and then the solution can be continued along any path.  The same
machinery counts how many parameters of a function family act
independently: stack parameter derivatives of the function and of its
x-derivatives and watch the rank saturate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import combinations_with_replacement
from typing import Callable

import numpy as np

from .errors import NonFiniteEvaluation, NotIntegrable
from .flows import rk4_path, step_doubled
from .group import GroupChart, check_rng, maxabs, worst_of
from .numdiff import DiffConfig, as_finite_array, jacobian, numeric_rank, rowwise

_TAYLOR_STEPS = 500
_INTEGRABILITY_TOL = 1e-6
_FAMILY_RADIUS = 0.1


@dataclass(frozen=True)
class PDESystem:
    """First-order system d theta / d x = psi(theta, x).

    psi maps (theta (m,), x (n,)) to an (m, n) array of derivatives.
    The boxes bound where sample points for integrability testing are
    drawn: rows of (low, high) per coordinate.
    """

    m: int
    n: int
    psi: Callable[[np.ndarray, np.ndarray], np.ndarray]
    theta_box: np.ndarray
    x_box: np.ndarray
    name: str = "pde"

    def rhs(self, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
        out = as_finite_array(self.psi(theta, x), "pde right-hand side")
        if out.shape != (self.m, self.n):
            raise ValueError(f"psi returned {out.shape}, expected {(self.m, self.n)}")
        return out


def _sample_box(box: np.ndarray, rng: np.random.Generator, count: int) -> np.ndarray:
    box = np.asarray(box, float)
    return rng.uniform(box[:, 0], box[:, 1], size=(count, box.shape[0]))


def _psi_derivatives(sys: PDESystem, theta: np.ndarray, x: np.ndarray,
                     cfg: DiffConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    psi = sys.rhs(theta, x)
    dpsi_dx = jacobian(rowwise(lambda v: sys.rhs(theta, v).ravel()), x, cfg)
    dpsi_dth = jacobian(rowwise(lambda v: sys.rhs(v, x).ravel()), theta, cfg)
    return (psi,
            dpsi_dx.reshape(sys.m, sys.n, sys.n),
            dpsi_dth.reshape(sys.m, sys.n, sys.m))


def _cross_residual(sys: PDESystem, theta: np.ndarray, x: np.ndarray,
                    cfg: DiffConfig) -> float:
    """Antisymmetric part of the total x-derivative of psi."""
    psi, dpsi_dx, dpsi_dth = _psi_derivatives(sys, theta, x, cfg)
    total = dpsi_dx + np.einsum("ais,sj->aij", dpsi_dth, psi)
    return maxabs(total - np.transpose(total, (0, 2, 1)))


def integrability_residual(sys: PDESystem, cfg: DiffConfig | None = None) -> float:
    """Max cross-derivative mismatch over sampled (theta, x) points.

    Zero (up to stencil error) means every initial value extends to a
    local solution; the size of a nonzero residual measures how badly
    the mixed partials disagree.
    """
    cfg = cfg or DiffConfig()
    if sys.n < 2:
        return 0.0
    rng = check_rng(cfg, f"pde_integrability_{sys.name}")
    thetas = _sample_box(sys.theta_box, rng, cfg.sample_count)
    xs = _sample_box(sys.x_box, rng, cfg.sample_count)
    return worst_of(_cross_residual(sys, thetas[i], xs[i], cfg)
                    for i in range(cfg.sample_count))


def _require_integrable(sys: PDESystem, cfg: DiffConfig) -> None:
    res = integrability_residual(sys, cfg)
    if not res <= _INTEGRABILITY_TOL:
        raise NotIntegrable(
            f"cross-derivative residual {res:.3e} exceeds {_INTEGRABILITY_TOL:.1e}")


def taylor_coefficients(sys: PDESystem, consts, x0,
                        cfg: DiffConfig | None = None
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solution jet at x0: value, first and second x-derivatives.

    The first derivatives are psi itself; the second follow by one total
    derivative of the system, so they are available without solving
    anything.
    """
    cfg = cfg or DiffConfig()
    theta = as_finite_array(consts).ravel()
    x0 = as_finite_array(x0).ravel()
    psi, dpsi_dx, dpsi_dth = _psi_derivatives(sys, theta, x0, cfg)
    second = dpsi_dx + np.einsum("ais,sj->aij", dpsi_dth, psi)
    return theta.copy(), psi, second


def taylor_solve(sys: PDESystem, consts, x0, x1, cfg: DiffConfig | None = None,
                 check: bool = True) -> np.ndarray:
    """Continue the local solution from (x0, consts) to x1.

    Integrates d theta / ds = psi(theta, x(s)) dx for s in [0, 1] along
    the straight segment by flows.step_doubled RK4: from 8 steps until two
    endpoints agree within flows._FLOW_TOL, at most _TAYLOR_STEPS.  Raises
    NotIntegrable when the sampled cross-derivative residual exceeds
    _INTEGRABILITY_TOL, since the result would then depend on the path.
    """
    cfg = cfg or DiffConfig()
    if check:
        _require_integrable(sys, cfg)
    theta = as_finite_array(consts).ravel()
    x0 = as_finite_array(x0).ravel()
    x1 = as_finite_array(x1).ravel()
    delta = x1 - x0

    def rhs(th: np.ndarray, s: float) -> np.ndarray:
        return sys.rhs(th, x0 + s * delta) @ delta

    integrate = partial(rk4_path, rhs, theta, 1.0,
                        check=lambda th, _s: as_finite_array(th, "pde solution"))
    return step_doubled(integrate, 8, _TAYLOR_STEPS, NonFiniteEvaluation)[-1]


def solve_along_path(sys: PDESystem, consts, waypoints, cfg: DiffConfig | None = None
                     ) -> np.ndarray:
    """Chain taylor_solve along a polyline; integrability checked once.

    Each leg is step-doubled on its own, to its own step count.
    """
    cfg = cfg or DiffConfig()
    _require_integrable(sys, cfg)
    theta = as_finite_array(consts).ravel()
    pts = [as_finite_array(w).ravel() for w in waypoints]
    for a, b in zip(pts[:-1], pts[1:]):
        theta = taylor_solve(sys, theta, a, b, cfg, check=False)
    return theta


# --- essential parameters ---------------------------------------------------


@dataclass(frozen=True)
class FunctionFamily:
    """Family of maps f(x, a): variables x (n_x,), parameters a (r,)."""

    n_out: int
    n_x: int
    r: int
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    a0: np.ndarray
    x_box: np.ndarray
    s_max: int = 3
    name: str = "family"

    def value(self, x: np.ndarray, a: np.ndarray) -> np.ndarray:
        out = as_finite_array(self.f(x, a), "family value").ravel()
        if out.size != self.n_out:
            raise ValueError(f"family returned {out.size} outputs, expected {self.n_out}")
        return out


def _nested_x_derivative(fam: FunctionFamily, x: np.ndarray, a: np.ndarray,
                         multi: tuple[int, ...], step: float) -> np.ndarray:
    if not multi:
        return fam.value(x, a)
    i, rest = multi[0], multi[1:]
    h = step * max(1.0, abs(float(x[i])))
    xp = x.copy()
    xm = x.copy()
    xp[i] += h
    xm[i] -= h
    return (_nested_x_derivative(fam, xp, a, rest, step)
            - _nested_x_derivative(fam, xm, a, rest, step)) / (2.0 * h)


def essential_param_ranks(fam: FunctionFamily, cfg: DiffConfig | None = None) -> list[int]:
    """Rank sequence of stacked parameter derivatives of the x-jets.

    Entry s is the rank of the matrix whose rows (one per parameter)
    hold the parameter derivative of every x-derivative of f up to
    order s, pooled over sampled x points.  Stops as soon as the rank
    saturates: hits r, repeats, or starts at zero.
    """
    cfg = cfg or DiffConfig()
    rng = check_rng(cfg, f"essential_params_{fam.name}")
    xs = _sample_box(fam.x_box, rng, cfg.sample_count)
    a0 = as_finite_array(fam.a0).ravel()

    blocks: list[np.ndarray] = []
    ranks: list[int] = []
    for s in range(fam.s_max + 1):
        # one more nesting level than the x-derivative order, since the
        # parameter derivative is taken on top of the x-stencil
        step = cfg.base_step ** (1.0 / (s + 2.0))
        step_cfg = cfg.replace(base_step=step)
        # row alpha holds the parameter derivative d / d a^alpha
        cols = [jacobian(rowwise(lambda a: _nested_x_derivative(fam, x, a, multi, step)), a0,
                         step_cfg).T
                for multi in combinations_with_replacement(range(fam.n_x), s)
                for x in xs]
        blocks.append(np.concatenate(cols, axis=1) if cols else np.zeros((fam.r, 0)))
        stacked = np.concatenate(blocks, axis=1)
        ranks.append(numeric_rank(stacked))
        if ranks[-1] == fam.r:
            break
        if ranks[-1] == 0:
            break
        if s >= 1 and ranks[-1] == ranks[-2]:
            break
    return ranks


def essential_count(fam: FunctionFamily, cfg: DiffConfig | None = None) -> int:
    """Number of independently acting parameters in the family."""
    return essential_param_ranks(fam, cfg)[-1]


# --- bundled fixtures -------------------------------------------------------


def exponential_system() -> PDESystem:
    """theta' = theta in each of two directions; solution C * exp(x1 + x2)."""
    return PDESystem(
        m=1, n=2,
        psi=lambda th, x: np.array([[th[0], th[0]]]),
        theta_box=np.array([[0.5, 2.0]]),
        x_box=np.array([[-0.5, 0.5], [-0.5, 0.5]]),
        name="exponential",
    )


def shear_system() -> PDESystem:
    """Non-integrable on purpose: d theta/d x1 = x2, d theta/d x2 = 0."""
    return PDESystem(
        m=1, n=2,
        psi=lambda th, x: np.array([[x[1], 0.0]]),
        theta_box=np.array([[-1.0, 1.0]]),
        x_box=np.array([[-1.0, 1.0], [-1.0, 1.0]]),
        name="shear",
    )


@dataclass(frozen=True)
class BundledFamily:
    family: FunctionFamily
    expected_count: int
    expected_ranks: tuple[int, ...]


def bundled_families() -> list[BundledFamily]:
    """Small parameter families with hand-counted essential parameters."""
    box = np.array([[-1.0, 1.0]])
    fams = [
        BundledFamily(
            FunctionFamily(
                n_out=1, n_x=1, r=2,
                f=lambda x, a: np.array([(a[0] + a[1]) * x[0]]),
                a0=np.array([0.7, 0.4]), x_box=box, name="pooled_scale"),
            expected_count=1, expected_ranks=(1, 1)),
        BundledFamily(
            FunctionFamily(
                n_out=1, n_x=1, r=2,
                f=lambda x, a: np.array([a[0] * x[0] + a[1]]),
                a0=np.array([0.7, 0.4]), x_box=box, name="affine_line"),
            expected_count=2, expected_ranks=(2,)),
        BundledFamily(
            FunctionFamily(
                n_out=1, n_x=1, r=2,
                f=lambda x, a: np.array([a[0] * a[1] * x[0]]),
                a0=np.array([0.7, 0.4]), x_box=box, name="product_scale"),
            expected_count=1, expected_ranks=(1, 1)),
        BundledFamily(
            FunctionFamily(
                n_out=1, n_x=1, r=2,
                f=lambda x, a: np.array([x[0] ** 2]),
                a0=np.array([0.7, 0.4]), x_box=box, name="parameter_free"),
            expected_count=0, expected_ranks=(0,)),
    ]
    return fams


def group_composition_family(chart: GroupChart) -> FunctionFamily:
    """The composition law as a family: parameters move the left slot."""
    box = np.column_stack([chart.identity - _FAMILY_RADIUS, chart.identity + _FAMILY_RADIUS])
    return FunctionFamily(
        n_out=chart.n, n_x=chart.n, r=chart.n,
        f=lambda x, a: chart.compose(a, x),
        a0=chart.identity.copy(), x_box=box, s_max=2,
        name=f"compose_{chart.name}",
    )
