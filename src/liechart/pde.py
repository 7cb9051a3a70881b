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

from dataclasses import dataclass, replace
from itertools import combinations_with_replacement
from typing import Callable

import numpy as np

from .errors import LieChartError, NonFiniteEvaluation, NotIntegrable
from .flows import Breakdowns, step_doubled
from .group import GroupChart, check_rng, maxabs, maxabs_rows
from .numdiff import (DiffConfig, _as_integer, as_finite_array, broadcasting, jacobian,
                      nonfinite_rows, numeric_rank, rowwise)

_TAYLOR_STEPS = 500
_INTEGRABILITY_TOL = 1e-6
_FAMILY_RADIUS = 0.1
_S_MAX = 3  # top x-derivative order of a family's jet


def _as_box(box, name: str) -> np.ndarray:
    """box as a float (k, 2) array of finite (low, high) rows, k >= 1."""
    box = np.asarray(box, dtype=float)
    if not (box.ndim == 2 and box.shape[1] == 2 and len(box) >= 1
            and np.isfinite(box).all() and (box[:, 0] <= box[:, 1]).all()):
        raise ValueError(f"{name} must be a finite (k, 2) array of (low, high) rows "
                         f"with k >= 1 and low <= high, got {box.tolist()}")
    return box


@dataclass(eq=False)
class PDESystem:
    """First-order system d theta / d x = psi(theta, x).

    The boxes bound where integrability sample points are drawn: rows of
    (low, high), m = len(theta_box) for theta and n = len(x_box) for x.
    psi maps (theta (..., m), x (..., n)), stacks that broadcast together,
    to (..., m, n).  Unless marked by `numdiff.broadcasting`, psi is
    lifted by `numdiff.rowwise`, as GroupChart lifts its law.
    """

    psi: Callable[[np.ndarray, np.ndarray], np.ndarray]
    theta_box: np.ndarray
    x_box: np.ndarray
    name: str = "pde"

    def __post_init__(self) -> None:
        self.theta_box = _as_box(self.theta_box, "theta_box")
        self.x_box = _as_box(self.x_box, "x_box")
        self.psi = rowwise(self.psi, (len(self.theta_box), len(self.x_box)))

    def rhs(self, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
        out = as_finite_array(self.psi(theta, x), "pde right-hand side")
        lead = np.broadcast_shapes(np.shape(theta)[:-1], np.shape(x)[:-1])
        if out.shape != lead + (len(self.theta_box), len(self.x_box)):
            raise ValueError(f"psi returned {out.shape} at {lead}; its boxes need (m, n) = "
                             f"({len(self.theta_box)}, {len(self.x_box)})")
        return out


def _sample_box(box: np.ndarray, rng: np.random.Generator, count: int) -> np.ndarray:
    return rng.uniform(box[:, 0], box[:, 1], size=(count, box.shape[0]))


def _psi_derivatives(sys: PDESystem, theta: np.ndarray, x: np.ndarray,
                     cfg: DiffConfig) -> tuple[np.ndarray, np.ndarray]:
    """psi (..., m, n) and its total x-derivative (..., m, n, n) at theta
    (..., m) and x (..., n): d psi_ai / d x_j + sum_s d psi_ai / d theta_s psi_sj."""
    psi = sys.rhs(theta, x)
    dpsi_dx = jacobian(lambda v: sys.rhs(theta[..., None, :], v).reshape(v.shape[:-1] + (-1,)),
                       x, cfg)
    dpsi_dth = jacobian(lambda v: sys.rhs(v, x[..., None, :]).reshape(v.shape[:-1] + (-1,)),
                        theta, cfg)
    return psi, (dpsi_dx.reshape(psi.shape + (-1,))
                 + np.einsum("...ais,...sj->...aij", dpsi_dth.reshape(psi.shape + (-1,)), psi))


def _cross_residual(sys: PDESystem, theta: np.ndarray, x: np.ndarray,
                    cfg: DiffConfig) -> np.ndarray:
    """Antisymmetric part of the total x-derivative of psi, one maxabs per row."""
    total = _psi_derivatives(sys, theta, x, cfg)[1]
    return maxabs_rows(total - np.swapaxes(total, -1, -2), theta)


def integrability_residual(sys: PDESystem, cfg: DiffConfig | None = None) -> float:
    """Max cross-derivative mismatch over sampled (theta, x) points.

    Zero (up to stencil error) means every initial value extends to a
    local solution; the size of a nonzero residual measures how badly
    the mixed partials disagree.
    """
    cfg = cfg or DiffConfig()
    if len(sys.x_box) < 2:
        return 0.0
    rng = check_rng(cfg, f"pde_integrability_{sys.name}")
    thetas = _sample_box(sys.theta_box, rng, cfg.sample_count)
    xs = _sample_box(sys.x_box, rng, cfg.sample_count)
    return maxabs(_cross_residual(sys, thetas, xs, cfg))


def _require_integrable(sys: PDESystem, cfg: DiffConfig) -> None:
    res = integrability_residual(sys, cfg)
    if not res <= _INTEGRABILITY_TOL:
        raise NotIntegrable(
            f"cross-derivative residual {res:.3e} exceeds {_INTEGRABILITY_TOL:.1e}")


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

    def stage(th: np.ndarray, s: np.ndarray, _rows: np.ndarray) -> np.ndarray:
        return sys.rhs(th, x0 + s[:, None] * delta) @ delta

    def finite(th: np.ndarray, _s: np.ndarray, _rows: np.ndarray) -> Breakdowns:
        return nonfinite_rows(th, "pde solution")

    path, = step_doubled(stage, theta[None], 1.0, 8, _TAYLOR_STEPS, finite, "pde right-hand side",
                         NonFiniteEvaluation)
    if isinstance(path, LieChartError):
        raise path
    return path[-1]


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


@dataclass(eq=False)
class FunctionFamily:
    """Family of maps f(x, a) -> (n_out,): variables x (len(x_box),),
    parameters a (a0.size,), with a0 a finite 1-d array.  Unless marked by
    `numdiff.broadcasting`, f is lifted by `numdiff.rowwise`: value maps
    broadcasting stacks to (..., n_out)."""

    n_out: int
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    a0: np.ndarray
    x_box: np.ndarray
    name: str = "family"

    def __post_init__(self) -> None:
        self.n_out = _as_integer(self.n_out, "n_out")
        if self.n_out < 1:
            raise ValueError("n_out must be at least 1")
        self.x_box = _as_box(self.x_box, "x_box")
        self.a0 = np.asarray(self.a0, dtype=float)
        if not (self.a0.ndim == 1 and self.a0.size >= 1 and np.isfinite(self.a0).all()):
            raise ValueError("a0 must be a finite 1-d array of at least one parameter, "
                             f"got {self.a0.tolist()}")
        self.f = rowwise(self.f, (self.n_out,))

    def value(self, x: np.ndarray, a: np.ndarray) -> np.ndarray:
        out = as_finite_array(self.f(x, a), "family value")
        if out.shape[-1:] != (self.n_out,):
            raise ValueError(f"family returned {out.shape}, expected (..., {self.n_out})")
        return out


def _nested_x_derivative(fam: FunctionFamily, x: np.ndarray, a: np.ndarray,
                         multi: tuple[int, ...], step: float) -> np.ndarray:
    if not multi:
        return fam.value(x, a)
    i, rest = multi[0], multi[1:]
    h = step * np.maximum(1.0, np.abs(x[..., i:i + 1]))
    xp = x.copy()
    xm = x.copy()
    xp[..., i:i + 1] += h
    xm[..., i:i + 1] -= h
    return (_nested_x_derivative(fam, xp, a, rest, step)
            - _nested_x_derivative(fam, xm, a, rest, step)) / (2.0 * h)


def _parameter_jacobian(fam: FunctionFamily, xs: np.ndarray, multi: tuple[int, ...],
                        step: float, cfg: DiffConfig) -> np.ndarray:
    """(r, k n_out) block: row alpha is d / d a^alpha, at a0, of the x-derivative
    along multi at each of the k points xs, x-major and then output."""
    return jacobian(lambda a: _nested_x_derivative(fam, xs, a[..., None, :], multi, step)
                    .reshape(a.shape[:-1] + (-1,)), fam.a0, replace(cfg, base_step=step)).T


def essential_param_ranks(fam: FunctionFamily, cfg: DiffConfig | None = None) -> list[int]:
    """Rank sequence of stacked parameter derivatives of the x-jets.

    Entry s is the rank of the matrix whose rows (one per parameter)
    hold the parameter derivative of every x-derivative of f up to
    order s, pooled over sampled x points: one jacobian per multi-index
    over all of them.  Stops as soon as the rank saturates: hits the
    parameter count a0.size, repeats, or starts at zero; else at order 3.
    """
    cfg = cfg or DiffConfig()
    rng = check_rng(cfg, f"essential_params_{fam.name}")
    xs = _sample_box(fam.x_box, rng, cfg.sample_count)

    blocks: list[np.ndarray] = []
    ranks: list[int] = []
    for s in range(_S_MAX + 1):
        # one more nesting level than the x-derivative order, since the
        # parameter derivative is taken on top of the x-stencil
        step = cfg.base_step ** (1.0 / (s + 2.0))
        blocks += [_parameter_jacobian(fam, xs, multi, step, cfg)
                   for multi in combinations_with_replacement(range(xs.shape[-1]), s)]
        ranks.append(numeric_rank(np.concatenate(blocks, axis=1)))
        if ranks[-1] == np.size(fam.a0):
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
        psi=lambda th, x: np.array([[th[0], th[0]]]),
        theta_box=np.array([[0.5, 2.0]]),
        x_box=np.array([[-0.5, 0.5], [-0.5, 0.5]]),
        name="exponential",
    )


def shear_system() -> PDESystem:
    """Non-integrable on purpose: d theta/d x1 = x2, d theta/d x2 = 0."""
    return PDESystem(
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
                n_out=1, f=lambda x, a: np.array([(a[0] + a[1]) * x[0]]),
                a0=np.array([0.7, 0.4]), x_box=box, name="pooled_scale"),
            expected_count=1, expected_ranks=(1, 1)),
        BundledFamily(
            FunctionFamily(
                n_out=1, f=lambda x, a: np.array([a[0] * x[0] + a[1]]),
                a0=np.array([0.7, 0.4]), x_box=box, name="affine_line"),
            expected_count=2, expected_ranks=(2,)),
        BundledFamily(
            FunctionFamily(
                n_out=1, f=lambda x, a: np.array([a[0] * a[1] * x[0]]),
                a0=np.array([0.7, 0.4]), x_box=box, name="product_scale"),
            expected_count=1, expected_ranks=(1, 1)),
        BundledFamily(
            FunctionFamily(
                n_out=1, f=lambda x, a: np.array([x[0] ** 2]),
                a0=np.array([0.7, 0.4]), x_box=box, name="parameter_free"),
            expected_count=0, expected_ranks=(0,)),
    ]
    return fams


def group_composition_family(chart: GroupChart) -> FunctionFamily:
    """The composition law as a family: parameters move the left slot."""
    box = np.column_stack([chart.identity - _FAMILY_RADIUS, chart.identity + _FAMILY_RADIUS])

    @broadcasting  # a chart's law always broadcasts
    def f(x: np.ndarray, a: np.ndarray) -> np.ndarray:
        return chart.compose(a, x)

    return FunctionFamily(n_out=chart.n, f=f, a0=chart.identity.copy(), x_box=box,
                          name=f"compose_{chart.name}")
