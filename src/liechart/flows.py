"""One-parameter subgroups and the canonical coordinate of 1-d charts."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import LeftChart, NonFiniteEvaluation, ZeroPsi
from .group import GroupChart, maxabs, psi_flavored
from .numdiff import DiffConfig, as_finite_array

_FIRST_STEPS_PER_UNIT = 8
_MAX_STEPS_PER_UNIT = 1000
_FLOW_TOL = 1e-10
_HOMOMORPHISM_PAIRS = 10
_GRID_INTERVALS = 128
_PSI_FLOOR = 1e-12


@dataclass(frozen=True)
class FlowResult:
    """RK4 path of a one-parameter subgroup, one state per step."""

    alpha: np.ndarray
    flavor: str
    t_grid: np.ndarray
    path: np.ndarray

    @property
    def endpoint(self) -> np.ndarray:
        return self.path[-1]


def rk4_path(rhs, y0: np.ndarray, t_end: float, steps: int, check) -> np.ndarray:
    """RK4 states of y' = rhs(y, s) at s = i t_end / steps, each vetted by check(y, s)."""
    h = t_end / steps
    path = np.empty((steps + 1, y0.size))
    path[0] = y = y0
    for i in range(steps):
        s = i * h
        k1 = rhs(y, s)
        k2 = rhs(y + 0.5 * h * k1, s + 0.5 * h)
        k3 = rhs(y + 0.5 * h * k2, s + 0.5 * h)
        k4 = rhs(y + h * k3, s + h)
        path[i + 1] = y = check(y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), (i + 1) * h)
    return path


def step_doubled(integrate, first: int, cap: int, errors) -> np.ndarray:
    """The path of integrate(steps) at first, 2 first, ... steps, up to `cap`.

    Returns the finer path once two successive endpoints agree within
    _FLOW_TOL, else the pass at `cap` steps as it is.  Few RK4 steps can
    blow up on a stiff system whose solution stays finite, so below the
    cap `errors` only mean "not converged"; the capped pass raises them.
    """
    steps = min(first, cap)
    coarse = None
    while steps < cap:
        try:
            path = integrate(steps)
        except errors:
            path = None
        if path is not None and coarse is not None and maxabs(path[-1] - coarse[-1]) <= _FLOW_TOL:
            return path
        coarse = path
        steps = min(2 * steps, cap)
    return integrate(cap)


def one_param_subgroup(chart: GroupChart, alpha, t_end: float,
                       steps: int | None = None, flavor: str = "right",
                       cfg: DiffConfig | None = None) -> FlowResult:
    """Integrate the invariant flow c' = psi_flavor(c) alpha from the identity.

    RK4 on a uniform grid of `steps` steps, or without `steps` step-doubled
    from ceil(8 |t_end|) to ceil(1000 |t_end|) steps, where only the capped
    pass may raise.  Raises LeftChart when a state escapes the chart trust
    region.
    """
    cfg = cfg or DiffConfig()
    if flavor not in ("left", "right"):
        raise ValueError(f"unknown flavor {flavor!r}")
    alpha = as_finite_array(alpha, "flow direction")
    if alpha.shape != (chart.n,):
        raise ValueError("alpha must be an n-vector")

    def rhs(c: np.ndarray, _s: float) -> np.ndarray:
        return psi_flavored(chart, c, flavor, cfg) @ alpha

    def in_chart(c: np.ndarray, s: float) -> np.ndarray:
        c = as_finite_array(c, "flow state")
        if maxabs(c - chart.identity) > chart.chart_radius:
            raise LeftChart(f"flow left the trust region at t = {s:.6g}")
        return c

    integrate = partial(rk4_path, rhs, chart.identity, t_end, check=in_chart)
    path = integrate(steps) if steps is not None else step_doubled(
        integrate, max(1, math.ceil(_FIRST_STEPS_PER_UNIT * abs(t_end))),
        max(1, math.ceil(_MAX_STEPS_PER_UNIT * abs(t_end))), (LeftChart, NonFiniteEvaluation))
    return FlowResult(alpha=alpha, flavor=flavor,
                      t_grid=np.linspace(0.0, t_end, path.shape[0]), path=path)


def homomorphism_pairs(flow: FlowResult) -> range:
    """Steps i where homomorphism_residual composes c(t_i) c(t_end - t_i):
    every (steps // _HOMOMORPHISM_PAIRS)-th interior step, or every one on short paths."""
    steps = flow.path.shape[0] - 1
    stride = max(1, steps // _HOMOMORPHISM_PAIRS)
    return range(stride, steps, stride)


def homomorphism_residual(chart: GroupChart, flow: FlowResult) -> float:
    """Group law along the flow: c(t) c(s) must equal c(t+s).

    Uses stored path states only, so the residual reflects the integrator
    rather than interpolation error.
    """
    i = np.asarray(homomorphism_pairs(flow))
    if i.size == 0:         # a path too short to have pairs makes no law call
        return 0.0
    return maxabs(chart.compose(flow.path[i], flow.path[-1 - i]) - flow.path[-1])


def canonical_coordinate(chart: GroupChart, a,
                         cfg: DiffConfig | None = None) -> float | np.ndarray:
    """Additive coordinate of a 1-d chart: a float for a point (1,), (...) for a stack (..., 1).

    Integrates the reciprocal of the right basic operator from the identity
    to each point by composite Boole; on this coordinate the composition
    law becomes plain addition.  A path of length L gets its own grid of
    4 ceil(32 L) intervals, at most _GRID_INTERVALS, so no step is longer
    than max(1, L) / 128.  Raises ZeroPsi, naming the path and the node, if
    the operator vanishes or changes sign on any path.
    """
    cfg = cfg or DiffConfig()
    if chart.n != 1:
        raise ValueError("canonical_coordinate is defined for 1-d charts only")
    a = as_finite_array(a, "canonical coordinate argument")
    e = chart.identity[0]
    target = a[..., 0]

    # The grids of all paths, end to end: node j of path r sits at
    # e + j step[r].
    ends = target.reshape(-1)
    panels = _GRID_INTERVALS // 4
    k = 4 * np.clip(np.ceil(panels * np.abs(ends - e)), 1, panels).astype(int)
    step = (ends - e) / k
    start = np.cumsum(k + 1) - (k + 1)
    row = np.repeat(np.arange(ends.size), k + 1)
    j = np.arange(row.size) - np.repeat(start, k + 1)
    x = j * step[row] + e
    psi = psi_flavored(chart, x[:, None], "right", cfg)[:, 0, 0]

    # A zero of the operator anywhere on a path makes its integral
    # divergent, so every grid is first scanned for sign changes.  Every
    # path starts at the identity, so a change across two paths is one
    # within the first of them, found there first.
    bad = np.abs(psi) < _PSI_FLOOR
    bad[1:] |= np.diff(np.sign(psi)) != 0
    if bad.any():
        i = int(np.argmax(bad))
        raise ZeroPsi(f"basic operator is {psi[i]:.3g} at x = {x[i]:.6g} on the path "
                      f"from {e:.6g} to {ends[row[i]]:.6g}")
    weight = np.where(j % 2 == 1, 32.0, np.where(j % 4 == 2, 12.0, 14.0))
    weight[start] = weight[start + k] = 7.0
    value = 2.0 * step / 45.0 * np.add.reduceat(weight / psi, start)
    return value.reshape(target.shape)[()]


def additivity_residual(chart: GroupChart, a: np.ndarray, b: np.ndarray,
                        cfg: DiffConfig | None = None) -> np.ndarray:
    """The canonical coordinate turns composition into addition: one value
    per row of the (k, 1) stacks a and b."""
    ab_a_b = canonical_coordinate(chart, np.stack([chart.compose(a, b), a, b]), cfg)
    return np.abs(ab_a_b[0] - (ab_a_b[1] + ab_a_b[2]))
