"""One-parameter subgroups and the canonical coordinate of 1-d charts."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LeftChart, NonFiniteEvaluation, ZeroPsi
from .group import GroupChart, maxabs, psi_flavored, worst_of, worst_over_samples
from .numdiff import DiffConfig, as_finite_array

_FIRST_STEPS_PER_UNIT = 8
_MAX_STEPS_PER_UNIT = 1000
_FLOW_TOL = 1e-10
_SIMPSON_TOL = 1e-9
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


def rk4_step(rhs, y: np.ndarray, s: float, h: float) -> np.ndarray:
    """One classical Runge-Kutta step of y' = rhs(y, s) from s to s + h."""
    k1 = rhs(y, s)
    k2 = rhs(y + 0.5 * h * k1, s + 0.5 * h)
    k3 = rhs(y + 0.5 * h * k2, s + 0.5 * h)
    k4 = rhs(y + h * k3, s + h)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def one_param_subgroup(chart: GroupChart, alpha, t_end: float,
                       steps: int | None = None, flavor: str = "right",
                       cfg: DiffConfig | None = None) -> FlowResult:
    """Integrate the invariant flow c' = psi_flavor(c) alpha from the identity.

    RK4 on a uniform grid of `steps` steps.  Without `steps`, the count
    starts at ceil(8 |t_end|) and doubles until two successive endpoints
    agree within _FLOW_TOL, and the finer path is returned; doubling
    stops at ceil(1000 |t_end|) steps, whose path is returned as it is,
    so the flow checks measure whatever error is left.  Raises LeftChart
    when a state escapes the chart trust region.  Without `steps`, a pass
    below the cap that escapes or turns non-finite only counts as not
    converged; the capped pass raises.
    """
    cfg = cfg or DiffConfig()
    if flavor not in ("left", "right"):
        raise ValueError(f"unknown flavor {flavor!r}")
    alpha = as_finite_array(alpha, "flow direction")
    if alpha.shape != (chart.n,):
        raise ValueError("alpha must be an n-vector")

    def rhs(c: np.ndarray, _s: float) -> np.ndarray:
        return psi_flavored(chart, c, flavor, cfg) @ alpha

    def integrate(steps: int) -> FlowResult:
        h = t_end / steps
        path = np.empty((steps + 1, chart.n))
        c = chart.identity.copy()
        path[0] = c
        for i in range(steps):
            c = as_finite_array(rk4_step(rhs, c, i * h, h), "flow state")
            if maxabs(c - chart.identity) > chart.chart_radius:
                raise LeftChart(f"flow left the trust region at t = {(i + 1) * h:.6g}")
            path[i + 1] = c
        return FlowResult(alpha=alpha, flavor=flavor,
                          t_grid=np.linspace(0.0, t_end, steps + 1), path=path)

    if steps is not None:
        return integrate(steps)
    cap = max(1, math.ceil(_MAX_STEPS_PER_UNIT * abs(t_end)))
    steps = min(cap, max(1, math.ceil(_FIRST_STEPS_PER_UNIT * abs(t_end))))
    coarse = None
    while steps < cap:
        try:
            flow = integrate(steps)
        except (LeftChart, NonFiniteEvaluation):
            # RK4 with too few steps blows up on a stiff law where the true
            # flow stays inside the chart, so only the capped pass may raise
            flow = None
        if (flow is not None and coarse is not None
                and maxabs(flow.endpoint - coarse.endpoint) <= _FLOW_TOL):
            return flow
        coarse = flow
        steps = min(2 * steps, cap)
    return integrate(cap)


def homomorphism_residual(chart: GroupChart, flow: FlowResult, pairs: int = 10) -> float:
    """Group law along the flow: c(t) c(s) must equal c(t+s).

    Uses stored path states only, so the residual reflects the integrator
    rather than interpolation error.
    """
    steps = flow.path.shape[0] - 1
    stride = max(1, steps // pairs)
    end = flow.path[steps]
    return worst_of(maxabs(chart.compose(flow.path[i], flow.path[steps - i]) - end)
                    for i in range(stride, steps, stride))


def _adaptive_simpson(f, lo: float, hi: float, tol: float) -> float:
    flo, fhi = f(lo), f(hi)
    mid = 0.5 * (lo + hi)
    fmid = f(mid)
    whole = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(a: float, b: float, fa: float, fm: float, fb: float,
                s: float, eps: float, depth: int) -> float:
        m = 0.5 * (a + b)
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        s_left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        s_right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth >= 50 or abs(s_left + s_right - s) <= 15.0 * eps:
            return s_left + s_right + (s_left + s_right - s) / 15.0
        return (recurse(a, m, fa, flm, fm, s_left, eps / 2.0, depth + 1)
                + recurse(m, b, fm, frm, fb, s_right, eps / 2.0, depth + 1))

    return recurse(lo, hi, flo, fmid, fhi, whole, tol, 0)


def canonical_coordinate(chart: GroupChart, a, cfg: DiffConfig | None = None) -> float:
    """Additive coordinate of a 1-d chart.

    Integrates the reciprocal of the right basic operator from the
    identity to a; on this coordinate the composition law becomes plain
    addition.  Raises ZeroPsi if the operator vanishes along the way.
    """
    cfg = cfg or DiffConfig()
    if chart.n != 1:
        raise ValueError("canonical_coordinate is defined for 1-d charts only")
    a = as_finite_array(a, "canonical coordinate argument").ravel()
    e = float(chart.identity[0])
    target = float(a[0])

    def psi_at(tau: float) -> float:
        return psi_flavored(chart, np.array([tau]), "right", cfg)[0, 0]

    # A zero of the operator anywhere on the path makes the integral
    # divergent, so scan for sign changes before paying for quadrature.
    scan = np.array([psi_at(t) for t in np.linspace(e, target, 129)])
    if np.any(np.abs(scan) < _PSI_FLOOR) or np.any(np.sign(scan[:-1]) != np.sign(scan[1:])):
        raise ZeroPsi("basic operator vanishes on the integration path")

    def integrand(tau: float) -> float:
        psi = psi_at(tau)
        if abs(psi) < _PSI_FLOOR:
            raise ZeroPsi(f"basic operator vanished at tau = {tau:.6g}")
        return 1.0 / psi

    return _adaptive_simpson(integrand, e, target, _SIMPSON_TOL)


def additivity_residual(chart: GroupChart, cfg: DiffConfig | None = None) -> float:
    """The canonical coordinate turns composition into addition."""
    cfg = cfg or DiffConfig()

    def residual(a: np.ndarray, b: np.ndarray) -> float:
        lhs = canonical_coordinate(chart, chart.compose(a, b), cfg)
        rhs = canonical_coordinate(chart, a, cfg) + canonical_coordinate(chart, b, cfg)
        return abs(lhs - rhs)

    return worst_over_samples(chart, cfg, "canonical_additivity", residual, arity=2)
