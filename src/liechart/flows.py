"""One-parameter subgroups and the canonical coordinate of 1-d charts."""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import BREAKDOWN, LeftChart, LieChartError, NonFiniteEvaluation, ZeroPsi
from .group import GroupChart, maxabs, maxabs_rows, psi_flavored
from .numdiff import (DiffConfig, _as_integer, _stencil_values, as_finite_array, direction_step,
                      nonfinite_rows)

_FIRST_STEPS_PER_UNIT = 8
_MAX_STEPS_PER_UNIT = 1000
_FLOW_TOL = 1e-10
_HOMOMORPHISM_PAIRS = 10
_GRID_INTERVALS = 128
_PSI_FLOOR = 1e-12

# {position in the stack: error} of the rows a check found broken down
Breakdowns = dict[int, LieChartError]
# stage(y, s, rows) -> y' and check(y, s, rows) -> breakdowns on a (j, n)
# stack of states, their times s (j,) and their row numbers.  A stage is
# unchecked: where it breaks down it gives NaN or Inf, or raises.
Stage = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
Check = Callable[[np.ndarray, np.ndarray, np.ndarray], Breakdowns]


def _step_count(value, name: str) -> int:
    """value as an int step count; ValueError unless it is an integer of at least 1."""
    value = _as_integer(value, name)
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")
    return value


def rk4_path(stage: Stage, y0: np.ndarray, t_end: float, steps: Sequence[int], check: Check,
             probe: str, rows: np.ndarray | None = None) -> list[np.ndarray | LieChartError]:
    """RK4 paths of y' = stage(y, s) from the rows of the (k, n) stack y0,
    row r in steps[r] uniform steps to t_end: per row its states
    (steps[r] + 1, n), or the error that stopped it.  A step count that is
    not an integer of at least 1 raises ValueError before any stage call.

    Each round moves every live row one step: four stage calls, the RK4
    sum and one check of the new states, each on the stack of those rows,
    named by their numbers in `rows` (by default 0 ... k - 1).  That one
    check sees every stage breakdown: each stage enters
    y + h/6 (k1 + 2 k2 + 2 k3 + k4) with a nonzero weight, so a NaN or Inf
    stage makes the new state non-finite.  Each row the check reports, or
    every live row if a stage raised a breakdown, runs that round again
    alone and breaks down at the first of its stages that raises or is not
    finite (a NaN or Inf stage reads `{probe} produced a non-finite
    value`), else where its check reports it; the other rows keep their
    new states.  So each row keeps the bits and the error of its own
    one-row integration.  The live rows, their numbers, step sizes and
    stage times are gathered once per live set, which changes only when a
    row leaves.
    """
    steps = np.array([_step_count(m, "steps") for m in steps], dtype=int)
    rows = np.arange(len(y0)) if rows is None else rows
    h = t_end / steps
    states = np.empty((int(steps.max(initial=0)) + 1,) + y0.shape)
    states[0] = y = y0
    broken: Breakdowns = {}
    live = np.arange(len(steps))
    i = 0
    while live.size:
        at, hl = rows[live], h[live]
        half = 0.5 * hl
        step = hl[:, None], half[:, None], (hl / 6.0)[:, None]
        s = np.arange(i, steps[live].min() + 1)[:, None] * hl
        taken, failed = [], {}
        for t in zip(s[:-1], s[:-1] + half, s[:-1] + hl, s[1:]):
            try:
                new = _rk4_step(stage, y, t, step, at)
                replay = check(new, t[3], at)
            except BREAKDOWN:
                new, replay = y.copy(), range(len(y))
            for p in replay:
                one = slice(p, p + 1)
                new[one], error = _alone(stage, check, probe, y[one], [u[one] for u in t],
                                         [u[one] for u in step], at[one])
                if error is not None:
                    failed[p] = error
            y = new
            taken.append(y)
            if failed:
                break
        states[i + 1:i + 1 + len(taken), live] = taken
        i += len(taken)
        for p, error in failed.items():
            broken[int(live[p])] = error
        keep = steps[live] > i
        keep[list(failed)] = False
        live, y = live[keep], y[keep]
    return [broken[r] if r in broken else states[:m + 1, r].copy()
            for r, m in enumerate(steps.tolist())]


def _rk4_step(stage: Stage, y: np.ndarray, times: Sequence[np.ndarray],
              step: Sequence[np.ndarray], rows: np.ndarray) -> np.ndarray:
    """One RK4 step of every row of the (j, n) stack y, from s to s + h,
    with `times` the (j,) arrays s, s + h/2, s + h and the end of the step,
    and `step` the (j, 1) columns h, h/2 and h/6: the new states."""
    h, half, sixth = step
    s, mid, end, _ = times
    k1 = stage(y, s, rows)
    k2 = stage(y + half * k1, mid, rows)
    k3 = stage(y + half * k2, mid, rows)
    k4 = stage(y + h * k3, end, rows)
    return y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _alone(stage: Stage, check: Check, probe: str, y: np.ndarray, times: Sequence[np.ndarray],
           step: Sequence[np.ndarray], rows: np.ndarray) -> tuple[np.ndarray, LieChartError | None]:
    """The `_rk4_step` of the one-row stack y run alone: its new state, and
    the error of its first stage that raises or is not finite, else its
    check's, or None."""
    try:
        new = _rk4_step(lambda x, s, r: as_finite_array(stage(x, s, r), probe),
                        y, times, step, rows)
        return new, check(new, times[3], rows).get(0)
    except BREAKDOWN as exc:
        return y, exc


def step_doubled(stage: Stage, y0: np.ndarray, t_end: float, first: int, cap: int,
                 check: Check, probe: str, errors) -> list[np.ndarray | LieChartError]:
    """Per row of the (p, n) stack y0, its RK4 path at first, 2 first, ...
    steps, up to `cap`, or the error that stopped it.

    A row takes its finer path once two successive endpoints agree within
    _FLOW_TOL, else its pass at `cap` steps as it is.  Few RK4 steps can
    blow up on a stiff system whose solution stays finite, so below the
    cap `errors` only mean "not converged"; any other breakdown, or one in
    the capped pass, is the row's result.  Every row's first two passes
    run as one `rk4_path` stack, since convergence needs two passes
    anyway, and each later doubling of the rows still open is one more.
    stage, check and probe are those of rk4_path, with `rows` numbering y0.
    """
    cap = _step_count(cap, "cap")
    first = min(_step_count(first, "first"), cap)
    done: dict[int, np.ndarray | LieChartError] = {}
    coarse: list[np.ndarray | None] = [None] * len(y0)
    todo = [(r, m) for r in range(len(y0))
            for m in ((first, min(2 * first, cap)) if first < cap else (first,))]
    while todo:
        of = np.array([r for r, _ in todo])
        paths = rk4_path(stage, y0[of], t_end, [m for _, m in todo], check, probe, of)
        for (r, m), path in zip(todo, paths):
            if r in done:
                continue
            if m == cap or (isinstance(path, LieChartError) and not isinstance(path, errors)):
                done[r] = path
                continue
            if isinstance(path, LieChartError):
                path = None
            if path is not None and coarse[r] is not None \
                    and maxabs(path[-1] - coarse[r][-1]) <= _FLOW_TOL:
                done[r] = path
                continue
            coarse[r] = path
        todo = [(r, min(2 * m, cap)) for r, m in dict(todo).items() if r not in done]
    return [done[r] for r in range(len(y0))]


def one_param_subgroups(chart: GroupChart, alpha, t_end: float, flavors: Sequence[str],
                        steps: int | None = None, cfg: DiffConfig | None = None
                        ) -> list[np.ndarray | LieChartError]:
    """Integrate the invariant flows c' = psi_flavor(c) alpha from the
    identity, one per flavor, as one RK4 stack: per flavor its path
    (steps + 1, n), one state per step from the identity to t_end, or the
    error that stopped it.

    RK4 on a uniform grid of `steps` steps, or without `steps` step-doubled
    from ceil(8 |t_end|) to ceil(1000 |t_end|) steps, where only the capped
    pass may end a flow in a breakdown.  A flow that leaves the chart
    trust region ends in LeftChart.  A stage needs psi_flavor(c) alpha,
    not psi_flavor(c): it is the central difference along alpha at the
    identity, (f(+) - f(-)) / 2 tau, f(+-) = compose(e +- tau alpha, c) for a
    left row and compose(c, e +- tau alpha) for a right one, with tau from
    `numdiff.direction_step`.  The two probes are built once per run, and a
    stage is one law call on them for every row, left and right flavors
    alike: 2 evaluations a row, whatever n.  Only a non-finite probe value
    breaks a row's stage.  `flavors` must be a sequence of flavors, not one
    flavor's name; that, a t_end that is not finite, or `steps` that is not
    an integer raises ValueError before any law call.
    """
    cfg = cfg or DiffConfig()
    if isinstance(flavors, str):
        raise ValueError(f"flavors must be a sequence of flavors, such as ({flavors!r},), "
                         f"not the string {flavors!r}")
    for flavor in flavors:
        if flavor not in ("left", "right"):
            raise ValueError(f"unknown flavor {flavor!r}")
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end!r}")
    if steps is not None:
        steps = _step_count(steps, "steps")
    alpha = as_finite_array(alpha, "flow direction")
    if alpha.shape != (chart.n,):
        raise ValueError("alpha must be an n-vector")
    left = np.array([flavor == "left" for flavor in flavors])
    e = chart.identity
    tau = direction_step(e, alpha, cfg)
    probes = np.stack([e + tau * alpha, e - tau * alpha])
    width = 2.0 * tau
    slots = [None, None]                    # rows last seen; where each slot takes the probes

    def stage(c: np.ndarray, _s: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # psi_flavored(c) alpha of each row, both flavors in one law call;
        # rk4_path hands every stage of a live set the same `rows`
        if rows is not slots[0]:
            at_left = left[rows][:, None, None]
            slots[:] = rows, np.stack([at_left, ~at_left])
        a, b = np.where(slots[1], probes, c[:, None, :])
        vals = _stencil_values(chart.compose(a, b), (len(c), 2))
        return (vals[:, 0] - vals[:, 1]) / width

    def in_chart(c: np.ndarray, s: np.ndarray, _rows: np.ndarray) -> Breakdowns:
        far = maxabs(c - e)
        if far <= chart.chart_radius and math.isfinite(far):
            return {}
        failed: Breakdowns = {
            p: LeftChart(f"flow left the trust region at t = {s[p]:.6g}")
            for p in np.flatnonzero(maxabs_rows(c - e, c) > chart.chart_radius).tolist()}
        failed.update(nonfinite_rows(c, "flow state"))
        return failed

    y0 = np.tile(e, (len(flavors), 1))
    if steps is not None:
        return rk4_path(stage, y0, t_end, [steps] * len(flavors), in_chart, "jacobian probe")
    return step_doubled(stage, y0, t_end,
                        max(1, math.ceil(_FIRST_STEPS_PER_UNIT * abs(t_end))),
                        max(1, math.ceil(_MAX_STEPS_PER_UNIT * abs(t_end))),
                        in_chart, "jacobian probe", (LeftChart, NonFiniteEvaluation))


def one_param_subgroup(chart: GroupChart, alpha, t_end: float,
                       steps: int | None = None, flavor: str = "right",
                       cfg: DiffConfig | None = None) -> np.ndarray:
    """The one path of `one_param_subgroups` in one flavor; raises its
    breakdown, LeftChart when it escapes the chart trust region."""
    path, = one_param_subgroups(chart, alpha, t_end, (flavor,), steps, cfg)
    if isinstance(path, LieChartError):
        raise path
    return path


def homomorphism_pairs(path: np.ndarray) -> range:
    """Steps i where homomorphism_residual composes c(t_i) c(t_end - t_i):
    every (steps // _HOMOMORPHISM_PAIRS)-th interior step, or every one on short paths."""
    steps = path.shape[0] - 1
    stride = max(1, steps // _HOMOMORPHISM_PAIRS)
    return range(stride, steps, stride)


def homomorphism_residual(chart: GroupChart, path: np.ndarray) -> float:
    """Group law along a flow's path (steps + 1, n): c(t) c(s) must equal c(t+s).

    Uses stored path states only, so the residual reflects the integrator
    rather than interpolation error.
    """
    i = np.asarray(homomorphism_pairs(path))
    if i.size == 0:         # a path too short to have pairs makes no law call
        return 0.0
    return maxabs(chart.compose(path[i], path[-1 - i]) - path[-1])


def canonical_coordinate(chart: GroupChart, a,
                         cfg: DiffConfig | None = None) -> float | np.ndarray:
    """Additive coordinate of a 1-d chart: a float for a point (1,), (...) for a stack (..., 1).

    Integrates the reciprocal of the right basic operator from the identity
    to each point by composite Boole; on this coordinate the composition
    law becomes plain addition.  A path of length L gets its own grid of
    4 ceil(32 L) intervals, at most _GRID_INTERVALS, so no step is longer
    than max(1, L) / 128.  Raises ZeroPsi, naming the path and the node, if
    the operator vanishes or changes sign on any path, and ValueError,
    naming the shape, for any other shape of a.
    """
    cfg = cfg or DiffConfig()
    if chart.n != 1:
        raise ValueError("canonical_coordinate is defined for 1-d charts only")
    a = as_finite_array(a, "canonical coordinate argument")
    if a.shape[-1:] != (1,):
        raise ValueError("canonical_coordinate takes a point (1,) or a stack (..., 1), "
                         f"got shape {a.shape}")
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
