"""Group charts: composition-law derivatives and the identity check suite.

A group is given concretely as a coordinate chart: a dimension, a smooth
composition law on coordinate vectors, and the identity element.  All
operator fields are measured from the composition law by finite
differences; nothing here assumes a matrix group.

Conventions, fixed once for the whole package:

* the *left* shift Jacobian is the derivative of compose(a, b) in the
  left slot a, the *right* one in the right slot b;
* the basic operator `right` is the right-slot derivative at b = e (its
  column V is the right-invariant frame field), `left` the left-slot
  derivative at a = e (`psi_flavored`).
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import BREAKDOWN, LieChartError, NoConvergence, SingularMatrix
from .numdiff import (DiffConfig, _as_integer, as_finite_array, broadcasting, invert, jacobian,
                      nonfinite_rows, rowwise, unchecked_jacobian)
from .report import CheckRecord, CheckReport

ComposeLaw = Callable[[np.ndarray, np.ndarray], np.ndarray]
# (check_id, samples, residual) triples, in report order
Checks = Iterator[tuple[str, int, float]]
# (check_id, arity, count, residual) rows of a check table; see `sampled_checks`
CheckRow = tuple[str, int, int | None, Callable[..., object]]

_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 50
_DAMPING_FLOOR = 2.0 ** -20

# inf-norm radius of the ball around the identity that sample points are
# drawn from (the chart's own chart_radius caps it further)
SAMPLE_RADIUS = 0.2


@dataclass(eq=False)
class GroupChart:
    """A Lie group presented as a coordinate chart around its identity.

    The stencils and sampled checks call compose(a, b) on (..., n) stacks
    that broadcast together, and each row must equal the single-point
    result.  A law marked by `numdiff.broadcasting` gets the stacks as they
    are; any other law, and likewise the `inverse_hint`, is lifted here by
    `numdiff.rowwise` to one call per row.  The residuals have the same
    bits either way; only the number of law calls differs.
    """

    n: int
    compose: ComposeLaw
    identity: np.ndarray
    inverse_hint: Callable[[np.ndarray], np.ndarray] | None = None
    chart_radius: float = 1.0
    name: str = "custom"

    def __post_init__(self) -> None:
        self.n = _as_integer(self.n, "n")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        self.identity = as_finite_array(self.identity, "chart identity")
        if self.identity.shape != (self.n,):
            raise ValueError("identity must be an n-vector")
        # a NaN radius fails this too: it would reject every sample point
        if not self.chart_radius > 0.0:
            raise ValueError("chart_radius must be positive")
        self.compose = rowwise(self.compose, (self.n,))
        if self.inverse_hint is not None:
            self.inverse_hint = rowwise(self.inverse_hint, (self.n,))


@dataclass(eq=False)
class _Opposite(GroupChart):
    """The opposite group of `base`; `inverse` solves on base, with its bits."""

    base: GroupChart | None = None


def _opposite(chart: GroupChart) -> GroupChart:
    """The opposite group of chart, whose law takes (a, b) to compose(b, a),
    with chart's identity and inverse map: chart's right-handed forms are
    its left ones.  One object per chart, kept on it (a copy of chart gets
    its own), whose opposite is chart.  The law looks chart.compose up at
    each call, so a law wrapped later, as by a counter, sees every call."""
    if isinstance(chart, _Opposite):
        return chart.base
    op = getattr(chart, "_opposite", None)
    if op is None or op.base is not chart:      # none yet, or one copied from another chart
        op = chart._opposite = _Opposite(
            chart.n, broadcasting(lambda a, b: chart.compose(b, a)), chart.identity,
            chart_radius=chart.chart_radius, name=chart.name, base=chart)
    return op


def check_rng(cfg: DiffConfig, check_id: str) -> np.random.Generator:
    """Independent generator per check, stable across runs and platforms."""
    return np.random.default_rng((cfg.rng_seed % 2**63, zlib.crc32(check_id.encode())))


def maxabs(x) -> float:
    """Largest absolute entry of x, 0.0 for none; a NaN anywhere makes it NaN."""
    a = np.asarray(x, dtype=float)
    if a.size == 0:
        return 0.0
    return float(np.abs(a).max())


def maxabs_rows(x, point) -> np.ndarray:
    """maxabs of x per sample point: `point` of shape (..., n) gives a (...)
    array of maxima, one point (n,) a scalar, and an empty stack (0, n) an
    empty array.  A NaN keeps its row NaN."""
    a = np.abs(x)
    return a.reshape(np.shape(point)[:-1] + (-1 if a.size else 0,)).max(axis=-1, initial=0.0)


def inverse(chart: GroupChart, a, cfg: DiffConfig | None = None) -> np.ndarray:
    """Coordinates of the group inverse of a, one point (n,) or a stack (..., n).

    Newton solves every row, from the chart's closed-form hint or, without
    one, from the identity; a row its hint already solves leaves after
    Newton's first residual, one law call.  One `_newton` call takes all
    the rows, each solved as it would be alone, so a row keeps the bits of
    its own inverse.  A stack raises when one of its rows breaks down,
    with the error of its lowest such row.  An opposite chart's inverse is
    its base chart's.
    """
    if isinstance(chart, _Opposite):
        return inverse(chart.base, a, cfg)
    cfg = cfg or DiffConfig()
    a = as_finite_array(a, "inverse argument")
    x, broken = _inverse_rows(chart, a.reshape(-1, chart.n), cfg)
    if broken:
        raise next(iter(broken.values()))
    return x.reshape(a.shape)


def _inverse_rows(chart: GroupChart, rows: np.ndarray,
                  cfg: DiffConfig) -> tuple[np.ndarray, dict[int, LieChartError]]:
    """Inverses of a (k, n) stack, and the rows that broke down.

    The dict maps each row that broke down, in row order, to the error it
    raises alone; such a row's inverse is left as it was when it broke.
    """
    broken: dict[int, LieChartError] = {}
    if chart.inverse_hint is None:
        x = np.tile(chart.identity, (len(rows), 1))
        start = np.arange(len(rows))
    else:
        x = np.array(chart.inverse_hint(rows), dtype=float).reshape(rows.shape)
        start = np.flatnonzero(_finite_or_break(broken, np.arange(len(rows)), x, "inverse hint"))
    x[start], failed = _newton(chart, rows[start], x[start], cfg)
    broken.update((int(start[i]), error) for i, error in failed.items())
    return x, dict(sorted(broken.items()))


def _newton(chart: GroupChart, a: np.ndarray, x: np.ndarray,
            cfg: DiffConfig) -> tuple[np.ndarray, dict[int, LieChartError]]:
    """Damped Newton on compose(a, x) = e from x, for a (k, n) stack a.

    Each iteration makes one residual call and one right-slot stencil call
    on the rows not yet settled, one batched solve, and one law call per
    damping level on the rows whose step is still being halved.  A row
    leaves the stack once its residual is below _NEWTON_TOL, or when it
    breaks down, so each row takes the steps and the evaluations of its
    own one-point solve.  Returns x, updated in place, and the rows that
    broke down, each with the error it raises alone.
    """
    e = chart.identity
    broken: dict[int, LieChartError] = {}
    live = np.arange(len(a))
    for _ in range(_NEWTON_MAX_ITER):
        if not live.size:
            break
        r = np.asarray(chart.compose(a[live], x[live]), dtype=float) - e
        rn = maxabs_rows(r, r)
        going = _finite_or_break(broken, live, r, "inverse residual") & (rn >= _NEWTON_TOL)
        live, r, rn = live[going], r[going], rn[going]
        if not live.size:
            break
        # `_a_right` unchecked, so that a row whose stencil breaks down leaves alone
        a_live = a[live, None, :]
        j = unchecked_jacobian(lambda y: chart.compose(a_live, y), x[live], cfg)
        going = _finite_or_break(broken, live, j.reshape(live.size, -1), "jacobian probe")
        live, r, rn, j = live[going], r[going], rn[going], j[going]
        delta, going = _solve_rows(j, -r)
        _break(broken, live[~going], SingularMatrix("inverse Newton hit a singular shift Jacobian"))
        halving = np.flatnonzero(going)     # positions in live of the rows still halving
        t = 1.0
        while halving.size and t >= _DAMPING_FLOOR:
            idx = live[halving]
            xn = x[idx] + t * delta[halving]
            # a NaN or Inf in the trial never compares below the residual
            trial = np.asarray(chart.compose(a[idx], xn), dtype=float)
            better = maxabs_rows(trial - e, xn) < rn[halving]
            x[idx[better]] = xn[better]
            halving = halving[~better]
            t *= 0.5
        _break(broken, live[halving],
               NoConvergence("inverse Newton: no damping step improved the residual"))
        going[halving] = False
        live = live[going]
    else:
        _break(broken, live,
               NoConvergence(f"inverse Newton did not converge in {_NEWTON_MAX_ITER} iterations"))
    return x, broken


def _solve_rows(j: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve j x = b for a (k, n, n) and a (k, n) stack in one batched call;
    returns x and which rows solved.  A singular matrix fails the whole
    call, so then each row is solved alone to learn which."""
    try:
        return np.linalg.solve(j, b[..., None])[..., 0], np.ones(len(b), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    x, solved = np.zeros_like(b), np.ones(len(b), dtype=bool)
    for i in range(len(b)):
        try:
            x[i] = np.linalg.solve(j[i], b[i])
        except np.linalg.LinAlgError:
            solved[i] = False
    return x, solved


def _finite_or_break(broken: dict[int, LieChartError], rows: np.ndarray, v: np.ndarray,
                     context: str) -> np.ndarray:
    """Which rows of the (k, m) stack v are finite; the entries of `rows`
    whose row is not are recorded in broken with their error from
    `numdiff.nonfinite_rows`."""
    finite = np.ones(len(v), dtype=bool)
    bad = nonfinite_rows(v, context)
    if bad:
        at = list(bad)
        finite[at] = False
        broken.update(zip(rows[at].tolist(), bad.values()))
    return finite


def _break(broken: dict[int, LieChartError], rows: np.ndarray, error: LieChartError) -> None:
    broken.update(dict.fromkeys(rows.tolist(), error))


def _admissible(chart: GroupChart, rows: np.ndarray, cfg: DiffConfig) -> np.ndarray:
    """Which rows of the (k, n) stack the sampler keeps: their inverse
    exists, composes finitely on both sides and stays within chart_radius.

    A row whose inverse breaks down is rejected, and the others are vetted
    as they would be alone.  Only compose(inv, a) is evaluated here:
    `inverse` has already found compose(a, inv) finite in Newton's last
    residual.
    """
    inv, broken = _inverse_rows(chart, rows, cfg)
    keep = np.ones(len(rows), dtype=bool)
    keep[list(broken)] = False
    solved = np.flatnonzero(keep)
    if solved.size:
        keep[solved] = np.logical_and.reduce(
            np.isfinite(chart.compose(inv[solved], rows[solved])), axis=-1)
    return keep & (maxabs_rows(inv - chart.identity, rows) <= chart.chart_radius)


def sample_sets(chart: GroupChart, cfg: DiffConfig,
                sets: list[tuple[np.random.Generator, int]]
                ) -> tuple[list[np.ndarray], LieChartError | None]:
    """Admissible sample points near the identity for several (generator,
    count) sets at once.

    Each round draws, in set order, the rows each set still lacks from its
    own generator, uniformly from the inf-norm ball of radius
    min(SAMPLE_RADIUS, chart.chart_radius), and vets all of them as one
    stack: a row is rejected when its inverse fails or escapes the trust
    region, each row as it would be alone.  So every set gets the points,
    and leaves its generator in the state, of drawing and vetting its own
    points one at a time.

    Returns the points of the leading sets that were filled, in set order,
    and the error that stopped the next set, or None.  A set gives up with
    NoConvergence after 200 * count draws; it and every set after it leave
    the rounds.  A numerical breakdown raised while vetting a round (by
    the law or the hint, not by a row's inverse, which only rejects that
    row) stops the first set that drew in it, and the call returns at
    once: every set before that one is already full.
    """
    radius = min(SAMPLE_RADIUS, chart.chart_radius)
    out = [np.empty((count, chart.n)) for _, count in sets]
    got = [0] * len(sets)
    budget = [200 * count for _, count in sets]
    live, error = len(sets), None      # sets [0, live) are still in the rounds
    while True:
        drawn = []                      # (set, rows) of this round
        for i, (rng, count) in enumerate(sets[:live]):
            k = min(count - got[i], budget[i])
            if got[i] < count and k == 0:
                live, error = i, NoConvergence(
                    "sampler rejected too many points; shrink chart_radius")
                break
            if k:
                budget[i] -= k
                drawn.append((i, chart.identity + rng.uniform(-radius, radius, (k, chart.n))))
        if not drawn:
            return out[:live], error
        try:
            keep = _admissible(chart, np.concatenate([rows for _, rows in drawn]), cfg)
        except BREAKDOWN as exc:
            return out[:drawn[0][0]], exc
        start = 0
        for i, rows in drawn:
            kept = rows[keep[start:start + len(rows)]]
            start += len(rows)
            out[i][got[i]:got[i] + len(kept)] = kept
            got[i] += len(kept)


def sample_points(
    chart: GroupChart,
    cfg: DiffConfig,
    rng: np.random.Generator,
    count: int | None = None,
) -> np.ndarray:
    """Admissible sample points near the identity: `sample_sets` with the
    one set (rng, count), count None meaning cfg.sample_count.  Raises
    NoConvergence after 200 * count draws."""
    drawn, error = sample_sets(chart, cfg, [(rng, cfg.sample_count if count is None else count)])
    if error is not None:
        raise error
    return drawn[0]


@contextmanager
def named(check_id: str) -> Iterator[None]:
    """Raise a numerical breakdown again as the same type with check_id in
    front of its message, so a breakdown names the report row it stopped."""
    try:
        yield
    except BREAKDOWN as exc:
        raise type(exc)(f"{check_id}: {exc}") from exc


def _stacks(pts: np.ndarray, arity: int) -> list[np.ndarray]:
    """The arity (count, n) stacks of count * arity points, row i of stack
    j being point i * arity + j."""
    return [np.ascontiguousarray(pts[j::arity]) for j in range(arity)]


# a and b may be (..., n) stacks of equal leading shape; a point held
# fixed beside a stencil gets an axis for its 2n points.

def _a_left(chart: GroupChart, a, b, cfg: DiffConfig) -> np.ndarray:
    b = b[..., None, :]
    return jacobian(lambda x: chart.compose(x, b), a, cfg)


def _a_right(chart: GroupChart, a, b, cfg: DiffConfig) -> np.ndarray:
    a = a[..., None, :]
    return jacobian(lambda y: chart.compose(a, y), b, cfg)


def psi_flavored(chart: GroupChart, a, flavor: str, cfg: DiffConfig) -> np.ndarray:
    """Basic operator at a: derivative of the named slot at the identity.

    a is one point (n,), giving (n, n), or a stack (k, n), giving
    (k, n, n), differentiated at once.
    """
    if flavor not in ("left", "right"):
        raise ValueError(f"unknown flavor {flavor!r}")
    a = np.asarray(a, float)
    # filled in place: np.broadcast_to costs about 3 us more, once per RK4 stage
    e = np.empty_like(a)
    e[...] = chart.identity
    if flavor == "left":
        return _a_left(chart, e, a, cfg)
    return _a_right(chart, a, e, cfg)


def adjoint(chart: GroupChart, a, cfg: DiffConfig) -> np.ndarray:
    """Ad(a) = lambda_left(a) psi_right(a) at a point or a stack; only psi_left is inverted."""
    return invert(psi_flavored(chart, a, "left", cfg)) @ psi_flavored(chart, a, "right", cfg)


def psi_pair(chart: GroupChart, a, cfg: DiffConfig) -> tuple[np.ndarray, np.ndarray]:
    """(left, right) basic operators at a."""
    a = as_finite_array(a)
    return psi_flavored(chart, a, "left", cfg), psi_flavored(chart, a, "right", cfg)


# --- the sampled checks ----------------------------------------------------
#
# Each table entry is (check_id, arity, residual function of (chart, cfg,
# *points)); `_rows` binds chart and cfg into rows of `sampled_checks`,
# which draws cfg.sample_count points per stack.  The points are (count, n)
# stacks and a residual returns its count values at once.  Shift residuals
# are exact consequences of associativity and the inverse law, so every
# one of them should vanish up to finite-difference error.  A right shift
# equation is its left twin on the opposite group (`_right_twin`).

_AXIOM_CHECKS = (
    ("chart_identity_left", 1,
     lambda chart, cfg, a: maxabs_rows(chart.compose(chart.identity, a) - a, a)),
    ("chart_identity_right", 1,
     lambda chart, cfg, a: maxabs_rows(chart.compose(a, chart.identity) - a, a)),
    ("chart_associativity", 3, lambda chart, cfg, a, b, c: maxabs_rows(
        chart.compose(chart.compose(a, b), c) - chart.compose(a, chart.compose(b, c)), a)),
    ("inverse_left", 1, lambda chart, cfg, a: maxabs_rows(
        chart.compose(inverse(chart, a, cfg), a) - chart.identity, a)),
    ("inverse_roundtrip", 1, lambda chart, cfg, a: maxabs_rows(
        inverse(chart, inverse(chart, a, cfg), cfg) - a, a)),
)


def _res_cocycle_left(chart, cfg, a, b, c):
    ab = chart.compose(a, b)
    bc = chart.compose(b, c)
    lhs = _a_left(chart, ab, c, cfg) @ _a_left(chart, a, b, cfg)
    return maxabs_rows(lhs - _a_left(chart, a, bc, cfg), a)


def _res_cocycle_mixed(chart, cfg, a, b, c):
    ab = chart.compose(a, b)
    bc = chart.compose(b, c)
    lhs = _a_right(chart, a, bc, cfg) @ _a_left(chart, b, c, cfg)
    return maxabs_rows(lhs - _a_left(chart, ab, c, cfg) @ _a_right(chart, a, b, cfg), a)


def _res_inverse_operator_left(chart, cfg, a, b):
    ab = chart.compose(a, b)
    b_inv = inverse(chart, b, cfg)
    lhs = _a_left(chart, ab, b_inv, cfg) @ _a_left(chart, a, b, cfg)
    return maxabs_rows(lhs - np.eye(chart.n), a)


def _res_lambda_left_closed_form(chart, cfg, a):
    lam = invert(psi_flavored(chart, a, "left", cfg))
    return maxabs_rows(lam - _a_left(chart, a, inverse(chart, a, cfg), cfg), a)


def _res_factorization_left(chart, cfg, a, b):
    ab = chart.compose(a, b)
    psi_l_ab = psi_flavored(chart, ab, "left", cfg)
    lam_l_a = invert(psi_flavored(chart, a, "left", cfg))
    return maxabs_rows(_a_left(chart, a, b, cfg) - psi_l_ab @ lam_l_a, a)


def _res_inverse_jacobian_left_route(chart, cfg, a):
    a_inv = inverse(chart, a, cfg)
    j_num = jacobian(lambda x: inverse(chart, x, cfg), a, cfg)
    psi_l_inv = psi_flavored(chart, a_inv, "left", cfg)
    lam_r_a = invert(psi_flavored(chart, a, "right", cfg))
    return maxabs_rows(j_num + psi_l_inv @ lam_r_a, a)


def _res_quotient_left(chart, cfg, a, b):
    j_num = jacobian(lambda x: chart.compose(inverse(chart, x, cfg), b[..., None, :]), a, cfg)
    w = chart.compose(inverse(chart, a, cfg), b)
    psi_l_w = psi_flavored(chart, w, "left", cfg)
    lam_r_a = invert(psi_flavored(chart, a, "right", cfg))
    return maxabs_rows(j_num + psi_l_w @ lam_r_a, a)


def _right_twin(left_twin, reverse: bool = True):
    """The right residual that is left_twin's on the opposite group, handed
    the points reversed, or in order for reverse False; it makes the law
    calls, and gets the bits, of its written-out form."""
    def residual(chart, cfg, *points):
        return left_twin(_opposite(chart), cfg, *(points[::-1] if reverse else points))
    return residual


def _at_inverse(triple_route):
    """The inner conjugation y -> a y a^-1 as triple_route at c = a^-1,
    found once per point rather than at every stencil point."""
    return lambda chart, cfg, a, b: triple_route(chart, cfg, a, b, inverse(chart, a, cfg))


def _triple_in_middle(chart, a, c):
    """y -> a y c with a and c held beside a stencil over y."""
    held_a, held_c = a[..., None, :], c[..., None, :]
    return lambda y: chart.compose(chart.compose(held_a, y), held_c)


def _res_triple_product_left_route(chart, cfg, a, b, c):
    ab = chart.compose(a, b)
    abc = chart.compose(ab, c)
    j_num = jacobian(_triple_in_middle(chart, a, c), b, cfg)
    psi_l_abc = psi_flavored(chart, abc, "left", cfg)
    psi_l_ab, psi_r_ab = psi_pair(chart, ab, cfg)
    lam_l_ab = invert(psi_l_ab)
    lam_r_b = invert(psi_flavored(chart, b, "right", cfg))
    return maxabs_rows(j_num - psi_l_abc @ lam_l_ab @ psi_r_ab @ lam_r_b, a)


# This right residual stays written out: on the opposite group its numeric
# Jacobian would differentiate a(yc) instead of (ay)c, which moves digits.

def _res_triple_product_right_route(chart, cfg, a, b, c):
    bc = chart.compose(b, c)
    abc = chart.compose(a, bc)
    j_num = jacobian(_triple_in_middle(chart, a, c), b, cfg)
    psi_r_abc = psi_flavored(chart, abc, "right", cfg)
    psi_l_bc, psi_r_bc = psi_pair(chart, bc, cfg)
    lam_r_bc = invert(psi_r_bc)
    lam_l_b = invert(psi_flavored(chart, b, "left", cfg))
    return maxabs_rows(j_num - psi_r_abc @ lam_r_bc @ psi_l_bc @ lam_l_b, a)


def _res_conjugation_outer(chart, cfg, a, b):
    j_num = jacobian(lambda x: chart.compose(chart.compose(x, b[..., None, :]),
                                             inverse(chart, x, cfg)), a, cfg)
    w = chart.compose(chart.compose(a, b), inverse(chart, a, cfg))
    psi_l_w, psi_r_w = psi_pair(chart, w, cfg)
    lam_l_a = invert(psi_flavored(chart, a, "left", cfg))
    return maxabs_rows(j_num - (psi_l_w - psi_r_w) @ lam_l_a, a)


def _res_adjoint_at_identity(chart, cfg, a):
    a_inv = inverse(chart, a, cfg)
    e = np.broadcast_to(chart.identity, a.shape)
    j_num = jacobian(_triple_in_middle(chart, a, a_inv), e, cfg)
    return maxabs_rows(j_num - adjoint(chart, a, cfg), a)


_SHIFT_CHECKS = (
    ("cocycle_left", 3, _res_cocycle_left),
    ("cocycle_right", 3, _right_twin(_res_cocycle_left)),
    ("cocycle_mixed", 3, _res_cocycle_mixed),
    ("inverse_operator_left", 2, _res_inverse_operator_left),
    ("inverse_operator_right", 2, _right_twin(_res_inverse_operator_left)),
    ("lambda_left_closed_form", 1, _res_lambda_left_closed_form),
    ("lambda_right_closed_form", 1, _right_twin(_res_lambda_left_closed_form)),
    ("factorization_left", 2, _res_factorization_left),
    ("factorization_right", 2, _right_twin(_res_factorization_left)),
    ("inverse_jacobian_left_route", 1, _res_inverse_jacobian_left_route),
    ("inverse_jacobian_right_route", 1, _right_twin(_res_inverse_jacobian_left_route)),
    ("quotient_left", 2, _res_quotient_left),
    ("quotient_right", 2, _right_twin(_res_quotient_left, reverse=False)),
    ("triple_product_left_route", 3, _res_triple_product_left_route),
    ("triple_product_right_route", 3, _res_triple_product_right_route),
    ("conjugation_outer", 2, _res_conjugation_outer),
    ("conjugation_inner_left", 2, _at_inverse(_res_triple_product_left_route)),
    ("conjugation_inner_right", 2, _at_inverse(_res_triple_product_right_route)),
    ("adjoint_at_identity", 1, _res_adjoint_at_identity),
)

SHIFT_CHECK_IDS = tuple(cid for cid, _, _ in _SHIFT_CHECKS)

# Check id -> default tolerance, for every check of every suite.
# --tol-scale multiplies these.
TOLERANCES = {
    "chart_identity_left": 1e-10,
    "chart_identity_right": 1e-10,
    "chart_associativity": 1e-9,
    "inverse_left": 1e-8,
    "inverse_roundtrip": 1e-7,
    "basic_ops_at_identity": 1e-7,
    **dict.fromkeys(SHIFT_CHECK_IDS, 1e-4),
    "jacobi_left": 1e-4,
    "anti_isomorphism_measured": 1e-3,
    "constancy_left": 1e-3,
    "constancy_right": 1e-3,
    "maurer_left": 1e-3,
    "maurer_right": 1e-3,
    "field_commutators_left": 1e-3,
    "field_commutators_right": 1e-3,
    "flow_homomorphism": 1e-5,
    "flow_homomorphism_left": 1e-5,
    "canonical_additivity": 1e-6,
    "rep_identity": 1e-10,
    "rep_homomorphism": 1e-8,
    "rep_inverse": 1e-7,
    "rep_pde_map": 1e-3,
    "rep_integrability": 1e-6,
    "rep_mixed_identity": 1e-4,
    "essential_count_group_family": 0.5,
}


def record(check_id: str, residual: float, samples: int, tol_scale: float) -> CheckRecord:
    """A check's verdict against its default tolerance times tol_scale."""
    return CheckRecord.from_residual(check_id, residual,
                                     TOLERANCES[check_id] * tol_scale, samples)


def sampled_checks(chart: GroupChart, cfg: DiffConfig, table: Sequence[CheckRow]) -> Checks:
    """(check_id, samples, residual) of each row of a check table, in table order.

    A row (check_id, arity, count, residual) checks `count` samples,
    cfg.sample_count for None: `residual` gets arity (count, n) stacks of
    points, row i of stack j being point i * arity + j of the row's draw,
    and returns the count values, whose worst is the row's residual.  A row
    of arity 0 draws nothing and calls residual().  One `sample_sets` call
    draws every row's count * arity points from its own `check_rng(cfg,
    check_id)`, so each sampler round is vetted once for the whole table,
    and each row gets the points `sample_points` would draw for it alone.
    The residuals then run row by row.  A numerical breakdown is raised
    again under the row's id by `named`; a row whose points could not be
    drawn raises at its turn, after the rows before it.
    """
    table = [(check_id, arity, cfg.sample_count if count is None else count, residual)
             for check_id, arity, count, residual in table]
    drawn, error = sample_sets(chart, cfg, [(check_rng(cfg, check_id), count * arity)
                                            for check_id, arity, count, _ in table])
    for i, (check_id, arity, count, residual) in enumerate(table):
        with named(check_id):
            if i == len(drawn):
                raise error
            worst = maxabs(residual(*_stacks(drawn[i], arity)))
        yield check_id, count, worst


def _rows(chart: GroupChart, cfg: DiffConfig, table) -> list[CheckRow]:
    """The rows of a table of (check_id, arity, residual of (chart, cfg,
    *points)), each of cfg.sample_count samples."""
    return [(check_id, arity, None, partial(fn, chart, cfg)) for check_id, arity, fn in table]


def _basic_ops_at_identity(chart: GroupChart, cfg: DiffConfig) -> float:
    left, right = psi_pair(chart, chart.identity, cfg)
    eye = np.eye(chart.n)
    return maxabs((left - eye, right - eye))


def axiom_checks(chart: GroupChart, cfg: DiffConfig) -> Checks:
    """(check_id, samples, residual) of the chart axioms, in report order:
    identity, associativity, inverse, and basic operators at the identity."""
    return sampled_checks(chart, cfg, [
        *_rows(chart, cfg, _AXIOM_CHECKS),
        ("basic_ops_at_identity", 0, 1, partial(_basic_ops_at_identity, chart, cfg))])


def shift_checks(chart: GroupChart, cfg: DiffConfig) -> Checks:
    """(check_id, samples, residual) of every composition-law identity.

    Each check draws its own deterministic sample set, so the residuals
    are reproducible for a fixed seed regardless of check order.
    """
    return sampled_checks(chart, cfg, _rows(chart, cfg, _SHIFT_CHECKS))


def build_report(suite: str, chart: GroupChart, cfg: DiffConfig, checks: Checks,
                 tol_scale: float, rep: str | None = None) -> CheckReport:
    """The report of a suite's (check_id, samples, residual) triples on
    chart, each against its default tolerance times tol_scale, which must
    be finite and positive: ValueError before checks makes a law call."""
    if not (np.isfinite(tol_scale) and tol_scale > 0.0):
        raise ValueError(f"tol_scale must be finite and positive, got {tol_scale!r}")
    rpt = CheckReport(suite=suite, group=chart.name, rep=rep, seed=cfg.rng_seed,
                      fd_step=cfg.base_step)
    rpt.extend(record(check_id, residual, samples, tol_scale)
               for check_id, samples, residual in checks)
    return rpt


def check_chart_axioms(chart: GroupChart, cfg: DiffConfig | None = None,
                       tol_scale: float = 1.0) -> CheckReport:
    """Identity, associativity, inverse and basic-operator sanity checks."""
    cfg = cfg or DiffConfig()
    return build_report("chart_axioms", chart, cfg, axiom_checks(chart, cfg), tol_scale)


def verify_shift_identities(chart: GroupChart, cfg: DiffConfig | None = None,
                            tol_scale: float = 1.0) -> CheckReport:
    """Evaluate every composition-law identity at freshly sampled points."""
    cfg = cfg or DiffConfig()
    return build_report("shift_identities", chart, cfg, shift_checks(chart, cfg), tol_scale)
