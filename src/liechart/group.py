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
  derivative at a = e; `left_inv`/`right_inv` are their matrix inverses.
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import (BREAKDOWN, LieChartError, NoConvergence, NonFiniteEvaluation,
                     SingularMatrix)
from .numdiff import (DiffConfig, as_finite_array, invert, jacobian, rowwise,
                      unchecked_jacobian)
from .report import CheckRecord, CheckReport

ComposeLaw = Callable[[np.ndarray, np.ndarray], np.ndarray]
# (check_id, samples, residual) triples, in report order
Checks = Iterator[tuple[str, int, float]]

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
    result.  A law marked `broadcasts = True` gets the stacks as they are;
    any other law, and likewise the `inverse_hint`, is lifted here by
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
        self.identity = as_finite_array(self.identity, "chart identity")
        if self.identity.shape != (self.n,):
            raise ValueError("identity must be an n-vector")
        if self.chart_radius <= 0.0:
            raise ValueError("chart_radius must be positive")
        self.compose = rowwise(self.compose)
        if self.inverse_hint is not None:
            self.inverse_hint = rowwise(self.inverse_hint)


@dataclass(frozen=True)
class ShiftJacobians:
    """Derivatives of compose(a, b) in each slot, evaluated at (a, b)."""

    left: np.ndarray
    right: np.ndarray


@dataclass(frozen=True)
class BasicOperators:
    """Slot derivatives of the composition law at the identity.

    right[K][L] = d compose(a, b)^K / d b^L at b = e, left[K][L] the
    mirror image; the _inv fields are their matrix inverses.
    """

    left: np.ndarray
    right: np.ndarray
    left_inv: np.ndarray
    right_inv: np.ndarray


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
    array of maxima, one point (n,) a scalar.  A NaN keeps its row NaN."""
    return np.abs(x).reshape(np.shape(point)[:-1] + (-1,)).max(axis=-1)


def inverse(chart: GroupChart, a, cfg: DiffConfig | None = None) -> np.ndarray:
    """Coordinates of the group inverse of a, one point (n,) or a stack (..., n).

    With the chart's closed-form hint, the rows are mapped by the hint and
    checked against it (compose(a, x) within 1e-10 of e) in one call each,
    and only the rows the hint misses are polished by Newton; without a
    hint every row is solved by Newton from the identity.  One `_newton`
    call takes all those rows, each solved as it would be alone, so a row
    keeps the bits of its own inverse.  A stack raises when one of its
    rows breaks down, with the error of solving the rows in order: a
    failing hint before a failing Newton solve, and the lowest row first.
    """
    cfg = cfg or DiffConfig()
    a = as_finite_array(a, "inverse argument")
    x, broken = _inverse_rows(chart, a.reshape(-1, chart.n), cfg)
    if broken:
        raise next(iter(broken.values()))
    return x.reshape(a.shape)


def _inverse_rows(chart: GroupChart, rows: np.ndarray,
                  cfg: DiffConfig) -> tuple[np.ndarray, dict[int, LieChartError]]:
    """Inverses of a (k, n) stack, and the rows that broke down.

    The dict maps each row that broke down to the error it raises alone,
    the hint's rows before Newton's and each in row order; such a row's
    inverse is left as it was when it broke.
    """
    e = chart.identity
    broken: dict[int, LieChartError] = {}
    if chart.inverse_hint is None:
        x = np.tile(e, (len(rows), 1))
        sloppy = np.arange(len(rows))
    else:
        x = np.array(chart.inverse_hint(rows), dtype=float).reshape(rows.shape)
        sloppy = np.flatnonzero(_finite_or_break(broken, np.arange(len(rows)), x, "inverse hint"))
        if sloppy.size:
            r = np.asarray(chart.compose(rows[sloppy], x[sloppy]), dtype=float) - e
            sloppy = sloppy[_finite_or_break(broken, sloppy, r, "evaluation")
                            & (maxabs_rows(r, r) > 1e-10)]
    if sloppy.size:
        x[sloppy], failed = _newton(chart, rows[sloppy], x[sloppy], cfg)
        broken.update((int(sloppy[i]), error) for i, error in failed.items())
    return x, broken


def _newton(chart: GroupChart, a: np.ndarray, x: np.ndarray,
            cfg: DiffConfig) -> tuple[np.ndarray, dict[int, LieChartError]]:
    """Damped Newton on compose(a, x) = e from x, for a (k, n) stack a.

    Each iteration makes one residual call and one right-slot stencil call
    on the rows not yet settled, one batched solve, and one law call per
    damping level on the rows whose step is still being halved.  A row
    leaves the stack once its residual is below _NEWTON_TOL, or when it
    breaks down, so each row takes the steps and the evaluations of its
    own one-point solve.  Returns x, updated in place, and the rows that
    broke down in row order, each with the error it raises alone.
    """
    e = chart.identity
    broken: dict[int, LieChartError] = {}
    live = np.arange(len(a))
    for _ in range(_NEWTON_MAX_ITER):
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
        if not live.size:
            break
    else:
        _break(broken, live,
               NoConvergence(f"inverse Newton did not converge in {_NEWTON_MAX_ITER} iterations"))
    return x, dict(sorted(broken.items()))


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
    whose row is not are recorded in broken with the error that
    `as_finite_array` raises for them."""
    finite = np.logical_and.reduce(np.isfinite(v), axis=-1)
    if not finite.all():
        _break(broken, rows[~finite], NonFiniteEvaluation(f"{context} produced a non-finite value"))
    return finite


def _break(broken: dict[int, LieChartError], rows: np.ndarray, error: LieChartError) -> None:
    broken.update(dict.fromkeys(rows.tolist(), error))


def _admissible(chart: GroupChart, rows: np.ndarray, cfg: DiffConfig) -> np.ndarray:
    """Which rows of the (k, n) stack the sampler keeps: their inverse
    exists, composes finitely on both sides and stays within chart_radius.

    A row whose inverse breaks down is rejected, and the others are vetted
    as they would be alone.  Only compose(inv, a) is evaluated here:
    `inverse` has already found compose(a, inv) finite, in the hint test
    or in Newton's last residual.
    """
    inv, broken = _inverse_rows(chart, rows, cfg)
    keep = np.ones(len(rows), dtype=bool)
    keep[list(broken)] = False
    solved = np.flatnonzero(keep)
    if solved.size:
        keep[solved] = np.logical_and.reduce(
            np.isfinite(chart.compose(inv[solved], rows[solved])), axis=-1)
    return keep & (maxabs_rows(inv - chart.identity, rows) <= chart.chart_radius)


def sample_points(
    chart: GroupChart,
    cfg: DiffConfig,
    rng: np.random.Generator,
    count: int | None = None,
) -> np.ndarray:
    """Admissible sample points near the identity.

    Draws uniformly from the inf-norm ball of radius
    min(SAMPLE_RADIUS, chart.chart_radius) and rejects points whose
    inverse fails or escapes the trust region; gives up after 200 * count
    draws.  Each round draws only the rows still missing and vets them as
    one stack, each row as it would be alone, so the points kept and the
    generator's state afterwards are those of drawing and vetting one
    point at a time.
    """
    count = count or cfg.sample_count
    radius = min(SAMPLE_RADIUS, chart.chart_radius)
    out = np.empty((count, chart.n))
    got = 0
    budget = 200 * count
    while got < count:
        k = min(count - got, budget)
        if k == 0:
            raise NoConvergence("sampler rejected too many points; shrink chart_radius")
        budget -= k
        a = chart.identity + rng.uniform(-radius, radius, (k, chart.n))
        kept = a[_admissible(chart, a, cfg)]
        out[got:got + len(kept)] = kept
        got += len(kept)
    return out


@contextmanager
def named(check_id: str) -> Iterator[None]:
    """Raise a numerical breakdown again as the same type with check_id in
    front of its message, so a breakdown names the report row it stopped."""
    try:
        yield
    except BREAKDOWN as exc:
        raise type(exc)(f"{check_id}: {exc}") from exc


def worst_over_samples(chart: GroupChart, cfg: DiffConfig, check_id: str,
                       residual: Callable[..., float], arity: int = 1,
                       count: int | None = None) -> float:
    """Worst residual of one check over its own sampled points.

    Draws count * arity points (count defaults to cfg.sample_count) from
    the check's generator and passes them to `residual` as `arity` stacks
    of shape (count, n), row i of stack j being point i * arity + j; it
    returns the count residuals (`numdiff.rowwise` lifts a point residual).
    A numerical breakdown is raised again under the check id by `named`.
    """
    count = count or cfg.sample_count
    with named(check_id):
        pts = sample_points(chart, cfg, check_rng(cfg, check_id), count * arity)
        return maxabs(residual(*(np.ascontiguousarray(pts[j::arity]) for j in range(arity))))


def shift_jacobians(chart: GroupChart, a, b, cfg: DiffConfig | None = None) -> ShiftJacobians:
    """Both slot derivatives of the composition law at (a, b)."""
    cfg = cfg or DiffConfig()
    a = as_finite_array(a)
    b = as_finite_array(b)
    return ShiftJacobians(left=_a_left(chart, a, b, cfg), right=_a_right(chart, a, b, cfg))


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


def psi_pair(chart: GroupChart, a, cfg: DiffConfig) -> tuple[np.ndarray, np.ndarray]:
    """(left, right) basic operators at a, without the inverses."""
    a = as_finite_array(a)
    return psi_flavored(chart, a, "left", cfg), psi_flavored(chart, a, "right", cfg)


def basic_operators(chart: GroupChart, a, cfg: DiffConfig | None = None) -> BasicOperators:
    """Basic operators and their inverses at a point of the chart."""
    cfg = cfg or DiffConfig()
    left, right = psi_pair(chart, a, cfg)
    return BasicOperators(
        left=left,
        right=right,
        left_inv=invert(left),
        right_inv=invert(right),
    )


# --- the sampled checks ----------------------------------------------------
#
# Each table entry is (check_id, number of sampled points, residual
# function of (chart, cfg, *points)).  The points are (count, n) stacks
# and a residual returns its count values at once.  Shift residuals are
# exact consequences of associativity and the inverse law, so every one
# of them should vanish up to finite-difference error.

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


def _res_cocycle_right(chart, cfg, a, b, c):
    ab = chart.compose(a, b)
    bc = chart.compose(b, c)
    lhs = _a_right(chart, a, bc, cfg) @ _a_right(chart, b, c, cfg)
    return maxabs_rows(lhs - _a_right(chart, ab, c, cfg), a)


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


def _res_inverse_operator_right(chart, cfg, b, c):
    bc = chart.compose(b, c)
    b_inv = inverse(chart, b, cfg)
    lhs = _a_right(chart, b_inv, bc, cfg) @ _a_right(chart, b, c, cfg)
    return maxabs_rows(lhs - np.eye(chart.n), b)


def _res_lambda_left_closed_form(chart, cfg, a):
    lam = invert(psi_flavored(chart, a, "left", cfg))
    return maxabs_rows(lam - _a_left(chart, a, inverse(chart, a, cfg), cfg), a)


def _res_lambda_right_closed_form(chart, cfg, a):
    lam = invert(psi_flavored(chart, a, "right", cfg))
    return maxabs_rows(lam - _a_right(chart, inverse(chart, a, cfg), a, cfg), a)


def _res_factorization_left(chart, cfg, a, b):
    ab = chart.compose(a, b)
    psi_l_ab = psi_flavored(chart, ab, "left", cfg)
    lam_l_a = invert(psi_flavored(chart, a, "left", cfg))
    return maxabs_rows(_a_left(chart, a, b, cfg) - psi_l_ab @ lam_l_a, a)


def _res_factorization_right(chart, cfg, a, b):
    ab = chart.compose(a, b)
    psi_r_ab = psi_flavored(chart, ab, "right", cfg)
    lam_r_b = invert(psi_flavored(chart, b, "right", cfg))
    return maxabs_rows(_a_right(chart, a, b, cfg) - psi_r_ab @ lam_r_b, a)


def _res_inverse_jacobian_left_route(chart, cfg, a):
    a_inv = inverse(chart, a, cfg)
    j_num = jacobian(lambda x: inverse(chart, x, cfg), a, cfg)
    psi_l_inv = psi_flavored(chart, a_inv, "left", cfg)
    lam_r_a = invert(psi_flavored(chart, a, "right", cfg))
    return maxabs_rows(j_num + psi_l_inv @ lam_r_a, a)


def _res_inverse_jacobian_right_route(chart, cfg, a):
    a_inv = inverse(chart, a, cfg)
    j_num = jacobian(lambda x: inverse(chart, x, cfg), a, cfg)
    psi_r_inv = psi_flavored(chart, a_inv, "right", cfg)
    lam_l_a = invert(psi_flavored(chart, a, "left", cfg))
    return maxabs_rows(j_num + psi_r_inv @ lam_l_a, a)


def _res_quotient_left(chart, cfg, a, b):
    j_num = jacobian(lambda x: chart.compose(inverse(chart, x, cfg), b[..., None, :]), a, cfg)
    w = chart.compose(inverse(chart, a, cfg), b)
    psi_l_w = psi_flavored(chart, w, "left", cfg)
    lam_r_a = invert(psi_flavored(chart, a, "right", cfg))
    return maxabs_rows(j_num + psi_l_w @ lam_r_a, a)


def _res_quotient_right(chart, cfg, a, b):
    j_num = jacobian(lambda x: chart.compose(b[..., None, :], inverse(chart, x, cfg)), a, cfg)
    w = chart.compose(b, inverse(chart, a, cfg))
    psi_r_w = psi_flavored(chart, w, "right", cfg)
    lam_l_a = invert(psi_flavored(chart, a, "left", cfg))
    return maxabs_rows(j_num + psi_r_w @ lam_l_a, a)


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


# The inner conjugations y -> a y a^-1 hold a fixed, so a^-1 is found once
# per point rather than at every stencil point.

def _res_conjugation_inner_left(chart, cfg, a, b):
    a_inv = inverse(chart, a, cfg)
    j_num = jacobian(_triple_in_middle(chart, a, a_inv), b, cfg)
    ab = chart.compose(a, b)
    w = chart.compose(ab, a_inv)
    psi_l_w = psi_flavored(chart, w, "left", cfg)
    psi_l_ab, psi_r_ab = psi_pair(chart, ab, cfg)
    lam_l_ab = invert(psi_l_ab)
    lam_r_b = invert(psi_flavored(chart, b, "right", cfg))
    return maxabs_rows(j_num - psi_l_w @ lam_l_ab @ psi_r_ab @ lam_r_b, a)


def _res_conjugation_inner_right(chart, cfg, a, b):
    a_inv = inverse(chart, a, cfg)
    j_num = jacobian(_triple_in_middle(chart, a, a_inv), b, cfg)
    ba_inv = chart.compose(b, a_inv)
    w = chart.compose(chart.compose(a, b), a_inv)
    psi_r_w = psi_flavored(chart, w, "right", cfg)
    psi_l_bainv, psi_r_bainv = psi_pair(chart, ba_inv, cfg)
    lam_r_bainv = invert(psi_r_bainv)
    lam_l_b = invert(psi_flavored(chart, b, "left", cfg))
    return maxabs_rows(j_num - psi_r_w @ lam_r_bainv @ psi_l_bainv @ lam_l_b, a)


def _res_adjoint_at_identity(chart, cfg, a):
    a_inv = inverse(chart, a, cfg)
    e = np.broadcast_to(chart.identity, a.shape)
    j_num = jacobian(_triple_in_middle(chart, a, a_inv), e, cfg)
    psi_l_a, psi_r_a = psi_pair(chart, a, cfg)
    return maxabs_rows(j_num - invert(psi_l_a) @ psi_r_a, a)


def _res_adjoint_flavor_symmetry(chart, cfg, a):
    a_inv = inverse(chart, a, cfg)
    psi_l_a, psi_r_a = psi_pair(chart, a, cfg)
    psi_l_inv, psi_r_inv = psi_pair(chart, a_inv, cfg)
    adj = invert(psi_l_a) @ psi_r_a
    return maxabs_rows(adj - invert(psi_r_inv) @ psi_l_inv, a)


_SHIFT_CHECKS = (
    ("cocycle_left", 3, _res_cocycle_left),
    ("cocycle_right", 3, _res_cocycle_right),
    ("cocycle_mixed", 3, _res_cocycle_mixed),
    ("inverse_operator_left", 2, _res_inverse_operator_left),
    ("inverse_operator_right", 2, _res_inverse_operator_right),
    ("lambda_left_closed_form", 1, _res_lambda_left_closed_form),
    ("lambda_right_closed_form", 1, _res_lambda_right_closed_form),
    ("factorization_left", 2, _res_factorization_left),
    ("factorization_right", 2, _res_factorization_right),
    ("inverse_jacobian_left_route", 1, _res_inverse_jacobian_left_route),
    ("inverse_jacobian_right_route", 1, _res_inverse_jacobian_right_route),
    ("quotient_left", 2, _res_quotient_left),
    ("quotient_right", 2, _res_quotient_right),
    ("triple_product_left_route", 3, _res_triple_product_left_route),
    ("triple_product_right_route", 3, _res_triple_product_right_route),
    ("conjugation_outer", 2, _res_conjugation_outer),
    ("conjugation_inner_left", 2, _res_conjugation_inner_left),
    ("conjugation_inner_right", 2, _res_conjugation_inner_right),
    ("adjoint_at_identity", 1, _res_adjoint_at_identity),
    ("adjoint_flavor_symmetry", 1, _res_adjoint_flavor_symmetry),
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
    "rep_mixed_identity": 1e-3,
    "generator_transform_constancy": 1e-4,
    "essential_count_group_family": 0.5,
}


def record(check_id: str, residual: float, samples: int, tol_scale: float) -> CheckRecord:
    """A check's verdict against its default tolerance times tol_scale."""
    return CheckRecord.from_residual(check_id, residual,
                                     TOLERANCES[check_id] * tol_scale, samples)


def _sampled_checks(chart: GroupChart, cfg: DiffConfig, table) -> Checks:
    for check_id, arity, fn in table:
        yield check_id, cfg.sample_count, worst_over_samples(
            chart, cfg, check_id, lambda *pts: fn(chart, cfg, *pts), arity)


def _basic_ops_at_identity(chart: GroupChart, cfg: DiffConfig) -> float:
    with named("basic_ops_at_identity"):
        ops = basic_operators(chart, chart.identity, cfg)
    eye = np.eye(chart.n)
    return maxabs((ops.left - eye, ops.right - eye))


def axiom_checks(chart: GroupChart, cfg: DiffConfig) -> Checks:
    """(check_id, samples, residual) of the chart axioms, in report order:
    identity, associativity, inverse, and basic operators at the identity."""
    yield from _sampled_checks(chart, cfg, _AXIOM_CHECKS)
    yield "basic_ops_at_identity", 1, _basic_ops_at_identity(chart, cfg)


def shift_checks(chart: GroupChart, cfg: DiffConfig) -> Checks:
    """(check_id, samples, residual) of every composition-law identity.

    Each check draws its own deterministic sample set, so the residuals
    are reproducible for a fixed seed regardless of check order.
    """
    return _sampled_checks(chart, cfg, _SHIFT_CHECKS)


def _report(suite: str, chart: GroupChart, cfg: DiffConfig, checks: Checks,
            tol_scale: float) -> CheckReport:
    rpt = CheckReport(suite=suite, group=chart.name, seed=cfg.rng_seed,
                      fd_step=cfg.base_step)
    rpt.extend(record(check_id, residual, samples, tol_scale)
               for check_id, samples, residual in checks)
    return rpt


def check_chart_axioms(chart: GroupChart, cfg: DiffConfig | None = None,
                       tol_scale: float = 1.0) -> CheckReport:
    """Identity, associativity, inverse and basic-operator sanity checks."""
    cfg = cfg or DiffConfig()
    return _report("chart_axioms", chart, cfg, axiom_checks(chart, cfg), tol_scale)


def verify_shift_identities(chart: GroupChart, cfg: DiffConfig | None = None,
                            tol_scale: float = 1.0) -> CheckReport:
    """Evaluate every composition-law identity at freshly sampled points."""
    cfg = cfg or DiffConfig()
    return _report("shift_identities", chart, cfg, shift_checks(chart, cfg), tol_scale)
