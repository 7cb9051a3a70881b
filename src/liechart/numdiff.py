"""Finite-difference kernel: derivatives, ranks, and linear solves.

Everything downstream measures derivatives through the three stencils in
this module, so conventions are fixed here once: `jacobian` is first-order
central, `mixed_second` is the four-point product stencil taking one
derivative in each argument slot, and every step scales with the
coordinate magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Callable, Sequence

import numpy as np

from .errors import NonFiniteEvaluation, SingularMatrix

EPS = float(np.finfo(float).eps)
CBRT_EPS = float(EPS ** (1.0 / 3.0))
QUART_EPS = float(EPS ** 0.25)
_RANK_TOL = 1e-8

VectorMap = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class DiffConfig:
    """Knobs shared by every numeric routine.

    base_step is the central-difference step, scaled per coordinate by
    max(1, |coordinate|); sample_count is the number of points each
    sampled check draws, and rng_seed makes every sampling routine
    reproducible.
    """

    base_step: float = CBRT_EPS
    sample_count: int = 20
    rng_seed: int = 42

    def __post_init__(self) -> None:
        if not (0.0 < self.base_step < 1.0):
            raise ValueError("base_step must lie in (0, 1)")
        # kept as Python ints: `check_rng` reduces a seed of any sign mod 2**63
        for name in ("sample_count", "rng_seed"):
            object.__setattr__(self, name, _as_integer(getattr(self, name), name))
        if self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")


def _as_integer(value, name: str) -> int:
    """value as a Python int; ValueError unless it is an integer, which a bool is not."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_finite_array(x, context: str = "evaluation") -> np.ndarray:
    """Coerce to a float array, rejecting NaN/Inf entries."""
    a = np.asarray(x, dtype=float)
    # the ufunc reduce directly: ndarray.all() goes through a Python wrapper
    if not np.logical_and.reduce(np.isfinite(a), axis=None):
        raise NonFiniteEvaluation(f"{context} produced a non-finite value")
    return a


def nonfinite_rows(v: np.ndarray, context: str) -> dict[int, NonFiniteEvaluation]:
    """The rows of the (k, ...) stack v that hold a NaN or Inf, each mapped
    to the error `as_finite_array` raises for it alone."""
    finite = np.isfinite(v)
    if np.logical_and.reduce(finite, axis=None):
        return {}
    bad = np.flatnonzero(~np.logical_and.reduce(finite.reshape(len(v), -1), axis=1))
    return dict.fromkeys(bad.tolist(), NonFiniteEvaluation(f"{context} produced a non-finite value"))


def _steps(at: np.ndarray, base: float) -> np.ndarray:
    return base * np.maximum(1.0, np.abs(at))


def broadcasting(fn: Callable[..., np.ndarray]) -> Callable[..., np.ndarray]:
    """Mark fn as a map of (..., n) stacks, which `rowwise` keeps as it is; sets no `__wrapped__`."""
    fn.broadcasts = True
    return fn


def rowwise(fn: Callable[..., np.ndarray], shape: tuple[int, ...] = ()
            ) -> Callable[..., np.ndarray]:
    """Lift a map of single points to one over (..., n_i) stacks.

    The lift broadcasts the arguments' leading axes, calls fn once per row
    and stacks the results; a stack with no rows makes no call and gives
    an empty array of the leading shape followed by `shape`, the shape of
    one row's value.  The lift is marked by `broadcasting`, so nothing
    unwraps it back into a map of single points.  A map already marked
    `broadcasts = True` is returned as it is.
    """
    if getattr(fn, "broadcasts", False):
        return fn

    def lifted(*args):
        args = [np.asarray(x, dtype=float) for x in args]
        lead = np.broadcast_shapes(*(x.shape[:-1] for x in args))
        if 0 in lead:
            return np.empty(lead + shape)
        rows = zip(*(np.broadcast_to(x, lead + x.shape[-1:]).reshape(-1, x.shape[-1])
                     for x in args))
        out = [np.asarray(fn(*row), dtype=float) for row in rows]
        return np.array(out).reshape(lead + out[0].shape)

    return broadcasting(lifted)


def _stencil_values(vals, lead: tuple[int, ...]) -> np.ndarray:
    """A map's values at stencil points with leading axes `lead`, as (..., q)."""
    vals = np.asarray(vals, dtype=float)
    if vals.shape[:-1] != lead:
        raise ValueError(f"map of {lead} stencil points gave {vals.shape}; lift it with rowwise")
    return vals


def jacobian(f: VectorMap, at: Sequence[float], cfg: DiffConfig | None = None) -> np.ndarray:
    """Central-difference Jacobian of a vector map over stacks.

    Returns J with J[K][L] = d f^K / d x^L evaluated at `at`.  f must map
    a (..., n) stack to a (..., q) stack (lift a map of single points with
    `rowwise`), else ValueError; it gets all 2n stencil points of every
    point in one call.  `at` may carry leading axes, giving J (..., q, n).
    """
    x = as_finite_array(at, "jacobian point")
    # a NaN or Inf probe always survives the difference, so one check
    # on the assembled matrix covers every evaluation
    return as_finite_array(unchecked_jacobian(f, x, cfg), "jacobian probe")


def unchecked_jacobian(f: VectorMap, at: np.ndarray, cfg: DiffConfig | None = None) -> np.ndarray:
    """`jacobian` without its checks: a NaN or Inf at a point or any of
    its probes leaves a NaN or Inf in that point's J and nowhere else, so
    the points of a stack that broke down can be set aside.  It is the
    composition of its two halves, `stencil` and `central_differences`."""
    x = np.asarray(at, dtype=float)
    points, width = stencil(x, cfg or DiffConfig())
    vals = f(points)
    # the stencil is not kept past its evaluation, so a large stack (a
    # sampler round) does not hold it beside the values and differences
    del points
    return central_differences(vals, width, x.shape[:-1] + (2 * x.shape[-1],))


def stencil(at: np.ndarray, cfg: DiffConfig) -> tuple[np.ndarray, np.ndarray]:
    """The first half of `unchecked_jacobian`: the (..., 2n, n) stencil
    points around the points `at` (..., n), row j at +h_j e_j and row
    n + j at -h_j e_j, and the (..., n) widths 2h of their differences."""
    h = _steps(at, cfg.base_step)
    return _shifted(at, h), 2.0 * h


def central_differences(vals, width: np.ndarray, lead: tuple[int, ...]) -> np.ndarray:
    """The second half of `unchecked_jacobian`: J (..., q, n) from a map's
    values (..., 2n, q) at stencil points with leading axes `lead`
    (..., 2n), whose widths `width` (..., n) broadcast against lead[:-1]."""
    vals = _stencil_values(vals, lead)
    n = width.shape[-1]
    cols = vals[..., :n, :] - vals[..., n:, :]
    cols /= width[..., :, None]
    return cols.swapaxes(-1, -2).copy()


def _shifted(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """(..., 2n, n) stack: row j is x + h_j e_j, row n + j is x - h_j e_j."""
    n = x.shape[-1]
    pts = np.empty(x.shape[:-1] + (2 * n, n))
    pts[...] = x[..., None, :]
    # strided view of the two diagonals, one per block of n rows
    diag = pts.reshape(x.shape[:-1] + (2, n * n))[..., ::n + 1]
    diag[..., 0, :] = x + h
    diag[..., 1, :] = x - h
    return pts


def mixed_second(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    at: tuple[Sequence[float], Sequence[float]],
    cfg: DiffConfig | None = None,
) -> np.ndarray:
    """One derivative in each slot of a two-argument map over stacks.

    Returns T with T[K][L][M] = d^2 f^K / d(first)^L d(second)^M via the
    four-point product stencil.  The stencil is second order, so the step
    is widened to at least eps**(1/4); a narrower first-derivative step
    would drown the estimate in roundoff.  f gets all 4 p^2 stencil points
    in one call, on (2p, 2p) leading axes, and must keep them, as in
    `jacobian`.
    """
    cfg = cfg or DiffConfig()
    a = as_finite_array(at[0], "mixed_second point")
    b = as_finite_array(at[1], "mixed_second point")
    base = max(cfg.base_step, QUART_EPS)
    ha = _steps(a, base)
    hb = _steps(b, base)
    # (a, b) itself is off the stencil; a breakdown there still counts
    as_finite_array(f(a, b), "mixed_second probe")
    p = a.size
    # vals[i, j] = f(row i of the a stencil, row j of the b stencil)
    vals = _stencil_values(f(_shifted(a, ha)[:, None, :], _shifted(b, hb)[None, :, :]),
                           (2 * p, 2 * p))
    num = vals[:p, :p] - vals[:p, p:] - vals[p:, :p] + vals[p:, p:]
    out = num / (4.0 * ha[:, None] * hb[None, :])[..., None]
    return as_finite_array(np.ascontiguousarray(np.moveaxis(out, -1, 0)), "mixed_second probe")


def vf_commutator(
    field_a: VectorMap,
    field_b: VectorMap,
    at: Sequence[float],
    cfg: DiffConfig | None = None,
) -> np.ndarray:
    """Commutator of two vector fields, maps of single points, at a point.

    Component form: (J_b a - J_a b) where J is the field Jacobian, which
    is the action of [field_a, field_b] on the coordinate functions.
    """
    cfg = cfg or DiffConfig()
    x = as_finite_array(at, "commutator point")
    ja = jacobian(rowwise(field_a), x, cfg)
    jb = jacobian(rowwise(field_b), x, cfg)
    va = as_finite_array(field_a(x), "field value").ravel()
    vb = as_finite_array(field_b(x), "field value").ravel()
    return jb @ va - ja @ vb


def numeric_rank(m) -> int:
    """Rank by singular values: count sigma_i > _RANK_TOL * sigma_max.

    `invert` applies the same cutoff to the condition number."""
    a = as_finite_array(m, "rank input")
    if a.size == 0:
        return 0
    sigma = np.linalg.svd(np.atleast_2d(a), compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigma > _RANK_TOL * sigma[0]))


def invert(m) -> np.ndarray:
    """Inverse of one matrix or of each matrix in a (..., m, m) stack.

    Raises SingularMatrix when a solve hits an exact zero pivot, or when
    max|A^-1| * max|A| >= 1 / _RANK_TOL for any matrix A of the stack,
    naming the first such matrix's index in the stack.  That product lies
    between kappa / m^2 and kappa, kappa = sigma_max / sigma_min, so this
    is the condition-number form of the cutoff numeric_rank puts on
    sigma_min / sigma_max; on a diagonal matrix the two agree exactly.

    Each matrix gets its own LAPACK solve, so a stack's inverses have the
    bits of the single solves.  One np.linalg.inv over the whole stack
    would be faster, but it shortens perfbench's custom_newton and
    structure_gl3 passes into the margin they must keep over the speed
    probe (ROADMAP aim 1); batching waits until that margin is settled.
    """
    a = np.atleast_2d(as_finite_array(m, "invert input"))
    if a.shape[-1] != a.shape[-2]:
        raise ValueError("invert expects a square matrix")
    stack = a.reshape((-1,) + a.shape[-2:])
    out = np.empty(stack.shape)
    for k, matrix in enumerate(stack):
        try:
            out[k] = np.linalg.inv(matrix)
        except np.linalg.LinAlgError:
            raise SingularMatrix(f"{_which(k, a)} has an exact zero pivot") from None
    scale = np.abs(stack).max(axis=(1, 2))
    size = np.abs(out).max(axis=(1, 2))
    # a NaN product fails the comparison too, so it counts as singular
    ok = size * scale < 1.0 / _RANK_TOL
    if not np.logical_and.reduce(ok):
        k = int(np.argmin(ok))
        raise SingularMatrix(f"{_which(k, a)}: max|inverse| {size[k]:.3e} times max|matrix| "
                             f"{scale[k]:.3e} reaches {1.0 / _RANK_TOL:.1e}")
    return out.reshape(a.shape)


def _which(k: int, a: np.ndarray) -> str:
    """Name the k-th matrix of the stack a in an error message."""
    if a.ndim == 2:
        return "matrix"
    return f"matrix {tuple(int(i) for i in np.unravel_index(k, a.shape[:-2]))} of the stack"
