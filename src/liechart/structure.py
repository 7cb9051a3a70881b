"""Structure constants and the differential identities that pin them down.

The central object is the generator tensor: the mixed second derivative
of the composition law at the identity, taken once in each slot.  Its
antisymmetrized part gives the structure constants; the same constants
must reappear when measured away from the identity through the basic
operator fields, in the curl of the inverse operator field (the Maurer
equation), and in commutators of the invariant frame fields.  Each is
written in its left form: a right-flavor call runs it on `group._opposite`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrix
from .group import GroupChart, _Opposite, _opposite, maxabs, psi_flavored
from .numdiff import DiffConfig, invert, jacobian, mixed_second, numeric_rank, rowwise

CONSTANCY_POINTS = 5


@dataclass(frozen=True)
class StructureConstants:
    """Antisymmetrized generator tensor, c[U][T][V], for one flavor."""

    c: np.ndarray
    flavor: str


def group_generators(chart: GroupChart, cfg: DiffConfig | None = None) -> np.ndarray:
    """Generator tensor T (n, n, n) of a chart: T[K][L][M] is the composition
    law differentiated once in the left slot (index L) and once in the
    right slot (index M) at the identity."""
    cfg = cfg or DiffConfig()
    e = chart.identity
    return mixed_second(chart.compose, (e, e), cfg)


def structure_constants(t: np.ndarray, flavor: str = "left") -> StructureConstants:
    """The generator tensor t antisymmetrized in its lower indices, in one flavor."""
    c_left = np.transpose(t, (0, 2, 1)) - t
    if flavor == "left":
        return StructureConstants(c_left, "left")
    if flavor == "right":
        return StructureConstants(-c_left, "right")
    raise ValueError(f"unknown flavor {flavor!r}")


def bracket(constants: StructureConstants, alpha, beta) -> np.ndarray:
    """Algebra bracket of two tangent vectors under the given constants."""
    return np.einsum("utv,t,v->u", constants.c, np.asarray(alpha, float),
                     np.asarray(beta, float))


def jacobi_residual(constants: StructureConstants) -> float:
    """Cyclic contraction that must vanish for any set of constants."""
    c = constants.c
    term = np.einsum("wtv,xwu->tvux", c, c)
    total = term + np.transpose(term, (1, 2, 0, 3)) + np.transpose(term, (2, 0, 1, 3))
    return maxabs(total)


def _left_form(chart: GroupChart, flavor: str) -> GroupChart:
    """chart for the left flavor, and for the right its opposite group."""
    if flavor not in ("left", "right"):
        raise ValueError(f"unknown flavor {flavor!r}")
    return chart if flavor == "left" else _opposite(chart)


def _flat_field(chart: GroupChart, cfg: DiffConfig):
    """The left basic operator field with each (n, n) value flattened, over stacks too."""
    return lambda x: psi_flavored(chart, x, "left", cfg).reshape(x.shape[:-1] + (-1,))


def _frame_derivatives(chart: GroupChart, a: np.ndarray,
                       cfg: DiffConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left basic operator at the point a, its inverse and the inverse's
    point derivative, (psi, lam, dlam[U][V][P]).

    psi and its derivative come from one second-derivative stencil of the
    composition law, with the left slot pinned at the identity; dlam
    follows by the inverse-derivative identity.
    """
    psi = psi_flavored(chart, a, "left", cfg)
    dpsi = mixed_second(chart.compose, (chart.identity, a), cfg)
    try:
        # Fortran order: maurer_residual's einsum over two copies of lam runs
        # twice as fast on it, about 2 ms of a gl:3 structure pass
        lam = np.asfortranarray(invert(psi))
    except SingularMatrix:
        raise SingularMatrix(_rank_drop(chart, psi, a)) from None
    return psi, lam, -np.einsum("ur,rsp,sv->uvp", lam, dpsi, lam)


def _rank_drop(chart: GroupChart, psi: np.ndarray, a: np.ndarray) -> str:
    """Breakdown message for chart's left frame, singular at the point a."""
    flavor = "right" if isinstance(chart, _Opposite) else "left"
    return f"{flavor} frame has rank {numeric_rank(psi)} of {len(psi)} at a = {a.tolist()}"


def structure_constants_at_point(chart: GroupChart, a, flavor: str,
                                 cfg: DiffConfig | None = None) -> np.ndarray:
    """Constants measured away from the identity.

    Contracts the curl of the inverse operator field with two copies of
    the basic operator; the result must not depend on the point.
    """
    cfg = cfg or DiffConfig()
    psi, _, dlam = _frame_derivatives(_left_form(chart, flavor), np.asarray(a, float), cfg)
    antis = dlam - np.transpose(dlam, (0, 2, 1))
    return np.einsum("rt,pv,urp->utv", psi, psi, antis)


def constancy_residual(chart: GroupChart, constants: StructureConstants, a: np.ndarray,
                       cfg: DiffConfig | None = None) -> np.ndarray:
    """Spread of the constants measured at each point of the (k, n) stack a
    from `constants`, one value per point."""
    cfg = cfg or DiffConfig()
    flavor, base = constants.flavor, constants.c
    return rowwise(lambda p: maxabs(structure_constants_at_point(chart, p, flavor, cfg) - base))(a)


def maurer_residual(chart: GroupChart, constants: StructureConstants, a: np.ndarray,
                    cfg: DiffConfig | None = None) -> np.ndarray:
    """Violation of the Maurer equation at each point of the (k, n) stack a.

    The curl of the inverse operator field must equal the structure
    constants contracted with two copies of that field.
    """
    cfg = cfg or DiffConfig()
    chart = _left_form(chart, constants.flavor)

    def residual(p: np.ndarray) -> float:
        _, lam, dlam = _frame_derivatives(chart, p, cfg)
        curl = dlam - np.transpose(dlam, (0, 2, 1))
        contracted = np.einsum("utv,tp,vr->upr", constants.c, lam, lam)
        return maxabs(contracted - curl)

    return rowwise(residual)(a)


def invariant_field_commutators(chart: GroupChart, constants: StructureConstants,
                                a: np.ndarray, cfg: DiffConfig | None = None) -> np.ndarray:
    """Frame-field commutator residual against the constants at each point
    of the (k, n) stack a.

    Column V of the basic operator field is the V-th invariant frame
    field; its commutators must reproduce the structure constants with
    the matching flavor.  A frame that loses rank at a point raises
    SingularMatrix naming the rank and the point.

    The whole frame is differentiated once per point, d psi[K][V] / d x^L
    for all K, V, L, by nested first differences, so this check stays
    independent of the mixed_second stencil the Maurer check uses.
    """
    cfg = cfg or DiffConfig()
    chart = _left_form(chart, constants.flavor)
    n = chart.n

    def residual(p: np.ndarray) -> float:
        psi = psi_flavored(chart, p, "left", cfg)
        if numeric_rank(psi) < n:
            raise SingularMatrix(_rank_drop(chart, psi, p))
        dframe = jacobian(_flat_field(chart, cfg), p, cfg)
        # jac[V] is the Jacobian of frame field V; contiguous copies give each
        # product the memory layout, and so the bits, of vf_commutator
        jac = np.ascontiguousarray(dframe.reshape(n, n, n).transpose(1, 0, 2))
        fields = np.ascontiguousarray(psi.T)
        return maxabs([jac[v] @ fields[t] - jac[t] @ fields[v] - psi @ constants.c[:, t, v]
                       for t in range(n) for v in range(t + 1, n)])

    return rowwise(residual)(a)
