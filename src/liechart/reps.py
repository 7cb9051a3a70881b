"""Linear representations of a chart group and their generator identities.

A representation is a smooth matrix-valued map f on the chart with
f(compose(b, a)) = f(b) f(a), and every identity below is written in that
one form, with no side dispatch.  A map that reverses the product,
f(compose(b, a)) = f(a) f(b), as one acting on row vectors does, is a
representation of the opposite group (`group._opposite`), whose law is
compose with its arguments swapped; `conjugate_rep` builds one there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .group import GroupChart, _opposite, inverse, maxabs, maxabs_rows, psi_flavored
from .numdiff import (DiffConfig, _as_integer, as_finite_array, broadcasting, invert,
                      jacobian, rowwise)
from .structure import StructureConstants


@dataclass(eq=False)
class RepChart:
    """Matrix representation attached to a group chart: rep(a) maps a point
    (n,) to (m, m) and a stack (..., n) to (..., m, m).  An f not marked by
    `numdiff.broadcasting` is lifted by `numdiff.rowwise`, as GroupChart lifts its law.
    """

    group: GroupChart
    m: int
    f: Callable[[np.ndarray], np.ndarray]
    name: str = "rep"

    def __post_init__(self) -> None:
        self.m = _as_integer(self.m, "m")
        if self.m < 1:
            raise ValueError("representation dimension must be positive")
        self.f = rowwise(self.f, (self.m, self.m))

    def __call__(self, a) -> np.ndarray:
        a = np.asarray(a, float)
        out = as_finite_array(self.f(a), "representation value")
        if out.shape != a.shape[:-1] + (self.m, self.m):
            raise ValueError(f"representation of m = {self.m} gave {out.shape} at {a.shape}")
        return out


def _slot_derivatives(rep: RepChart, a: np.ndarray, cfg: DiffConfig) -> np.ndarray:
    """Stack (..., n, m, m) of d f / d a^L at a (..., n), one matrix per coordinate L."""
    d = jacobian(lambda x: rep(x).reshape(x.shape[:-1] + (-1,)), a, cfg)
    return np.moveaxis(d.reshape(d.shape[:-2] + (rep.m, rep.m, rep.group.n)), -1, -3)


def _combine(weights: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """out[..., p] = sum_k weights[..., k, p] mats[..., k] over (..., n, m, m) stacks."""
    return np.einsum("...kp,...kij->...pij", weights, mats)


def rep_generators(rep: RepChart, cfg: DiffConfig | None = None) -> np.ndarray:
    """Generator stack I of shape (n, m, m): I[k] = d f / d a^k at the identity."""
    return _slot_derivatives(rep, rep.group.identity, cfg or DiffConfig())


def rep_homomorphism_residual(rep: RepChart, b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """f(compose(b, a)) against the product of f(b) and f(a), one value
    per row of the (k, n) stacks b and a."""
    return maxabs_rows(rep(rep.group.compose(b, a)) - rep(b) @ rep(a), a)


def rep_inverse_residual(rep: RepChart, a: np.ndarray, cfg: DiffConfig | None = None
                         ) -> np.ndarray:
    """f at the group inverse against the matrix inverse of f, one value
    per row of the (k, n) stack a."""
    cfg = cfg or DiffConfig()
    return maxabs_rows(rep(inverse(rep.group, a, cfg)) - invert(rep(a)), a)


def rep_pde_residual(rep: RepChart, gens: np.ndarray, a: np.ndarray,
                     cfg: DiffConfig | None = None) -> np.ndarray:
    """Residual of the defining differential equation of the representation,
    compared entry by entry on the slot derivative of f, one value per row
    of the (k, n) stack a."""
    cfg = cfg or DiffConfig()
    # the generator equation: d f / d a^L = sum_k lam_left[k, L] I_k f
    lam_left = invert(psi_flavored(rep.group, a, "left", cfg))
    expected = _combine(lam_left, gens @ rep(a)[:, None])
    return maxabs_rows(_slot_derivatives(rep, a, cfg) - expected, a)


def integrability_check(gens: np.ndarray, constants: StructureConstants) -> float:
    """Generator commutators against the structure constants.

    This is the compatibility condition that makes the defining equation
    solvable; it is pure matrix algebra once the generators are known.
    """
    if constants.flavor != "left":
        raise ValueError("integrability_check expects left-flavor constants")
    n = len(gens)
    prod = gens[:, None] @ gens[None, :]            # prod[k, p] = I_k I_p
    comm = prod.transpose(1, 0, 2, 3) - prod        # comm[p, k] = [I_k, I_p]
    return maxabs(comm - _combine(constants.c.reshape(n, n * n), gens).reshape(comm.shape))


def conjugate_rep(rep: RepChart) -> RepChart:
    """Pointwise matrix inverse, a representation of the opposite group."""
    return RepChart(group=_opposite(rep.group), m=rep.m,
                    f=broadcasting(lambda a: invert(rep(a))), name=f"conjugate({rep.name})")


def tensor_product(r1: RepChart, r2: RepChart) -> RepChart:
    """Kronecker product of two representations of the same chart."""
    if r1.group is not r2.group:
        raise ValueError("tensor_product needs representations of one chart, matching sides")
    return RepChart(group=r1.group, m=r1.m * r2.m, f=broadcasting(lambda a: _kron(r1(a), r2(a))),
                    name=f"tensor({r1.name},{r2.name})")


def _kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.kron of each pair of two broadcasting (..., m, m) stacks, with its bits."""
    out = x[..., :, None, :, None] * y[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (x.shape[-2] * y.shape[-2], x.shape[-1] * y.shape[-1]))


def tensor_generators(g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """Generators of the Kronecker product: I_k x 1 + 1 x J_k."""
    return _kron(g1, np.eye(g2.shape[-1])) + _kron(np.eye(g1.shape[-1]), g2)


def direct_sum(r1: RepChart, r2: RepChart) -> RepChart:
    """Block-diagonal sum of two representations of the same chart."""
    if r1.group is not r2.group:
        raise ValueError("direct_sum needs representations of one chart, matching sides")
    return RepChart(group=r1.group, m=r1.m + r2.m,
                    f=broadcasting(lambda a: direct_sum_generators(r1(a), r2(a))),
                    name=f"sum({r1.name},{r2.name})")


def direct_sum_generators(g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """Generators of the block-diagonal sum, diag(I_k, J_k), and the value of
    `direct_sum`: one block diagonal per pair of two broadcasting (..., m, m) stacks."""
    m1, m = g1.shape[-1], g1.shape[-1] + g2.shape[-1]
    out = np.zeros(np.broadcast_shapes(g1.shape[:-2], g2.shape[:-2]) + (m, m))
    out[..., :m1, :m1] = g1
    out[..., m1:, m1:] = g2
    return out


def mixed_identity_residual(rep: RepChart, gens: np.ndarray, a: np.ndarray,
                            cfg: DiffConfig | None = None) -> np.ndarray:
    """Both inverse-operator weightings of the defining equation agree at
    each row of the (k, n) stack a.

    The slot derivative of f can be written through either the left or
    the right inverse operator; the generator products swap sides
    between the two forms.  Their difference at coordinate L is
    f(a) sum_p lam_right[p, L] G_p, where
    G_p = sum_k Ad[k, p] f(a)^-1 I_k f(a) - I_p, so the row also checks
    that the generators are invariant under the adjoint.
    """
    cfg = cfg or DiffConfig()
    fa = rep(a)[:, None]
    lam_left = invert(psi_flavored(rep.group, a, "left", cfg))
    lam_right = invert(psi_flavored(rep.group, a, "right", cfg))
    return maxabs_rows(_combine(lam_left, gens @ fa) - _combine(lam_right, fa @ gens), a)
