"""Linear representations of a chart group and their generator identities.

A representation is a smooth matrix-valued map f on the chart.  Two
compositions are supported: `side="left"` means f(compose(b, a)) =
f(b) f(a); `side="right"` reverses the matrix product.  The reversed
kind shows up naturally when a representation acts on row vectors, and
every identity below carries a side dispatch because conjugating the
matrices transposes the order of every product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .group import (
    GroupChart,
    basic_operators,
    check_rng,
    inverse,
    maxabs,
    psi_flavored,
    sample_points,
    worst_of,
    worst_over_samples,
)
from .numdiff import DiffConfig, as_finite_array, invert, jacobian
from .structure import StructureConstants


@dataclass(eq=False)
class RepChart:
    """Matrix representation attached to a group chart."""

    group: GroupChart
    m: int
    f: Callable[[np.ndarray], np.ndarray]
    side: str = "left"
    name: str = "rep"

    def __post_init__(self) -> None:
        if self.side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {self.side!r}")
        if self.m < 1:
            raise ValueError("representation dimension must be positive")

    def __call__(self, a) -> np.ndarray:
        out = as_finite_array(self.f(np.asarray(a, float)), "representation value")
        if out.shape != (self.m, self.m):
            raise ValueError(f"representation returned shape {out.shape}, "
                             f"expected {(self.m, self.m)}")
        return out

    def product(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """x @ y on the left side, y @ x on the reversed side."""
        return x @ y if self.side == "left" else y @ x


def rep_generators(rep: RepChart, cfg: DiffConfig | None = None) -> list[np.ndarray]:
    """Generator matrices: slot derivatives of f at the identity."""
    cfg = cfg or DiffConfig()
    d = jacobian(lambda a: rep(a).ravel(), rep.group.identity, cfg)
    return [d[:, col].reshape(rep.m, rep.m) for col in range(rep.group.n)]


def rep_axiom_residuals(rep: RepChart, cfg: DiffConfig | None = None
                        ) -> dict[str, float]:
    """Identity, homomorphism and inverse residuals at sampled points."""
    cfg = cfg or DiffConfig()
    chart = rep.group
    out: dict[str, float] = {}
    out["rep_identity"] = maxabs(rep(chart.identity) - np.eye(rep.m))

    def homomorphism(b: np.ndarray, a: np.ndarray) -> float:
        fa, fb = rep(a), rep(b)
        return maxabs(rep(chart.compose(b, a)) - rep.product(fb, fa))

    out["rep_homomorphism"] = worst_over_samples(chart, cfg, "rep_homomorphism",
                                                 homomorphism, arity=2)
    out["rep_inverse"] = worst_over_samples(
        chart, cfg, "rep_inverse",
        lambda a: maxabs(rep(inverse(chart, a, cfg)) - invert(rep(a))))
    return out


def _pde_expected(rep: RepChart, fa: np.ndarray, gens: list[np.ndarray],
                  lam_left: np.ndarray) -> np.ndarray:
    """Stack of d f / d a^L predicted by the generator equation."""
    n = rep.group.n
    out = np.empty((rep.m, rep.m, n))
    for col in range(n):
        acc = np.zeros((rep.m, rep.m))
        for k in range(n):
            acc += lam_left[k, col] * rep.product(gens[k], fa)
        out[:, :, col] = acc
    return out


def rep_pde_residual(rep: RepChart, cfg: DiffConfig | None = None,
                     gens: list[np.ndarray] | None = None) -> dict[str, float]:
    """Residual of the defining differential equation of the representation.

    Map form compares every entry of the slot derivative of f; vector
    form contracts with a random test vector first, which is the shape
    the equation takes when acting on a represented vector.
    """
    cfg = cfg or DiffConfig()
    chart = rep.group
    if gens is None:
        gens = rep_generators(rep, cfg)
    rng = check_rng(cfg, "rep_pde")
    pts = sample_points(chart, cfg, rng, cfg.sample_count)
    vec = rng.uniform(-1.0, 1.0, rep.m)
    map_res = []
    vec_res = []
    for a in pts:
        fa = rep(a)
        lam_left = invert(psi_flavored(chart, a, "left", cfg))
        d = jacobian(lambda x: rep(x).ravel(), a, cfg).reshape(rep.m, rep.m, chart.n)
        expected = _pde_expected(rep, fa, gens, lam_left)
        map_res.append(maxabs(d - expected))
        dv = jacobian(lambda x: rep.product(rep(x), vec), a, cfg)
        ev = np.stack([rep.product(expected[:, :, c], vec) for c in range(chart.n)], axis=1)
        vec_res.append(maxabs(dv - ev))
    return {"rep_pde_map": worst_of(map_res), "rep_pde_vector": worst_of(vec_res)}


def integrability_check(gens: list[np.ndarray], constants: StructureConstants,
                        side: str = "left") -> float:
    """Generator commutators against the structure constants.

    This is the compatibility condition that makes the defining equation
    solvable; it is pure matrix algebra once the generators are known.
    The reversed side swaps the lower index order of the constants.
    """
    if constants.flavor != "left":
        raise ValueError("integrability_check expects left-flavor constants")
    c = constants.c
    n = len(gens)

    def residual(k: int, p: int) -> float:
        comm = gens[k] @ gens[p] - gens[p] @ gens[k]
        weights = c[:, p, k] if side == "left" else c[:, k, p]
        return maxabs(comm - sum(weights[t] * gens[t] for t in range(n)))

    return worst_of(residual(k, p) for k in range(n) for p in range(n))


def conjugate_rep(rep: RepChart) -> RepChart:
    """Pointwise matrix inverse, acting on the dual side."""
    other = "right" if rep.side == "left" else "left"
    return RepChart(group=rep.group, m=rep.m,
                    f=lambda a: invert(rep(a)),
                    side=other, name=f"conjugate({rep.name})")


def conjugate_generators_check(rep: RepChart, cfg: DiffConfig | None = None) -> float:
    """Generators of the conjugate are the negatives of the originals."""
    cfg = cfg or DiffConfig()
    g1 = rep_generators(rep, cfg)
    g2 = rep_generators(conjugate_rep(rep), cfg)
    return worst_of(maxabs(a + b) for a, b in zip(g1, g2))


def conjugate_pairing_residual(rep: RepChart, cfg: DiffConfig | None = None) -> float:
    """A row vector moved by the conjugate pairs invariantly with a column."""
    cfg = cfg or DiffConfig()
    chart = rep.group
    conj = conjugate_rep(rep)
    rng = check_rng(cfg, "conjugate_pairing")
    pts = sample_points(chart, cfg, rng, cfg.sample_count)
    u = rng.uniform(-1.0, 1.0, rep.m)
    v = rng.uniform(-1.0, 1.0, rep.m)
    base = float(u @ v)
    return worst_of(abs(float((u @ conj(a)) @ (rep(a) @ v)) - base) for a in pts)


def conjugate_involution_residual(rep: RepChart, cfg: DiffConfig | None = None) -> float:
    """Conjugating twice returns the original representation."""
    cfg = cfg or DiffConfig()
    twice = conjugate_rep(conjugate_rep(rep))
    return worst_over_samples(rep.group, cfg, "conjugate_involution",
                              lambda a: maxabs(twice(a) - rep(a)))


def tensor_product(r1: RepChart, r2: RepChart) -> RepChart:
    """Kronecker product of two representations of the same chart."""
    if r1.group is not r2.group:
        raise ValueError("tensor_product needs representations of one chart")
    if r1.side != r2.side:
        raise ValueError("tensor_product needs matching sides")
    return RepChart(group=r1.group, m=r1.m * r2.m,
                    f=lambda a: np.kron(r1(a), r2(a)), side=r1.side,
                    name=f"tensor({r1.name},{r2.name})")


def tensor_generators(g1: list[np.ndarray], g2: list[np.ndarray]) -> list[np.ndarray]:
    m1 = g1[0].shape[0]
    m2 = g2[0].shape[0]
    return [np.kron(a, np.eye(m2)) + np.kron(np.eye(m1), b) for a, b in zip(g1, g2)]


def direct_sum(r1: RepChart, r2: RepChart) -> RepChart:
    """Block-diagonal sum of two representations of the same chart."""
    if r1.group is not r2.group:
        raise ValueError("direct_sum needs representations of one chart")
    if r1.side != r2.side:
        raise ValueError("direct_sum needs matching sides")
    m = r1.m + r2.m

    def f(a: np.ndarray) -> np.ndarray:
        out = np.zeros((m, m))
        out[:r1.m, :r1.m] = r1(a)
        out[r1.m:, r1.m:] = r2(a)
        return out

    return RepChart(group=r1.group, m=m, f=f, side=r1.side,
                    name=f"sum({r1.name},{r2.name})")


def direct_sum_generators(g1: list[np.ndarray], g2: list[np.ndarray]) -> list[np.ndarray]:
    out = []
    for a, b in zip(g1, g2):
        m1 = a.shape[0]
        m2 = b.shape[0]
        block = np.zeros((m1 + m2, m1 + m2))
        block[:m1, :m1] = a
        block[m1:, m1:] = b
        out.append(block)
    return out


def generator_transform(rep: RepChart, g, cfg: DiffConfig | None = None,
                        gens: list[np.ndarray] | None = None) -> list[np.ndarray]:
    """Generators conjugated by f(g) and reweighted by the adjoint matrix.

    The point g enters twice: through the matrix conjugation and through
    the adjoint weight built from the basic operators.  The two effects
    cancel, so the transformed generators must equal the originals at
    every g; on the reversed side the conjugation order flips too.
    """
    cfg = cfg or DiffConfig()
    chart = rep.group
    if gens is None:
        gens = rep_generators(rep, cfg)
    g = np.asarray(g, float)
    ops = basic_operators(chart, g, cfg)
    adjoint = ops.left_inv @ ops.right
    fg = rep(g)
    fg_inv = invert(fg)
    if rep.side == "left":
        conj = [fg_inv @ gen @ fg for gen in gens]
    else:
        conj = [fg @ gen @ fg_inv for gen in gens]
    out = []
    for p in range(chart.n):
        acc = np.zeros((rep.m, rep.m))
        for k in range(chart.n):
            acc += adjoint[k, p] * conj[k]
        out.append(acc)
    return out


def generator_transform_residual(rep: RepChart, cfg: DiffConfig | None = None,
                                 points: int = 5) -> float:
    """Constancy of the transformed generators across sampled points."""
    cfg = cfg or DiffConfig()
    gens = rep_generators(rep, cfg)
    return worst_over_samples(
        rep.group, cfg, "generator_transform",
        lambda g: worst_of(maxabs(a - b)
                           for a, b in zip(generator_transform(rep, g, cfg, gens), gens)),
        count=points)


def mixed_identity_residual(rep: RepChart, cfg: DiffConfig | None = None,
                            gens: list[np.ndarray] | None = None) -> float:
    """Both inverse-operator weightings of the defining equation agree.

    The slot derivative of f can be written through either the left or
    the right inverse operator; the generator products swap sides
    between the two forms.
    """
    cfg = cfg or DiffConfig()
    chart = rep.group
    if gens is None:
        gens = rep_generators(rep, cfg)

    def residual(a: np.ndarray) -> float:
        fa = rep(a)
        ops = basic_operators(chart, a, cfg)
        residuals = []
        for col in range(chart.n):
            left_form = np.zeros((rep.m, rep.m))
            right_form = np.zeros((rep.m, rep.m))
            for k in range(chart.n):
                left_form += ops.left_inv[k, col] * rep.product(gens[k], fa)
                right_form += ops.right_inv[k, col] * rep.product(fa, gens[k])
            residuals.append(maxabs(left_form - right_form))
        return worst_of(residuals)

    return worst_over_samples(chart, cfg, "rep_mixed_identity", residual)
