"""Built-in charts and representations with closed-form reference data.

Matrix groups are flattened row-major: matrix entry (k, l) of an n-by-n
matrix lands at coordinate index k*n + l, and `vec(A X B) = kron(A, B.T)
vec(X)` under that flattening.  Every oracle below was derived by hand
from the stated composition law before the numeric code existed; the
test suite treats finite differences of the law as the ground truth and
these formulas as the independent second route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import UnknownEntry
from .group import GroupChart, _opposite
from .numdiff import broadcasting
from .reps import (
    RepChart,
    direct_sum,
    direct_sum_generators,
    tensor_generators,
    tensor_product,
)

MatrixFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class OperatorOracles:
    """Closed forms for the operator fields of a catalog chart."""

    psi_left: MatrixFn
    psi_right: MatrixFn
    lam_left: MatrixFn
    lam_right: MatrixFn
    inverse: Callable[[np.ndarray], np.ndarray]
    generators: np.ndarray          # mixed second derivative of the law at (e, e)
    c_left: np.ndarray              # left-flavor structure constants


GROUP_NAMES = (
    "translation:1",
    "translation:2",
    "translation:3",
    "multiplicative",
    "affine",
    "gl:1",
    "gl:2",
    "gl:3",
)


def _translation(n: int) -> tuple[GroupChart, OperatorOracles]:
    chart = GroupChart(
        n=n,
        compose=broadcasting(lambda a, b: a + b),
        identity=np.zeros(n),
        inverse_hint=broadcasting(lambda a: -a),
        chart_radius=1e9,
        name=f"translation:{n}",
    )
    eye = np.eye(n)
    oracles = OperatorOracles(
        psi_left=lambda a: eye.copy(),
        psi_right=lambda a: eye.copy(),
        lam_left=lambda a: eye.copy(),
        lam_right=lambda a: eye.copy(),
        inverse=lambda a: -a,
        generators=np.zeros((n, n, n)),
        c_left=np.zeros((n, n, n)),
    )
    return chart, oracles


def _multiplicative() -> tuple[GroupChart, OperatorOracles]:
    chart = GroupChart(
        n=1,
        compose=broadcasting(lambda a, b: a * b),
        identity=np.ones(1),
        inverse_hint=broadcasting(lambda a: 1.0 / a),
        chart_radius=2.5,
        name="multiplicative",
    )
    oracles = OperatorOracles(
        psi_left=lambda a: np.array([[a[0]]]),
        psi_right=lambda a: np.array([[a[0]]]),
        lam_left=lambda a: np.array([[1.0 / a[0]]]),
        lam_right=lambda a: np.array([[1.0 / a[0]]]),
        inverse=lambda a: 1.0 / a,
        generators=np.ones((1, 1, 1)),
        c_left=np.zeros((1, 1, 1)),
    )
    return chart, oracles


@broadcasting
def _affine_compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # x -> a1*x + a2 composed with x -> b1*x + b2, outer map applied last
    out = a[..., :1] * b
    out[..., 1] += a[..., 1]
    return out


@broadcasting
def _affine_inverse(a: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    out[..., 0] = 1.0 / a[..., 0]
    out[..., 1] = -a[..., 1] / a[..., 0]
    return out


def _affine() -> tuple[GroupChart, OperatorOracles]:
    chart = GroupChart(
        n=2,
        compose=_affine_compose,
        identity=np.array([1.0, 0.0]),
        inverse_hint=_affine_inverse,
        chart_radius=0.8,
        name="affine",
    )
    gens = np.zeros((2, 2, 2))
    gens[0, 0, 0] = 1.0      # d2(a1*b1)/da1 db1
    gens[1, 0, 1] = 1.0      # d2(a1*b2 + a2)/da1 db2
    c_left = np.zeros((2, 2, 2))
    c_left[1, 0, 1] = -1.0
    c_left[1, 1, 0] = 1.0
    oracles = OperatorOracles(
        psi_left=lambda a: np.array([[a[0], 0.0], [a[1], 1.0]]),
        psi_right=lambda a: np.array([[a[0], 0.0], [0.0, a[0]]]),
        lam_left=lambda a: np.array([[1.0 / a[0], 0.0], [-a[1] / a[0], 1.0]]),
        lam_right=lambda a: np.array([[1.0 / a[0], 0.0], [0.0, 1.0 / a[0]]]),
        inverse=lambda a: np.array([1.0 / a[0], -a[1] / a[0]]),
        generators=gens,
        c_left=c_left,
    )
    return chart, oracles


def _gl_generators(n: int) -> np.ndarray:
    # d2 (a b)^(k,l) / d a^(i,j) d b^(m,p) = delta(k,i) delta(j,m) delta(p,l)
    d = n * n
    gens = np.zeros((d, d, d))
    for k in range(n):
        for l in range(n):
            for j in range(n):
                gens[k * n + l, k * n + j, j * n + l] = 1.0
    return gens


def _gl_c_left(n: int) -> np.ndarray:
    gens = _gl_generators(n)
    return np.transpose(gens, (0, 2, 1)) - gens


def _gl(n: int) -> tuple[GroupChart, OperatorOracles]:
    eye = np.eye(n)

    @broadcasting
    def compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ab = a.reshape(a.shape[:-1] + (n, n)) @ b.reshape(b.shape[:-1] + (n, n))
        return ab.reshape(ab.shape[:-2] + (n * n,))

    chart = GroupChart(
        n=n * n,
        compose=compose,
        identity=eye.ravel().copy(),
        inverse_hint=broadcasting(
            lambda a: np.linalg.inv(a.reshape(a.shape[:-1] + (n, n))).reshape(a.shape)),
        chart_radius=5.0,
        name=f"gl:{n}",
    )
    oracles = OperatorOracles(
        psi_left=lambda a: np.kron(eye, a.reshape(n, n).T),
        psi_right=lambda a: np.kron(a.reshape(n, n), eye),
        lam_left=lambda a: np.kron(eye, np.linalg.inv(a.reshape(n, n)).T),
        lam_right=lambda a: np.kron(np.linalg.inv(a.reshape(n, n)), eye),
        inverse=lambda a: np.linalg.inv(a.reshape(n, n)).ravel(),
        generators=_gl_generators(n),
        c_left=_gl_c_left(n),
    )
    return chart, oracles


def _dimension(name: str, top: int) -> int:
    """The n of a name `kind:n`, from 1 to top and written as str(n) writes it."""
    text = name.split(":", 1)[1]
    # int() reads every decimal text, and only the plain spelling reads back
    if not (text.isdecimal() and str(int(text)) == text and 1 <= int(text) <= top):
        raise UnknownEntry(f"{name!r} needs a dimension n = 1..{top}, written as plain digits")
    return int(text)


@lru_cache(maxsize=None)
def _entry(name: str) -> tuple[GroupChart, OperatorOracles]:
    if name.startswith("translation:"):
        return _translation(_dimension(name, 16))
    if name == "multiplicative":
        return _multiplicative()
    if name == "affine":
        return _affine()
    if name.startswith("gl:"):
        return _gl(_dimension(name, 3))
    raise UnknownEntry(f"unknown group {name!r}")


def get_group(name: str) -> GroupChart:
    return _entry(name)[0]


def get_oracles(name: str) -> OperatorOracles:
    return _entry(name)[1]


# --- representations -------------------------------------------------------


def _base_rep(group_name: str, rep_name: str) -> tuple[RepChart, np.ndarray]:
    """A catalog representation, from its map and group, and its hand-derived generators."""
    chart = get_group(group_name)
    n = math.isqrt(chart.n)
    # E_kl, the generator of coordinate k*n + l of gl:n, is that row of the identity
    units = np.eye(n * n).reshape(n * n, n, n)
    reps = {"trivial": (lambda a: np.ones(a.shape[:-1] + (1, 1)), chart,
                        np.zeros((chart.n, 1, 1)))}
    if group_name.startswith("gl:"):
        reps["standard"] = lambda a: a.reshape(a.shape[:-1] + (n, n)).copy(), chart, units
        # u -> u a^-1 on row vectors reverses every product: one of the opposite group
        reps["conjugate"] = (lambda a: np.linalg.inv(a.reshape(a.shape[:-1] + (n, n))),
                             _opposite(chart), -units)
    if group_name == "affine":
        reps["matrix"] = _affine_matrix, chart, np.eye(4)[:2].reshape(2, 2, 2)
    if rep_name not in reps:
        raise UnknownEntry(f"group {group_name!r} has no representation {rep_name!r}")
    f, group, gens = reps[rep_name]
    rep = RepChart(group=group, m=gens.shape[-1], f=broadcasting(f), name=rep_name)
    return rep, gens


def _affine_matrix(a: np.ndarray) -> np.ndarray:
    out = np.zeros(a.shape[:-1] + (2, 2))
    out[..., 0, :] = a
    out[..., 1, 1] = 1.0
    return out


_COMPOSITES = {"tensor": (tensor_product, tensor_generators),
               "sum": (direct_sum, direct_sum_generators)}


def _lookup(group_name: str, rep_name: str) -> tuple[RepChart, np.ndarray]:
    """A representation and its hand-derived generator stack, composites built recursively."""
    kind, colon, halves = rep_name.partition(":")
    if not colon or kind not in _COMPOSITES:
        return _base_rep(group_name, rep_name)
    # split on the first comma only, so the right half may itself be a composite
    parts = [part.strip() for part in halves.split(",", 1)]
    if len(parts) != 2 or not all(parts):
        raise UnknownEntry(f"{kind} takes two comma-separated names, got {rep_name!r}")
    (r1, g1), (r2, g2) = (_lookup(group_name, part) for part in parts)
    combine, combine_generators = _COMPOSITES[kind]
    try:
        return combine(r1, r2), combine_generators(g1, g2)
    except ValueError as exc:  # e.g. a half of the chart and one of its opposite
        raise UnknownEntry(f"group {group_name!r} has no representation "
                           f"{rep_name!r}: {exc}") from None


def get_rep(group_name: str, rep_name: str) -> RepChart:
    """Look up a representation, assembling tensor/sum composites on demand."""
    return _lookup(group_name, rep_name)[0]


def rep_generator_oracle(group_name: str, rep_name: str) -> np.ndarray:
    """Hand-derived generator stack of shape (n, m, m), composites included."""
    return _lookup(group_name, rep_name)[1]
