from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from conftest import counted_calls
from liechart.catalog import GROUP_NAMES, get_group
from liechart.errors import NonFiniteEvaluation, SingularMatrix
from liechart.group import GroupChart, check_rng, inverse, psi_flavored
from liechart.numdiff import (
    CBRT_EPS,
    QUART_EPS,
    DiffConfig,
    _steps,
    as_finite_array,
    broadcasting,
    direction_step,
    invert,
    jacobian,
    mixed_second,
    numeric_rank,
    rowwise,
    vf_commutator,
)
from liechart.pde import FunctionFamily, PDESystem
from liechart.reps import RepChart

CFG = DiffConfig()


# --- reference forms: the stencils one probe point at a time ----------------


def jacobian_by_columns(f, at, cfg=CFG):
    """Central differences column by column, f called on single points."""
    x = np.asarray(at, dtype=float)
    h = _steps(x, cfg.base_step)
    cols = []
    for j in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h[j]
        xm[j] -= h[j]
        fp = np.asarray(f(xp), dtype=float).ravel()
        fm = np.asarray(f(xm), dtype=float).ravel()
        cols.append((fp - fm) / (2.0 * h[j]))
    return np.column_stack(cols)


def mixed_second_by_entries(f, at, cfg=CFG):
    """The four-point product stencil entry by entry, f called on single points."""
    a = np.asarray(at[0], dtype=float)
    b = np.asarray(at[1], dtype=float)
    base = max(cfg.base_step, QUART_EPS)
    ha = _steps(a, base)
    hb = _steps(b, base)
    p = a.size
    out = np.empty((np.asarray(f(a, b)).size, p, p))
    for L in range(p):
        ap = a.copy()
        am = a.copy()
        ap[L] += ha[L]
        am[L] -= ha[L]
        for M in range(p):
            bp = b.copy()
            bm = b.copy()
            bp[M] += hb[M]
            bm[M] -= hb[M]
            fpp = np.asarray(f(ap, bp), dtype=float).ravel()
            fpm = np.asarray(f(ap, bm), dtype=float).ravel()
            fmp = np.asarray(f(am, bp), dtype=float).ravel()
            fmm = np.asarray(f(am, bm), dtype=float).ravel()
            out[:, L, M] = (fpp - fpm - fmp + fmm) / (4.0 * ha[L] * hb[M])
    return out


def test_config_defaults():
    assert [f.name for f in fields(DiffConfig)] == ["base_step", "sample_count", "rng_seed"]
    assert CFG.base_step == pytest.approx(CBRT_EPS)
    assert CFG.rng_seed == 42


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        DiffConfig(base_step=0.0)
    with pytest.raises(ValueError):
        DiffConfig(base_step=1.0)
    with pytest.raises(ValueError):
        DiffConfig(sample_count=0)


@pytest.mark.parametrize("count", [2.5, 20.0, True, "20", None])
def test_config_rejects_a_sample_count_that_is_not_an_integer(count):
    # 2.5 used to die later in the sampler with numpy's TypeError, and True ran as 1
    with pytest.raises(ValueError, match="sample_count must be an integer"):
        DiffConfig(sample_count=count)
    assert DiffConfig(sample_count=np.int64(3)).sample_count == 3


@pytest.mark.parametrize("seed", [1.5, "7", True, None])
def test_config_rejects_a_seed_that_is_not_an_integer(seed):
    # 1.5 used to die at the first draw with numpy's TypeError, and True ran as seed 1
    with pytest.raises(ValueError, match="rng_seed must be an integer"):
        DiffConfig(rng_seed=seed)


def test_config_keeps_a_seed_of_any_sign_as_a_python_int():
    assert DiffConfig(rng_seed=-7).rng_seed == -7
    seed = DiffConfig(rng_seed=np.int64(7)).rng_seed
    assert type(seed) is int and seed == 7
    # a numpy seed once overflowed in check_rng's reduction mod 2**63
    assert (check_rng(DiffConfig(rng_seed=np.int64(7)), "x").uniform()
            == check_rng(DiffConfig(rng_seed=7), "x").uniform())


def test_config_replace_returns_modified_copy():
    other = replace(CFG, sample_count=7)
    assert other.sample_count == 7
    assert CFG.sample_count == 20
    assert other.base_step == CFG.base_step
    # the copy is validated as a new config is
    with pytest.raises(ValueError):
        replace(CFG, sample_count=0)


def test_as_finite_array_passes_and_raises():
    out = as_finite_array([1.0, 2.0], "ok")
    assert out.dtype == float
    with pytest.raises(NonFiniteEvaluation):
        as_finite_array([1.0, np.nan], "bad")
    with pytest.raises(NonFiniteEvaluation):
        as_finite_array([np.inf], "bad")


def test_jacobian_linear_map_is_exact_to_roundoff():
    m = np.array([[2.0, -1.0], [0.5, 3.0], [1.0, 1.0]])
    jac = jacobian(rowwise(lambda x: m @ x), np.array([0.3, -0.7]), CFG)
    assert jac.shape == (3, 2)
    assert np.max(np.abs(jac - m)) < 1e-9


def test_jacobian_quadratic_scalar():
    jac = jacobian(rowwise(lambda x: np.array([x[0] ** 2])), np.array([1.5]), CFG)
    assert jac[0, 0] == pytest.approx(3.0, abs=1e-8)


def test_jacobian_rejects_nonfinite_probe():
    def f(x):
        with np.errstate(invalid="ignore"):
            return np.array([np.sqrt(x[0])])

    with pytest.raises(NonFiniteEvaluation):
        jacobian(rowwise(f), np.array([-1.0]), CFG)


@pytest.mark.parametrize("at", [np.zeros(3), np.array([1.0, 0.0, 0.0]), np.array([0.5, -4.0, 2.0])])
@pytest.mark.parametrize("direction", [np.array([0.3, -0.1, 0.05]), np.array([0.0, 2.0, -7.5])])
def test_direction_step_takes_the_widest_stencil_step_along_the_direction(at, direction):
    tau = direction_step(at, direction, CFG)
    assert tau * np.max(np.abs(direction)) == pytest.approx(np.max(_steps(at, CFG.base_step)),
                                                            rel=1e-15)


@pytest.mark.parametrize("direction", [np.zeros(2), np.array([5e-324, 0.0])],
                         ids=["zero", "subnormal"])
def test_direction_step_of_a_vanishing_direction_is_the_widest_step(direction):
    # a step of widest / |direction| would divide by zero or overflow
    at = np.array([2.0, -0.5])
    assert direction_step(at, direction, CFG) == 2.0 * CFG.base_step
    assert np.array_equal(at + direction_step(at, direction, CFG) * direction, at)


def test_mixed_second_scalar_product():
    t = mixed_second(rowwise(lambda a, b: np.array([a[0] * b[0]])),
                     (np.array([1.0]), np.array([1.0])), CFG)
    assert t.shape == (1, 1, 1)
    assert t[0, 0, 0] == pytest.approx(1.0, abs=1e-6)


def _product(a, b):
    return np.array([a[0] * b[0]])


def test_stencils_reject_a_map_that_drops_the_leading_axes():
    # a map of single points handed a stencil stack indexes the wrong axis
    # and returns a wrongly shaped array, which must not pass for a result
    at = (np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError, match="rowwise"):
        mixed_second(_product, at, CFG)
    with pytest.raises(ValueError, match="rowwise"):
        jacobian(lambda x: np.array([x[0] ** 2]), np.array([1.5]), CFG)
    with pytest.raises(ValueError, match="rowwise"):
        jacobian(lambda x: np.sum(x, axis=-1), np.array([1.5, 2.0]), CFG)


def test_rowwise_lift_gives_the_point_by_point_value():
    at = (np.array([1.0]), np.array([1.0]))
    assert np.array_equal(mixed_second(rowwise(_product), at, CFG),
                          mixed_second_by_entries(_product, at))
    x = np.array([0.4, -1.3])
    sq = lambda v: np.array([v[0] ** 2, v[0] * v[1], np.sin(v[1])])  # noqa: E731
    assert np.array_equal(jacobian(rowwise(sq), x, CFG), jacobian_by_columns(sq, x))


def test_broadcasting_marks_a_map_in_place():
    def law(a, b):
        return a + b

    assert broadcasting(law) is law and law.broadcasts is True
    assert not hasattr(law, "__wrapped__")
    assert rowwise(law) is law


def test_rowwise_broadcasts_leading_axes_and_keeps_row_values():
    law = rowwise(lambda a, b: np.array([a[0] * b[0], a[0] * b[1] + a[1]]))
    assert law.broadcasts is True
    assert not hasattr(law, "__wrapped__")
    assert rowwise(law) is law      # a marked map is returned as it is
    a = np.random.default_rng(5).uniform(-1.0, 1.0, (3, 1, 2))
    b = np.random.default_rng(6).uniform(-1.0, 1.0, (4, 2))
    out = law(a, b)
    assert out.shape == (3, 4, 2)
    for i, j in np.ndindex(3, 4):
        assert np.array_equal(out[i, j], law(a[i, 0], b[j]))
    # residuals: one scalar per row
    assert rowwise(lambda p: float(p.sum()))(np.ones((5, 2))).shape == (5,)


def test_rowwise_on_a_stack_with_no_rows_makes_no_call():
    def law(a, b):
        raise AssertionError("called on a stack with no rows")

    lifted = rowwise(law)
    assert lifted(np.empty((0, 2)), np.empty((0, 2))).shape == (0,)
    assert lifted(np.empty((3, 0, 2)), np.ones(2)).shape == (3, 0)
    assert rowwise(law, (2,))(np.empty((0, 2)), np.ones(2)).shape == (0, 2)
    assert rowwise(law, (2,))(np.empty((0, 2)), np.empty((0, 2))).shape == (0, 2)


def _never(*args):
    raise AssertionError("called on a stack with no rows")


def test_each_holder_gives_a_stack_with_no_rows_its_row_shape():
    # a point map that its holder lifts, on a (0, n) stack, makes no call
    # and gives the shape of its broadcasting twin
    empty = np.empty((0, 2))
    ax_b = GroupChart(n=2, compose=_never, identity=np.array([1.0, 0.0]), inverse_hint=_never)
    twin = get_group("affine")
    for flavor in ("left", "right"):
        assert psi_flavored(ax_b, empty, flavor, CFG).shape \
            == psi_flavored(twin, empty, flavor, CFG).shape == (0, 2, 2)
    assert inverse(ax_b, empty, CFG).shape == inverse(twin, empty, CFG).shape == (0, 2)

    zeros = broadcasting(lambda a: np.zeros(a.shape[:-1] + (3, 3)))
    assert RepChart(group=ax_b, m=3, f=_never)(empty).shape \
        == RepChart(group=twin, m=3, f=zeros)(empty).shape == (0, 3, 3)

    boxes = {"theta_box": np.zeros((1, 2)), "x_box": np.zeros((2, 2))}
    psi = broadcasting(lambda th, x: np.zeros(np.broadcast_shapes(th.shape[:-1], x.shape[:-1])
                                              + (1, 2)))
    theta = np.empty((0, 1))
    assert PDESystem(psi=_never, **boxes).rhs(theta, empty).shape \
        == PDESystem(psi=psi, **boxes).rhs(theta, empty).shape == (0, 1, 2)

    f = broadcasting(lambda x, a: x[..., :1] * a[..., :1])
    family = {"n_out": 1, "a0": np.ones(2), "x_box": np.zeros((1, 2))}
    assert FunctionFamily(f=_never, **family).value(theta, empty).shape \
        == FunctionFamily(f=f, **family).value(theta, empty).shape == (0, 1)


def test_mixed_second_affine_law():
    # compose((a1,a2),(b1,b2)) = (a1 b1, a1 b2 + a2); at the identity (1,0)
    # the only nonzero mixed partials are d2/da1 db1 of the first output and
    # d2/da1 db2 of the second, both equal to 1.
    def law(a, b):
        return np.array([a[0] * b[0], a[0] * b[1] + a[1]])

    e = np.array([1.0, 0.0])
    t = mixed_second(rowwise(law), (e, e), CFG)
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = 1.0
    expected[1, 0, 1] = 1.0
    assert np.max(np.abs(t - expected)) < 1e-6


def test_mixed_second_orders_axes_first_then_second():
    # f(a, b) = a0 * b1 has d2f/da0 db1 = 1 and every other entry zero,
    # pinning T[output][first][second] axis order.
    def f(a, b):
        return np.array([a[0] * b[1]])

    t = mixed_second(rowwise(f), (np.zeros(2), np.zeros(2)), CFG)
    assert t.shape == (1, 2, 2)
    assert t[0, 0, 1] == pytest.approx(1.0, abs=1e-6)
    assert abs(t[0, 1, 0]) < 1e-6


def _field(x):
    # a broadcasting map R^3 -> R^2 with different curvature per entry
    return np.stack([x[..., 0] * x[..., 1] ** 2, np.sin(x[..., 2]) + x[..., 0] ** 3], axis=-1)


def test_batched_jacobian_of_a_stack_matches_per_point():
    pts = np.random.default_rng(3).uniform(-2.0, 2.0, (2, 5, 3))
    got = jacobian(_field, pts, CFG)
    assert got.shape == (2, 5, 2, 3)
    for idx in np.ndindex(2, 5):
        assert np.array_equal(got[idx], jacobian(_field, pts[idx], CFG))
        assert np.array_equal(got[idx], jacobian_by_columns(_field, pts[idx]))
    assert got.flags.c_contiguous


def test_batched_jacobian_rejects_nonfinite_probe():
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteEvaluation):
            jacobian(np.sqrt, np.array([[1.0], [-1.0]]), CFG)


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_batched_mixed_second_matches_per_point(name):
    # the one kernel against the entry-by-entry loop, on the catalog law as
    # it broadcasts and on a lifted copy that sees single points only
    law = get_group(name).compose
    e = get_group(name).identity
    rng = np.random.default_rng(11)
    a, b = e + rng.uniform(-0.2, 0.2, (2, e.size))
    for at in ((e, e), (a, e), (e, b), (a, b)):
        want = mixed_second_by_entries(law, at)
        for f in (law, rowwise(law)):
            got = mixed_second(f, at, CFG)
            assert np.array_equal(got, want)
            assert got.flags.c_contiguous


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_slot_jacobians_match_the_column_loop(name):
    law = get_group(name).compose
    e = get_group(name).identity
    rng = np.random.default_rng(12)
    a, b = e + rng.uniform(-0.2, 0.2, (2, e.size))
    for f in (law, rowwise(law)):
        assert np.array_equal(jacobian(lambda x: f(x, b), a, CFG),
                              jacobian_by_columns(lambda x: law(x, b), a))
        assert np.array_equal(jacobian(lambda y: f(a, y), b, CFG),
                              jacobian_by_columns(lambda y: law(a, y), b))


def test_vf_commutator_linear_fields():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[1.0, 0.0], [0.0, -1.0]])
    x = np.array([0.4, 0.9])
    # For fields Ax and Bx the bracket field is (BA - AB) x.
    expected = (b @ a - a @ b) @ x
    got = vf_commutator(lambda p: a @ p, lambda p: b @ p, x, CFG)
    assert np.max(np.abs(got - expected)) < 1e-7


def test_vf_commutator_constant_fields_vanish():
    got = vf_commutator(lambda p: np.array([1.0, 2.0]),
                        lambda p: np.array([-3.0, 0.5]),
                        np.array([0.1, 0.2]), CFG)
    assert np.max(np.abs(got)) < 1e-9


@given(st.lists(st.integers(-3, 3), min_size=8, max_size=8))
def test_vf_commutator_antisymmetry(entries):
    a = np.array(entries[:4], dtype=float).reshape(2, 2)
    b = np.array(entries[4:], dtype=float).reshape(2, 2)
    x = np.array([0.3, -0.2])
    fwd = vf_commutator(lambda p: a @ p, lambda p: b @ p, x, CFG)
    rev = vf_commutator(lambda p: b @ p, lambda p: a @ p, x, CFG)
    assert np.max(np.abs(fwd + rev)) < 1e-6


def test_numeric_rank_examples():
    assert numeric_rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1
    assert numeric_rank(np.eye(3)) == 3
    assert numeric_rank(np.zeros((2, 3))) == 0


@given(st.lists(st.integers(-4, 4), min_size=6, max_size=6),
       st.sampled_from([0.5, 2.0, 10.0]))
def test_numeric_rank_scale_and_permutation_invariant(entries, scale):
    m = np.array(entries, dtype=float).reshape(2, 3)
    r = numeric_rank(m)
    assert numeric_rank(scale * m) == r
    assert numeric_rank(m[::-1]) == r


def test_invert_shear():
    out = invert(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert np.max(np.abs(out - np.array([[1.0, -1.0], [0.0, 1.0]]))) < 1e-12


def test_invert_singular_raises():
    with pytest.raises(SingularMatrix):
        invert(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularMatrix):
        invert(np.zeros((2, 2)))


def _invert_via_lu_wrappers(m):
    # reference: scipy's wrappers around LAPACK getrf/getrs, the routines
    # np.linalg.inv runs too, but from scipy's own LAPACK build
    lu, piv = scipy.linalg.lu_factor(m, check_finite=False)
    return scipy.linalg.lu_solve((lu, piv), np.eye(m.shape[0]), check_finite=False)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 9])
def test_invert_matches_lu_wrappers_bit_for_bit(n):
    # numpy's and scipy's LAPACK builds agree to the bit up to n = 5 and
    # may differ in the last bit above that
    rng = np.random.default_rng(n)
    for _ in range(20):
        m = rng.uniform(-1.0, 1.0, (n, n)) + n * np.eye(n)
        before = m.copy()
        got, ref = invert(m), _invert_via_lu_wrappers(m)
        if n <= 5:
            assert np.array_equal(got, ref)
        else:
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
        assert np.array_equal(m, before)


@pytest.mark.parametrize("n", [1, 2, 3, 9])
def test_invert_stack_matches_single_solves_bit_for_bit(n):
    rng = np.random.default_rng(n)
    c_order = rng.uniform(-1.0, 1.0, (2, 5, n, n)) + n * np.eye(n)
    # one LAPACK call gives each matrix the bits of its own solve in any
    # layout: C order, Fortran order and a transposed view
    for stack in (c_order, np.asfortranarray(c_order), c_order.swapaxes(-1, -2)):
        out = invert(stack)
        assert out.shape == stack.shape
        for idx in np.ndindex(2, 5):
            single = np.ascontiguousarray(stack[idx])
            assert np.array_equal(out[idx], invert(single))
            if n <= 5:
                assert np.array_equal(out[idx], _invert_via_lu_wrappers(single))


def test_invert_makes_one_lapack_call_per_stack(monkeypatch):
    calls = counted_calls(monkeypatch, np.linalg, "inv")
    rng = np.random.default_rng(0)
    invert(rng.uniform(-1.0, 1.0, (2, 5, 3, 3)) + 3 * np.eye(3))
    assert len(calls) == 1


def test_invert_stack_raises_on_any_singular_matrix():
    stack = np.array([np.eye(2), [[1.0, 2.0], [2.0, 4.0]], np.eye(2)])
    with pytest.raises(SingularMatrix, match=r"matrix \(1,\) of the stack"):
        invert(stack)
    stack[1] = np.diag([1.0, 1e-9])
    with pytest.raises(SingularMatrix, match=r"matrix \(1,\) of the stack"):
        invert(stack)
    # the first zero pivot in stack order is named, wherever the others sit
    stack = np.broadcast_to(np.eye(2), (2, 3, 2, 2)).copy()
    stack[1, 0] = [[1.0, 2.0], [2.0, 4.0]]
    stack[1, 2] = 0.0
    with pytest.raises(SingularMatrix,
                       match=r"^matrix \(1, 0\) of the stack has an exact zero pivot$"):
        invert(stack)
    # a zero pivot anywhere is named before a cutoff failure earlier in the stack
    stack = np.array([np.diag([1.0, 1e-9]), np.eye(2), np.zeros((2, 2))])
    with pytest.raises(SingularMatrix,
                       match=r"^matrix \(2,\) of the stack has an exact zero pivot$"):
        invert(stack)


@pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0), (0, 2, 2)])
def test_invert_of_an_empty_stack_is_empty(shape):
    out = invert(np.zeros(shape))
    assert out.shape == shape


def test_invert_cutoff_sits_at_the_rank_tolerance():
    # max|inverse| * max|matrix| is 1e9 here, past 1 / _RANK_TOL = 1e8
    with pytest.raises(SingularMatrix, match="1.000e[+]09"):
        invert(np.diag([1.0, 1e-9]))
    assert np.array_equal(invert(np.diag([1.0, 1e-7])), np.diag([1.0, 1e7]))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("small", [1e-6, 3e-8, 1.5e-8, 9e-9, 5e-9, 1e-10])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e4])
def test_invert_raises_exactly_when_numeric_rank_drops(n, small, scale):
    # on a diagonal matrix max|inverse| * max|matrix| is the condition
    # number itself, without the factor-of-n^2 slack of a dense one
    m = scale * np.diag(np.r_[np.ones(n - 1), small])
    assert (numeric_rank(m) < n) == (small < 1e-8)
    if numeric_rank(m) < n:
        with pytest.raises(SingularMatrix):
            invert(m)
    else:
        assert np.max(np.abs(invert(m) @ m - np.eye(n))) < 1e-14


@given(st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=9, max_size=9))
def test_invert_roundtrip_well_conditioned(entries):
    m = np.array(entries).reshape(3, 3) + 3.0 * np.eye(3)
    prod = invert(m) @ m
    assert np.max(np.abs(prod - np.eye(3))) < 1e-10
