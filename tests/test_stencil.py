"""Exact construction and classification of the difference operators."""

from fractions import Fraction as F

import numpy as np
import pytest

from fdmlab import (
    FdOperator,
    StabilityClass,
    StencilKind,
    StencilSpec,
    build_dx,
    build_dxx,
    classify,
    mirror,
)
from oracles import vandermonde_dx, vandermonde_dxx


def test_frozen_first_derivative_values():
    assert build_dx(1, 0).coeffs == (F(-1), F(1))
    assert build_dx(0, 1).coeffs == (F(-1), F(1))
    assert build_dx(1, 1).coeffs == (F(-1, 2), F(0), F(1, 2))
    assert build_dx(2, 1).coeffs == (F(1, 6), F(-1), F(1, 2), F(1, 3))
    assert build_dx(3, 1).coeffs == (F(-1, 12), F(1, 2), F(-3, 2), F(5, 6), F(1, 4))


def test_frozen_second_derivative_values():
    assert build_dxx(1).coeffs == (F(1), F(-2), F(1))
    assert build_dxx(2).coeffs == (F(-1, 12), F(4, 3), F(-5, 2), F(4, 3), F(-1, 12))


@pytest.mark.parametrize("left,right", [(1, 0), (2, 1), (3, 1), (4, 4), (7, 2), (11, 10)])
def test_dx_matches_moment_solve(left, right):
    assert list(build_dx(left, right).coeffs) == vandermonde_dx(left, right)


@pytest.mark.parametrize("q", [1, 2, 3, 5, 9])
def test_dxx_matches_moment_solve(q):
    assert list(build_dxx(q).coeffs) == vandermonde_dxx(q)


@pytest.mark.parametrize("left,right", [(1, 0), (1, 1), (2, 1), (5, 3), (21, 20), (20, 21)])
def test_dx_moments_exact(left, right):
    op = build_dx(left, right)
    assert op.order == left + right
    for m in range(left + right + 1):
        assert op.moment(m) == (1 if m == 1 else 0)


@pytest.mark.parametrize("q", [1, 2, 4, 21])
def test_dxx_moments_exact(q):
    op = build_dxx(q)
    assert op.order == 2 * q
    # symmetry buys one extra vanishing moment past the stencil size
    for m in range(2 * q + 2):
        assert op.moment(m) == (2 if m == 2 else 0)


def test_zero_offset_coefficient_identities():
    # a_0 balances the harmonic sums of the two sides exactly
    for left, right in [(3, 1), (6, 2), (21, 20)]:
        op = build_dx(left, right)
        want = sum(F(1, v) for v in range(1, left + 1)) - sum(
            F(1, v) for v in range(1, right + 1)
        )
        assert op.coeff(0) == want
    for q in (1, 2, 21):
        op = build_dxx(q)
        assert op.coeff(0) == -sum(F(2, k * k) for k in range(1, q + 1))


def test_classify():
    assert classify(build_dx(1, 0).spec) is StabilityClass.STABLE_UPWIND
    assert classify(build_dx(3, 1).spec) is StabilityClass.STABLE_UPWIND
    assert classify(build_dx(1, 2).spec) is StabilityClass.STABLE_DOWNWIND
    assert classify(build_dx(1, 3).spec) is StabilityClass.STABLE_DOWNWIND
    assert classify(build_dx(4, 4).spec) is StabilityClass.CENTRAL
    assert classify(build_dx(4, 1).spec) is StabilityClass.OTHER
    with pytest.raises(ValueError):
        classify(build_dxx(2).spec)


def test_mirror_swaps_extent_exactly():
    for left, right in [(1, 0), (2, 1), (3, 1), (5, 3), (21, 20)]:
        op = build_dx(left, right)
        m = mirror(op)
        assert (m.left, m.right) == (right, left)
        assert m.coeffs == build_dx(right, left).coeffs
        assert mirror(m).coeffs == op.coeffs
    with pytest.raises(ValueError):
        mirror(build_dxx(1))


def test_spec_validation():
    with pytest.raises(ValueError):
        build_dx(0, 0)
    with pytest.raises(ValueError):
        build_dx(-1, 2)
    with pytest.raises(ValueError):
        build_dxx(0)
    with pytest.raises(ValueError):
        StencilSpec(2, 1, StencilKind.SECOND_DERIVATIVE_CENTERED)


@pytest.mark.parametrize("left,right,bad", [(1.5, 0, "left"), (True, 0, "left"),
                                            (2.0, 1, "left"), (1, 1.0, "right"),
                                            ("2", 1, "left")])
def test_stencil_extents_must_be_integers(left, right, bad):
    # an integral float or a bool is no extent; 2.0 once failed in math.factorial
    value = left if bad == "left" else right
    for call in (lambda: StencilSpec(left, right, StencilKind.FIRST_DERIVATIVE),
                 lambda: build_dx(left, right), lambda: build_dxx(value)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value).endswith(f" must be an integer, got {value!r}")


def test_numpy_integer_extents_are_kept():
    op = build_dx(np.int64(3), np.int64(1))
    assert op.coeffs == build_dx(3, 1).coeffs
    assert build_dxx(np.int64(2)).coeffs == build_dxx(2).coeffs


def test_order_is_derived_from_the_extent():
    # l + r for dx(l, r), 2q for dxx(q), and the mirror keeps it
    for op, want in [(build_dx(3, 1), 4), (build_dx(0, 2), 2), (build_dxx(3), 6),
                     (mirror(build_dx(5, 2)), 7)]:
        assert op.order == want
        assert f"order={want}," in repr(op)
    op = build_dx(2, 1)
    with pytest.raises(TypeError):
        FdOperator(op.spec, op.coeffs, 99)
    assert FdOperator(op.spec, op.coeffs) == op


def test_operator_helpers():
    op = build_dx(2, 1)
    assert op.spec.width == 4
    assert op.coeff(-2) == F(1, 6)
    with pytest.raises(IndexError):
        op.coeff(5)
    assert list(op.offsets) == [-2, -1, 0, 1]
    np.testing.assert_allclose(op.coeffs_float, [1 / 6, -1.0, 0.5, 1 / 3])
    assert not op.coeffs_float.flags.writeable
    assert "dx" in repr(op)
    with pytest.raises(ValueError, match="^coefficient count does not match stencil width$"):
        FdOperator(op.spec, (F(1),))


def test_large_extent_stays_exact():
    # 42 offsets: the high moments cancel exactly in rationals, while the
    # same sum in doubles is off by twenty-seven orders of magnitude
    op = build_dx(21, 20)
    assert op.moment(41) == 0
    ks = np.arange(-21, 21).astype(float)
    assert abs(np.sum(ks**41 * op.coeffs_float)) > 1e20
