"""Symbol curves, closed forms, and the damping bounds."""

import math

import numpy as np
import pytest

from fdmlab import (
    AdeSymbol,
    BoundConstants,
    ade_symbol,
    advection_symbol,
    asymptotic_exponent,
    bound_constants,
    build_dx,
    build_dxx,
    check_global_bound,
    diffusion_symbol,
    mirror,
    sample_grid,
    sample_trajectory,
    upwind_symbol_real_part,
    vietoris_check,
)


def test_sample_grid_layout():
    th = sample_grid(8)
    assert len(th) == 8
    assert th[0] == -math.pi
    np.testing.assert_allclose(np.diff(th), 2 * math.pi / 8)
    assert 0.0 in th
    assert th[-1] < math.pi
    with pytest.raises(ValueError):
        sample_grid(4)


def test_symbol_pinned_values():
    assert advection_symbol(build_dx(1, 0), 0.0) == 0.0
    assert abs(advection_symbol(build_dx(1, 0), math.pi) - (-2.0)) < 1e-14
    # first-order one-sided: lambda_0 = e^{-i theta} - 1
    th = np.linspace(-3, 3, 11)
    np.testing.assert_allclose(
        advection_symbol(build_dx(1, 0), th), np.exp(-1j * th) - 1.0, atol=1e-14
    )
    assert diffusion_symbol(build_dxx(1), 0.0) == 0.0
    assert abs(diffusion_symbol(build_dxx(1), math.pi) - (-4.0)) < 1e-14
    assert abs(diffusion_symbol(build_dxx(2), math.pi) - (-16.0 / 3.0)) < 1e-14
    # diffusion symbol is real by construction
    v = diffusion_symbol(build_dxx(3), th)
    assert v.dtype == np.float64


def test_ade_symbol_combines_linearly():
    dx, dxx = build_dx(3, 1), build_dxx(2)
    th = sample_grid(64)
    for r in (0.0, 0.1, 7.5):
        sym = AdeSymbol(dx, dxx, r)
        np.testing.assert_allclose(
            ade_symbol(sym, th),
            advection_symbol(dx, th) + r * diffusion_symbol(dxx, th),
            rtol=0, atol=1e-15,
        )
    with pytest.raises(ValueError):
        ade_symbol(AdeSymbol(dx, dxx, math.inf), 1.0)


def test_symbol_validation():
    with pytest.raises(ValueError):
        AdeSymbol(build_dx(1, 0), build_dxx(1), -1.0)
    with pytest.raises(ValueError):
        advection_symbol(build_dxx(1), 1.0)
    with pytest.raises(ValueError):
        diffusion_symbol(build_dx(1, 0), 1.0)


def test_trajectory_sampling():
    sym = AdeSymbol(build_dx(2, 1), build_dxx(1), 0.5)
    th, lam = sample_trajectory(sym, 128)
    assert len(th) == len(lam) == 128
    want = ade_symbol(sym, float(th[3]))
    assert lam[3].real == want.real and lam[3].imag == want.imag
    # R = inf traces the pure diffusion symbol, which is real
    _, flat = sample_trajectory(AdeSymbol(build_dx(2, 1), build_dxx(1), math.inf), 64)
    assert np.all(flat.imag == 0.0)
    assert np.any(flat.real < 0)


def test_closed_form_pinned_values():
    th = np.linspace(-3, 3, 17)
    np.testing.assert_allclose(
        upwind_symbol_real_part(build_dx(2, 0), th),
        -4.0 * np.sin(th / 2) ** 4,
        rtol=0, atol=1e-15,
    )
    assert abs(upwind_symbol_real_part(build_dx(3, 1), math.pi) - (-8.0 / 3.0)) < 1e-13
    # l = r + 1 at theta = pi: -(2^{2l} l! r! / (2l)!)
    assert abs(upwind_symbol_real_part(build_dx(1, 0), math.pi) - (-2.0)) < 1e-14
    with pytest.raises(ValueError):
        upwind_symbol_real_part(build_dx(1, 1), 1.0)
    with pytest.raises(ValueError):
        upwind_symbol_real_part(build_dx(1, 2), 1.0)


@pytest.mark.parametrize(
    "left,right",
    [(1, 0), (2, 0), (2, 1), (3, 1), (5, 4), (6, 4), (9, 8), (10, 8)],
)
def test_closed_form_matches_direct_sum(left, right):
    dx = build_dx(left, right)
    th = sample_grid(1024)
    direct = advection_symbol(dx, th).real
    closed = upwind_symbol_real_part(dx, th)
    tol = 1e-12 * np.maximum(1.0, np.abs(direct))
    assert np.all(np.abs(direct - closed) <= tol)


def test_mirror_flips_the_symbol():
    for left, right in [(1, 0), (3, 1), (2, 2)]:
        dx = build_dx(left, right)
        th = sample_grid(256)
        np.testing.assert_allclose(
            advection_symbol(mirror(dx), th),
            -np.conj(advection_symbol(dx, th)),
            rtol=0, atol=1e-14,
        )


def test_diffusion_negative_and_vietoris():
    th = sample_grid(512)
    nz = th != 0.0
    for q in range(1, 22):
        vals = diffusion_symbol(build_dxx(q), th)
        assert np.all(vals[nz] < 0.0)
        assert vietoris_check(q)
    with pytest.raises(ValueError):
        vietoris_check(0)


@pytest.mark.parametrize("left,right", [(1, 0), (2, 1), (3, 1), (5, 4), (11, 10)])
def test_asymptotic_exponent(left, right):
    slope = asymptotic_exponent(build_dx(left, right))
    assert abs(slope - 2 * left) <= 0.05 * 2 * left


def test_asymptotic_exponent_argument_forms():
    dx = build_dx(2, 1)
    via_sym = asymptotic_exponent(AdeSymbol(dx, build_dxx(1), 0.0))
    assert via_sym == asymptotic_exponent(dx)
    with pytest.raises(ValueError):
        asymptotic_exponent(AdeSymbol(dx, build_dxx(1), 1.0))
    with pytest.raises(ValueError):
        asymptotic_exponent(dx, window=(1e-2, 1e-3))
    with pytest.raises(ValueError):
        asymptotic_exponent(build_dx(2, 2))


def test_bound_constants_first_order_pair():
    bc = bound_constants(build_dx(1, 0), build_dxx(1))
    # |sin theta / theta| peaks at 1; 4 sin^2(theta/2)/theta^2 bottoms at pi
    assert abs(bc.L1 - 1.0) < 1e-12
    assert abs(bc.L2 - 4.0 / math.pi**2) < 1e-12
    assert abs(bc.L - bc.L2 / bc.L1) < 1e-15
    with pytest.raises(ValueError):
        bound_constants(build_dx(1, 1), build_dxx(1))
    with pytest.raises(ValueError):
        BoundConstants(1.0, 0.5, 0.3)


@pytest.mark.parametrize("r", [0.0, 0.1, 1.0, 10.0, 250.0])
def test_global_parabola_bound(r):
    for pair in [((1, 0), 1), ((3, 1), 2), ((21, 20), 20)]:
        (l, rr), q = pair
        sym = AdeSymbol(build_dx(l, rr), build_dxx(q), r)
        assert check_global_bound(sym)


def test_global_bound_reuses_constants():
    dx, dxx = build_dx(3, 1), build_dxx(2)
    bc = bound_constants(dx, dxx)
    assert check_global_bound(AdeSymbol(dx, dxx, 2.0), constants=bc)


def test_semidiscrete_damping_margin():
    # adding diffusion only moves the curve left of the advection envelope
    dx, dxx = build_dx(3, 1), build_dxx(2)
    th = sample_grid(4096)
    nz = th != 0.0
    envelope = upwind_symbol_real_part(dx, th)
    assert np.all(envelope[nz] < 0.0)
    for r in (0.5, 5.0):
        lam = ade_symbol(AdeSymbol(dx, dxx, r), th)
        assert np.all(lam.real[nz] <= envelope[nz] + 1e-13)
        assert lam.real[th == 0.0] == 0.0


def test_central_symbol_is_imaginary():
    th = sample_grid(512)
    for q in (1, 2, 5):
        lam = advection_symbol(build_dx(q, q), th)
        assert np.max(np.abs(lam.real)) <= 1e-13
