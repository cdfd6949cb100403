"""Symbol curves, closed forms, and the damping bounds."""

import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from fdmlab import (
    WaveDiscretization,
    ade_symbol,
    advection_symbol,
    asymptotic_exponent,
    build_dx,
    build_dxx,
    diffusion_symbol,
    mirror,
    sample_grid,
    sample_trajectory,
    upwind_symbol_real_part,
    vietoris_check,
    wave_eigs,
    wave_symbols,
)


def test_sample_grid_layout():
    # rounding alone misses theta = 0 for 22, 26 and 30 samples
    for n in (8, 22, 26, 30):
        th = sample_grid(n)
        assert len(th) == n
        assert th[0] == -math.pi
        np.testing.assert_allclose(np.diff(th), 2 * math.pi / n)
        assert 0.0 in th
        assert th[-1] < math.pi
    with pytest.raises(ValueError):
        sample_grid(4)


@pytest.mark.parametrize("n", [8.5, 16.0, True])
def test_sample_count_must_be_an_integer(n):
    # 8.5 samples would give 9 angles ending at 2.77, not a period grid
    calls = (lambda: sample_grid(n),
             lambda: sample_trajectory(build_dx(1, 0), build_dxx(1), 1.0, n))
    for call in calls:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"n_samples must be an integer, got {n!r}"


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
        np.testing.assert_allclose(
            ade_symbol(dx, dxx, r, th),
            advection_symbol(dx, th) + r * diffusion_symbol(dxx, th),
            rtol=0, atol=1e-15,
        )
    with pytest.raises(ValueError):
        ade_symbol(dx, dxx, math.inf, 1.0)


def test_symbol_validation():
    with pytest.raises(ValueError):
        ade_symbol(build_dx(1, 0), build_dxx(1), -1.0, 1.0)
    with pytest.raises(ValueError):
        advection_symbol(build_dxx(1), 1.0)
    with pytest.raises(ValueError):
        diffusion_symbol(build_dx(1, 0), 1.0)


def test_trajectory_sampling():
    dx, dxx = build_dx(2, 1), build_dxx(1)
    th, lam = sample_trajectory(dx, dxx, 0.5, 128)
    assert len(th) == len(lam) == 128
    want = ade_symbol(dx, dxx, 0.5, float(th[3]))
    assert lam[3].real == want.real and lam[3].imag == want.imag
    # R = inf traces the pure diffusion symbol, which is real
    _, flat = sample_trajectory(dx, dxx, math.inf, 64)
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


def test_vietoris_series_is_the_reflected_derivative():
    # the derivative -2 sum k b_k sin(k theta) of the diffusion symbol is
    # -sum c_k sin(k (pi - theta)) with vietoris_check's c_k; the unreflected
    # -sum c_k sin(k theta) differs from it for every q >= 2
    th = np.random.default_rng(23).uniform(0.1, 3.0, 16)
    h = 1e-6
    for q in range(1, 9):
        b = build_dxx(q).coeffs[q + 1:]  # b_1..b_q, exact
        c = [F(4 * math.factorial(q) ** 2, k * math.factorial(q + k) * math.factorial(q - k))
             for k in range(1, q + 1)]
        assert [2 * k * bk for k, bk in enumerate(b, 1)] == [
            (-1) ** (k + 1) * ck for k, ck in enumerate(c, 1)]
        k = np.arange(1, q + 1)[:, None]
        deriv = -2.0 * np.sum(k * np.array(b, dtype=float)[:, None] * np.sin(k * th), axis=0)
        cf = np.array(c, dtype=float)[:, None]
        reflected = -np.sum(cf * np.sin(k * (np.pi - th)), axis=0)
        np.testing.assert_allclose(reflected, deriv, rtol=0, atol=1e-13)
        dxx = build_dxx(q)
        central = (diffusion_symbol(dxx, th + h) - diffusion_symbol(dxx, th - h)) / (2 * h)
        np.testing.assert_allclose(deriv, central, rtol=0, atol=1e-6)
        stated = -np.sum(cf * np.sin(k * th), axis=0)
        assert (q == 1) == np.allclose(stated, deriv, rtol=0, atol=1e-6)


@pytest.mark.parametrize("q", [2.0, True])
def test_vietoris_order_must_be_an_integer(q):
    # True read as q = 1 and 2.0 raised TypeError from math.factorial
    with pytest.raises(ValueError) as err:
        vietoris_check(q)
    assert str(err.value) == f"q must be an integer, got {q!r}"
    assert vietoris_check(np.int64(3))


@pytest.mark.parametrize("left,right", [(1, 0), (2, 1), (3, 1), (5, 4), (11, 10)])
def test_asymptotic_exponent(left, right):
    slope = asymptotic_exponent(build_dx(left, right))
    assert abs(slope - 2 * left) <= 0.05 * 2 * left


def test_asymptotic_exponent_argument_forms():
    with pytest.raises(ValueError):
        asymptotic_exponent(build_dx(2, 2))
    # an upwind real part of order theta^104 underflows to 0 at theta = 1e-3
    with pytest.raises(ValueError, match="^sampled real part is not negative$"):
        asymptotic_exponent(build_dx(52, 51))


def test_semidiscrete_damping_margin():
    # adding diffusion only moves the curve left of the advection envelope
    dx, dxx = build_dx(3, 1), build_dxx(2)
    th = sample_grid(4096)
    nz = th != 0.0
    envelope = upwind_symbol_real_part(dx, th)
    assert np.all(envelope[nz] < 0.0)
    for r in (0.5, 5.0):
        lam = ade_symbol(dx, dxx, r, th)
        assert np.all(lam.real[nz] <= envelope[nz] + 1e-13)
        assert lam.real[th == 0.0] == 0.0


def test_central_symbol_is_imaginary():
    th = sample_grid(512)
    for q in (1, 2, 5):
        lam = advection_symbol(build_dx(q, q), th)
        assert np.max(np.abs(lam.real)) <= 1e-13


def test_trajectory_memory_stays_bounded():
    # One complex (angles x width) matrix for all 2^18 angles of dx(21, 20)
    # would take 172 MB; blocks of 2^16 angles keep the peak near 51 MB.
    dx, dxx = build_dx(21, 20), build_dxx(20)
    tracemalloc.start()
    try:
        _, lam = sample_trajectory(dx, dxx, 1.0, 2**18)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lam.shape == (2**18,)
    assert peak < 150e6, peak


_WAVE = WaveDiscretization(build_dx(3, 1), mirror(build_dx(3, 1)), build_dxx(2))
_EVALUATORS = {
    "advection_symbol": lambda th: advection_symbol(build_dx(3, 1), th),
    "diffusion_symbol": lambda th: diffusion_symbol(build_dxx(2), th),
    "ade_symbol": lambda th: ade_symbol(build_dx(3, 1), build_dxx(2), 0.5, th),
    "upwind_symbol_real_part": lambda th: upwind_symbol_real_part(build_dx(3, 1), th),
    "wave_symbols": lambda th: wave_symbols(_WAVE, th),
    "wave_eigs": lambda th: wave_eigs(_WAVE, 0.5, th),
}


@pytest.mark.parametrize("name", sorted(_EVALUATORS))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("as_array", [False, True])
def test_symbols_reject_non_finite_angles(name, bad, as_array):
    theta = np.array([0.0, 0.5, bad, -1.0]) if as_array else bad
    with pytest.raises(ValueError, match="angles must be finite"):
        _EVALUATORS[name](theta)


@pytest.mark.parametrize("name", sorted(_EVALUATORS))
@pytest.mark.parametrize("as_array", [False, True])
def test_symbols_reject_complex_angles(name, as_array):
    # a float cast would keep only the real part: the value at 1, and 0
    theta = np.array([1 + 1j, 0.5j]) if as_array else 1 + 1j
    with pytest.raises(ValueError, match="angles must be real"):
        _EVALUATORS[name](theta)
