"""Fully discrete spectra, instability indices, and thresholds."""

import math

import numpy as np
import pytest

from fdmlab import (
    GridConfig,
    StabilityPolynomial,
    SweepMode,
    ThresholdNotFoundError,
    ThresholdResult,
    build_dx,
    build_dxx,
    advection_symbol,
    diffusion_symbol,
    full_spectrum,
    fulldisc,
    get_tableau,
    grid_for,
    instability_curve,
    semidiscrete_eigs,
    stability_polynomial,
    stable_mu_threshold,
)
from oracles import assert_multiset_close, dense_ade_matrix, matrix_poly

FE = stability_polynomial(get_tableau("fe"))
RK2 = stability_polynomial(get_tableau("rk2"))
RK4 = stability_polynomial(get_tableau("rk4"))


def test_grid_config_properties():
    g = GridConfig(128, 0.25, dt=0.005)
    assert g.h == 1.0 / 128
    assert g.mu == pytest.approx(0.64)
    assert g.r == 32.0
    assert g.mu_nu == pytest.approx(0.25 * 0.005 * 128**2)
    assert GridConfig(np.int64(16), np.float64(0.5), dt=np.float64(0.1)).mu == 1.6
    bad_grids = [
        (2, 0.0, 0.1), (16, -1.0, 0.1), (16, 0.0, 0.0),
        (64.5, 0.0, 0.01), (64.0, 0.0, 0.01), (True, 0.0, 0.01), ("64", 0.0, 0.01),
        (16, math.inf, 0.1), (16, math.nan, 0.1), (16, 0.0, math.inf), (16, 0.0, math.nan),
    ]
    for bad in bad_grids:
        with pytest.raises(ValueError):
            GridConfig(*bad[:2], dt=bad[2])


def test_grid_for_modes():
    g = grid_for(SweepMode.FIXED_MU, 64, 0.5, 0.0)
    assert g.mu == pytest.approx(0.5)
    g = grid_for(SweepMode.FIXED_MU_NU, 64, 0.4, 2.0)
    assert g.mu_nu == pytest.approx(0.4)
    with pytest.raises(ValueError):
        grid_for(SweepMode.FIXED_MU_NU, 64, 0.4, 0.0)
    with pytest.raises(ValueError):
        grid_for(SweepMode.FIXED_MU, 64, -1.0, 0.0)


def test_semidiscrete_eigs_four_cells():
    grid = GridConfig(4, 0.0, dt=0.1)
    eig = semidiscrete_eigs(build_dx(1, 0), build_dxx(1), grid)
    assert eig[-1] == 0.0
    assert_multiset_close(eig, [-1 - 1j, -1 + 1j, -2.0, 0.0], tol=1e-14)


def test_semidiscrete_eigs_requires_an_operator():
    grid = GridConfig(8, 0.0, dt=0.1)
    with pytest.raises(ValueError):
        semidiscrete_eigs(None, build_dxx(1), grid)
    # diffusion alone is fine once nu > 0
    eig = semidiscrete_eigs(None, build_dxx(1), GridConfig(8, 1.0, dt=0.01))
    assert np.all(eig.imag == 0.0)
    assert eig[-1] == 0.0


def _chunk_loop_eigs(dx, dxx, grid, chunk=1 << 16):
    """semidiscrete_eigs as it was when it split the grid into chunks
    itself: a fresh zero array per chunk, the last entry set to 0."""
    r = grid.r
    n = grid.n_cells
    out = np.zeros(n, dtype=complex)
    for start in range(0, n, chunk):
        k = np.arange(start + 1, min(start + chunk, n) + 1)
        th = 2.0 * math.pi * k / n
        lam = np.zeros(len(k), dtype=complex)
        if dx is not None:
            lam += advection_symbol(dx, th)
        if dxx is not None and r != 0:
            lam += r * diffusion_symbol(dxx, th)
        out[start : start + len(k)] = lam
    out[-1] = 0.0
    return out


@pytest.mark.parametrize("n", [2**16 + 3, 2**17])
@pytest.mark.parametrize(
    "dx,dxx,nu",
    [((21, 20), None, 0.0), ((21, 20), 20, 0.01), ((3, 1), 2, 1e-3), (None, 2, 0.1)],
)
def test_semidiscrete_eigs_bit_identical_to_chunk_loop(dx, dxx, nu, n):
    dx = None if dx is None else build_dx(*dx)
    dxx = None if dxx is None else build_dxx(dxx)
    grid = GridConfig(n, nu, dt=0.1 / n)
    got = semidiscrete_eigs(dx, dxx, grid)
    assert got.tobytes() == _chunk_loop_eigs(dx, dxx, grid).tobytes()


@pytest.mark.parametrize(
    "lr,q,nu,n",
    [((1, 0), 1, 0.0, 12), ((3, 1), 2, 0.5, 16), ((2, 1), 1, 0.05, 25), ((5, 4), 3, 1.0, 8)],
)
def test_semidiscrete_matches_dense_oracle(lr, q, nu, n):
    dx, dxx = build_dx(*lr), build_dxx(q)
    grid = GridConfig(n, nu, dt=1e-3)
    lib = semidiscrete_eigs(dx, dxx, grid)
    dense = np.linalg.eigvals(dense_ade_matrix(dx, dxx, n, nu)) / n
    assert_multiset_close(lib, dense, tol=1e-10)


@pytest.mark.parametrize("poly", [FE, RK2, RK4])
def test_full_spectrum_matches_dense_update_matrix(poly):
    dx, dxx, nu, n = build_dx(2, 1), build_dxx(2), 0.1, 16
    grid = GridConfig(n, nu, dt=0.3 / n)
    rep = full_spectrum(dx, dxx, grid, poly)
    m = dense_ade_matrix(dx, dxx, n, nu)
    amp = matrix_poly(poly.coeffs, grid.dt * m)
    assert_multiset_close(rep.eigenvalues, np.linalg.eigvals(amp), tol=1e-10)
    assert rep.rho == pytest.approx(np.max(np.abs(np.linalg.eigvals(amp))), abs=1e-12)


def test_full_spectrum_report_fields():
    grid = grid_for(SweepMode.FIXED_MU, 64, 0.5, 0.0)
    rep = full_spectrum(build_dx(1, 0), None, grid, FE)
    assert len(rep.eigenvalues) == 64
    # the k = N mode maps through p(0) = 1 exactly
    assert rep.eigenvalues[-1] == 1.0
    assert rep.rho == 1.0
    assert rep.instability_index is None


def test_instability_index_value():
    grid = grid_for(SweepMode.FIXED_MU, 64, 0.03, 0.0)
    rep = full_spectrum(build_dx(2, 0), None, grid, FE)
    assert rep.instability_index is not None
    assert rep.instability_index == pytest.approx(math.log10(rep.rho - 1.0))
    # mu^3/4 leading behavior of the weakly unstable second-order family
    assert rep.instability_index == pytest.approx(math.log10(0.03**3 / 4), abs=0.05)


def test_trivial_polynomial_never_amplifies():
    one = StabilityPolynomial((1.0,))
    grid = grid_for(SweepMode.FIXED_MU, 32, 0.7, 0.0)
    rep = full_spectrum(build_dx(2, 0), None, grid, one)
    assert rep.rho == 1.0
    assert rep.instability_index is None


def test_instability_curve_flat_index():
    pts = instability_curve(
        build_dx(2, 0), None, get_tableau("fe"), 0.03, [32, 64, 128], SweepMode.FIXED_MU
    )
    idx = [p.instability_index for p in pts]
    assert all(i is not None for i in idx)
    assert max(idx) - min(idx) < 0.05
    assert [p.n_cells for p in pts] == [32, 64, 128]
    with pytest.raises(ValueError):
        instability_curve(
            build_dx(2, 0), None, FE, 0.03, [64, 32], SweepMode.FIXED_MU
        )


def test_stable_powers_stay_bounded():
    grid = grid_for(SweepMode.FIXED_MU, 32, 0.5, 0.0)
    rep = full_spectrum(build_dx(1, 0), None, grid, FE)
    assert rep.rho ** 100000 <= 1.0 + 1e-12


def test_threshold_forward_euler_first_order():
    res = stable_mu_threshold(build_dx(1, 0), None, get_tableau("fe"), 0.0, 64)
    assert res.mu_star == pytest.approx(1.0, rel=1e-5)
    assert res.tol == 1e-6
    assert res.iterations > 10


def test_threshold_rk4_upwind_families():
    res = stable_mu_threshold(build_dx(1, 0), None, get_tableau("rk4"), 0.0, 64)
    assert res.mu_star == pytest.approx(1.3926, abs=2e-3)
    res = stable_mu_threshold(build_dx(3, 1), None, get_tableau("rk4"), 0.0, 64)
    assert res.mu_star == pytest.approx(1.0445, abs=2e-3)
    assert not res.stable_beyond


def test_threshold_diffusion_mode():
    res = stable_mu_threshold(
        None, build_dxx(1), get_tableau("fe"), 1.0, 64, mode=SweepMode.FIXED_MU_NU
    )
    assert res.mu_star == pytest.approx(0.5, rel=1e-5)
    with pytest.raises(ValueError):
        stable_mu_threshold(
            None, build_dxx(1), get_tableau("fe"), 0.0, 64, mode=SweepMode.FIXED_MU_NU
        )
    with pytest.raises(ValueError):  # no active operator
        stable_mu_threshold(None, build_dxx(1), get_tableau("fe"), 0.0, 64)


def test_threshold_not_found_cases():
    # anti-damped one-sided operator: unstable already at the seed
    with pytest.raises(ThresholdNotFoundError):
        stable_mu_threshold(build_dx(0, 1), None, get_tableau("fe"), 0.0, 32)
    # p = 1 never leaves the unit circle, so no crossing exists
    with pytest.raises(ThresholdNotFoundError):
        stable_mu_threshold(build_dx(1, 0), None, StabilityPolynomial((1.0,)), 0.0, 32)


def _reference_threshold(dx, dxx, p, nu, n, mode, rel_width=1e-6, seed=1e-8, cap=1e9):
    """Bisection that rebuilds the whole spectrum at every probe."""

    def stable(control):
        grid = grid_for(mode, n, control, nu)
        return full_spectrum(dx, dxx, grid, p).rho - 1.0 <= 1e-12

    if not stable(seed):
        raise ThresholdNotFoundError
    lo = hi = seed
    iterations = 0
    while True:
        hi *= 2.0
        iterations += 1
        if not stable(hi):
            break
        lo = hi
        if hi > cap:
            raise ThresholdNotFoundError
    while hi - lo > rel_width * lo:
        mid = 0.5 * (lo + hi)
        iterations += 1
        if stable(mid):
            lo = mid
        else:
            hi = mid
    stable_beyond = any(stable(lo * 2.0**j) for j in range(1, 11))
    return lo, iterations, rel_width, stable_beyond


@pytest.mark.parametrize("n", [64, 4096])
@pytest.mark.parametrize("mode", [SweepMode.FIXED_MU, SweepMode.FIXED_MU_NU])
@pytest.mark.parametrize("lr", [(1, 0), (3, 1), (12, 11), (21, 20)])
def test_threshold_matches_per_probe_rebuild(lr, mode, n):
    dx = build_dx(*lr)
    dxx, nu = (build_dxx(2), 0.1) if mode is SweepMode.FIXED_MU_NU else (None, 0.0)
    for name in ("fe", "rk3", "lsrk3", "rk4"):
        p = stability_polynomial(get_tableau(name))
        try:
            want = _reference_threshold(dx, dxx, p, nu, n, mode)
        except ThresholdNotFoundError:
            with pytest.raises(ThresholdNotFoundError):
                stable_mu_threshold(dx, dxx, p, nu, n, mode)
            continue
        got = stable_mu_threshold(dx, dxx, p, nu, n, mode)
        assert got == ThresholdResult(*want), name


def test_threshold_computes_eigenvalues_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return semidiscrete_eigs(*args)

    monkeypatch.setattr(fulldisc, "semidiscrete_eigs", counting)
    stable_mu_threshold(build_dx(3, 1), None, RK4, 0.0, 64)
    assert len(calls) == 1
    stable_mu_threshold(build_dx(1, 0), build_dxx(2), FE, 0.1, 64, SweepMode.FIXED_MU_NU)
    assert len(calls) == 2
