"""Fully discrete spectra, instability indices, and thresholds."""

import math
import tracemalloc
import warnings

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
    builtin_tableaux,
    eval_p,
    full_spectrum,
    fulldisc,
    get_tableau,
    grid_for,
    SimConfig,
    ade_symbol,
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


@pytest.mark.parametrize("control", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_grid_for_names_a_bad_control(control):
    # NaN and inf passed the old control <= 0 test and were reported as dt
    for mode, name in [(SweepMode.FIXED_MU, "mu"), (SweepMode.FIXED_MU_NU, "mu_nu")]:
        with pytest.raises(ValueError) as err:
            grid_for(mode, 64, control, 0.5)
        assert str(err.value) == f"{name} must be finite and positive, got {control!r}"
    calls = [lambda: instability_curve(build_dx(1, 0), None, RK4, control, [32],
                                       SweepMode.FIXED_MU),
             lambda: SimConfig(grid_for(SweepMode.FIXED_MU, 32, control, 0.0), get_tableau("rk4"),
                               (build_dx(1, 0), None), 1.0)]
    for call in calls:
        with pytest.raises(ValueError, match="^mu must be finite and positive"):
            call()


@pytest.mark.parametrize("mode,control,nu,dt", [
    (SweepMode.FIXED_MU, 5e-324, 0.0, "0.0"),
    (SweepMode.FIXED_MU_NU, 1.0, 1e-320, "inf"),
    (SweepMode.FIXED_MU_NU, 5e-324, 1e10, "0.0"),
], ids=["mu-underflow", "mu_nu-overflow", "mu_nu-underflow"])
def test_grid_for_names_the_inputs_of_a_bad_time_step(mode, control, nu, dt):
    # a finite positive control can still divide to a dt of 0 or inf; the
    # message was GridConfig's, which names only dt
    name = "mu" if mode is SweepMode.FIXED_MU else "mu_nu"
    want = (f"{name}={control!r}, nu={nu!r} and N=32 give time step {dt}, "
            "which is not finite and positive")
    with pytest.raises(ValueError) as err:
        grid_for(mode, 32, control, nu)
    assert str(err.value) == want
    with pytest.raises(ValueError) as err:
        instability_curve(build_dx(1, 0), build_dxx(1), RK4, control, [32], mode, nu=nu)
    assert str(err.value) == want


def test_semidiscrete_eigs_four_cells():
    grid = GridConfig(4, 0.0, dt=0.1)
    eig = semidiscrete_eigs(build_dx(1, 0), build_dxx(1), grid)
    assert eig[0] == 0.0
    assert_multiset_close(eig, [-1 - 1j, -1 + 1j, -2.0, 0.0], tol=1e-14)


def test_semidiscrete_eigs_requires_an_operator():
    grid = GridConfig(8, 0.0, dt=0.1)
    with pytest.raises(ValueError):
        semidiscrete_eigs(None, build_dxx(1), grid)
    # diffusion alone is fine once nu > 0
    eig = semidiscrete_eigs(None, build_dxx(1), GridConfig(8, 1.0, dt=0.01))
    assert np.all(eig.imag == 0.0)
    assert eig[0] == 0.0


@pytest.mark.parametrize("n", [4, 5, 8, 9, 255, 4096, 65537])
def test_semidiscrete_eigs_mirror_exactly(n):
    # entry n - k is the conjugate of entry k bit for bit; the k = n/2
    # entry of an even grid is its own mirror, so it is real
    lam = semidiscrete_eigs(build_dx(3, 1), build_dxx(2), GridConfig(n, 0.1, dt=0.1 / n))
    k = np.arange(1, (n + 1) // 2)  # every k < n - k
    assert lam[k].tobytes() == lam[n - k].conj().tobytes()
    if n % 2 == 0:
        assert lam[n // 2].imag == 0.0
    assert lam[0] == 0.0


@pytest.mark.parametrize(
    "lr,q,nu,n",
    [((1, 0), 1, 0.0, 4), ((3, 1), 2, 0.1, 9), ((2, 2), 1, 0.5, 16), ((12, 11), 5, 0.02, 37),
     # stencils wider than the grid
     ((21, 20), 5, 0.05, 5), ((21, 20), 5, 0.03, 16)],
)
def test_semidiscrete_eigs_in_fft_mode_order(lr, q, nu, n):
    # entry k is the eigenvalue at theta = 2 pi k / n, the k-th DFT value of
    # the circulant's column 0, with no roll; full_spectrum keeps the order
    dx, dxx = build_dx(*lr), build_dxx(q)
    grid = GridConfig(n, nu, dt=0.2 / n)
    lam = semidiscrete_eigs(dx, dxx, grid)
    want = np.fft.fft(dense_ade_matrix(dx, dxx, n, nu)[:, 0]) / n
    np.testing.assert_allclose(lam, want, rtol=0, atol=1e-13)
    k = np.arange(1, n)
    assert lam[0] == 0.0 and np.array_equal(lam[n - k], lam[k].conj())
    rep = full_spectrum(dx, dxx, grid, RK4)
    assert rep.eigenvalues.tobytes() == eval_p(RK4, grid.mu * lam).tobytes()
    assert rep.eigenvalues[0] == 1.0
    assert np.array_equal(rep.eigenvalues[n - k], rep.eigenvalues[k].conj())


@pytest.mark.parametrize(
    "lr,q,nu,n",
    [((1, 0), 1, 0.0, 12), ((3, 1), 2, 0.5, 16), ((2, 1), 1, 0.05, 25), ((5, 4), 3, 1.0, 8),
     # stencils wider than the grid wrap onto it several times over
     ((21, 20), 5, 0.05, 4), ((21, 20), 5, 0.1, 5), ((21, 20), 5, 0.02, 7),
     ((21, 20), 5, 0.03, 16)],
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
    # the k = 0 mode maps through p(0) = 1 exactly
    assert rep.eigenvalues[0] == 1.0
    assert rep.rho == 1.0
    assert rep.instability_index is None


def test_instability_index_value():
    grid = grid_for(SweepMode.FIXED_MU, 64, 0.03, 0.0)
    rep = full_spectrum(build_dx(2, 0), None, grid, FE)
    assert rep.instability_index is not None
    assert rep.instability_index == pytest.approx(math.log10(rep.rho - 1.0))
    # mu^3/4 leading behavior of the weakly unstable second-order family
    assert rep.instability_index == pytest.approx(math.log10(0.03**3 / 4), abs=0.05)


def test_criterion_11_stable_run_is_spectrally_unstable():
    # acceptance criterion 11's "stable run": lsrk3 + dx(3,1) at mu = 0.5 on
    # 100 cells.  |p(iy)|^2 - 1 starts with +y^4/12, so rho exceeds 1 by
    # far more than TOL_STABLE; the run passes the gate only because its
    # 20,000 steps grow the pulse by rho^20000 = 1.115 < 2
    grid = GridConfig(100, 0.0, 0.005)
    rep = full_spectrum(build_dx(3, 1), None, grid, stability_polynomial(get_tableau("lsrk3")))
    assert rep.instability_index is not None
    assert rep.rho - 1.0 == pytest.approx(5.459e-6, rel=1e-3)
    assert rep.rho ** round(100.0 / grid.dt) == pytest.approx(1.115, abs=1e-3)


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


def test_fixed_mu_viscosity_needs_a_diffusion_operator_on_every_path():
    # at fixed mu, nu is only a viscosity: without dxx the library dropped it
    # and returned the nu = 0 answer, where the command line refused it
    dx, message = build_dx(1, 0), "^nonzero viscosity needs a diffusion operator$"
    with pytest.raises(ValueError, match=message):
        instability_curve(dx, None, RK4, 0.9, [64], SweepMode.FIXED_MU, nu=5.0)
    with pytest.raises(ValueError, match=message):
        stable_mu_threshold(dx, None, RK4, 5.0, 64)
    with pytest.raises(ValueError, match=message):
        SimConfig(GridConfig(64, 5.0, dt=0.01), get_tableau("rk4"), (dx, None), 1.0)
    # at fixed mu_nu, nu sets dt and needs no diffusion operator
    (point,) = instability_curve(dx, None, RK4, 0.5, [64], SweepMode.FIXED_MU_NU, nu=5.0)
    assert point.rho == full_spectrum(dx, None, grid_for(SweepMode.FIXED_MU_NU, 64, 0.5, 5.0),
                                      RK4).rho
    stable_mu_threshold(dx, None, RK4, 5.0, 64, SweepMode.FIXED_MU_NU)


@pytest.mark.parametrize("dx,dxx,message", [
    (build_dxx(2), None, "^expected a first-derivative operator$"),
    (build_dx(1, 0), build_dx(0, 1), "^expected a centered second-derivative operator$"),
    (None, build_dx(1, 0), "^expected a centered second-derivative operator$"),
], ids=["dxx-as-dx", "dx-as-dxx", "dx-alone-as-dxx"])
@pytest.mark.parametrize("nu", [0.0, 0.1])
def test_grid_spectra_refuse_operators_of_the_wrong_kind(dx, dxx, message, nu):
    # the grid spectra took any stencil in either slot, which the symbols refuse
    mode = SweepMode.FIXED_MU_NU if nu else SweepMode.FIXED_MU
    grid = grid_for(mode, 32, 0.5, nu)
    calls = [lambda: ade_symbol(dx, dxx, grid.r, 1.0),
             lambda: semidiscrete_eigs(dx, dxx, grid),
             lambda: full_spectrum(dx, dxx, grid, RK4),
             lambda: instability_curve(dx, dxx, RK4, 0.5, [32], mode, nu=nu),
             lambda: stable_mu_threshold(dx, dxx, RK4, nu, 32, mode)]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


def test_method_must_be_a_tableau_or_polynomial():
    with pytest.raises(TypeError, match="^expected a ButcherTableau or StabilityPolynomial$"):
        stable_mu_threshold(build_dx(1, 0), None, [1, 1], 0.0, 32)


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
    # one grid spectrum per search and one per grid of a sweep
    calls = []

    def counting(*args):
        calls.append(args[2].n_cells)
        return grid_spectrum(*args)

    grid_spectrum = fulldisc._grid_spectrum
    monkeypatch.setattr(fulldisc, "_grid_spectrum", counting)
    stable_mu_threshold(build_dx(3, 1), None, RK4, 0.0, 64)
    assert calls == [64]
    stable_mu_threshold(build_dx(1, 0), build_dxx(2), FE, 0.1, 64, SweepMode.FIXED_MU_NU)
    assert calls == [64, 64]
    calls.clear()
    ns = [2**k for k in range(5, 13)] + [5000]
    instability_curve(build_dx(2, 0), None, FE, 0.03, ns, SweepMode.FIXED_MU)
    assert calls == ns


def _probe_is_stable(monkeypatch, dx, dxx, p, nu, n, mode, control):
    """The threshold search's verdict at ``control``, from its first probe:
    seeded there, the search stops at once exactly when it reads unstable."""
    monkeypatch.setattr(fulldisc, "_SEED", control)
    try:
        stable_mu_threshold(dx, dxx, p, nu, n, mode)
    except ThresholdNotFoundError as exc:
        return str(exc) != "unstable for all tested mu"
    return True


def _verdict_cases(count=24, seed=16):
    """Seeded cases over dx(l, r) with l <= 8 (upwind, central and downwind
    extents); each of the six builtin tableaux comes twice in each sweep mode."""
    rng = np.random.default_rng(seed)
    names = sorted(builtin_tableaux())
    for i in range(count):
        left = int(rng.integers(1, 9))
        right = int(rng.integers(max(0, left - 2), left + 2))
        mode = [SweepMode.FIXED_MU, SweepMode.FIXED_MU_NU][i // len(names) % 2]
        with_dxx = mode is SweepMode.FIXED_MU_NU or rng.random() < 0.5
        dxx = build_dxx(int(rng.integers(1, 4))) if with_dxx else None
        nu = float(rng.uniform(0.001, 0.1)) if with_dxx else 0.0
        n = int(rng.choice([16, 24, 32, 64]))
        control = float(10.0 ** rng.uniform(-3.0, 0.5))
        p = stability_polynomial(get_tableau(names[i % len(names)]))
        yield build_dx(left, right), dxx, p, nu, n, mode, control


def test_verdict_paths_agree(monkeypatch):
    # each case is probed at a drawn control and, where the search finds a
    # crossing, at both ends of its final bracket, where rho - 1 is near
    # TOL_STABLE
    verdicts = set()
    for dx, dxx, p, nu, n, mode, control in _verdict_cases():
        controls = [control]
        try:
            res = stable_mu_threshold(dx, dxx, p, nu, n, mode)
            controls += [res.mu_star, res.mu_star * (1.0 + res.tol)]
        except ThresholdNotFoundError:
            pass
        for c in controls:
            rep = full_spectrum(dx, dxx, grid_for(mode, n, c, nu), p)
            [pt] = instability_curve(dx, dxx, p, c, [n], mode, nu)
            with monkeypatch.context() as m:
                probe = _probe_is_stable(m, dx, dxx, p, nu, n, mode, c)
            stable = rep.instability_index is None
            assert (pt.instability_index is None) == probe == stable, (dx.spec, c)
            assert pt.rho == rep.rho
            verdicts.add(stable)
    assert verdicts == {True, False}


OVERFLOWING = StabilityPolynomial((1.0, 1.0, 1e50, 1e100, 1e150, 1e200, 1e250, 1e300))


def test_overflowing_polynomial_reads_unstable_on_every_path(monkeypatch):
    # p(mu lambda) overflows to a NaN radius at mu = 1000, which used to read
    # as stable with two numpy warnings
    dx = build_dx(1, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert full_spectrum(dx, None, grid_for(SweepMode.FIXED_MU, 32, 1.0, 0.0),
                             OVERFLOWING).instability_index == pytest.approx(302.1, abs=0.01)
        rep = full_spectrum(dx, None, grid_for(SweepMode.FIXED_MU, 32, 1e3, 0.0), OVERFLOWING)
        assert math.isnan(rep.rho) and math.isnan(rep.instability_index)
        for pt in instability_curve(dx, None, OVERFLOWING, 1e3, [32, 64], SweepMode.FIXED_MU):
            assert math.isnan(pt.rho) and math.isnan(pt.instability_index)
        assert not _probe_is_stable(monkeypatch, dx, None, OVERFLOWING, 0.0, 32,
                                    SweepMode.FIXED_MU, 1e3)


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_peak_memory_is_that_of_its_finest_grid():
    # each coarser grid's spectrum and eigenvalues are freed before the next
    # grid's are built, so a chain costs no more than its finest grid alone
    dx, n = build_dx(2, 0), 2**18
    alone = _traced_peak(lambda: full_spectrum(dx, None, grid_for(SweepMode.FIXED_MU, n, 0.03,
                                                                  0.0), FE))
    chain = _traced_peak(lambda: instability_curve(dx, None, FE, 0.03,
                                                   [2**k for k in range(5, 19)],
                                                   SweepMode.FIXED_MU))
    assert chain < 1.05 * alone, (chain, alone)
