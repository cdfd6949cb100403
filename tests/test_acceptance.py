"""Acceptance gate.

Each test covers one release criterion, prints exactly one verdict line
(PASS or FAIL, with the elapsed time), and enforces the criterion's
runtime budget.  Run with ``pytest -s`` to see the verdict lines on a
passing suite.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from fdmlab import (
    GridConfig,
    SimConfig,
    SpectrumClass,
    SweepMode,
    WaveDiscretization,
    advection_symbol,
    asymptotic_exponent,
    build_dx,
    build_dxx,
    classify_spectrum,
    diffusion_symbol,
    eval_p,
    get_tableau,
    grid_eigenpairs,
    instability_curve,
    make_state,
    mirror,
    run_gaussian_experiment,
    sample_grid,
    semidiscrete_eigs,
    stability_polynomial,
    stable_mu_threshold,
    step_ade,
    upwind_symbol_real_part,
    vietoris_check,
    wave_semistable_check,
)
from oracles import assert_multiset_close, dense_ade_matrix, dense_wave_matrix

SWEEP_NS = [32, 64, 128, 256, 512, 1024, 2048, 4096]


def _verdict(num, label, budget_s, body):
    t0 = time.perf_counter()
    failures = []
    try:
        body(failures)
    except Exception as exc:
        failures.append(f"unexpected {type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - t0
    if elapsed > budget_s:
        failures.append(f"runtime {elapsed:.2f}s over the {budget_s:.0f}s budget")
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {label}: {status} [{elapsed:.2f}s]", flush=True)
    if failures:
        pytest.fail(f"criterion {num} ({label}): " + "; ".join(failures),
                    pytrace=False)


def test_criterion_01_exact_moment_conditions():
    def body(fail):
        pairs = [(r + 1, r) for r in range(21)] + [(r + 2, r) for r in range(20)]
        for l, r in pairs:
            op = build_dx(l, r)
            for m in range(l + r + 1):
                if op.moment(m) != (Fraction(1) if m == 1 else 0):
                    fail.append(f"dx({l},{r}) moment {m}")
        for q in range(1, 22):
            op = build_dxx(q)
            for m in range(2 * q + 2):
                if op.moment(m) != (Fraction(2) if m == 2 else 0):
                    fail.append(f"dxx({q}) moment {m}")

    _verdict(1, "exact rational moment conditions", 10.0, body)


def test_criterion_02_upwind_real_part_closed_form():
    def body(fail):
        th = sample_grid(1024)
        for r in range(9):
            for l in (r + 1, r + 2):
                dx = build_dx(l, r)
                direct = advection_symbol(dx, th).real
                closed = np.asarray(upwind_symbol_real_part(dx, th))
                tol = 1e-12 * np.maximum(1.0, np.abs(direct))
                bad = int(np.count_nonzero(np.abs(direct - closed) > tol))
                if bad:
                    fail.append(f"dx({l},{r}) mismatched at {bad} angles")

    _verdict(2, "closed-form upwind real part matches the direct sum", 5.0, body)


def test_criterion_03_diffusion_symbol_negativity():
    def body(fail):
        th = sample_grid(1024)
        nz = th != 0.0
        for q in range(1, 22):
            vals = diffusion_symbol(build_dxx(q), th)
            if not np.all(vals[nz] < 0):
                fail.append(f"dxx({q}) not negative away from zero")
            if not vietoris_check(q):
                fail.append(f"sine-series positivity fails for q={q}")

    _verdict(3, "diffusion symbol strictly negative away from zero", 5.0, body)


def test_criterion_04_small_angle_decay_exponent():
    def body(fail):
        for l, r in ((1, 0), (2, 1), (3, 1), (5, 4), (11, 10)):
            slope = asymptotic_exponent(build_dx(l, r))
            if abs(slope - 2 * l) > 0.05 * 2 * l:
                fail.append(f"dx({l},{r}) slope {slope:.3f} vs {2 * l}")

    _verdict(4, "real-part decay exponent equals twice the left extent", 5.0, body)


def test_criterion_05_dense_circulant_oracle():
    def body(fail):
        rng = np.random.default_rng(7)
        for trial in range(5):
            r_m = int(rng.integers(0, 5))
            l_m = r_m + int(rng.integers(1, 3))
            q = int(rng.integers(1, 7))
            big_r = float(rng.uniform(0.0, 4.0))
            n = int(rng.choice([16, 24, 32]))
            nu = big_r / n
            dx, dxx = build_dx(l_m, r_m), build_dxx(q)
            got = semidiscrete_eigs(dx, dxx, GridConfig(n, nu, dt=0.1 / n))
            want = np.linalg.eigvals(dense_ade_matrix(dx, dxx, n, nu)) / n
            assert_multiset_close(got, want, tol=1e-10)
            dx_p = build_dx(r_m, r_m + int(rng.integers(1, 3)))
            w = WaveDiscretization(dx, dx_p, dxx)
            _, lam1, lam2, _ = grid_eigenpairs(w, big_r, n)
            got_w = np.concatenate([lam1, lam2])
            want_w = np.linalg.eigvals(dense_wave_matrix(w, n, nu)) / n
            assert_multiset_close(got_w, want_w, tol=1e-10)

    _verdict(5, "closed-form spectra equal dense-matrix spectra", 30.0, body)


def test_criterion_06_instability_index_growth():
    def body(fail):
        cases = (
            ("fe+dx(2,0)", build_dx(2, 0), "fe", 0.03),
            ("rk2+dx(3,1)", build_dx(3, 1), "rk2", 0.3),
        )
        for label, dx, tab, mu in cases:
            pts = instability_curve(
                dx, None, get_tableau(tab), mu, SWEEP_NS, SweepMode.FIXED_MU
            )
            idx = [p.instability_index for p in pts]
            defined = [v is not None for v in idx]
            if True not in defined:
                fail.append(f"{label}: index never defined")
                continue
            n0 = defined.index(True)
            if not all(defined[n0:]):
                fail.append(f"{label}: index undefined after onset")
                continue
            tail = idx[n0:]
            if any(b < a - 0.1 for a, b in zip(tail, tail[1:])):
                fail.append(f"{label}: index decreases beyond noise")

    _verdict(6, "instability index defined and non-decreasing in resolution",
             60.0, body)


def test_criterion_07_half_threshold_stability():
    def body(fail):
        for tab_name in ("rk3", "rk4"):
            for lr in ((3, 1), (12, 11)):
                tab = get_tableau(tab_name)
                res = stable_mu_threshold(build_dx(*lr), None, tab, 0.0, 64)
                pts = instability_curve(
                    build_dx(*lr), None, tab, res.mu_star / 2,
                    [n for n in SWEEP_NS if n >= 64], SweepMode.FIXED_MU,
                )
                worst = max(p.rho for p in pts)
                if worst > 1 + 1e-12:
                    fail.append(
                        f"{tab_name}+dx{lr}: rho {worst} at half threshold"
                    )

    _verdict(7, "half the empirical step-ratio threshold stays stable", 60.0, body)


def test_criterion_08_diffusive_ratio_conditional_stability():
    def body(fail):
        fe = get_tableau("fe")

        def sweep(mu_nu):
            pts = instability_curve(
                build_dx(3, 1), build_dxx(2), fe, mu_nu, SWEEP_NS,
                SweepMode.FIXED_MU_NU, nu=0.1,
            )
            return [p.instability_index is not None for p in pts]

        for mu_nu in (0.1, 0.2):
            defined = sweep(mu_nu)
            if defined[-1]:
                fail.append(f"mu_nu={mu_nu}: curve does not break")
        defined = sweep(0.5)
        if not all(defined):
            fail.append("mu_nu=0.5: curve breaks although it should persist")

    _verdict(8, "small diffusive step ratios stabilize, large ones never do",
             120.0, body)


def test_criterion_09_wave_semistability():
    def body(fail):
        configs = (
            ((3, 1), (1, 3), 2),
            ((21, 20), (20, 21), 20),
            ((3, 1), (1, 2), 2),
            ((21, 20), (10, 11), 20),
        )
        for lr_m, lr_p, q in configs:
            w = WaveDiscretization(build_dx(*lr_m), build_dx(*lr_p), build_dxx(q))
            for r in (0.1, 2.0):
                if not wave_semistable_check(w, r):
                    fail.append(f"dx{lr_m}/dx{lr_p}/dxx({q}) at R={r}")

    _verdict(9, "wave spectra semistable with positivity sub-checks", 30.0, body)


def test_criterion_10_wave_spectrum_classification():
    def body(fail):
        dx = build_dx(1, 0)
        w = WaveDiscretization(dx, mirror(dx), build_dxx(1))
        for n in (16, 64, 256):
            if classify_spectrum(w, 10.0, n) is not SpectrumClass.ALL_REAL:
                fail.append(f"nu=10 N={n} not all-real")
        if classify_spectrum(w, 0.1, 1024) is not SpectrumClass.HAS_COMPLEX:
            fail.append("nu=0.1 N=1024 lacks complex eigenvalues")

    _verdict(10, "viscosity gates the real-versus-complex wave spectrum",
             10.0, body)


def test_criterion_11_simulator_spectrum_consistency():
    def body(fail):
        n, mu = 64, 0.4
        th = 2 * np.pi * np.arange(n) / n
        for tab_name in ("fe", "rk2", "rk4"):
            for lr, q, nu in (((3, 1), 2, 0.05), ((2, 1), 1, 0.02)):
                cfg = SimConfig(
                    grid=GridConfig(n, nu, dt=mu / n),
                    tableau=get_tableau(tab_name),
                    operators=(build_dx(*lr), build_dxx(q)),
                    t_final=1.0,
                )
                delta = np.zeros(n)
                delta[0] = 1.0
                stepped = step_ade(make_state((delta,)), cfg).fields[0]
                measured = np.fft.fft(stepped)
                lam = advection_symbol(build_dx(*lr), th)
                lam = lam + nu * n * diffusion_symbol(build_dxx(q), th)
                predicted = eval_p(stability_polynomial(cfg.tableau), mu * lam)
                err = float(np.max(np.abs(measured - predicted)))
                if err > 1e-11:
                    fail.append(f"{tab_name}+dx{lr}: mode gain error {err:.2e}")
        stable = SimConfig(
            grid=GridConfig(100, 0.0, dt=0.5 / 100),
            tableau=get_tableau("lsrk3"),
            operators=(build_dx(3, 1), None),
            t_final=100.0,
        )
        rep = run_gaussian_experiment(stable)
        if rep.blowup or rep.growth_factor > 2.0:
            fail.append(f"stable run grew by {rep.growth_factor:.3f}")
        weakly_unstable = SimConfig(
            grid=GridConfig(100, 0.0, dt=0.03 / 100),
            tableau=get_tableau("fe"),
            operators=(build_dx(2, 0), None),
            t_final=5000.0,
        )
        rep = run_gaussian_experiment(weakly_unstable, stop_factor=10.0)
        if not (rep.blowup or rep.growth_factor >= 10.0):
            fail.append(f"unstable run only reached {rep.growth_factor:.3f}x")

    _verdict(11, "time stepping reproduces the predicted mode gains and growth",
             120.0, body)
