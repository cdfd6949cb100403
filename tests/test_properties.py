"""Property tests over random tableaux, stencils, grids and step ratios.

Each property compares a library result with an independent route to the
same number: stage-by-stage evaluation of a Runge-Kutta step, a per-term
exponential sum, a dense circulant eigensolve, or a Fourier transform of
one simulator step.
Examples are derandomized, so every run draws the same cases.
"""

import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fdmlab import (
    ButcherTableau,
    GridConfig,
    SimConfig,
    WaveDiscretization,
    ade_symbol,
    build_dx,
    build_dxx,
    cli,
    eval_p,
    gaussian_pulse,
    get_tableau,
    grid_eigenpairs,
    make_state,
    mirror,
    run_simulation,
    sample_trajectory,
    sample_wave_trajectory,
    semidiscrete_eigs,
    stability_polynomial,
    step_ade,
    step_wave,
    wave_symbols,
)
from oracles import (
    assert_multiset_close,
    dense_ade_matrix,
    dense_wave_matrix,
    direct_ade_symbol,
    matrix_poly,
    reference_update,
)

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)
BUILTIN = ["fe", "rk2", "ssprk2", "rk3", "lsrk3", "rk4"]

small_rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
extents = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda lr: sum(lr) > 0)
half_widths = st.none() | st.integers(1, 3)
z_parts = st.floats(-4.0, 4.0)
reynolds = st.just(0.0) | st.floats(0.0, 5.0)
# one-sided families: upwind has left = right + 1 or right + 2
upwind = st.builds(lambda r, gap: (r + gap, r), st.integers(0, 3), st.integers(1, 2))
centered = st.integers(1, 4).map(lambda h: (h, h))


@st.composite
def explicit_tableaux(draw):
    s = draw(st.integers(1, 6))
    rows = [draw(st.lists(small_rationals, min_size=i, max_size=i)) for i in range(s)]
    b = draw(st.lists(small_rationals, min_size=s - 1, max_size=s - 1))
    return ButcherTableau.from_rows(rows, b + [1 - sum(b, Fraction(0))])


@st.composite
def dense_tableaux(draw):
    """Every a_ij below the diagonal nonzero, mostly with odd denominators,
    so that no product with them is exact by accident."""
    s = draw(st.integers(2, 5))
    entries = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9))
    rows = [draw(st.lists(entries, min_size=i, max_size=i)) for i in range(s)]
    b = draw(st.lists(entries, min_size=s - 1, max_size=s - 1))
    return ButcherTableau.from_rows(rows, b + [1 - sum(b, Fraction(0))])


def stage_amplification(tab, z):
    """p(z) by running the stages on w' = lam w with z = dt lam, w0 = 1,
    plus the same recursion in absolute values as the rounding scale."""
    a = [[float(x) for x in row] for row in tab.a]
    b = [float(x) for x in tab.b]
    y, y_abs = [], []
    for i in range(tab.stages):
        y.append(1 + z * sum(a[i][j] * y[j] for j in range(i)))
        y_abs.append(1 + abs(z) * sum(abs(a[i][j]) * y_abs[j] for j in range(i)))
    p = 1 + z * sum(bj * yj for bj, yj in zip(b, y))
    scale = 1 + abs(z) * sum(abs(bj) * yj for bj, yj in zip(b, y_abs))
    return p, scale


@PROPERTY
@given(explicit_tableaux(), z_parts, z_parts)
def test_polynomial_matches_stage_evaluation(tab, x, y):
    z = complex(x, y)
    want, scale = stage_amplification(tab, z)
    got = eval_p(stability_polynomial(tab), z)
    assert abs(got - want) <= 1e-12 * scale


@PROPERTY
@given(extents)
def test_mirror_is_an_involution_onto_the_swapped_extent(lr):
    left, right = lr
    op = build_dx(left, right)
    assert mirror(mirror(op)) == op
    assert mirror(op) == build_dx(right, left)


@PROPERTY
@given(st.none() | extents, half_widths, reynolds,
       st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=6))
def test_ade_symbol_matches_direct_sum(lr, q, r, angles):
    assume(lr is not None or q is not None)
    dx = None if lr is None else build_dx(*lr)
    dxx = None if q is None else build_dxx(q)
    lam = ade_symbol(dx, dxx, r, np.array(angles))
    for theta, got in zip(angles, lam):
        want, scale = direct_ade_symbol(dx, dxx, r, theta)
        for value in (got, ade_symbol(dx, dxx, r, theta)):
            assert abs(value - want) <= 1e-13 * (1.0 + scale)


@PROPERTY
@given(st.none() | extents, half_widths, reynolds | st.just(math.inf), st.integers(8, 40))
def test_sample_trajectory_matches_direct_sum(lr, q, r, n):
    assume((lr is not None and r != math.inf) or q is not None)
    dx = None if lr is None else build_dx(*lr)
    dxx = None if q is None else build_dxx(q)
    theta, lam = sample_trajectory(dx, dxx, r, n)
    if n % 2 == 0:
        assert theta[n // 2] == 0 and lam[n // 2] == 0
    # R = inf samples the diffusion part alone
    terms = (None, dxx, 1.0) if r == math.inf else (dx, dxx, r)
    for th, got in zip(theta, lam):
        want, scale = direct_ade_symbol(*terms, th)
        assert abs(got - want) <= 1e-13 * (1.0 + scale)


@PROPERTY
@given(upwind, upwind, st.integers(1, 3), st.integers(2, 16), reynolds)
def test_grid_eigenpairs_match_dense_oracle(lm, lp, q, n, r):
    w = WaveDiscretization(build_dx(*lm), mirror(build_dx(*lp)), build_dxx(q))
    _, lam1, lam2, _ = grid_eigenpairs(w, r, n)
    dense = np.linalg.eigvals(dense_wave_matrix(w, n, r / n)) / n
    assert_multiset_close(np.concatenate([lam1, lam2]), dense, tol=1e-10)


@PROPERTY
@given(extents, half_widths, st.integers(4, 24), st.floats(0.0, 5.0))
def test_semidiscrete_eigs_match_dense_oracle(lr, q, n, r):
    dx, dxx = build_dx(*lr), None if q is None else build_dxx(q)
    nu = r / n
    lib = semidiscrete_eigs(dx, dxx, GridConfig(n, nu, dt=1e-3))
    dense = np.linalg.eigvals(dense_ade_matrix(dx, dxx, n, nu)) / n
    assert_multiset_close(lib, dense, tol=1e-10)


def one_step_gain(tab, lr, q, n, mu, nu):
    """FFT of one simulator step from a unit impulse, p(z) and z = mu lambda
    at the same angles 2 pi k / n, k = 0..n-1."""
    dx, dxx = build_dx(*lr), None if q is None else build_dxx(q)
    grid = GridConfig(n, 0.0 if q is None else nu, dt=mu / n)
    cfg = SimConfig(grid=grid, tableau=tab, operators=(dx, dxx), t_final=1.0)
    delta = np.zeros(n)
    delta[0] = 1.0
    measured = np.fft.fft(step_ade(make_state((delta,)), cfg).fields[0])
    z = grid.mu * semidiscrete_eigs(dx, dxx, grid)
    return measured, eval_p(stability_polynomial(tab), z), z


step_grids = (extents, half_widths, st.integers(9, 32), st.floats(0.01, 1.0),
              st.floats(0.0, 0.2))


@PROPERTY
@given(st.sampled_from(BUILTIN), *step_grids)
def test_one_step_fourier_gain_is_p_of_mu_lambda(name, lr, q, n, mu, nu):
    measured, predicted, _ = one_step_gain(get_tableau(name), lr, q, n, mu, nu)
    scale = 1.0 + np.max(np.abs(predicted))
    assert np.max(np.abs(measured - predicted)) <= 1e-11 * scale


@PROPERTY
@given(explicit_tableaux(), *step_grids)
def test_one_step_fourier_gain_for_any_stage_plan(tab, lr, q, n, mu, nu):
    # zero entries anywhere in a and b: the step skips them, p sums over them
    measured, predicted, z = one_step_gain(tab, lr, q, n, mu, nu)
    _, scale = stage_amplification(tab, z)
    assert np.max(np.abs(measured - predicted)) <= 1e-11 * np.max(scale)


@PROPERTY
@given(st.sampled_from(BUILTIN).map(get_tableau) | explicit_tableaux(), upwind, upwind,
       st.integers(1, 3), st.integers(9, 32), st.floats(0.01, 1.0), st.floats(0.0, 0.2))
def test_one_wave_step_block_is_p_of_mu_m(tab, lm, lp, q, n, mu, nu):
    w = WaveDiscretization(build_dx(*lm), mirror(build_dx(*lp)), build_dxx(q))
    cfg = SimConfig(GridConfig(n, nu, dt=mu / n), tab, w, 1.0)
    delta, zero = np.eye(n)[0], np.zeros(n)
    # column c of the 2 x 2 block at angle 2 pi k / n is the FFT at k of
    # one step from a unit impulse in field c
    block = np.array([[np.fft.fft(f) for f in step_wave(make_state(fields), cfg).fields]
                      for fields in ((delta, zero), (zero, delta))]).transpose(2, 1, 0)
    am, ap, b = wave_symbols(w, 2 * np.pi * np.arange(n) / n)
    coeffs = stability_polynomial(tab).coeffs
    for k in range(n):
        m = mu * np.array([[nu * n * b[k] - (am[k] - ap[k]) / 2, -(am[k] + ap[k]) / 2],
                           [-(am[k] + ap[k]) / 2, -(am[k] - ap[k]) / 2]])
        _, scale = stage_amplification(tab, np.linalg.norm(m, 2))
        assert np.max(np.abs(block[k] - matrix_poly(coeffs, m))) <= 1e-11 * scale


@st.composite
def update_cases(draw):
    """A scalar or wave config on a grid of 4 cells up to a bit wider than
    its stencils, so a stencil may wrap onto the grid, fields for it and a
    full or shortened step.

    Each field value is a signed zero, an O(1) value, a magnitude up to
    the default blow-up limit or a subnormal (where scaling by 1/2 before
    or after a sum stops being exact); some cases hold signed zeros only,
    some signed zeros and subnormals only.
    """
    tab = draw(st.sampled_from(BUILTIN).map(get_tableau) | explicit_tableaux()
               | dense_tableaux())
    nu = draw(st.just(0.0) | st.floats(0.001, 0.2))
    if draw(st.booleans()):
        ops = WaveDiscretization(build_dx(*draw(upwind)), mirror(build_dx(*draw(upwind))),
                                 build_dxx(draw(st.integers(1, 3))))
        used = (ops.dx_minus, ops.dx_plus, ops.dxx)
    else:
        dx, q = build_dx(*draw(upwind | centered | extents)), draw(half_widths)
        ops = (dx, None if q is None else build_dxx(q))
        used = [op for op in ops if op is not None]
        nu = 0.0 if q is None else nu
    n = draw(st.integers(4, 12 + max(4, *(op.spec.width for op in used))))
    cfg = SimConfig(GridConfig(n, nu, dt=draw(st.floats(0.01, 1.0)) / n), tab, ops, 1.0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (2 if cfg.is_wave else 1, n)
    pools = [rng.choice([0.0, -0.0], shape), rng.uniform(-1.0, 1.0, shape),
             rng.choice([-1.0, 1.0], shape) * rng.uniform(9e9, 1e10, shape),
             rng.integers(-2**40, 2**40, shape) * 5e-324]
    kinds = draw(st.sampled_from([(0,), (0, 3), (0, 1, 2, 3)]))
    fields = tuple(np.choose(rng.choice(kinds, shape), pools))
    dt = cfg.grid.dt * draw(st.just(1.0) | st.floats(0.001, 1.0))
    return cfg, fields, dt


@PROPERTY
@given(update_cases())
def test_update_is_bit_identical_to_the_reference_formula(case):
    cfg, fields, dt = case
    got, want = cfg.update(fields, dt), reference_update(cfg, fields, dt)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def seeded_tableau(rng):
    """2-6 stages with entries p/q, p in -3..3 and q in 1..4, and the last
    weight 1 - sum, drawn by numpy: one seed, one tableau."""
    def entries(k):
        return [Fraction(int(p), int(q))
                for p, q in zip(rng.integers(-3, 4, k), rng.integers(1, 5, k))]

    s = int(rng.integers(2, 7))
    rows = [entries(i) for i in range(s)]
    b = entries(s - 1)
    return ButcherTableau.from_rows(rows, b + [1 - sum(b, Fraction(0))])


def seeded_update_case(seed):
    """A seeded tableau, then a scalar or wave config as in update_cases,
    with fields of signed zeros, O(1) values and subnormals, and a full or
    shortened step.  Hypothesis copies one drawn seed between examples, so
    the seeds here are a fixed list."""
    rng = np.random.default_rng(seed)
    tab = seeded_tableau(rng)

    def upwind():
        r = int(rng.integers(0, 4))
        return r + int(rng.integers(1, 3)), r

    nu = float(rng.choice([0.0, rng.uniform(0.001, 0.2)]))
    if rng.integers(2):
        ops = WaveDiscretization(build_dx(*upwind()), mirror(build_dx(*upwind())),
                                 build_dxx(int(rng.integers(1, 4))))
        used = (ops.dx_minus, ops.dx_plus, ops.dxx)
    else:
        left, right, q = (int(x) for x in rng.integers(0, [5, 5, 4]))
        ops = (build_dx(left, right) if left + right else build_dx(1, 1),
               build_dxx(q) if q else None)
        used = [op for op in ops if op is not None]
        nu = nu if q else 0.0
    n = int(rng.integers(4, 13 + max(4, *(op.spec.width for op in used))))
    cfg = SimConfig(GridConfig(n, nu, dt=float(rng.uniform(0.01, 1.0)) / n), tab, ops, 1.0)
    shape = (2 if cfg.is_wave else 1, n)
    pools = [rng.choice([0.0, -0.0], shape), rng.uniform(-1.0, 1.0, shape),
             rng.integers(-2**40, 2**40, shape) * 5e-324]
    fields = tuple(np.choose(rng.integers(0, len(pools), shape), pools))
    dt = cfg.grid.dt * float(rng.choice([1.0, rng.uniform(0.001, 1.0)]))
    return cfg, fields, dt


UPDATE_SEEDS = range(48)
SEEDED_TABLEAUX = [seeded_tableau(np.random.default_rng(seed)) for seed in UPDATE_SEEDS]


@pytest.mark.parametrize("seed", UPDATE_SEEDS)
def test_update_with_a_seeded_tableau_is_bit_identical(seed):
    cfg, fields, dt = seeded_update_case(seed)
    assert SEEDED_TABLEAUX.count(cfg.tableau) == 1  # no other seed draws it
    got, want = cfg.update(fields, dt), reference_update(cfg, fields, dt)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def csv_columns(path):
    """Float columns of a CSV the CLI wrote, header skipped."""
    _, *rows = Path(path).read_text(encoding="utf-8").splitlines()
    return [np.array([float(c) for c in col]) for col in zip(*(r.split(",") for r in rows))]


def assert_same_bits(got, want):
    assert np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


CSV_CHECKS = settings(PROPERTY, max_examples=20)


@CSV_CHECKS
@given(extents, st.integers(1, 3), reynolds, st.integers(8, 40))
@example((2, 2), 2, 0.0, 64)  # a central stencil at R = 0 writes -0.0 cells
def test_trajectory_csv_round_trips(lr, q, r, n):
    with tempfile.TemporaryDirectory() as tmp:
        assert cli.main(["trajectory", "--dx", *map(str, lr), "--dxx", str(q),
                         "--r-list", repr(r), "--samples", str(n),
                         "--out", f"{tmp}/t_"]) == 0
        (path,) = Path(tmp).glob("t_*.csv")
        theta, re, im = csv_columns(path)
    th, lam = sample_trajectory(build_dx(*lr), build_dxx(q), r, n)
    for got, want in ((theta, th), (re, lam.real), (im, lam.imag)):
        assert_same_bits(got, want)


@CSV_CHECKS
@given(upwind, upwind, st.integers(1, 3), reynolds, st.integers(8, 40))
def test_wave_spectrum_csv_round_trips(lm, lp, q, r, n):
    with tempfile.TemporaryDirectory() as tmp:
        out = f"{tmp}/w.csv"
        assert cli.main(["wave-spectrum", "--dx-minus", *map(str, lm), "--dx-plus",
                         *map(str, lp[::-1]), "--dxx", str(q),
                         "--r-value", repr(r), "--samples", str(n), "--out", out]) == 0
        columns = csv_columns(out)
    w = WaveDiscretization(build_dx(*lm), mirror(build_dx(*lp)), build_dxx(q))
    th, lam1, lam2, jordan = sample_wave_trajectory(w, r, n)
    want = (th, lam1.real, lam1.imag, lam2.real, lam2.imag, jordan)
    for got, value in zip(columns, want):
        assert_same_bits(got, value)


@CSV_CHECKS
@given(st.sampled_from(BUILTIN), st.booleans(), st.integers(16, 40),
       st.floats(0.05, 0.5), st.just(0.0) | st.floats(0.0, 0.05))
def test_simulate_csv_round_trips(name, wave, n, mu, nu):
    dx31 = build_dx(3, 1)
    if wave:
        flags = ["wave-simulate", "--dx-minus", "3", "1", "--dxx", "2"]
        operators, initial = WaveDiscretization(dx31, mirror(dx31), build_dxx(2)), 2
    else:
        flags = ["simulate", "--dx", "3", "1", "--dxx", "2"]
        operators, initial = (dx31, build_dxx(2)), 1
    with tempfile.TemporaryDirectory() as tmp:
        assert cli.main([*flags, "--tableau", name, "--nu", repr(nu),
                         "--mu", repr(mu), "--n", str(n), "--t-final", "0.5",
                         "--out", f"{tmp}/s_"]) == 0
        snaps = [csv_columns(p) for p in sorted(Path(tmp).glob("s_snap_*.csv"))]
    cfg = SimConfig(GridConfig(n, nu, dt=mu / n), get_tableau(name), operators, 0.5,
                    snapshot_times=(0.125, 0.25, 0.5))
    res = run_simulation(cfg, (gaussian_pulse(n),) * initial)
    # an unstable method may blow up before the last snapshot
    assert len(snaps) == len(res.snapshots)
    for (x, *fields), (_, want) in zip(snaps, res.snapshots):
        assert_same_bits(x, np.arange(n) / n)
        for got, value in zip(fields, want):
            assert_same_bits(got, value)
