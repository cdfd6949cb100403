"""Property tests over random tableaux, stencils, grids and step ratios.

Each property compares a library result with an independent route to the
same number: stage-by-stage evaluation of a Runge-Kutta step, a per-term
exponential sum, a dense circulant eigensolve, or a Fourier transform of
one simulator step.
Examples are derandomized, so every run draws the same cases.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fdmlab import (
    ButcherTableau,
    GridConfig,
    SimConfig,
    WaveDiscretization,
    ade_symbol,
    build_dx,
    build_dxx,
    eval_p,
    get_tableau,
    grid_eigenpairs,
    make_state,
    mirror,
    sample_trajectory,
    semidiscrete_eigs,
    stability_polynomial,
    step_ade,
)
from oracles import (
    assert_multiset_close,
    dense_ade_matrix,
    dense_wave_matrix,
    direct_ade_symbol,
)

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)

small_rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
extents = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda lr: sum(lr) > 0)
half_widths = st.none() | st.integers(1, 3)
z_parts = st.floats(-4.0, 4.0)
reynolds = st.just(0.0) | st.floats(0.0, 5.0)
# one-sided families: upwind has left = right + 1 or right + 2
upwind = st.builds(lambda r, gap: (r + gap, r), st.integers(0, 3), st.integers(1, 2))


@st.composite
def explicit_tableaux(draw):
    s = draw(st.integers(1, 6))
    rows = [draw(st.lists(small_rationals, min_size=i, max_size=i)) for i in range(s)]
    b = draw(st.lists(small_rationals, min_size=s - 1, max_size=s - 1))
    return ButcherTableau.from_rows(rows, b + [1 - sum(b, Fraction(0))])


def stage_amplification(tab, z):
    """p(z) by running the stages on w' = lam w with z = dt lam, w0 = 1,
    plus the same recursion in absolute values as the rounding scale."""
    a, b = tab.a_float, tab.b_float
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


@PROPERTY
@given(
    st.sampled_from(["fe", "rk2", "ssprk2", "rk3", "lsrk3", "rk4"]),
    extents,
    half_widths,
    st.integers(9, 32),
    st.floats(0.01, 1.0),
    st.floats(0.0, 0.2),
)
def test_one_step_fourier_gain_is_p_of_mu_lambda(name, lr, q, n, mu, nu):
    dx, dxx = build_dx(*lr), None if q is None else build_dxx(q)
    grid = GridConfig(n, 0.0 if q is None else nu, dt=mu / n)
    cfg = SimConfig(grid=grid, tableau=get_tableau(name), operators=(dx, dxx), t_final=1.0)
    delta = np.zeros(n)
    delta[0] = 1.0
    measured = np.fft.fft(step_ade(make_state((delta,)), cfg).fields[0])
    # semidiscrete_eigs runs over k = 1..n; the FFT starts at k = 0
    lam = np.roll(semidiscrete_eigs(dx, dxx, grid), 1)
    predicted = eval_p(stability_polynomial(cfg.tableau), grid.mu * lam)
    scale = 1.0 + np.max(np.abs(predicted))
    assert np.max(np.abs(measured - predicted)) <= 1e-11 * scale
