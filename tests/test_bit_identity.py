"""The spectrum layer's fast paths against their earlier formulas, bit for bit.

``advection_symbol`` fills its blocks from real cosines and sines and
``eval_p`` runs Horner in place from the leading coefficient;
``tests/oracles.py`` keeps the complex exponential blocks, the allocating
Horner loop and the one-spectrum-per-resolution sweep they replaced.
Every symbol, sampled curve, polynomial value and sweep point must keep
its bytes.  Grid spectra come from an FFT instead of the symbol sums, so
they are held to a rounding bound against the direct sum.  Cases come
from seeded numpy generators: every first-derivative stencil up to
dx(21, 21), every centered dxx(q) up to q = 5, grid sizes on both sides of
the 2^16-angle block height, all six built-in tableaux over step ratios
from 1e-3 to 1e3, and nested and mixed resolution lists in both sweep
modes.

A symbol's bits depend on its angle alone: every evaluator, and the wave
eigenvalue pairs, give a scalar angle and the same angle at any position
of an array of any size the same bits.
"""

import math

import numpy as np
import pytest

from fdmlab import (
    GridConfig,
    SweepMode,
    WaveDiscretization,
    ade_symbol,
    advection_symbol,
    build_dx,
    build_dxx,
    diffusion_symbol,
    eval_p,
    full_spectrum,
    get_tableau,
    instability_curve,
    mirror,
    sample_grid,
    sample_trajectory,
    semidiscrete_eigs,
    stability_polynomial,
    upwind_symbol_real_part,
    wave_eigs,
)
from oracles import (
    reference_ade_symbol,
    reference_advection_symbol,
    reference_eval_p,
    reference_instability_curve,
)

BUILTIN = ["fe", "rk2", "ssprk2", "rk3", "lsrk3", "rk4"]
EXTENT = 21
# sizes around the block height, a one-angle trailing block among them, and
# FFT lengths that are powers of two, odd, and prime (65537)
BLOCK_SIZES = [4, 5, 7, 8, 255, 4096, 4097, 65535, 65536, 65537, 2**17, 2**17 + 1]
DRAWN_SIZES = sorted({int(n) for n in np.random.default_rng(11).integers(9, 2**17, 4)})
TERMS = ["dx", "dxx", "both"]  # operators of the sweep cases
SWEEP_LISTS = [
    [2**k for k in range(2, 13)],  # doubling from 4 cells
    [12, 16, 24, 32, 48, 96, 100],  # powers of two mixed with 3 * 2^j
    [5, 10, 20, 40, 80, 160, 320],  # an odd base
    [7, 14, 21, 28, 42, 56, 63, 84, 126],  # multiples of 7, odd and even
    [4097, 8194, 65537, 131074],  # odd sizes, the prime 65537, and their doubles
    [1000, 2000, 3000, 4000, 5000, 6000],  # "a:b:step"
]


def fft_angles(n):
    """The grid angles 2 pi k / n in ``np.fft.fft`` order, k = 0..n-1."""
    return 2.0 * np.pi * np.arange(n) / n


def same_bits(got, want):
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def angle_pools(rng, shape):
    """Signed zeros, angles in a period, large angles and tiny angles down
    to subnormal products, mixed element by element."""
    pools = [rng.choice([0.0, -0.0], shape), rng.uniform(-math.pi, math.pi, shape),
             rng.uniform(-1e3, 1e3, shape),
             rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-320, -1, shape)]
    return np.choose(rng.integers(0, len(pools), shape), pools)


def random_dx(rng):
    left, right = (int(x) for x in rng.integers(0, EXTENT + 1, 2))
    return build_dx(left, right) if left + right else build_dx(1, 1)


def random_dxx(rng):
    q = int(rng.integers(0, 6))
    return build_dxx(q) if q else None


def random_r(rng):
    return float(rng.choice([0.0, rng.uniform(0.0, 1.0), rng.uniform(1.0, 1e3)]))


@pytest.mark.parametrize("left", range(EXTENT + 1))
def test_advection_symbol_every_dx(left):
    # upwind, central and downwind stencils of every extent up to 21
    rng = np.random.default_rng(left)
    for right in range(EXTENT + 1):
        if left + right == 0:
            continue
        dx = build_dx(left, right)
        cases = [fft_angles(int(rng.integers(4, 600))),
                 sample_grid(int(rng.integers(8, 600))),
                 angle_pools(rng, (3, 5)),
                 float(angle_pools(rng, ())),
                 float(rng.uniform(-math.pi, math.pi)),
                 0.0]
        for theta in cases:
            same_bits(advection_symbol(dx, theta), reference_advection_symbol(dx, theta))


@pytest.mark.parametrize("n", BLOCK_SIZES + DRAWN_SIZES)
def test_grid_spectra_across_block_sizes(n):
    # the FFT spectrum stays within a rounding bound of the direct sum, most
    # of which is the direct sum's own error in the angles k * theta
    rng = np.random.default_rng(n)
    dx, dxx, nu = random_dx(rng), random_dxx(rng), random_r(rng) / n
    grid = GridConfig(n, nu, dt=0.1 / n)
    r = grid.r
    th = fft_angles(n)
    dif = None if r == 0 else dxx
    scale = np.abs(dx.coeffs_float).sum() + (0.0 if dif is None else
                                              r * np.abs(dif.coeffs_float).sum())
    err = np.abs(semidiscrete_eigs(dx, dxx, grid) - reference_ade_symbol(dx, dif, r, th))
    assert np.max(err) <= 32 * np.finfo(float).eps * scale
    if dxx is not None:
        same_bits(ade_symbol(None, dxx, r, th), reference_ade_symbol(None, dxx, r, th))


@pytest.mark.parametrize("n", [8, 9, 22, 4096, 65537])
def test_sample_trajectory(n):
    # negative angles, theta = 0 and, at 65537 samples, one nonzero angle
    # alone in the last block
    rng = np.random.default_rng(n)
    for r in (0.0, random_r(rng), math.inf):
        dx, dxx = random_dx(rng), build_dxx(int(rng.integers(1, 6)))
        th, lam = sample_trajectory(dx, dxx, r, n)
        want = reference_ade_symbol(None, dxx, 1.0, th) if r == math.inf else \
            reference_ade_symbol(dx, dxx, r, th)
        same_bits(th, sample_grid(n))
        same_bits(lam, want)


@pytest.mark.parametrize("n", [4, 255, 4097, 65537])
def test_full_spectrum(n):
    # lambda scaled in place and Horner from the leading coefficient
    rng = np.random.default_rng(n)
    for name in BUILTIN:
        p = stability_polynomial(get_tableau(name))
        dx, dxx, nu = random_dx(rng), random_dxx(rng), random_r(rng) / n
        grid = GridConfig(n, nu, dt=float(rng.uniform(0.01, 2.0)) / n)
        same_bits(full_spectrum(dx, dxx, grid, p).eigenvalues,
                  reference_eval_p(p.coeffs, grid.mu * semidiscrete_eigs(dx, dxx, grid)))


@pytest.mark.parametrize("mode", list(SweepMode))
@pytest.mark.parametrize("terms", TERMS)
def test_instability_curve(terms, mode):
    rng = np.random.default_rng([TERMS.index(terms), list(SweepMode).index(mode)])
    fixed_mu = mode is SweepMode.FIXED_MU
    lists = SWEEP_LISTS + [sorted({int(n) for n in rng.integers(4, 3000, 12)}
                                  | {int(n) * 2**j for n in rng.integers(4, 300, 2)
                                     for j in range(4)})]
    for ns in lists:
        name = BUILTIN[int(rng.integers(len(BUILTIN)))]
        p = stability_polynomial(get_tableau(name))
        dx = None if terms == "dxx" else build_dx(*(int(x) for x in rng.integers(1, 5, 2)))
        dxx = None if terms == "dx" else build_dxx(int(rng.integers(1, 4)))
        nu = 0.0 if fixed_mu and terms == "dx" else float(10.0 ** rng.uniform(-4, -1))
        control = float(rng.uniform(0.05, 1.5) if fixed_mu else rng.uniform(0.05, 0.6))
        got = instability_curve(dx, dxx, p, control, ns, mode, nu)
        want = reference_instability_curve(dx, dxx, p, control, ns, mode, nu)
        assert repr(got) == repr(want), (name, ns)


@pytest.fixture(scope="module")
def grid_spectra():
    n = 4096
    rng = np.random.default_rng(7)
    ops = [(build_dx(3, 1), None, 0.0), (build_dx(2, 2), build_dxx(2), 0.01),
           (build_dx(12, 11), build_dxx(5), 0.1), (random_dx(rng), random_dxx(rng), 0.0)]
    return [semidiscrete_eigs(dx, dxx, GridConfig(n, nu, dt=0.1 / n)) for dx, dxx, nu in ops]


@pytest.mark.parametrize("name", BUILTIN)
def test_eval_p(name, grid_spectra):
    p = stability_polynomial(get_tableau(name))
    rng = np.random.default_rng(BUILTIN.index(name))
    mus = np.geomspace(1e-3, 1e3, 19) * rng.uniform(0.9, 1.1, 19)
    for lam in grid_spectra:
        for mu in mus:
            same_bits(eval_p(p, mu * lam), reference_eval_p(p.coeffs, mu * lam))
    size = 100_000
    z = 10.0 ** rng.uniform(-300, 300, size) * np.exp(1j * rng.uniform(-math.pi, math.pi, size))
    x = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-300, 300, size)
    with np.errstate(all="ignore"):  # high powers of large z overflow
        for arg in (z, x, z.reshape(100, -1), complex(z[0]), float(x[0]), 0.0, 1e-3j):
            same_bits(eval_p(p, arg), reference_eval_p(p.coeffs, arg))


EVALUATORS = ["advection", "diffusion", "ade", "upwind", "wave"]
DXX_HALF_WIDTHS = [1, 3, 8, 12, 20]
# every remainder of a 4-row group, both sides of 4096 samples, and one
# angle alone in the last block of 2^16 angles
POSITION_SIZES = [*range(1, 18), 4095, 4097, 65537]
POOL = 16  # angles of each kind followed through every size


def _draw_evaluator(name, rng, case):
    """One evaluator as a function of the angles alone, its operators drawn
    from dx(l, r) with l, r <= 21 and dxx(q) with q in DXX_HALF_WIDTHS."""
    q = DXX_HALF_WIDTHS[case % len(DXX_HALF_WIDTHS)]
    dx, dxx, r = random_dx(rng), build_dxx(q), random_r(rng)
    if name == "advection":
        return lambda th: advection_symbol(dx, th)
    if name == "diffusion":
        return lambda th: diffusion_symbol(dxx, th)
    if name == "ade":
        return lambda th: ade_symbol(dx, dxx, r, th)
    if name == "upwind":
        up = _random_upwind(rng)
        return lambda th: upwind_symbol_real_part(up, th)
    w = WaveDiscretization(_random_upwind(rng), mirror(_random_upwind(rng)), dxx)
    r_wave = float(10.0 ** rng.uniform(-2, 3))  # R > 0 lets R b set the signs of zeros
    return lambda th: wave_eigs(w, r_wave, th)


def _random_upwind(rng):
    right = int(rng.integers(0, EXTENT))
    return build_dx(min(right + int(rng.integers(1, 3)), EXTENT), right)


def _words(f, theta, at):
    """The bytes of every value f gives at the angles theta[at], in order."""
    out = f(theta)
    parts = [np.asarray(v).reshape(-1) for v in (out if isinstance(out, tuple) else (out,))]
    return [b"".join(p[i].tobytes() for p in parts) for i in at]


@pytest.mark.parametrize("name", EVALUATORS)
def test_symbol_bits_depend_on_the_angle_alone(name):
    # a scalar angle and an angle at any position of any array get the same
    # bits: remainder rows of a block and a lone last angle included
    rng = np.random.default_rng(20 + EVALUATORS.index(name))
    for case in range(2 * len(DXX_HALF_WIDTHS)):
        f = _draw_evaluator(name, rng, case)
        # subnormal angles too, whose tiny values show the signs of zeros
        tiny = rng.choice([-1.0, 1.0], POOL) * 10.0 ** rng.uniform(-323.5, -300, POOL)
        pool = rng.permutation(np.concatenate([angle_pools(rng, POOL), tiny]))
        want = _words(f, pool, range(pool.size))
        for i, theta in enumerate(pool):
            assert _words(f, float(theta), [0]) == [want[i]], (name, case, "scalar", i)
        for size in POSITION_SIZES:
            theta = angle_pools(rng, size)
            count = min(size, pool.size)
            at = np.append(rng.choice(size - 1, count - 1, replace=False), size - 1)
            theta[at] = pool[:count]
            assert _words(f, theta, at) == want[:count], (name, case, size)
