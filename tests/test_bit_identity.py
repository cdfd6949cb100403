"""The spectrum layer's fast paths against their earlier formulas, bit for bit.

``advection_symbol`` fills its blocks from real cosines and sines and
``eval_p`` runs Horner in place; ``tests/oracles.py`` keeps the complex
exponential blocks and the allocating Horner loop they replaced.  Every
symbol, grid spectrum, sampled curve and polynomial value must keep its
bytes.  Cases come from seeded numpy generators: every first-derivative
stencil up to dx(21, 21), every centered dxx(q) up to q = 5, grid sizes
on both sides of the 2^16-angle block height, and all six built-in
tableaux over step ratios from 1e-3 to 1e3.
"""

import math

import numpy as np
import pytest

from fdmlab import (
    GridConfig,
    ade_symbol,
    advection_symbol,
    build_dx,
    build_dxx,
    eval_p,
    get_tableau,
    grid_angles,
    sample_grid,
    sample_trajectory,
    semidiscrete_eigs,
    stability_polynomial,
)
from oracles import reference_ade_symbol, reference_advection_symbol, reference_eval_p

BUILTIN = ["fe", "rk2", "ssprk2", "rk3", "lsrk3", "rk4"]
EXTENT = 21
# sizes around the block height, a one-angle trailing block among them
BLOCK_SIZES = [4, 5, 7, 8, 255, 4096, 4097, 65535, 65536, 65537, 2**17, 2**17 + 1]
DRAWN_SIZES = sorted({int(n) for n in np.random.default_rng(11).integers(9, 2**17, 4)})


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
        cases = [grid_angles(int(rng.integers(4, 600))),
                 sample_grid(int(rng.integers(8, 600))),
                 angle_pools(rng, (3, 5)),
                 float(angle_pools(rng, ())),
                 float(rng.uniform(-math.pi, math.pi)),
                 0.0]
        for theta in cases:
            same_bits(advection_symbol(dx, theta), reference_advection_symbol(dx, theta))


@pytest.mark.parametrize("n", BLOCK_SIZES + DRAWN_SIZES)
def test_grid_spectra_across_block_sizes(n):
    rng = np.random.default_rng(n)
    dx, dxx, nu = random_dx(rng), random_dxx(rng), random_r(rng) / n
    grid = GridConfig(n, nu, dt=0.1 / n)
    r = grid.r
    th = grid_angles(n)
    same_bits(semidiscrete_eigs(dx, dxx, grid),
              reference_ade_symbol(dx, None if r == 0 else dxx, r, th))
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
