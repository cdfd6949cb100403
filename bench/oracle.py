"""Reference evaluations for the benchmark's correctness gate.

Nothing here calls fdmlab's numerical routines.  Symbols are summed term by
term over cos/sin of the stencil offsets, stability polynomials come from a
fixed table of textbook coefficients and are evaluated by Horner's rule
here, and the wave block is assembled and raised to powers directly.  The
only input taken from the program is the exact stencil coefficients, and
those are checked against their moment conditions first.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

TOL_STABLE = 1e-12
ROUNDING = 1e-15  # about 4 ulp of rho near 1

# p(z) coefficients, constant term first, for the explicit methods the
# workloads use: forward Euler, Kutta's 3-stage third order scheme, the
# 4-stage low-storage third order scheme, and classical RK4.
POLY = {
    "fe": (1.0, 1.0),
    "rk3": (1.0, 1.0, 1 / 2, 1 / 6),
    "lsrk3": (1.0, 1.0, 1 / 2, 1 / 6, 1 / 12),
    "rk4": (1.0, 1.0, 1 / 2, 1 / 6, 1 / 24),
}


def moments_ok(coeffs, left: int, second: bool) -> bool:
    """Exact moment conditions of an optimal stencil.

    First derivative: sum_k k^m a_k = delta_{m,1} for m = 0..width-1.
    Centered second derivative: sum_k k^m b_k = 2 delta_{m,2} for
    m = 0..width (one extra order from the even symmetry).
    """
    coeffs = [Fraction(c) for c in coeffs]
    width = len(coeffs)
    target, top = (2, width) if second else (1, width - 1)
    for m in range(top + 1):
        s = sum(Fraction(i - left) ** m * c for i, c in enumerate(coeffs))
        if s != (Fraction(2 if second else 1) if m == target else 0):
            return False
    return True


def horner(poly, z):
    z = np.asarray(z, dtype=complex)
    acc = np.zeros_like(z)
    for c in reversed(poly):
        acc = acc * z + c
    return acc


def dx_symbol(coeffs, left: int, theta) -> np.ndarray:
    """-sum_k a_k e^{i k theta}, summed one offset at a time."""
    th = np.asarray(theta, dtype=float)
    re = np.zeros_like(th)
    im = np.zeros_like(th)
    for i, c in enumerate(coeffs):
        c = float(c)
        if c:
            k = i - left
            re -= c * np.cos(k * th)
            im -= c * np.sin(k * th)
    return re + 1j * im


def dxx_symbol(coeffs, theta) -> np.ndarray:
    """sum_k b_k cos(k theta) over the full centered stencil."""
    th = np.asarray(theta, dtype=float)
    q = (len(coeffs) - 1) // 2
    out = np.zeros_like(th)
    for i, c in enumerate(coeffs):
        out += float(c) * np.cos((i - q) * th)
    return out


def grid_angles(n: int) -> np.ndarray:
    """2 pi k / n for k = 1..n, with the last angle exactly 0."""
    th = 2.0 * math.pi * np.arange(1, n + 1) / n
    th[-1] = 0.0
    return th


def sample_angles(n: int) -> np.ndarray:
    """Uniform angles -pi + 2 pi j / n, j = 0..n-1, as the samplers use."""
    return -math.pi + 2.0 * math.pi * np.arange(n) / n


def ade_eigs(dx, dxx, n: int, r: float, theta=None) -> np.ndarray:
    """h-scaled semidiscrete eigenvalues; ``dx``/``dxx`` are (coeffs, left) or None."""
    th = grid_angles(n) if theta is None else np.asarray(theta, dtype=float)
    lam = np.zeros(th.shape, dtype=complex)
    if dx is not None:
        lam += dx_symbol(*dx, th)
    if dxx is not None and r != 0:
        lam += r * dxx_symbol(dxx[0], th)
    lam[th == 0.0] = 0.0
    return lam


def control_grid(fixed_mu_nu: bool, n: int, control: float, nu: float):
    """(mu, R) of the grid whose step puts the sweep control at ``control``."""
    dt = control / (nu * n**2) if fixed_mu_nu else control / n
    return dt * n, nu * n


def rho(dx, dxx, poly, n: int, control: float, nu: float, fixed_mu_nu: bool) -> float:
    """Spectral radius of the fully discrete update at one control value."""
    mu, r = control_grid(fixed_mu_nu, n, control, nu)
    return float(np.max(np.abs(horner(poly, mu * ade_eigs(dx, dxx, n, r)))))


def threshold_failure(dx, dxx, poly, n: int, mu_star: float, tol: float, nu: float,
                      fixed_mu_nu: bool) -> str | None:
    """None when mu_star is stable and mu_star * (1 + 2 tol) is not.

    Both sides allow ROUNDING in rho: where p(z) leaves the unit disk only
    at fourth order (lsrk3 with a wide stencil), rho - 1 is near TOL_STABLE
    across the whole bracket and the two routes' last-bit differences
    decide the side.  An error of 1% in mu_star still fails either way.
    """
    at = rho(dx, dxx, poly, n, mu_star, nu, fixed_mu_nu) - 1.0
    past = rho(dx, dxx, poly, n, mu_star * (1 + 2 * tol), nu, fixed_mu_nu) - 1.0
    if at > TOL_STABLE + ROUNDING:
        return f"unstable at mu_star={mu_star!r}: rho-1={at:.3e}"
    if past <= TOL_STABLE - ROUNDING:
        return f"still stable past the bracket of mu_star={mu_star!r}: rho-1={past:.3e}"
    return None


def wave_block(dxm, dxp, dxx, r: float, theta) -> np.ndarray:
    """h-scaled 2x2 mode blocks of the flux-split wave system, shape (n, 2, 2).

    With am, ap the symbols sum_k c_k e^{ik theta} of the two one-sided
    operators and b the diffusion symbol, the (v, p) block is
    [[R b - (am - ap)/2, -(am + ap)/2], [-(am + ap)/2, -(am - ap)/2]].
    """
    am = -dx_symbol(*dxm, theta)
    ap = -dx_symbol(*dxp, theta)
    b = dxx_symbol(dxx[0], theta)
    blk = np.empty(np.shape(theta) + (2, 2), dtype=complex)
    blk[..., 0, 0] = r * b - 0.5 * (am - ap)
    blk[..., 0, 1] = -0.5 * (am + ap)
    blk[..., 1, 0] = -0.5 * (am + ap)
    blk[..., 1, 1] = -0.5 * (am - ap)
    return blk


def wave_pairs(blk: np.ndarray) -> np.ndarray:
    """Both eigenvalues of each 2x2 block from its trace and discriminant."""
    tr = blk[:, 0, 0] + blk[:, 1, 1]
    disc = np.sqrt((blk[:, 0, 0] - blk[:, 1, 1]) ** 2 + 4 * blk[:, 0, 1] * blk[:, 1, 0])
    return np.stack([(tr + disc) / 2, (tr - disc) / 2], axis=1)


def matrix_horner(poly, z: np.ndarray) -> np.ndarray:
    """p(Z) for a stack of square matrices Z."""
    eye = np.broadcast_to(np.eye(z.shape[-1], dtype=complex), z.shape)
    acc = np.zeros_like(z)
    for c in reversed(poly):
        acc = acc @ z + c * eye
    return acc


def pair_error(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Per-row distance between two eigenvalue pairs, taken as multisets."""
    same = np.maximum(np.abs(got[:, 0] - want[:, 0]), np.abs(got[:, 1] - want[:, 1]))
    swap = np.maximum(np.abs(got[:, 0] - want[:, 1]), np.abs(got[:, 1] - want[:, 0]))
    return np.minimum(same, swap)


def gaussian(n: int) -> np.ndarray:
    x = np.arange(n) / n
    return np.exp(-100.0 * (x - 0.5) ** 2)
