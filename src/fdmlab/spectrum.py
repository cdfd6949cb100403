"""Fourier symbols of the semidiscrete advection-diffusion operator.

On a periodic grid the discretization is circulant, so its spectrum is the
symbol evaluated at the grid roots of unity.  With wavenumber variable
theta the advection part contributes

    lambda_0(theta) = -sum_k a_k e^{i k theta},

the diffusion part contributes the real, even function

    lambda_inf(theta) = b_0 + 2 sum_{k>=1} b_k cos(k theta),

and the combined symbol for reciprocal cell Reynolds number R is
lambda_R = lambda_0 + R * lambda_inf, added up by ``_combine`` alone, for
the sampled curves of :func:`ade_symbol` and the grid spectra of
``fulldisc``.  Everything here is plain double precision except where
cancellation would destroy the result: the real part of lambda_0 behaves
like -c * theta^(2*left) near theta = 0, far below summation roundoff
for wide stencils, so sign-critical paths use the closed-form sine-power
expression instead of the coefficient sum.

The symbols are evaluated over blocks of at most _CHUNK angles, each
with a row count that is a multiple of _ROWS, so every angle takes one
kernel route and its value depends on the angle alone: a scalar angle,
and an angle at any position of any array, get the same bits.  An
advection block writes the real products k * theta into the imaginary
half of one complex array, fills e^{i k theta} there as cos + i sin in
place, and sums it against the coefficients with one matrix-vector
product.  exp(+-0 + iy) is exactly cos y + i sin y, so the values are bit
for bit those of the complex exponential, at a fraction of its cost and
without a complex argument array.  Every evaluator refuses angles that
are complex or not finite.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .stencil import FdOperator, StabilityClass, StencilKind, _check_integer, classify

__all__ = [
    "advection_symbol",
    "diffusion_symbol",
    "ade_symbol",
    "sample_trajectory",
    "sample_grid",
    "grid_angles",
    "upwind_symbol_real_part",
    "vietoris_check",
    "asymptotic_exponent",
]

N_SAMPLES = 4096  # default angle count of the sampled checks and trajectories
_CHUNK = 1 << 16  # angles per block of the symbol evaluators
# row multiple of every block: OpenBLAS's dgemv_t takes rows in fours and rounds
# the rest differently, and numpy sends a lone row down its dot route
_ROWS = 4


def _require_dx(op: FdOperator) -> None:
    if op.spec.kind is not StencilKind.FIRST_DERIVATIVE:
        raise ValueError("expected a first-derivative operator")


def _require_dxx(op: FdOperator) -> None:
    if op.spec.kind is not StencilKind.SECOND_DERIVATIVE_CENTERED:
        raise ValueError("expected a centered second-derivative operator")


def sample_grid(n_samples: int) -> np.ndarray:
    """Uniform angles theta_j = -pi + 2 pi j / n, j = 0..n-1.

    For even n the grid contains theta = 0 exactly, the consistency point
    where every symbol vanishes: entry n/2 is set to 0.0, which rounding
    alone misses for some n (22, 26, 30, ...).
    """
    _check_integer(n_samples, "n_samples")
    if n_samples < 8:
        raise ValueError("need at least 8 samples")
    j = np.arange(n_samples)
    th = -math.pi + 2.0 * math.pi * j / n_samples
    if n_samples % 2 == 0:
        th[n_samples // 2] = 0.0
    return th


def _check_n_cells(n_cells, least: int) -> None:
    """The cell-count rule of every periodic grid: an integer >= least."""
    _check_integer(n_cells, "n_cells")
    if n_cells < least:
        raise ValueError(f"need at least {least} cells")


def grid_angles(n_cells: int) -> np.ndarray:
    """Grid angles theta_k = 2 pi k / n, k = 1..n, with the k = n angle
    exactly 0 so every symbol vanishes there exactly."""
    k = np.arange(1, n_cells + 1)
    th = 2.0 * math.pi * k / n_cells
    th[-1] = 0.0
    return th


def _evaluate(block, theta, dtype):
    """Symbol values ``block(th)`` filled into one preallocated output,
    _CHUNK angles at a time, so (angles x width) work arrays stay bounded;
    exactly 0 at theta = 0, and a Python scalar for a scalar angle.  A
    block whose row count is not a multiple of _ROWS repeats its own angles
    up to one, and the extra rows are dropped, so each angle's value
    depends on the angle alone.  Complex, NaN and infinite angles raise
    ValueError."""
    if np.iscomplexobj(theta):  # a float cast would keep only the real part
        raise ValueError("angles must be real")
    th = np.asarray(theta, dtype=float)
    flat = th.reshape(-1)
    if not np.isfinite(flat).all():
        raise ValueError("angles must be finite")
    out = np.empty(flat.shape, dtype=dtype)
    for start in range(0, flat.size, _CHUNK):
        dest, rows = out[start : start + _CHUNK], flat[start : start + _CHUNK]
        if dest.size % _ROWS:  # repeat the block's own angles up to a row multiple
            rows = np.resize(rows, dest.size + -dest.size % _ROWS)
        dest[...] = block(rows)[: dest.size]
    out[flat == 0.0] = 0.0
    return out[0].item() if th.ndim == 0 else out.reshape(th.shape)


def advection_symbol(dx: FdOperator, theta):
    """lambda_0(theta) = -sum_k a_k e^{i k theta}, exactly 0 at theta = 0.

    Accepts a scalar or an array of angles.  Each block takes the cosines
    and sines of the real products k * theta in place, which gives
    e^{i k theta} bit for bit (see the module docstring).
    """
    _require_dx(dx)
    offsets = dx.offsets.astype(float)

    def block(th):
        e = np.empty((th.size, offsets.size), dtype=complex)
        np.multiply(th[:, np.newaxis], offsets, out=e.imag)
        np.cos(e.imag, out=e.real)
        np.sin(e.imag, out=e.imag)
        return -(e @ dx.coeffs_float)

    return _evaluate(block, theta, complex)


def diffusion_symbol(dxx: FdOperator, theta):
    """lambda_inf(theta) = b_0 + 2 sum_{k>=1} b_k cos(k theta).

    Real by the even symmetry of the coefficients; evaluated in the cosine
    form so no imaginary roundoff appears at all.  Exactly 0 at theta = 0.
    """
    _require_dxx(dxx)
    q = dxx.spec.left
    b = dxx.coeffs_float
    k = np.arange(1, q + 1, dtype=float)

    def block(th):
        return b[q] + 2.0 * (np.cos(th[:, np.newaxis] * k) @ b[q + 1 :])

    return _evaluate(block, theta, float)


def _check_r(r) -> None:
    """The R rule of every symbol and wave eigenvalue pair: finite, >= 0."""
    if not (math.isfinite(r) and r >= 0):
        raise ValueError(f"R must be finite and non-negative, got {r!r}")


def _combine(adv, dif, r: float):
    """lambda_R = adv + R * dif from symbol values, for finite R >= 0.

    ``adv`` and ``dif`` are advection and diffusion symbol values at the
    same angles, or None for an absent term, not both.  The one place the
    two parts are added, for :func:`ade_symbol` and the grid spectra.
    """
    if adv is None and dif is None:
        raise ValueError("at least one active operator is required")
    _check_r(r)
    return (0j if adv is None else adv) + (0.0 if dif is None else r * dif)


def ade_symbol(dx: FdOperator | None, dxx: FdOperator | None, r: float, theta):
    """Combined symbol lambda_R = lambda_0 + R * lambda_inf for finite R >= 0.

    Either operator may be None (term absent), not both.  Accepts a scalar
    or an array of angles; exactly 0 at theta = 0.
    """
    adv = None if dx is None else advection_symbol(dx, theta)
    return _combine(adv, None if dxx is None else diffusion_symbol(dxx, theta), r)


def sample_trajectory(dx: FdOperator | None, dxx: FdOperator | None, r: float,
                      n_samples: int = N_SAMPLES) -> tuple[np.ndarray, np.ndarray]:
    """Sample the symbol curve on the uniform angle grid.

    Returns ``(theta, lam)``: the float angles of :func:`sample_grid` and
    the complex symbol values lam = x + i y there.  Operators and R are
    those of :func:`ade_symbol`, except that R = inf traces the (real)
    diffusion symbol alone and ignores ``dx``.
    """
    th = sample_grid(n_samples)
    if r == math.inf:
        return th, ade_symbol(None, dxx, 1.0, th)
    return th, ade_symbol(dx, dxx, r, th)


def _upwind_closed_form(dx: FdOperator) -> tuple[float, int]:
    """(amp, 2l) with Re lambda_0 = -amp sin^{2l}(theta/2), amp > 0; see
    :func:`upwind_symbol_real_part`."""
    _require_dx(dx)
    if classify(dx.spec) is not StabilityClass.STABLE_UPWIND:
        raise ValueError("closed form applies to the upwind families only")
    l, r = dx.spec.left, dx.spec.right
    num = (2 ** (2 * l)) * math.factorial(l) * math.factorial(r)
    if l == r + 2:
        num *= 2 * r + 3
    return float(Fraction(num, math.factorial(2 * l))), 2 * l


def upwind_symbol_real_part(dx: FdOperator, theta):
    """Closed form of Re lambda_0 for the damped (upwind) families.

    With l = left and r = right,

        l = r + 1:  -(2^{2l} l! r! / (2l)!) * sin^{2l}(theta/2)
        l = r + 2:  -(2^{2l} (2r+3) l! r! / (2l)!) * sin^{2l}(theta/2).

    This form is strictly negative for theta != 0, exactly 0 at theta = 0,
    and free of the cancellation that makes the coefficient sum unusable
    near 0.  In floats the power underflows to 0 at small theta once l is
    large (l >= 52 at theta = 2 pi/4096); a sign test reads the factors
    from ``_upwind_closed_form`` instead.
    """
    amp, power = _upwind_closed_form(dx)
    return _evaluate(lambda th: -amp * np.sin(th / 2.0) ** power, theta, float)


def vietoris_check(q: int) -> bool:
    """Exact check that the diffusion symbol's sine-series coefficients
    form a Vietoris sequence.

    The derivative of the diffusion symbol is -sum_{k=1..q} c_k sin(k theta)
    with c_k = (4/k) q!^2 / ((q+k)! (q-k)!).  The ratio condition
    (k+1) c_{k+1} <= k c_k is verified in exact rational arithmetic.  The
    other two Vietoris conditions need no test: c_k > 0 by its formula, and
    the ratio condition gives c_{k+1} <= k/(k+1) c_k < c_k.  Together they
    put the sine series in the Vietoris class, whose partial sums are
    positive on (0, pi), hence the symbol strictly decreases there.
    """
    _check_integer(q, "q")
    if q < 1:
        raise ValueError("q must be at least 1")
    qf2 = math.factorial(q) ** 2
    c = [
        Fraction(4 * qf2, k * math.factorial(q + k) * math.factorial(q - k))
        for k in range(1, q + 1)
    ]
    return all((k + 1) * c[k] <= k * c[k - 1] for k in range(1, q))


def asymptotic_exponent(dx: FdOperator) -> float:
    """Small-angle growth exponent of |Re lambda_0| against |Im lambda_0|.

    Fits the least-squares slope of log|x_0| versus log|y_0| over 64
    log-spaced angles in [1e-3, 1e-2].  For an upwind operator of extent
    (l, r) the slope approaches 2l; other operators are rejected.
    """
    th = np.geomspace(1e-3, 1e-2, 64)
    x0 = upwind_symbol_real_part(dx, th)
    if np.any(x0 >= 0):
        raise ValueError("sampled real part is not negative")
    y0 = advection_symbol(dx, th).imag
    slope = np.polyfit(np.log(np.abs(y0)), np.log(-x0), 1)[0]
    return float(slope)
