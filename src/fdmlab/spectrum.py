"""Fourier symbols of the semidiscrete advection-diffusion operator.

On a periodic grid the discretization is circulant, so its spectrum is the
symbol evaluated at the grid roots of unity.  With wavenumber variable
theta the advection part contributes

    lambda_0(theta) = -sum_k a_k e^{i k theta},

the diffusion part contributes the real, even function

    lambda_inf(theta) = b_0 + 2 sum_{k>=1} b_k cos(k theta),

and the combined symbol for reciprocal cell Reynolds number R is
lambda_R = lambda_0 + R * lambda_inf.  Everything here is plain double
precision except where cancellation would destroy the result: the real
part of lambda_0 behaves like -c * theta^(2*left) near theta = 0, far
below summation roundoff for wide stencils, so sign-critical paths use
the closed-form sine-power expression instead of the coefficient sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .stencil import FdOperator, StabilityClass, StencilKind, classify

__all__ = [
    "AdeSymbol",
    "BoundConstants",
    "advection_symbol",
    "diffusion_symbol",
    "ade_symbol",
    "sample_trajectory",
    "sample_grid",
    "upwind_symbol_real_part",
    "vietoris_check",
    "asymptotic_exponent",
    "bound_constants",
    "check_global_bound",
]


def _require_dx(op: FdOperator) -> None:
    if op.spec.kind is not StencilKind.FIRST_DERIVATIVE:
        raise ValueError("expected a first-derivative operator")


def _require_dxx(op: FdOperator) -> None:
    if op.spec.kind is not StencilKind.SECOND_DERIVATIVE_CENTERED:
        raise ValueError("expected a centered second-derivative operator")


@dataclass(frozen=True)
class AdeSymbol:
    """Operator pair plus reciprocal cell Reynolds number R = nu / h.

    ``r`` may be ``math.inf`` to denote the diffusion-dominated limit, in
    which case only the trajectory sampler applies.
    """

    dx: FdOperator
    dxx: FdOperator
    r: float

    def __post_init__(self) -> None:
        _require_dx(self.dx)
        _require_dxx(self.dxx)
        if not (self.r >= 0):
            raise ValueError("R must be non-negative")


@dataclass(frozen=True)
class BoundConstants:
    """Grid constants tying Re and Im of the symbol together.

    L1 bounds the advection imaginary part, y_0(theta)^2 <= L1 * theta^2;
    L2 bounds the diffusion decay, -lambda_inf(theta) >= L2 * theta^2.
    The combined symbol then stays left of the parabola x = -R*(L2/L1)*y^2.
    """

    L1: float
    L2: float
    L: float

    def __post_init__(self) -> None:
        if not (self.L1 > 0 and self.L2 > 0):
            raise ValueError("bound constants must be positive")
        if self.L != self.L2 / self.L1:
            raise ValueError("L must equal L2 / L1")


def sample_grid(n_samples: int) -> np.ndarray:
    """Uniform angles theta_j = -pi + 2 pi j / n, j = 0..n-1.

    For even n the grid contains theta = 0 exactly, the consistency point
    where every symbol vanishes.
    """
    if n_samples < 8:
        raise ValueError("need at least 8 samples")
    j = np.arange(n_samples)
    return -math.pi + 2.0 * math.pi * j / n_samples


def advection_symbol(dx: FdOperator, theta):
    """lambda_0(theta) = -sum_k a_k e^{i k theta}, exactly 0 at theta = 0.

    Accepts a scalar or an array of angles.
    """
    _require_dx(dx)
    th = np.asarray(theta, dtype=float)
    phases = np.exp(1j * th[..., np.newaxis] * dx.offsets)
    vals = -(phases @ dx.coeffs_float)
    vals = np.where(th == 0.0, 0.0 + 0.0j, vals)
    if np.ndim(theta) == 0:
        return complex(vals)
    return vals


def diffusion_symbol(dxx: FdOperator, theta):
    """lambda_inf(theta) = b_0 + 2 sum_{k>=1} b_k cos(k theta).

    Real by the even symmetry of the coefficients; evaluated in the cosine
    form so no imaginary roundoff appears at all.  Exactly 0 at theta = 0.
    """
    _require_dxx(dxx)
    q = dxx.spec.left
    th = np.asarray(theta, dtype=float)
    b = dxx.coeffs_float
    k = np.arange(1, q + 1)
    vals = b[q] + 2.0 * (np.cos(th[..., np.newaxis] * k) @ b[q + 1 :])
    vals = np.where(th == 0.0, 0.0, vals)
    if np.ndim(theta) == 0:
        return float(vals)
    return vals


def ade_symbol(sym: AdeSymbol, theta):
    """Combined symbol lambda_R = lambda_0 + R * lambda_inf (finite R)."""
    if math.isinf(sym.r):
        raise ValueError("combined symbol needs finite R; sample the diffusion part instead")
    adv = advection_symbol(sym.dx, theta)
    dif = diffusion_symbol(sym.dxx, theta)
    return adv + sym.r * dif


def sample_trajectory(sym: AdeSymbol,
                      n_samples: int = 4096) -> tuple[np.ndarray, np.ndarray]:
    """Sample the symbol curve on the uniform angle grid.

    Returns ``(theta, lam)``: the float angles of :func:`sample_grid` and
    the complex symbol values lam = x + i y there.  With R = inf the
    samples trace the (real) diffusion symbol alone.
    """
    th = sample_grid(n_samples)
    if math.isinf(sym.r):
        lam = diffusion_symbol(sym.dxx, th).astype(complex)
    else:
        lam = ade_symbol(sym, th)
    return th, lam


def upwind_symbol_real_part(dx: FdOperator, theta):
    """Closed form of Re lambda_0 for the damped (upwind) families.

    With l = left and r = right,

        l = r + 1:  -(2^{2l} l! r! / (2l)!) * sin^{2l}(theta/2)
        l = r + 2:  -(2^{2l} (2r+3) l! r! / (2l)!) * sin^{2l}(theta/2).

    This form is strictly negative for theta != 0 and free of the
    cancellation that makes the coefficient sum unusable near 0.
    """
    _require_dx(dx)
    if classify(dx.spec) is not StabilityClass.STABLE_UPWIND:
        raise ValueError("closed form applies to the upwind families only")
    l, r = dx.spec.left, dx.spec.right
    num = (2 ** (2 * l)) * math.factorial(l) * math.factorial(r)
    if l == r + 2:
        num *= 2 * r + 3
    amp = float(Fraction(num, math.factorial(2 * l)))
    th = np.asarray(theta, dtype=float)
    vals = -amp * np.sin(th / 2.0) ** (2 * l)
    if np.ndim(theta) == 0:
        return float(vals)
    return vals


def vietoris_check(q: int) -> bool:
    """Exact check that the diffusion symbol's sine-series coefficients
    form a Vietoris sequence.

    The derivative of the diffusion symbol is -sum_{k=1..q} c_k sin(k theta)
    with c_k = (4/k) q!^2 / ((q+k)! (q-k)!).  Positivity, monotone decrease
    and k c_k <= (k-1) c_{k-1} are verified in exact rational arithmetic;
    together they put the sine series in the Vietoris class, whose partial
    sums are positive on (0, pi), hence the symbol strictly decreases there.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    qf2 = math.factorial(q) ** 2
    c = [
        Fraction(4 * qf2, k * math.factorial(q + k) * math.factorial(q - k))
        for k in range(1, q + 1)
    ]
    if not all(ck > 0 for ck in c):
        return False
    if not all(c[i] <= c[i - 1] for i in range(1, q)):
        return False
    if not all((i + 1) * c[i] <= i * c[i - 1] for i in range(1, q)):
        return False
    return True


def asymptotic_exponent(sym, window: tuple[float, float] = (1e-3, 1e-2),
                        n_samples: int = 64) -> float:
    """Small-angle growth exponent of |Re lambda_0| against |Im lambda_0|.

    Fits the least-squares slope of log|x_0| versus log|y_0| over
    log-spaced angles in ``window``.  For an upwind operator of extent
    (l, r) the slope approaches 2l.  Accepts the operator directly or an
    R = 0 symbol wrapper.
    """
    if isinstance(sym, AdeSymbol):
        if sym.r != 0:
            raise ValueError("asymptotic exponent is an R = 0 quantity")
        dx = sym.dx
    else:
        dx = sym
    lo, hi = window
    if not (0 < lo < hi):
        raise ValueError("bad window")
    th = np.geomspace(lo, hi, n_samples)
    x0 = upwind_symbol_real_part(dx, th)
    if np.any(x0 >= 0):
        raise ValueError("sampled real part is not negative")
    y0 = advection_symbol(dx, th).imag
    slope = np.polyfit(np.log(np.abs(y0)), np.log(-x0), 1)[0]
    return float(slope)


def bound_constants(dx: FdOperator, dxx: FdOperator, n_grid: int = 4096) -> BoundConstants:
    """Empirical parabola constants on the uniform angle grid.

    L1 = max y_0^2/theta^2 and L2 = min -lambda_inf/theta^2, both with the
    analytic limit value 1 substituted at theta = 0.  Requires an upwind
    advection operator so the symbol actually lies in the left half-plane.
    """
    _require_dx(dx)
    if classify(dx.spec) is not StabilityClass.STABLE_UPWIND:
        raise ValueError("bound constants require an upwind advection operator")
    _require_dxx(dxx)
    th = sample_grid(n_grid)
    y0 = advection_symbol(dx, th).imag
    xinf = diffusion_symbol(dxx, th)
    nz = th != 0.0
    r1 = np.ones_like(th)
    r1[nz] = (y0[nz] / th[nz]) ** 2
    r2 = np.ones_like(th)
    r2[nz] = -xinf[nz] / th[nz] ** 2
    L1 = float(np.max(r1))
    L2 = float(np.min(r2))
    if L2 <= 0:
        raise ValueError("diffusion symbol is not strictly damping on the grid")
    return BoundConstants(L1, L2, L2 / L1)


def check_global_bound(sym: AdeSymbol, constants: BoundConstants | None = None,
                       n_grid: int = 4096, slack: float = 1e-12) -> bool:
    """Verify x_R <= -R * L * y_R^2 + slack at every grid sample."""
    if constants is None:
        constants = bound_constants(sym.dx, sym.dxx, n_grid)
    th = sample_grid(n_grid)
    lam = ade_symbol(sym, th)
    return bool(np.all(lam.real <= -sym.r * constants.L * lam.imag**2 + slack))
