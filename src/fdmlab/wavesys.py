"""Spectra of the flux-split discretization of the damped wave system.

The system couples a velocity v (diffused with viscosity nu) and a
pressure p through one-sided differences on the characteristic variables
v + p and v - p.  Per Fourier mode the semidiscrete operator reduces to
the 2 x 2 block

    M(theta) = [[ R b - (am - ap)/2,  -(am + ap)/2 ],
                [    -(am + ap)/2,    -(am - ap)/2 ]]

with am, ap the symbols of the two one-sided operators, b the (real)
diffusion symbol and R = nu/h.  Its eigenvalues are

    ( R b - (am - ap) +/- sqrt(R^2 b^2 + (am + ap)^2) ) / 2,

and both square-root branches are enumerated explicitly so no branch-cut
choice can drop an eigenvalue.  The semistability checks evaluate the
tiny real parts of the one-sided symbols through their closed forms;
summing coefficients would bury those signs under roundoff for wide
stencils.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .spectrum import (
    advection_symbol,
    bound_constants,
    diffusion_symbol,
    sample_grid,
    upwind_symbol_real_part,
)
from .stencil import FdOperator, StabilityClass, StencilKind, classify, mirror

__all__ = [
    "WaveDiscretization",
    "SpectrumClass",
    "wave_symbols",
    "wave_eigs",
    "sample_wave_trajectory",
    "grid_eigenpairs",
    "wave_semistable_check",
    "classify_spectrum",
    "wave_bound_check",
]

_JORDAN_TOL = 1e-12


@dataclass(frozen=True)
class WaveDiscretization:
    """Operator triple for the wave system.

    ``dx_minus`` acts on v + p and must damp right-going waves (upwind);
    ``dx_plus`` acts on v - p and must be a downwind stencil; ``dxx``
    diffuses v only.
    """

    dx_minus: FdOperator
    dx_plus: FdOperator
    dxx: FdOperator

    def __post_init__(self) -> None:
        if classify(self.dx_minus.spec) is not StabilityClass.STABLE_UPWIND:
            raise ValueError("dx_minus must be a stable upwind stencil")
        if classify(self.dx_plus.spec) is not StabilityClass.STABLE_DOWNWIND:
            raise ValueError("dx_plus must be a stable downwind stencil")
        if self.dxx.spec.kind is not StencilKind.SECOND_DERIVATIVE_CENTERED:
            raise ValueError("dxx must be a centered second-derivative stencil")

    @cached_property
    def symmetric(self) -> bool:
        """True when dx_plus is exactly the mirror of dx_minus."""
        return mirror(self.dx_minus).coeffs == self.dx_plus.coeffs and (
            self.dx_plus.spec.left == self.dx_minus.spec.right
            and self.dx_plus.spec.right == self.dx_minus.spec.left
        )


class SpectrumClass(Enum):
    ALL_REAL = "AllReal"
    HAS_COMPLEX = "HasComplex"


def wave_symbols(w: WaveDiscretization, theta):
    """Symbols (am, ap, b) of the three operators; all exactly 0 at theta = 0."""
    am = -advection_symbol(w.dx_minus, theta)
    ap = -advection_symbol(w.dx_plus, theta)
    b = diffusion_symbol(w.dxx, theta)
    return am, ap, b


def _eig_arrays(w: WaveDiscretization, r: float, th: np.ndarray):
    """Vectorized eigenvalue pairs plus the jordan mask.

    Every public entry point reaches the pair formula through here, so
    this is where R is checked.
    """
    if not (math.isfinite(r) and r >= 0):
        raise ValueError(f"R must be finite and non-negative, got {r!r}")
    am, ap, b = wave_symbols(w, th)
    rb = r * b
    s = am + ap
    d = am - ap
    disc = rb.astype(complex) ** 2 + s**2
    sq = np.sqrt(disc)
    trace = rb - d
    lam1 = 0.5 * (trace + sq)
    lam2 = 0.5 * (trace - sq)
    s2 = np.abs(s) ** 2
    scale = np.maximum(1.0, np.maximum(rb**2, s2))
    # A repeated eigenvalue is defective unless the block is scalar, which
    # requires both the coupling symbol and R*b to vanish; that happens only
    # at the consistency point where the whole block is exactly zero.
    zero_block = (s == 0) & (rb == 0)
    jordan = (np.abs(disc) <= _JORDAN_TOL * scale) & ~zero_block
    return lam1, lam2, jordan


def wave_eigs(w: WaveDiscretization, r: float,
              theta: float) -> tuple[complex, complex, bool]:
    """Eigenvalue pair of the mode block at one angle, both branches.

    Returns ``(lam1, lam2, jordan)``; ``jordan`` marks a defective
    (repeated, non-diagonalizable) block.
    """
    lam1, lam2, jordan = _eig_arrays(w, r, np.asarray([float(theta)]))
    return complex(lam1[0]), complex(lam2[0]), bool(jordan[0])


def sample_wave_trajectory(w: WaveDiscretization, r: float, n_samples: int = 4096):
    """Eigenvalue pairs over the uniform angle grid.

    Returns arrays ``(theta, lam1, lam2, jordan)``: float angles, the two
    complex eigenvalues and the boolean defective-block mask.
    """
    th = sample_grid(n_samples)
    return (th, *_eig_arrays(w, r, th))


def grid_eigenpairs(w: WaveDiscretization, r: float, n_cells: int):
    """Eigenvalue pairs at the grid angles 2 pi k / n, k = 1..n.

    Returns arrays ``(theta, lam1, lam2, jordan)`` as
    :func:`sample_wave_trajectory` does.  The k = n angle is mapped to 0
    so the consistency pair is exact.
    """
    if n_cells < 2:
        raise ValueError("need at least 2 cells")
    k = np.arange(1, n_cells + 1)
    th = 2.0 * math.pi * k / n_cells
    th[-1] = 0.0
    return (th, *_eig_arrays(w, r, th))


def _one_sided_real_parts(w: WaveDiscretization, th: np.ndarray):
    """Re am > 0 and Re ap < 0 through the closed forms (cancellation-safe)."""
    e1 = -upwind_symbol_real_part(w.dx_minus, th)
    f1 = upwind_symbol_real_part(mirror(w.dx_plus), th)
    return e1, f1


def wave_semistable_check(w: WaveDiscretization, r: float,
                          n_samples: int = 4096) -> bool:
    """Semistability of the sampled wave spectrum at reciprocal cell
    Reynolds number ``r``.

    Checks that the consistency pair at theta = 0 is exactly zero, that
    both eigenvalues satisfy Re < 0 at every other sampled angle, and
    re-verifies the sign structure through the R-independent quantities

        D1 = -4 (E1 - F1) < 0,
        D2 = |s|^2 - 8 E1 F1 > 0,
        D1^2 + 2 D2 - C1 = D1^2 + 4 (E2 + F2)^2 - 16 E1 F1 > 0,
        D2^2 - C2 = 16 E1 F1 (4 E1 F1 - |s|^2) > 0,

    where am = E1 + i E2, ap = F1 + i F2, s = am + ap.  The rearranged
    right-hand sides are sums and products of terms with certain signs, so
    the checks stay meaningful where the raw expressions would cancel.
    """
    th = sample_grid(n_samples)
    zero = th == 0.0
    lam1, lam2, _ = _eig_arrays(w, r, th)
    if not (np.all(lam1[zero] == 0) and np.all(lam2[zero] == 0)):
        return False
    nz = ~zero
    # noise floor, not strictness: at R = 0 the true real parts decay like
    # theta^(2l) and sit below rounding for wide stencils; the strict signs
    # are certified by the closed-form quantities below, which do not cancel
    for lam in (lam1, lam2):
        if not np.all(lam.real[nz] < 1e-12 * (1.0 + np.abs(lam[nz]))):
            return False
    am, ap, _ = wave_symbols(w, th[nz])
    e1, f1 = _one_sided_real_parts(w, th[nz])
    if not (np.all(e1 > 0) and np.all(f1 < 0)):
        return False
    im_s = am.imag + ap.imag
    s2 = (e1 + f1) ** 2 + im_s**2
    ef = e1 * f1
    if not np.all(s2 - 8.0 * ef > 0):
        return False
    d1 = -4.0 * (e1 - f1)
    if not np.all(d1**2 + 4.0 * im_s**2 - 16.0 * ef > 0):
        return False
    if not (np.all(ef < 0) and np.all(4.0 * ef - s2 < 0)):
        return False
    return True


def classify_spectrum(w: WaveDiscretization, nu: float, n_cells: int) -> SpectrumClass:
    """AllReal when every grid eigenvalue has |Im| <= 1e-10 (1 + |lambda|).

    Only meaningful for symmetric pairs, where large nu collapses the
    spectrum onto the real axis.
    """
    if not w.symmetric:
        raise ValueError("spectrum classification applies to symmetric pairs")
    if not (nu >= 0):
        raise ValueError("viscosity must be non-negative")
    _, lam1, lam2, _ = grid_eigenpairs(w, nu * n_cells, n_cells)
    for lam in (lam1, lam2):
        if np.any(np.abs(lam.imag) > 1e-10 * (1.0 + np.abs(lam))):
            return SpectrumClass.HAS_COMPLEX
    return SpectrumClass.ALL_REAL


def wave_bound_check(w: WaveDiscretization, r: float, n_samples: int = 4096,
                     slack: float = 1e-12) -> tuple[float, bool]:
    """Parabola bound for symmetric pairs: x <= -R * L * y^2 + slack.

    L is half the advection-diffusion bound constant of (dx_minus, dxx);
    returns (L, ok) over the sampled eigenvalue pairs.
    """
    if not w.symmetric:
        raise ValueError("bound check applies to symmetric pairs")
    bc = bound_constants(w.dx_minus, w.dxx, n_grid=max(n_samples, 4096))
    L = bc.L2 / (2.0 * bc.L1)
    th = sample_grid(n_samples)
    lam1, lam2, _ = _eig_arrays(w, r, th)
    ok = bool(
        np.all(lam1.real <= -r * L * lam1.imag**2 + slack)
        and np.all(lam2.real <= -r * L * lam2.imag**2 + slack)
    )
    return L, ok
