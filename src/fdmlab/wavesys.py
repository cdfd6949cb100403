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
choice can drop an eigenvalue.  :func:`wave_eigs` is the one place that
evaluates this pair, at a scalar or an array of angles, and the one place
that checks R (by the symbols' rule); the sampled curve, the grid pairs,
the classification and the semistability check all call it.  That check
tests the pairs against a roundoff floor only: the signs of the tiny real
parts of the one-sided symbols follow from their closed forms for every
stencil pair the constructor admits, and summing coefficients would bury
those signs under roundoff for wide stencils.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .spectrum import (
    N_SAMPLES,
    _check_n_cells,
    _check_nu,
    _check_r,
    advection_symbol,
    diffusion_symbol,
    sample_grid,
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
        return mirror(self.dx_minus) == self.dx_plus


class SpectrumClass(Enum):
    ALL_REAL = "AllReal"
    HAS_COMPLEX = "HasComplex"


def wave_symbols(w: WaveDiscretization, theta):
    """Symbols (am, ap, b) of the three operators; all exactly 0 at theta = 0."""
    am = -advection_symbol(w.dx_minus, theta)
    ap = -advection_symbol(w.dx_plus, theta)
    b = diffusion_symbol(w.dxx, theta)
    return am, ap, b


def wave_eigs(w: WaveDiscretization, r: float, theta):
    """Eigenvalue pairs of the mode block, both branches, plus the jordan mask.

    Accepts a scalar or an array of angles and returns ``(lam1, lam2,
    jordan)`` of the same shape; ``jordan`` marks a defective (repeated,
    non-diagonalizable) block.  Every public entry point reaches the pair
    formula through here, so this is where R is checked, and where an R
    whose eigenvalues overflow is refused.
    """
    _check_r(r)
    # scalars run as one-element arrays: numpy's scalar complex power can
    # flip the sign of a zero and so swap the branches against an array's
    am, ap, b = map(np.atleast_1d, wave_symbols(w, theta))
    rb = r * b
    s = am + ap
    d = am - ap
    # (R b)^2 overflows long before R itself does; the check below refuses
    # it, so numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        disc = rb.astype(complex) ** 2 + s**2
        sq = np.sqrt(disc)
        trace = rb - d
        # not 0.5 * (...): numpy reuses a temporary of 256 KiB or more with
        # the factors swapped, which can flip the sign of a zero
        lam1 = np.multiply(0.5, trace + sq)
        lam2 = np.multiply(0.5, trace - sq)
    if not (np.isfinite(lam1).all() and np.isfinite(lam2).all()):
        raise ValueError(f"R must be finite and small enough for finite eigenvalues, got {r!r}")
    s2 = np.abs(s) ** 2
    scale = np.maximum(1.0, np.maximum(rb**2, s2))
    # With R b = 0 the block is -(d/2) I - (s/2) J, J swapping the fields,
    # which (1, 1) and (1, -1) diagonalize for every s; with R b != 0 a
    # repeated eigenvalue leaves a nonzero nilpotent part, a Jordan block.
    jordan = (np.abs(disc) <= _JORDAN_TOL * scale) & (rb != 0)
    return tuple(x.reshape(np.shape(theta))[()] for x in (lam1, lam2, jordan))


def sample_wave_trajectory(w: WaveDiscretization, r: float, n_samples: int = N_SAMPLES):
    """Eigenvalue pairs over the uniform angle grid.

    Returns arrays ``(theta, lam1, lam2, jordan)``: float angles, the two
    complex eigenvalues and the boolean defective-block mask.
    """
    th = sample_grid(n_samples)
    return (th, *wave_eigs(w, r, th))


def grid_eigenpairs(w: WaveDiscretization, r: float, n_cells: int):
    """Eigenvalue pairs at the grid angles 2 pi k / n, k = 0..n-1.

    Returns arrays ``(theta, lam1, lam2, jordan)`` as
    :func:`sample_wave_trajectory` does, in ``np.fft.fft`` mode order;
    the consistency pair at k = 0 is exactly 0.
    """
    _check_n_cells(n_cells, 2)
    th = 2.0 * np.pi * np.arange(n_cells) / n_cells
    return (th, *wave_eigs(w, r, th))


def wave_semistable_check(w: WaveDiscretization, r: float) -> bool:
    """Semistability of the wave spectrum at reciprocal cell Reynolds
    number ``r``, sampled on the N_SAMPLES-angle uniform grid.

    Checks that both eigenvalues have Re below a roundoff floor at every
    sampled angle.  At theta = 0 :func:`wave_eigs` returns the consistency
    pair as exact zeros for every R, which the floor admits, so that angle
    needs no test of its own.  At every other sampled angle the one-sided
    real parts satisfy E1 > 0 > F1, where
    am = E1 + i E2 and ap = F1 + i F2, for every valid
    :class:`WaveDiscretization`: its constructor admits only an upwind
    ``dx_minus`` and a downwind ``dx_plus``, whose closed forms are
    E1 = amp_m sin^{2l}(theta/2) and F1 = -amp_p sin^{2l'}(theta/2) with
    amp > 0 by formula, and sin(theta/2) != 0 at every nonzero sampled
    angle in (-pi, pi).  So that sign pair is not tested; in floats the
    powers underflow to 0 for l >= 52 at the smallest sampled angles.  The
    other conditions of the semistability proof, with s = am + ap,

        D1 = -4 (E1 - F1) < 0,
        D2 = |s|^2 - 8 E1 F1 > 0,
        D1^2 + 2 D2 - C1 = D1^2 + 4 (E2 + F2)^2 - 16 E1 F1 > 0,
        D2^2 - C2 = 16 E1 F1 (4 E1 F1 - |s|^2) > 0,

    follow from that sign pair: each is a sum or product of terms of known
    sign (E1 - F1 > 0, -E1 F1 > 0, squares >= 0), so they are not tested
    again.  In floats E1 F1 underflows to -0.0 for wide stencils, where
    testing them would only report roundoff.
    """
    lam1, lam2, _ = wave_eigs(w, r, sample_grid(N_SAMPLES))
    # noise floor, not strictness: at R = 0 the true real parts decay like
    # theta^(2l) and sit below rounding for wide stencils; the strict signs
    # follow from the closed-form E1 and F1, which do not cancel
    for lam in (lam1, lam2):
        if not np.all(lam.real < 1e-12 * (1.0 + np.abs(lam))):
            return False
    return True


def _classify(w: WaveDiscretization, nu: float, n_cells: int):
    """(class, largest |Im lambda|) of the grid spectrum, both from one
    evaluation of the eigenvalue pairs; see :func:`classify_spectrum`."""
    if not w.symmetric:
        raise ValueError("spectrum classification applies to symmetric pairs")
    _check_nu(nu)
    _, lam1, lam2, _ = grid_eigenpairs(w, nu * n_cells, n_cells)
    lam = np.concatenate((lam1, lam2))
    im = np.abs(lam.imag)
    real = not np.any(im > 1e-10 * (1.0 + np.abs(lam)))
    return SpectrumClass.ALL_REAL if real else SpectrumClass.HAS_COMPLEX, float(im.max())


def classify_spectrum(w: WaveDiscretization, nu: float, n_cells: int) -> SpectrumClass:
    """AllReal when every grid eigenvalue has |Im| <= 1e-10 (1 + |lambda|).

    Only meaningful for symmetric pairs, where large nu collapses the
    spectrum onto the real axis.
    """
    return _classify(w, nu, n_cells)[0]
