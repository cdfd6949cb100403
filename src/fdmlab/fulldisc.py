"""Fully discrete spectra of periodic advection-diffusion discretizations.

The semidiscrete operator is circulant, so the fully discrete update has
eigenvalues p(mu * lambda_R(s_k)) at the grid roots of unity s_k; no dense
matrix is ever formed (the dense route survives only as a test oracle).
Stability is one rule, applied by ``_report`` alone: stable iff rho - 1 <=
TOL_STABLE for the spectral radius rho, else index log10(rho - 1), so an inf
or NaN rho is unstable.  The lambda_R(s_k) do not depend on the step ratio,
so a threshold search computes them once and re-evaluates only p per probe.

One private helper, ``_grid_spectrum``, computes every grid spectrum as
the DFT of the stencil wrapped onto the grid: one ``np.fft.rfft`` per
operator gives lambda_R at the modes k = 0..n/2, and a grid's values depend
on its operators and n alone.  The stencil is real, so mode n - k is the
conjugate of mode k and p, whose coefficients are real, has the same
modulus there: the verdicts read the half spectrum, and
:func:`semidiscrete_eigs` mirrors it into the whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import spectrum
from .stencil import FdOperator
from .timeint import ButcherTableau, StabilityPolynomial, eval_p, stability_polynomial

__all__ = [
    "TOL_STABLE",
    "SweepMode",
    "GridConfig",
    "SpectrumReport",
    "SweepPoint",
    "ThresholdResult",
    "ThresholdNotFoundError",
    "grid_for",
    "semidiscrete_eigs",
    "full_spectrum",
    "instability_curve",
    "stable_mu_threshold",
]

TOL_STABLE = 1e-12
_SEED = 1e-8  # first step ratio the threshold search probes
_REL_WIDTH = 1e-6  # the bisection stops at this relative bracket width
_CAP = 1e9  # no crossing is looked for beyond this step ratio


class SweepMode(Enum):
    """Refinement path: fix mu = dt/h or fix mu_nu = nu dt/h^2."""

    FIXED_MU = "fixed-mu"
    FIXED_MU_NU = "fixed-mu-nu"


@dataclass(frozen=True)
class GridConfig:
    """Periodic grid of n_cells cells on [0, 1) with time step dt."""

    n_cells: int
    nu: float
    dt: float

    def __post_init__(self) -> None:
        spectrum._check_n_cells(self.n_cells, 4)
        spectrum._check_nu(self.nu)
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("time step must be finite and positive")

    @property
    def h(self) -> float:
        return 1.0 / self.n_cells

    @property
    def mu(self) -> float:
        """Courant number dt/h."""
        return self.dt * self.n_cells

    @property
    def r(self) -> float:
        """Reciprocal cell Reynolds number nu/h."""
        return self.nu * self.n_cells

    @property
    def mu_nu(self) -> float:
        """Diffusive step ratio nu dt/h^2."""
        return self.nu * self.dt * self.n_cells**2


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of one fully discrete update plus stability summary.

    ``instability_index`` is None (stable) iff rho - 1 <= TOL_STABLE, else
    log10(rho - 1); an inf or NaN rho is unstable, with index inf or nan.
    """

    eigenvalues: np.ndarray
    rho: float
    instability_index: float | None


@dataclass(frozen=True)
class SweepPoint:
    """One resolution of an instability-index sweep; ``instability_index``
    is None iff rho - 1 <= TOL_STABLE, so an inf or NaN rho is unstable."""

    n_cells: int
    control: float
    rho: float
    instability_index: float | None


@dataclass(frozen=True)
class ThresholdResult:
    """First stability crossing found by bisection.

    ``stable_beyond`` flags that some larger step ratio was stable again
    past the crossing (stability windows need not be a single interval).
    """

    mu_star: float
    iterations: int
    tol: float
    stable_beyond: bool


class ThresholdNotFoundError(RuntimeError):
    pass


def _as_poly(method) -> StabilityPolynomial:
    if isinstance(method, ButcherTableau):
        return stability_polynomial(method)
    if isinstance(method, StabilityPolynomial):
        return method
    raise TypeError("expected a ButcherTableau or StabilityPolynomial")


def grid_for(mode: SweepMode, n_cells: int, control: float, nu: float) -> GridConfig:
    """Grid with dt chosen so the mode's control parameter equals ``control``."""
    spectrum._check_n_cells(n_cells, 4)  # before dt divides by it
    if not (math.isfinite(control) and control > 0):
        name = "mu" if mode is SweepMode.FIXED_MU else "mu_nu"
        raise ValueError(f"{name} must be finite and positive, got {control!r}")
    if mode is SweepMode.FIXED_MU:
        dt = control / n_cells
    elif mode is SweepMode.FIXED_MU_NU:
        if nu <= 0:
            raise ValueError("fixed mu_nu refinement needs nu > 0")
        dt = control / (nu * n_cells**2)
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown mode {mode!r}")
    return GridConfig(n_cells, nu, dt)


def _check_viscosity(mode: SweepMode, nu: float, dxx: FdOperator | None) -> None:
    """At fixed mu, nu is only a viscosity, which the spectrum would drop
    unread without a diffusion operator; at fixed mu_nu it also sets dt."""
    if mode is SweepMode.FIXED_MU and nu > 0 and dxx is None:
        raise ValueError("nonzero viscosity needs a diffusion operator")


def _grid_spectrum(dx: FdOperator | None, dxx: FdOperator | None,
                   grid: GridConfig) -> np.ndarray:
    """lambda_R at the modes k = 0..n//2 of the grid, mode 0 exactly 0.

    Each operator's coefficients are wrapped onto the n cells, so a
    stencil wider than the grid adds onto itself, and one ``rfft`` takes
    their DFT: advection puts a_j in cell -j mod n and gives -rfft,
    diffusion puts b_j in cell j mod n and gives the real part.  R = 0
    drops the diffusion term.  Operators of the wrong kind are refused as
    the symbol evaluators refuse them.
    """
    if dx is not None:
        spectrum._require_dx(dx)
    if dxx is not None:
        spectrum._require_dxx(dxx)
    n = grid.n_cells

    def wrapped(op: FdOperator, sign: int) -> np.ndarray:
        cells = np.zeros(n)
        np.add.at(cells, sign * op.offsets % n, op.coeffs_float)
        return np.fft.rfft(cells)

    adv = None if dx is None else -wrapped(dx, -1)
    dif = None if dxx is None or grid.r == 0 else wrapped(dxx, 1).real
    lam = spectrum._combine(adv, dif, grid.r)
    lam[0] = 0.0
    return lam


def semidiscrete_eigs(dx: FdOperator | None, dxx: FdOperator | None,
                      grid: GridConfig) -> np.ndarray:
    """h-scaled semidiscrete eigenvalues lambda_R at s_k, k = 0..n-1.

    The modes are in ``np.fft.fft`` order, entry k at theta = 2 pi k / n.
    Either operator may be None (term absent), and R = 0 drops the
    diffusion term; with no term left a ValueError is raised.  Without
    dxx the grid's nu is dropped too: a fixed-mu-nu grid carries nu for
    its dt, not only as a viscosity.  Entry 0 is exactly 0 by consistency,
    and entry n - k is the conjugate of entry k bit for bit.
    """
    half = _grid_spectrum(dx, dxx, grid)
    return np.concatenate((half, half[(grid.n_cells + 1) // 2 - 1 : 0 : -1].conj()))


def _report(p: StabilityPolynomial, z: np.ndarray) -> SpectrumReport:
    """The one verdict: p(z) on a scaled spectrum z = mu * lambda, its radius
    and index by the module's rule; an overflowing p reads unstable, unwarned."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = eval_p(p, z)
        rho = float(np.max(np.abs(vals)))
    index = None if rho - 1.0 <= TOL_STABLE else math.log10(rho - 1.0)
    return SpectrumReport(vals, rho, index)


def full_spectrum(dx: FdOperator | None, dxx: FdOperator | None, grid: GridConfig,
                  p: StabilityPolynomial) -> SpectrumReport:
    """Fully discrete eigenvalues p(mu * lambda_k), k = 0..n-1 in the mode
    order of :func:`semidiscrete_eigs`, and their radius; the grid's nu is
    dropped without dxx, as there."""
    lam = semidiscrete_eigs(dx, dxx, grid)
    return _report(p, np.multiply(grid.mu, lam, out=lam))


def instability_curve(dx: FdOperator | None, dxx: FdOperator | None,
                      method, control: float,
                      n_list, mode: SweepMode, nu: float = 0.0) -> list[SweepPoint]:
    """Instability index against resolution at a fixed control parameter.

    ``method`` is a tableau or its stability polynomial.  Entries keep the
    input order; index None marks resolutions stable at tolerance (a curve
    "breaks" where a tail of Nones begins).  At fixed mu, nonzero ``nu``
    needs ``dxx``; at fixed mu_nu, ``nu`` sets dt and may go without it.
    """
    _check_viscosity(mode, nu, dxx)
    p = _as_poly(method)
    n_list = list(n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("resolutions must be strictly increasing")
    grids = [grid_for(mode, n, control, nu) for n in n_list]
    points = []
    for grid in grids:
        lam = _grid_spectrum(dx, dxx, grid)
        rep = _report(p, np.multiply(grid.mu, lam, out=lam))
        points.append(SweepPoint(grid.n_cells, control, rep.rho, rep.instability_index))
        del lam, rep  # this grid's arrays go before the next grid's are built
    return points


def stable_mu_threshold(dx: FdOperator | None, dxx: FdOperator | None,
                        method, nu: float, n_cells: int,
                        mode: SweepMode = SweepMode.FIXED_MU) -> ThresholdResult:
    """Largest control value at the first stable-to-unstable crossing.

    Seeds at 1e-8, doubles until instability (giving up past 1e9), then
    bisects the bracket to relative width 1e-6, reported as ``tol``.  A
    scan past the crossing sets ``stable_beyond`` when stability reappears
    at larger values.  The lambda_k at modes 0..n/2 are computed once;
    each probe reads the verdict on p(mu * lambda).  The viscosity rule
    is that of :func:`instability_curve`.
    """
    _check_viscosity(mode, nu, dxx)
    p = _as_poly(method)
    lam = _grid_spectrum(dx, dxx, grid_for(mode, n_cells, _SEED, nu))
    iterations = 0

    def stable(control: float) -> bool:
        mu = grid_for(mode, n_cells, control, nu).mu
        return _report(p, mu * lam).instability_index is None

    if not stable(_SEED):
        raise ThresholdNotFoundError("unstable for all tested mu")
    lo = hi = _SEED
    while True:
        hi *= 2.0
        iterations += 1
        if not stable(hi):
            break
        lo = hi
        if hi > _CAP:
            raise ThresholdNotFoundError("no unstable step ratio found below cap")
    while hi - lo > _REL_WIDTH * lo:
        mid = 0.5 * (lo + hi)
        iterations += 1
        if stable(mid):
            lo = mid
        else:
            hi = mid
    stable_beyond = any(stable(lo * 2.0**j) for j in range(1, 11))
    return ThresholdResult(lo, iterations, _REL_WIDTH, stable_beyond)
