"""Fully discrete spectra of periodic advection-diffusion discretizations.

The semidiscrete operator is circulant, so the fully discrete update has
eigenvalues p(mu * lambda_R(s_k)) at the grid roots of unity s_k; no dense
matrix is ever formed (the dense route survives only as a test oracle).
The spectral radius rho decides stability, quantified by the instability
index log10(rho - 1) whenever rho exceeds 1 + TOL_STABLE.  The lambda_R(s_k)
do not depend on the step ratio, so a threshold search computes them once
and re-evaluates only the polynomial p at each probe.
"""

from __future__ import annotations

import math
import operator
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
_CHUNK = 1 << 16


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
        try:
            operator.index(self.n_cells)
            is_int = not isinstance(self.n_cells, bool)
        except TypeError:
            is_int = False
        if not is_int:
            raise ValueError(f"n_cells must be an integer, got {self.n_cells!r}")
        if self.n_cells < 4:
            raise ValueError("need at least 4 cells")
        if not (math.isfinite(self.nu) and self.nu >= 0):
            raise ValueError("viscosity must be finite and non-negative")
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

    ``instability_index`` is log10(rho - 1), defined only when
    rho - 1 > TOL_STABLE; None means stable at tolerance.
    """

    eigenvalues: np.ndarray
    rho: float
    instability_index: float | None


@dataclass(frozen=True)
class SweepPoint:
    """One resolution of an instability-index sweep."""

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
    if control <= 0:
        raise ValueError("control parameter must be positive")
    if mode is SweepMode.FIXED_MU:
        dt = control / n_cells
    elif mode is SweepMode.FIXED_MU_NU:
        if nu <= 0:
            raise ValueError("fixed mu_nu refinement needs nu > 0")
        dt = control / (nu * n_cells**2)
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown mode {mode!r}")
    return GridConfig(n_cells, nu, dt)


def semidiscrete_eigs(dx: FdOperator | None, dxx: FdOperator | None,
                      grid: GridConfig) -> np.ndarray:
    """h-scaled semidiscrete eigenvalues lambda_R at s_k, k = 1..n.

    Either operator may be None (term absent); the k = n entry is exactly 0
    by consistency.  Evaluation is chunked so million-cell grids stay cheap.
    """
    r = grid.r
    if dx is None and (dxx is None or r == 0):
        raise ValueError("at least one active operator is required")
    n = grid.n_cells
    out = np.zeros(n, dtype=complex)
    for start in range(0, n, _CHUNK):
        k = np.arange(start + 1, min(start + _CHUNK, n) + 1)
        th = 2.0 * math.pi * k / n
        lam = np.zeros(len(k), dtype=complex)
        if dx is not None:
            lam += spectrum.advection_symbol(dx, th)
        if dxx is not None and r != 0:
            lam += r * spectrum.diffusion_symbol(dxx, th)
        out[start : start + len(k)] = lam
    out[-1] = 0.0
    return out


def full_spectrum(dx: FdOperator | None, dxx: FdOperator | None, grid: GridConfig,
                  p: StabilityPolynomial) -> SpectrumReport:
    """Fully discrete eigenvalues p(mu * lambda_k) and their radius."""
    lam = semidiscrete_eigs(dx, dxx, grid)
    vals = eval_p(p, grid.mu * lam)
    rho = float(np.max(np.abs(vals)))
    excess = rho - 1.0
    index = math.log10(excess) if excess > TOL_STABLE else None
    return SpectrumReport(vals, rho, index)


def instability_curve(dx: FdOperator | None, dxx: FdOperator | None,
                      method, control: float,
                      n_list, mode: SweepMode, nu: float = 0.0) -> list[SweepPoint]:
    """Instability index against resolution at a fixed control parameter.

    ``method`` is a tableau or its stability polynomial.  Entries keep the
    input order; index None marks resolutions stable at tolerance (a curve
    "breaks" where a tail of Nones begins).
    """
    p = _as_poly(method)
    n_list = list(n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("resolutions must be strictly increasing")

    # one spectrum alive at a time: each is freed when point() returns
    def point(n: int) -> SweepPoint:
        rep = full_spectrum(dx, dxx, grid_for(mode, n, control, nu), p)
        return SweepPoint(n, control, rep.rho, rep.instability_index)

    return [point(n) for n in n_list]


def stable_mu_threshold(dx: FdOperator | None, dxx: FdOperator | None,
                        method, nu: float, n_cells: int,
                        mode: SweepMode = SweepMode.FIXED_MU,
                        rel_width: float = 1e-6, seed: float = 1e-8,
                        cap: float = 1e9) -> ThresholdResult:
    """Largest control value at the first stable-to-unstable crossing.

    Seeds at ``seed``, doubles until instability, then bisects the bracket
    to relative width ``rel_width``.  A scan past the crossing sets
    ``stable_beyond`` when stability reappears at larger values.  The
    lambda_k are computed once; each probe re-evaluates only p(mu * lambda).
    """
    # Below machine epsilon the bracket can stop shrinking: mid rounds to lo.
    if not (math.isfinite(rel_width) and rel_width >= np.finfo(float).eps):
        raise ValueError("rel_width must be finite and at least machine epsilon")
    if not (0 < seed < cap and math.isfinite(cap)):
        raise ValueError("need 0 < seed < cap with cap finite")
    p = _as_poly(method)
    lam = semidiscrete_eigs(dx, dxx, grid_for(mode, n_cells, seed, nu))
    iterations = 0

    def stable(control: float) -> bool:
        mu = grid_for(mode, n_cells, control, nu).mu
        return float(np.max(np.abs(eval_p(p, mu * lam)))) - 1.0 <= TOL_STABLE

    if not stable(seed):
        raise ThresholdNotFoundError("unstable for all tested mu")
    lo = seed
    hi = seed
    while True:
        hi *= 2.0
        iterations += 1
        if not stable(hi):
            break
        lo = hi
        if hi > cap:
            raise ThresholdNotFoundError("no unstable step ratio found below cap")
    while hi - lo > rel_width * lo:
        mid = 0.5 * (lo + hi)
        iterations += 1
        if stable(mid):
            lo = mid
        else:
            hi = mid
    stable_beyond = any(stable(lo * 2.0**j) for j in range(1, 11))
    return ThresholdResult(lo, iterations, rel_width, stable_beyond)
