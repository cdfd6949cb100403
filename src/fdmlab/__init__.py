"""Stability toolkit for finite-difference advection-diffusion on periodic grids.

The package splits along the analysis pipeline: exact stencil construction
(stencil), semidiscrete symbol curves and bounds (spectrum), Runge-Kutta
stability polynomials (timeint), fully discrete spectra and step-size
thresholds (fulldisc), the first-order wave system (wavesys), and direct
method-of-lines simulation (molsim).  The ``fdmlab`` console script in
:mod:`fdmlab.cli` exposes the same pipeline as subcommands.
"""

__version__ = "0.1.0"

from .stencil import (
    FdOperator,
    StabilityClass,
    StencilKind,
    StencilSpec,
    build_dx,
    build_dxx,
    classify,
    mirror,
)
from .spectrum import (
    AdeSymbol,
    BoundConstants,
    ade_symbol,
    advection_symbol,
    asymptotic_exponent,
    bound_constants,
    check_global_bound,
    diffusion_symbol,
    sample_grid,
    sample_trajectory,
    upwind_symbol_real_part,
    vietoris_check,
)
from .timeint import (
    ButcherTableau,
    StabilityPolynomial,
    builtin_tableaux,
    certified_left_disk_radius,
    certify_left_half_disk,
    eval_p,
    get_tableau,
    in_stability_region,
    stability_polynomial,
    tableau_from_json,
)
from .fulldisc import (
    GridConfig,
    SpectrumReport,
    SweepMode,
    SweepPoint,
    ThresholdNotFoundError,
    ThresholdResult,
    full_spectrum,
    grid_for,
    instability_curve,
    semidiscrete_eigs,
    stable_mu_threshold,
)
from .wavesys import (
    SpectrumClass,
    WaveDiscretization,
    classify_spectrum,
    grid_eigenpairs,
    sample_wave_trajectory,
    wave_bound_check,
    wave_eigs,
    wave_semistable_check,
    wave_symbols,
)
from .molsim import (
    BlowUpError,
    GaussianReport,
    SimConfig,
    SimResult,
    SimState,
    advance,
    apply_operator,
    gaussian_pulse,
    make_state,
    run_gaussian_experiment,
    run_simulation,
    step_ade,
    step_wave,
)

__all__ = [
    "__version__",
    "FdOperator", "StabilityClass", "StencilKind", "StencilSpec",
    "build_dx", "build_dxx", "classify", "mirror",
    "AdeSymbol", "BoundConstants",
    "ade_symbol", "advection_symbol", "asymptotic_exponent",
    "bound_constants", "check_global_bound", "diffusion_symbol",
    "sample_grid", "sample_trajectory", "upwind_symbol_real_part",
    "vietoris_check",
    "ButcherTableau", "StabilityPolynomial", "builtin_tableaux",
    "certified_left_disk_radius", "certify_left_half_disk", "eval_p",
    "get_tableau", "in_stability_region", "stability_polynomial",
    "tableau_from_json",
    "GridConfig", "SpectrumReport", "SweepMode", "SweepPoint",
    "ThresholdNotFoundError", "ThresholdResult", "full_spectrum",
    "grid_for", "instability_curve", "semidiscrete_eigs",
    "stable_mu_threshold",
    "SpectrumClass", "WaveDiscretization",
    "classify_spectrum", "grid_eigenpairs", "sample_wave_trajectory",
    "wave_bound_check", "wave_eigs", "wave_semistable_check",
    "wave_symbols",
    "BlowUpError", "GaussianReport", "SimConfig", "SimResult", "SimState",
    "advance", "apply_operator", "gaussian_pulse", "make_state",
    "run_gaussian_experiment", "run_simulation", "step_ade", "step_wave",
]
