"""Method-of-lines simulator for the periodic model problems.

Runs the actual discretizations whose spectra the analysis modules
predict: scalar advection-diffusion of a pulse, and the flux-split wave
system.  Stepping is plain explicit Runge-Kutta on real grid vectors in
double precision; a step that pushes the solution past ``blowup_limit``
raises BlowUpError rather than continuing into overflow.

Each periodic stencil is applied as one gather: a (w, N) index array
(j + k) mod N over the w nonzero-coefficient offsets k picks every
neighbor at once, the rows are weighted and summed in offset order, and
the sum is scaled by N^p.  A SimConfig builds the gather kernels of its
operators once, on its first step, and reuses them for the whole run.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .fulldisc import GridConfig
from .stencil import FdOperator, StencilKind
from .timeint import ButcherTableau
from .wavesys import WaveDiscretization

__all__ = [
    "BlowUpError",
    "SimConfig",
    "SimState",
    "SimResult",
    "GaussianReport",
    "gaussian_pulse",
    "apply_operator",
    "make_state",
    "step_ade",
    "step_wave",
    "advance",
    "run_simulation",
    "run_gaussian_experiment",
]


class BlowUpError(RuntimeError):
    """Solution magnitude crossed the blow-up limit at time ``time``.

    ``state`` is the state the failed step started from: the last one
    within the limit, its L-inf history included.
    """

    def __init__(self, time: float, limit: float, state: SimState | None = None):
        super().__init__(f"solution exceeded {limit:g} at t = {time:g}")
        self.time = time
        self.limit = limit
        self.state = state


@dataclass(frozen=True)
class SimConfig:
    """One simulation setup.

    ``operators`` is either an (dx, dxx or None) pair for the scalar
    equation or a WaveDiscretization for the coupled system.  Snapshot
    times must be sorted and lie in [0, t_final]; the stepper shortens the
    final step so each target time is hit exactly.
    """

    grid: GridConfig
    tableau: ButcherTableau
    operators: object
    t_final: float
    snapshot_times: tuple[float, ...] = ()
    blowup_limit: float = 1e10

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_final) and self.t_final > 0):
            raise ValueError(f"t_final must be finite and positive, got {self.t_final!r}")
        if not (self.blowup_limit > 0):
            raise ValueError("blow-up limit must be positive")
        times = self.snapshot_times
        if not all(math.isfinite(t) for t in times):
            raise ValueError(f"snapshot_times must be finite, got {times!r}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("snapshot times must be strictly increasing")
        if times and (times[0] < 0 or times[-1] > self.t_final):
            raise ValueError("snapshot times must lie in [0, t_final]")
        if not self.is_wave:
            if not (isinstance(self.operators, tuple) and len(self.operators) == 2):
                raise ValueError("scalar config needs an (dx, dxx) operator pair")
            dx, dxx = self.operators
            if not isinstance(dx, FdOperator):
                raise ValueError("scalar config needs an advection operator")
            if self.grid.nu != 0 and dxx is None:
                raise ValueError("nonzero viscosity needs a diffusion operator")

    @property
    def is_wave(self) -> bool:
        return isinstance(self.operators, WaveDiscretization)

    @cached_property
    def kernels(self) -> tuple:
        """Gather kernels of the operators, built on first use.

        (dx, dxx) for the scalar equation, (dx_minus, dx_plus, dxx) for
        the wave system; None where the operator is absent.
        """
        ops = self.operators
        if self.is_wave:
            ops = (ops.dx_minus, ops.dx_plus, ops.dxx)
        n = self.grid.n_cells
        return tuple(None if op is None else _gather_kernel(op, n) for op in ops)


@dataclass
class SimState:
    """Grid fields at one time level.

    ``fields`` holds one vector for the scalar equation, (v, p) for the
    wave system.  ``linf_history`` collects (t, max|fields|) samples as
    the run advances.  Each :func:`advance` call copies it once and shares
    the copy with the states it steps through, so the state passed in
    keeps its own history.
    """

    t: float
    fields: tuple[np.ndarray, ...]
    step_count: int = 0
    linf_history: list = field(default_factory=list)
    last_linf: float = 0.0


@dataclass
class SimResult:
    snapshots: list
    linf_history: list
    blowup: bool
    t_blowup: float | None
    final_state: SimState


@dataclass
class GaussianReport:
    """Pulse experiment summary.

    ``growth_factor`` is max recorded L-inf over the initial L-inf;
    ``errors_vs_exact`` maps integer snapshot times to the max deviation
    from the initial pulse (the exact profile recurs at whole periods).
    """

    snapshots: list
    linf_history: list
    blowup: bool
    t_blowup: float | None
    growth_factor: float
    errors_vs_exact: dict


def gaussian_pulse(n_cells: int) -> np.ndarray:
    """exp(-100 (x - 1/2)^2) sampled at x_j = j/n."""
    x = np.arange(n_cells) / n_cells
    return np.exp(-100.0 * (x - 0.5) ** 2)


def _gather_kernel(op: FdOperator, n: int):
    """Periodic stencil application on length-n vectors as one gather.

    Row i of the (w, n) index array holds (j + k_i) mod n for the i-th
    nonzero-coefficient offset k_i.  The returned function weights the
    gathered rows and sums them one row at a time in offset order,
    starting from +0.0, then scales by n^p: the rounding, signed zeros
    included, is that of accumulating c_k u_{j+k} into a zero vector.
    It expects a 1-D float or complex vector of length n.
    """
    if n < op.spec.width:
        raise ValueError("grid too small for the stencil")
    keep = op.coeffs_float != 0.0
    idx = (np.arange(n) + op.offsets[keep][:, None]) % n
    coeffs = op.coeffs_float[keep][:, None]
    scale = float(n) ** (1 if op.spec.kind is StencilKind.FIRST_DERIVATIVE else 2)

    def apply(u: np.ndarray) -> np.ndarray:
        g = u[idx]
        g *= coeffs
        return np.add.reduce(g, axis=0, initial=0.0) * scale

    return apply


def apply_operator(op: FdOperator, u: np.ndarray, n_cells: int | None = None) -> np.ndarray:
    """Periodic stencil application scaled by 1/h^p, h = 1/len(u).

    p is the derivative order of the stencil (1 or 2); grid index
    arithmetic wraps around, matching the circulant symbol analysis.
    Builds the gather kernel for len(u) on each call; a SimConfig builds
    its kernels once and reuses them on every step.
    """
    u = np.asarray(u)
    if u.ndim != 1:
        raise ValueError(f"expected a 1-D grid vector, got shape {u.shape}")
    n = len(u)
    if n_cells is not None and n_cells != n:
        raise ValueError("n_cells disagrees with vector length")
    u = u.astype(np.result_type(u.dtype, np.float64), copy=False)
    return _gather_kernel(op, n)(u)


def make_state(fields, t: float = 0.0) -> SimState:
    """Fresh state; seeds the L-inf history at the start time."""
    fields = tuple(np.asarray(f, dtype=float).copy() for f in fields)
    linf = max(float(np.max(np.abs(f))) for f in fields)
    return SimState(t=t, fields=fields, step_count=0,
                    linf_history=[(t, linf)], last_linf=linf)


def _rhs_ade(fields, config: SimConfig):
    dx, dxx = config.kernels
    (w,) = fields
    out = -dx(w)
    nu = config.grid.nu
    if nu != 0.0 and dxx is not None:
        out += nu * dxx(w)
    return (out,)


def _rhs_wave(fields, config: SimConfig):
    dx_minus, dx_plus, dxx = config.kernels
    v, p = fields
    dm = dx_minus(v + p)
    dp = dx_plus(v - p)
    dv = -0.5 * dm + 0.5 * dp
    dpdt = -0.5 * dm - 0.5 * dp
    nu = config.grid.nu
    if nu != 0.0:
        dv = dv + nu * dxx(v)
    return (dv, dpdt)


def _erk_step(fields, rhs, config: SimConfig, dt: float):
    tab = config.tableau
    a = tab.a_float.tolist()
    b = tab.b_float.tolist()
    ks = []
    for i in range(tab.stages):
        stage = fields
        for j in range(i):
            aij = a[i][j]
            if aij != 0.0:
                stage = tuple(sv + dt * aij * kv for sv, kv in zip(stage, ks[j]))
        ks.append(rhs(stage, config))
    new = fields
    for j in range(tab.stages):
        bj = b[j]
        if bj != 0.0:
            new = tuple(nv + dt * bj * kv for nv, kv in zip(new, ks[j]))
    # the weights sum to 1, so at least one accumulation ran and the
    # returned arrays are fresh
    return new


def _step(state: SimState, config: SimConfig, rhs, dt: float | None) -> SimState:
    if dt is None:
        dt = config.grid.dt
    new_fields = _erk_step(state.fields, rhs, config, dt)
    linf = float(np.abs(new_fields[0]).max())
    for f in new_fields[1:]:
        linf = max(linf, float(np.abs(f).max()))
    t = state.t + dt
    if not math.isfinite(linf) or linf > config.blowup_limit:
        raise BlowUpError(t, config.blowup_limit, state)
    return SimState(t=t, fields=new_fields, step_count=state.step_count + 1,
                    linf_history=state.linf_history, last_linf=linf)


def step_ade(state: SimState, config: SimConfig, dt: float | None = None) -> SimState:
    """One explicit step of the scalar advection-diffusion equation."""
    if config.is_wave:
        raise ValueError("config holds wave operators")
    return _step(state, config, _rhs_ade, dt)


def step_wave(state: SimState, config: SimConfig, dt: float | None = None) -> SimState:
    """One explicit step of the flux-split wave system."""
    if not config.is_wave:
        raise ValueError("config holds scalar operators")
    return _step(state, config, _rhs_wave, dt)


def advance(state: SimState, config: SimConfig, t_target: float,
            record_every: int = 1, stop_linf: float | None = None):
    """Step until ``t_target``, shortening the last step to land exactly.

    Records (t, L-inf) every ``record_every`` steps plus the final level,
    in a copy of the history: ``state`` itself is not changed.  Returns
    (state, stopped_early); the flag is set when ``stop_linf`` was reached
    first.
    """
    step = step_wave if config.is_wave else step_ade
    tol = 1e-12 * max(1.0, abs(t_target))
    dt = config.grid.dt
    eps = sys.float_info.epsilon
    state = replace(state, linf_history=list(state.linf_history))
    while t_target - state.t > tol:
        rem = t_target - state.t
        # The slack absorbs the rounding that state.t has accumulated (at
        # most one half-ulp of |t| per step), so a run of exactly n steps
        # lands on t_target instead of adding a sliver step.  It is capped
        # at dt / 2 so that even a very long run never stretches its last
        # step beyond 1.5 dt.
        slack = min(max(1e-9 * dt, 4 * eps * state.step_count * abs(t_target)), 0.5 * dt)
        if rem <= dt + slack:
            state = step(state, config, rem)
            state.t = t_target
        else:
            state = step(state, config)
        if state.step_count % record_every == 0 or state.t == t_target:
            state.linf_history.append((state.t, state.last_linf))
        if stop_linf is not None and state.last_linf >= stop_linf:
            if state.linf_history[-1][0] != state.t:
                state.linf_history.append((state.t, state.last_linf))
            return state, True
    return state, False


def _drive(config: SimConfig, state: SimState, stop_linf: float | None = None):
    """Advance through the snapshot times up to t_final.

    Copies the fields at every snapshot time (t = 0 included) and records
    L-inf at a cadence of about 4096 samples per run.  Returns
    (snapshots, state, t_blowup): a blow-up or reaching ``stop_linf`` ends
    the run early, and t_blowup is None unless the run blew up.
    """
    targets = list(config.snapshot_times)
    if not targets or targets[-1] != config.t_final:
        targets.append(config.t_final)
    total_steps = max(1, int(round(config.t_final / config.grid.dt)))
    cadence = max(1, total_steps // 4096)
    snapshots = []
    for t_snap in targets:
        if t_snap != 0.0:
            try:
                state, stopped = advance(state, config, t_snap,
                                         record_every=cadence, stop_linf=stop_linf)
            except BlowUpError as exc:
                return snapshots, exc.state, exc.time
            if stopped:
                break
        snapshots.append((state.t, tuple(f.copy() for f in state.fields)))
    return snapshots, state, None


def run_simulation(config: SimConfig, initial_fields) -> SimResult:
    """Advance through the snapshot times up to t_final.

    A blow-up ends the run and is reported in the result instead of
    propagating; ``final_state`` is then the last state within the limit.
    """
    snapshots, state, t_blowup = _drive(config, make_state(initial_fields))
    return SimResult(snapshots, state.linf_history, t_blowup is not None, t_blowup, state)


def run_gaussian_experiment(config: SimConfig, stop_factor: float | None = None
                            ) -> GaussianReport:
    """Advect the pinned Gaussian pulse and track its growth.

    Requires a scalar config with nu = 0: the exact solution is then the
    initial pulse again at every whole period, which grounds the error
    entries.  ``stop_factor`` ends the run early once L-inf has grown by
    that factor (useful when only the growth verdict matters).
    """
    if config.is_wave:
        raise ValueError("the pulse experiment is a scalar setup")
    if config.grid.nu != 0.0:
        raise ValueError("the pulse experiment requires nu = 0")
    w0 = gaussian_pulse(config.grid.n_cells)
    linf0 = float(np.max(np.abs(w0)))
    stop_linf = stop_factor * linf0 if stop_factor is not None else None
    snapshots, state, t_blowup = _drive(config, make_state((w0,)), stop_linf)
    snapshots = [(t, fields[0]) for t, fields in snapshots]
    peak = max(v for _, v in state.linf_history)
    errors = {}
    for t_snap, w in snapshots:
        if t_snap > 0 and abs(t_snap - round(t_snap)) < 1e-9:
            errors[t_snap] = float(np.max(np.abs(w - w0)))
    return GaussianReport(snapshots, state.linf_history, t_blowup is not None, t_blowup,
                          peak / linf0, errors)
