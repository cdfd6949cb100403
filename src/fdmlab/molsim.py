"""Method-of-lines simulator for the periodic model problems.

Runs the actual discretizations whose spectra the analysis modules
predict: scalar advection-diffusion of a pulse, and the flux-split wave
system.  Stepping is plain explicit Runge-Kutta on real grid vectors in
double precision; a step that pushes the solution past ``blowup_limit``
raises BlowUpError rather than continuing into overflow.

Each periodic stencil is applied as one gather: a (w, N) index array
(j + k) mod N over the w nonzero-coefficient offsets k picks every
neighbor at once, the rows are multiplied by a (w, N) array of their
weights (stored already broadcast, so the product is a same-shape
multiply), summed in offset order, and the sum is scaled in place by
N^p.  A stencil wider than the grid wraps onto it, so every run steps
with the same circulant whose spectrum ``fulldisc`` reads.  The scalar
equation's advection gather folds the minus sign of -dx into that
scale.  On its first step a SimConfig builds its ``update``: the one
function that advances its fields by dt, holding a gather for each of
its operators, the right-hand side of its system and the nonzero
entries of its tableau.  Its stage loop runs on plain arrays: the
scalar field itself, or the wave pair stacked into one (2, N) array
whose right-hand side is written row by row.  Every later step reuses
it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .fulldisc import GridConfig
from .spectrum import _check_n_cells, _require_dx, _require_dxx
from .stencil import FdOperator, StencilKind
from .timeint import ButcherTableau
from .wavesys import WaveDiscretization

__all__ = [
    "BlowUpError",
    "SimConfig",
    "SimState",
    "SimResult",
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

    def __init__(self, time: float, limit: float, state: SimState):
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
    final step so each target time is hit exactly.  A run that
    :func:`advance` cannot carry out is refused: t_final / dt above 2^52,
    where t + dt rounds back to t, or a target time within the landing
    tolerance of the one before it (0 for the first), which no step would
    reach.
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
        steps = self.t_final / self.grid.dt
        if not steps <= 2.0**52:
            raise ValueError(f"t_final / dt must be at most 2^52, got {steps!r}")
        ends = sorted({t for t in times if t > 0} | {self.t_final})
        for prev, t in zip([0.0, *ends], ends):
            tol = _landing_tol(t)
            if t - prev <= tol:
                raise ValueError(f"target time {t!r} lies within {tol:g} of {prev!r}")
        if not self.is_wave:
            if not (isinstance(self.operators, tuple) and len(self.operators) == 2):
                raise ValueError("scalar config needs an (dx, dxx) operator pair")
            dx, dxx = self.operators
            if not isinstance(dx, FdOperator):
                raise ValueError("scalar config needs an advection operator")
            _require_dx(dx)
            if dxx is not None:
                _require_dxx(dxx)
            if self.grid.nu != 0 and dxx is None:
                raise ValueError("nonzero viscosity needs a diffusion operator")

    @cached_property
    def is_wave(self) -> bool:
        return isinstance(self.operators, WaveDiscretization)

    @cached_property
    def update(self):
        """``update(fields, dt) -> new fields``: one step of the tableau on
        this config's system, built on first use.

        One stage loop serves both systems.  It runs on one array y: the
        scalar field itself, or the wave pair (v, p) stacked into a (2, N)
        array on entry and handed back as its two rows.  Stage i adds
        dt a_ij k_j and the result dt b_j k_j in ascending j, skipping
        float zeros; each sum lands in a fresh array, so no input is
        written.  The scalar right-hand side is -dx(w) straight from a
        gather whose scale carries the sign; the wave right-hand side
        writes dv = -0.5 dm + 0.5 dp (+ nu dxx v) and dp = -0.5 dm - 0.5 dp
        into the rows of its (2, N) result in that order."""
        n, nu = self.grid.n_cells, self.grid.nu
        ops = self.operators
        wave = self.is_wave
        if wave:
            dx_minus, dx_plus, dxx = (_gather_kernel(op, n)
                                      for op in (ops.dx_minus, ops.dx_plus, ops.dxx))

            def rhs(y):
                v, p = y
                dm = dx_minus(v + p)
                dm *= -0.5
                dp = dx_plus(v - p)
                dp *= 0.5
                k = np.empty_like(y)
                np.add(dm, dp, out=k[0])
                if nu != 0.0:
                    k[0] += nu * dxx(v)
                np.subtract(dm, dp, out=k[1])
                return k
        else:
            dx = _gather_kernel(ops[0], n, -1.0)
            dxx = None if ops[1] is None else _gather_kernel(ops[1], n)

            def rhs(w):
                out = dx(w)
                if nu != 0.0:
                    out += nu * dxx(w)
                return out

        tab = self.tableau
        plan = [[(j, float(a)) for j, a in enumerate(row) if float(a) != 0.0]
                for row in tab.a]
        weights = [(j, float(b)) for j, b in enumerate(tab.b) if float(b) != 0.0]

        def update(fields, dt):
            y = np.array(fields) if wave else fields[0]
            ks = []
            for row in plan:
                stage = y
                for j, aij in row:
                    # x + stage is stage + x bit for bit; the fresh product
                    # x = dt a_ij k_j takes the sum in place
                    term = dt * aij * ks[j]
                    term += stage
                    stage = term
                ks.append(rhs(stage))
            # the weights sum to 1, so at least one runs and y is fresh
            for j, bj in weights:
                term = dt * bj * ks[j]
                term += y
                y = term
            return (y[0], y[1]) if wave else (y,)

        return update


@dataclass
class SimState:
    """Grid fields at one time level.

    ``fields`` holds one vector for the scalar equation, (v, p) for the
    wave system, in the order ``SimConfig.update`` takes them.
    ``linf_history`` collects (t, max|fields|) samples as the run
    advances.  Each :func:`advance` call copies it once and shares the
    copy with the states it steps through, so the state passed in keeps
    its own history.
    """

    t: float
    fields: tuple[np.ndarray, ...]
    step_count: int
    linf_history: list
    last_linf: float


@dataclass
class SimResult:
    """Snapshots (t, fields) and the L-inf history of one run."""

    snapshots: list
    linf_history: list
    blowup: bool
    t_blowup: float | None
    final_state: SimState

    @property
    def growth_factor(self) -> float:
        """Largest recorded L-inf over the t = 0 entry; nan for zero initial fields."""
        linf0 = self.linf_history[0][1]
        return max(v for _, v in self.linf_history) / linf0 if linf0 else math.nan


def _landing_tol(t: float) -> float:
    """How close to target time t a run counts as having reached it."""
    return 1e-12 * max(1.0, abs(t))


def gaussian_pulse(n_cells: int) -> np.ndarray:
    """exp(-100 (x - 1/2)^2) sampled at x_j = j/n."""
    _check_n_cells(n_cells, 1)
    x = np.arange(n_cells) / n_cells
    return np.exp(-100.0 * (x - 0.5) ** 2)


def _gather_kernel(op: FdOperator, n: int, sign: float = 1.0):
    """Periodic stencil application on length-n vectors as one gather,
    times ``sign`` (1.0 or -1.0).

    Row i of the (w, n) index array holds (j + k_i) mod n for the i-th
    nonzero-coefficient offset k_i, and row i of the (w, n) weight array
    holds c_{k_i} in every column: the weights are broadcast once here,
    so each call multiplies two arrays of the same shape.  The returned
    function sums the weighted rows one at a time in offset order,
    starting from +0.0, then scales the sum in place by sign * n^p: the
    rounding, signed zeros included, is that of accumulating c_k u_{j+k}
    into a zero vector, and x * (-s) is exactly -(x * s).  A stencil wider
    than the grid wraps onto it: offsets k and k + n read one cell and add
    in offset order, the circulant ``fulldisc._grid_spectrum`` transforms.
    It expects a 1-D float or complex vector of length n.
    """
    keep = op.coeffs_float != 0.0
    idx = (np.arange(n) + op.offsets[keep][:, None]) % n
    weights = np.repeat(op.coeffs_float[keep][:, None], n, axis=1)
    idx.setflags(write=False)
    weights.setflags(write=False)
    scale = sign * float(n) ** (1 if op.spec.kind is StencilKind.FIRST_DERIVATIVE else 2)

    def apply(u: np.ndarray) -> np.ndarray:
        g = u[idx]
        g *= weights
        out = np.add.reduce(g, axis=0, initial=0.0)
        out *= scale
        return out

    return apply


def apply_operator(op: FdOperator, u: np.ndarray) -> np.ndarray:
    """Periodic stencil application scaled by 1/h^p, h = 1/len(u).

    p is the derivative order of the stencil (1 or 2); grid index
    arithmetic wraps around, even for a stencil wider than the grid, as
    in the circulant symbol analysis.  Builds the gather for len(u) on
    each call; ``SimConfig.update`` builds one per operator once and
    reuses it on every step.
    """
    u = np.asarray(u)
    if u.ndim != 1 or len(u) == 0:
        raise ValueError(f"expected a non-empty 1-D grid vector, got shape {u.shape}")
    u = u.astype(np.result_type(u.dtype, np.float64), copy=False)
    return _gather_kernel(op, len(u))(u)


def _linf(fields) -> float:
    """Largest |value| over all fields; nan as soon as any field holds one."""
    linf = 0.0
    for f in fields:
        m = float(np.maximum.reduce(np.abs(f)))
        if m != m:
            return m
        if m > linf:
            linf = m
    return linf


def make_state(fields) -> SimState:
    """Fresh state at t = 0; seeds the L-inf history there.

    Complex or non-finite fields raise ValueError: a float cast would keep
    only the real part, and a NaN or inf would pass for a blow-up at the
    first step.
    """
    if any(np.iscomplexobj(f) for f in fields):
        raise ValueError("initial fields must be real")
    fields = tuple(np.asarray(f, dtype=float).copy() for f in fields)
    linf = _linf(fields)
    if not math.isfinite(linf):
        raise ValueError("initial fields must be finite")
    return SimState(t=0.0, fields=fields, step_count=0,
                    linf_history=[(0.0, linf)], last_linf=linf)


def _step(state: SimState, config: SimConfig, dt: float | None) -> SimState:
    if dt is None:
        dt = config.grid.dt
    elif not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    new_fields = config.update(state.fields, dt)
    linf = _linf(new_fields)
    t = state.t + dt
    if not math.isfinite(linf) or linf > config.blowup_limit:
        raise BlowUpError(t, config.blowup_limit, state)
    return SimState(t=t, fields=new_fields, step_count=state.step_count + 1,
                    linf_history=state.linf_history, last_linf=linf)


def step_ade(state: SimState, config: SimConfig, dt: float | None = None) -> SimState:
    """One explicit step of the scalar advection-diffusion equation."""
    if config.is_wave:
        raise ValueError("config holds wave operators")
    return _step(state, config, dt)


def step_wave(state: SimState, config: SimConfig, dt: float | None = None) -> SimState:
    """One explicit step of the flux-split wave system."""
    if not config.is_wave:
        raise ValueError("config holds scalar operators")
    return _step(state, config, dt)


def advance(state: SimState, config: SimConfig, t_target: float,
            stop_linf: float | None = None):
    """Step until ``t_target``, shortening the last step to land exactly.

    Records (t, L-inf) at the final level and every k-th step, k =
    max(1, round(t_final / dt) // 4096) so a whole run keeps about 4096
    samples, in a copy of the history: ``state`` itself is not changed.
    Returns (state, stopped_early); the flag is set when ``stop_linf`` was
    reached first.  ``t_target`` must be finite and ``stop_linf`` not NaN.
    """
    if not math.isfinite(t_target):
        raise ValueError(f"t_target must be finite, got {t_target!r}")
    if stop_linf is not None and math.isnan(stop_linf):
        raise ValueError("stop_linf must not be NaN")
    step = step_wave if config.is_wave else step_ade
    tol = _landing_tol(t_target)
    dt = config.grid.dt
    cadence = max(1, round(config.t_final / dt) // 4096)
    eps = sys.float_info.epsilon
    near = 1.5 * dt
    state = replace(state, linf_history=list(state.linf_history))
    # an overflowing stage product or a NaN from inf - inf is reported as
    # a blow-up by _step, so numpy need not warn about it
    with np.errstate(over="ignore", invalid="ignore"):
        while t_target - state.t > tol:
            rem = t_target - state.t
            # The slack absorbs the rounding that state.t has accumulated (at
            # most one half-ulp of |t| per step), so a run of exactly n steps
            # lands on t_target instead of adding a sliver step.  It is capped
            # at dt / 2 so that even a very long run never stretches its last
            # step beyond 1.5 dt; so it is only worked out once rem <= 1.5 dt.
            if rem <= near and rem <= dt + min(
                    max(1e-9 * dt, 4 * eps * state.step_count * abs(t_target)), 0.5 * dt):
                state = step(state, config, rem)
                state.t = t_target
            else:
                state = step(state, config)
            if state.step_count % cadence == 0 or state.t == t_target:
                state.linf_history.append((state.t, state.last_linf))
            if stop_linf is not None and state.last_linf >= stop_linf:
                if state.linf_history[-1][0] != state.t:
                    state.linf_history.append((state.t, state.last_linf))
                return state, True
        return state, False


def run_simulation(config: SimConfig, initial_fields, *,
                   stop_linf: float | None = None) -> SimResult:
    """Advance from the initial fields through the snapshot times up to t_final.

    ``initial_fields`` holds one length-N vector for the scalar equation,
    (v, p) for the wave system.  Copies the fields at every snapshot time
    (t = 0 included).  Reaching ``stop_linf`` ends the run early.  So does
    a blow-up, which is reported in the result instead of propagating;
    ``final_state`` is then the last state within the limit.
    """
    want = [(config.grid.n_cells,)] * (2 if config.is_wave else 1)
    shapes = [np.shape(f) for f in initial_fields]
    if shapes != want:
        raise ValueError(f"initial fields must have shapes {want}, got {shapes}")
    state = make_state(initial_fields)
    targets = list(config.snapshot_times)
    if not targets or targets[-1] != config.t_final:
        targets.append(config.t_final)
    snapshots = []
    for t_snap in targets:
        if t_snap != 0.0:
            try:
                state, stopped = advance(state, config, t_snap, stop_linf)
            except BlowUpError as exc:
                return SimResult(snapshots, exc.state.linf_history, True, exc.time, exc.state)
            if stopped:
                break
        snapshots.append((state.t, tuple(f.copy() for f in state.fields)))
    return SimResult(snapshots, state.linf_history, False, None, state)


def run_gaussian_experiment(config: SimConfig, stop_factor: float | None = None
                            ) -> SimResult:
    """Advect the pinned Gaussian pulse and track its growth.

    Requires a scalar config with nu = 0: the exact solution is then the
    initial pulse again at every whole period, so a snapshot taken at a
    whole time can be compared with the pulse directly.  ``stop_factor``,
    finite and positive, ends the run early once L-inf has grown by that
    factor (useful when only the growth verdict matters).
    """
    if config.is_wave:
        raise ValueError("the pulse experiment is a scalar setup")
    if config.grid.nu != 0.0:
        raise ValueError("the pulse experiment requires nu = 0")
    if stop_factor is not None and not (math.isfinite(stop_factor) and stop_factor > 0):
        raise ValueError(f"stop_factor must be finite and positive, got {stop_factor!r}")
    w0 = gaussian_pulse(config.grid.n_cells)
    stop_linf = stop_factor * _linf((w0,)) if stop_factor is not None else None
    return run_simulation(config, (w0,), stop_linf=stop_linf)
