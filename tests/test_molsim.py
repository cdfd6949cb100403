"""Direct time stepping against the spectral predictions."""

import math
import warnings

import numpy as np
import pytest

from fdmlab import (
    BlowUpError,
    GridConfig,
    SimConfig,
    WaveDiscretization,
    advance,
    advection_symbol,
    apply_operator,
    build_dx,
    build_dxx,
    diffusion_symbol,
    eval_p,
    full_spectrum,
    gaussian_pulse,
    get_tableau,
    make_state,
    run_gaussian_experiment,
    run_simulation,
    semidiscrete_eigs,
    stability_polynomial,
    step_ade,
    step_wave,
    wave_symbols,
)
from fdmlab import molsim
from oracles import dense_ade_matrix, dense_wave_matrix, matrix_poly, roll_apply


def scalar_config(lr, q, nu, mu, n, tableau="rk4", t_final=1.0, **kw):
    dxx = build_dxx(q) if q else None
    return SimConfig(
        grid=GridConfig(n, nu, dt=mu / n),
        tableau=get_tableau(tableau),
        operators=(build_dx(*lr), dxx),
        t_final=t_final,
        **kw,
    )


def semidiscrete_exact(dx, dxx, nu, u0, t):
    """Reference propagator: exact exponential of the semidiscrete system."""
    n = len(u0)
    th = 2 * np.pi * np.arange(n) / n
    lam = n * advection_symbol(dx, th)
    if dxx is not None and nu:
        lam = lam + nu * n**2 * diffusion_symbol(dxx, th)
    return np.fft.ifft(np.fft.fft(u0) * np.exp(t * lam)).real


def test_apply_operator_annihilates_constants():
    for op in (build_dx(3, 1), build_dxx(2)):
        out = apply_operator(op, np.ones(64))
        assert np.max(np.abs(out)) < 1e-11


def test_apply_operator_matches_symbol_action():
    n, k = 64, 5
    th = 2 * math.pi * k / n
    j = np.arange(n)
    mode = np.exp(1j * th * j)
    for op, factor in [
        (build_dx(2, 1), -n * advection_symbol(build_dx(2, 1), th)),
        (build_dxx(2), n**2 * diffusion_symbol(build_dxx(2), th)),
    ]:
        out = apply_operator(op, mode)
        np.testing.assert_allclose(out, factor * mode, atol=1e-10 * n**2)


def test_apply_operator_validation():
    # a stencil wider than the grid wraps onto it, as roll_apply does
    rng = np.random.default_rng(21)
    for op, n in ((build_dx(21, 20), 8), (build_dxx(5), 4), (build_dx(3, 1), 1)):
        u = rng.standard_normal(n)
        assert apply_operator(op, u).tobytes() == roll_apply(op, u).tobytes(), (op, n)
    with pytest.raises(ValueError, match="non-empty"):
        apply_operator(build_dx(1, 0), np.ones(0))


def test_apply_operator_rejects_non_vector():
    for bad in (np.ones((8, 3)), np.ones((1, 16)), np.float64(1.0)):
        with pytest.raises(ValueError, match="1-D"):
            apply_operator(build_dx(1, 0), bad)


def _stencils():
    return [build_dx(l, r) for l in range(8) for r in range(8) if l + r] + [
        build_dxx(q) for q in range(1, 6)
    ]


def test_apply_operator_bit_identical_to_roll_loop():
    rng = np.random.default_rng(2718)
    for op in _stencils():
        w = op.spec.width
        for n in (w, w + 1, *rng.integers(w, 1001, size=8)):
            u = rng.standard_normal(n) * 10.0 ** rng.uniform(-5, 5, n)
            u[rng.random(n) < 0.2] = 0.0
            u[rng.random(n) < 0.1] = -0.0
            got = apply_operator(op, u)
            assert got.dtype == np.float64
            assert got.tobytes() == roll_apply(op, u).tobytes(), (op, n)
        z = u + 1j * rng.standard_normal(n)
        assert apply_operator(op, z).tobytes() == roll_apply(op, z).tobytes(), op
        k = rng.integers(-9, 10, size=n)
        assert apply_operator(op, k).tobytes() == roll_apply(op, k).tobytes(), op


def test_apply_operator_sums_signed_zeros_from_positive_zero():
    # c_k u_{j+k} is -0.0 for both offsets of dx(1,0) at j = 1 and 3
    u = np.array([0.0, -0.0, 0.0, -0.0])
    got = apply_operator(build_dx(1, 0), u)
    assert got.tobytes() == roll_apply(build_dx(1, 0), u).tobytes()
    assert not np.signbit(got).any()


def test_steps_bit_identical_to_roll_reference():
    n, nu, dt = 48, 0.1, 0.2 / 48
    rng = np.random.default_rng(5)
    dx, dxx = build_dx(3, 1), build_dxx(2)
    cfg = SimConfig(GridConfig(n, nu, dt=dt), get_tableau("fe"), (dx, dxx), 1.0)
    u = rng.standard_normal(n)
    out = -roll_apply(dx, u)
    out += nu * roll_apply(dxx, u)
    got = step_ade(make_state((u,)), cfg).fields[0]
    assert got.tobytes() == (u + dt * 1.0 * out).tobytes()

    w = WaveDiscretization(dx, build_dx(1, 3), dxx)
    cfg = SimConfig(GridConfig(n, nu, dt=dt), get_tableau("fe"), w, 1.0)
    v, p = rng.standard_normal((2, n))
    dm = roll_apply(w.dx_minus, v + p)
    dp = roll_apply(w.dx_plus, v - p)
    dv = -0.5 * dm + 0.5 * dp + nu * roll_apply(w.dxx, v)
    dpdt = -0.5 * dm - 0.5 * dp
    got = step_wave(make_state((v, p)), cfg).fields
    assert got[0].tobytes() == (v + dt * 1.0 * dv).tobytes()
    assert got[1].tobytes() == (p + dt * 1.0 * dpdt).tobytes()


def test_config_builds_each_kernel_once(monkeypatch):
    built = []
    real = molsim._gather_kernel

    def counting(op, n, sign=1.0):
        built.append(op)
        return real(op, n, sign)

    monkeypatch.setattr(molsim, "_gather_kernel", counting)
    cfg = scalar_config((3, 1), 2, 0.01, 0.4, 32, tableau="rk4")
    state = make_state((gaussian_pulse(32),))
    for _ in range(10):
        state = step_ade(state, cfg)
    assert built == list(cfg.operators)

    built.clear()
    w = WaveDiscretization(build_dx(3, 1), build_dx(1, 3), build_dxx(2))
    wcfg = SimConfig(GridConfig(32, 0.05, dt=0.01), get_tableau("lsrk3"), w, 1.0)
    run_simulation(wcfg, (gaussian_pulse(32), gaussian_pulse(32)))
    assert built == [w.dx_minus, w.dx_plus, w.dxx]

    built.clear()
    pure = scalar_config((2, 1), 0, 0.0, 0.4, 32, tableau="fe")
    run_simulation(pure, (gaussian_pulse(32),))
    assert built == [pure.operators[0]]


@pytest.mark.parametrize("wave", [False, True])
def test_steps_share_and_change_no_arrays(wave):
    # stepping one state twice gives the same bytes, leaves the input and
    # every earlier result alone, and no two states share any memory
    n = 32
    u = gaussian_pulse(n)
    if wave:
        w = WaveDiscretization(build_dx(3, 1), build_dx(1, 3), build_dxx(2))
        cfg = SimConfig(GridConfig(n, 0.01, dt=0.4 / n), get_tableau("rk4"), w, 1.0)
        step, fields = step_wave, (u, np.roll(u, 5))
    else:
        cfg = scalar_config((3, 1), 2, 0.01, 0.4, n)
        step, fields = step_ade, (u,)
    s0 = make_state(fields)
    states = [s0, step(s0, cfg), step(s0, cfg)]
    before = [[f.tobytes() for f in s.fields] for s in states]
    assert before[1] == before[2]
    states += [step(states[1], cfg), step(states[2], cfg), step(s0, cfg, 0.3 * cfg.grid.dt)]
    assert [[f.tobytes() for f in s.fields] for s in states[:3]] == before
    arrays = [f for s in states for f in s.fields]
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])


def test_step_at_grid_narrower_than_stencil_matches_spectrum():
    # one step of a delta is column 0 of p(dt L), L the circulant of the
    # stencils wrapped onto the grid: its DFT is p(mu lambda) at the grid
    # modes, lambda from semidiscrete_eigs, and it matches the dense matrix
    nu, mu = 0.05, 0.4
    for lr, q, tableau, n in [((21, 20), 5, "rk4", 4), ((21, 20), 5, "rk4", 8),
                              ((3, 1), 2, "lsrk3", 4), ((12, 11), 3, "rk3", 7)]:
        cfg = scalar_config(lr, q, nu, mu, n, tableau=tableau)
        assert cfg.operators[0].spec.width > n
        got = step_ade(make_state((np.eye(n)[0],)), cfg).fields[0]
        p = stability_polynomial(cfg.tableau)
        gain = eval_p(p, mu * semidiscrete_eigs(*cfg.operators, cfg.grid))
        np.testing.assert_allclose(np.fft.fft(got), gain, rtol=0, atol=1e-15)
        dense = matrix_poly(p.coeffs, cfg.grid.dt * dense_ade_matrix(*cfg.operators, n, nu))
        np.testing.assert_allclose(got, dense[:, 0], rtol=0, atol=1e-15)

    # the wave pair: a delta in v, then in p, against the 2 x 2 mode blocks
    n = 8
    w = WaveDiscretization(build_dx(6, 5), build_dx(5, 6), build_dxx(4))
    cfg = SimConfig(GridConfig(n, nu, dt=mu / n), get_tableau("rk4"), w, 1.0)
    p = stability_polynomial(cfg.tableau)
    dense = matrix_poly(p.coeffs, cfg.grid.dt * dense_wave_matrix(w, n, nu))
    am, ap, b = wave_symbols(w, 2 * np.pi * np.arange(n) / n)
    r = nu * n
    blocks = np.moveaxis(np.array([[r * b - (am - ap) / 2, -(am + ap) / 2],
                                   [-(am + ap) / 2, -(am - ap) / 2]]), 2, 0)
    for col in (0, n):
        fields = np.eye(2 * n)[col].reshape(2, n)
        got = np.concatenate(step_wave(make_state(tuple(fields)), cfg).fields)
        np.testing.assert_allclose(got, dense[:, col], rtol=0, atol=1e-15)
        hat = np.fft.fft(got.reshape(2, n))
        for m in range(n):
            want = matrix_poly(p.coeffs, mu * blocks[m])[:, col // n]
            np.testing.assert_allclose(hat[:, m], want, rtol=0, atol=1e-15)


def test_forward_euler_step_definition():
    cfg = scalar_config((2, 1), 1, 0.3, 0.1, 32, tableau="fe")
    u0 = gaussian_pulse(32)
    state = step_ade(make_state((u0,)), cfg)
    dx, dxx = cfg.operators
    want = u0 + cfg.grid.dt * (
        -apply_operator(dx, u0) + 0.3 * apply_operator(dxx, u0)
    )
    np.testing.assert_allclose(state.fields[0], want, rtol=0, atol=1e-13)
    assert state.step_count == 1
    assert state.t == cfg.grid.dt


def test_step_type_cross_checks():
    cfg = scalar_config((1, 0), 1, 0.0, 0.5, 16)
    state = make_state((gaussian_pulse(16),))
    with pytest.raises(ValueError):
        step_wave(state, cfg)
    wcfg = SimConfig(
        grid=GridConfig(16, 0.0, dt=0.01),
        tableau=get_tableau("rk4"),
        operators=WaveDiscretization(build_dx(1, 0), build_dx(0, 1), build_dxx(1)),
        t_final=1.0,
    )
    with pytest.raises(ValueError):
        step_ade(make_state((np.ones(16), np.ones(16))), wcfg)


@pytest.mark.parametrize("tableau", ["fe", "rk3", "rk4"])
@pytest.mark.parametrize("k", [3, 17])
def test_scalar_mode_amplification_matches_polynomial(tableau, k):
    n, nu, mu = 64, 0.1, 0.4
    cfg = scalar_config((3, 1), 2, nu, mu, n, tableau=tableau)
    th = 2 * math.pi * k / n
    j = np.arange(n)
    cos_state = step_ade(make_state((np.cos(th * j),)), cfg)
    sin_state = step_ade(make_state((np.sin(th * j),)), cfg)
    stepped = cos_state.fields[0] + 1j * sin_state.fields[0]
    ratio = stepped * np.exp(-1j * th * j)
    dx, dxx = cfg.operators
    lam = advection_symbol(dx, th) + (nu * n) * diffusion_symbol(dxx, th)
    want = eval_p(stability_polynomial(cfg.tableau), mu * lam)
    np.testing.assert_allclose(ratio, np.full(n, want), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("tableau", ["rk2", "rk4"])
def test_wave_mode_amplification_matches_matrix_polynomial(tableau):
    n, nu, mu, k = 64, 0.05, 0.4, 4
    w = WaveDiscretization(build_dx(3, 1), build_dx(1, 3), build_dxx(2))
    cfg = SimConfig(
        grid=GridConfig(n, nu, dt=mu / n),
        tableau=get_tableau(tableau),
        operators=w,
        t_final=1.0,
    )
    th = 2 * math.pi * k / n
    j = np.arange(n)
    av, bp = 0.3 + 0.2j, -0.1 + 0.7j

    def as_fields(a, b):
        return (
            a.real * np.cos(th * j) - a.imag * np.sin(th * j),
            b.real * np.cos(th * j) - b.imag * np.sin(th * j),
        )

    state = step_wave(make_state(as_fields(av, bp)), cfg)
    got = np.array([2 * np.fft.fft(f)[k] / n for f in state.fields])
    am, ap, b = wave_symbols(w, th)
    r = nu * n
    block = np.array(
        [[r * b - (am - ap) / 2, -(am + ap) / 2], [-(am + ap) / 2, -(am - ap) / 2]]
    )
    p = stability_polynomial(cfg.tableau)
    want = matrix_poly(p.coeffs, mu * block) @ np.array([av, bp])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-11)


def test_advance_lands_exactly_and_records():
    # 20480 steps: advance records every 20480 // 4096 = 5th step
    dt = 0.7 / 64
    cfg = scalar_config((1, 0), 0, 0.0, 0.7, 64, tableau="fe", t_final=20480 * dt)
    t_final = cfg.t_final
    state, stopped = advance(make_state((gaussian_pulse(64),)), cfg, t_final)
    assert not stopped
    assert state.t == t_final
    times = [t for t, _ in state.linf_history]
    assert times[0] == 0.0 and times[-1] == t_final
    assert len(times) <= 2 + state.step_count // 5 + 1
    assert state.step_count == 20480 and len(times) == 1 + 20480 // 5


def test_advance_leaves_its_input_state_alone():
    cfg = scalar_config((3, 1), 0, 0.0, 0.5, 32, t_final=1.0)
    s0 = make_state((gaussian_pulse(32),))
    history0 = list(s0.linf_history)
    s1, _ = advance(s0, cfg, 0.5)
    assert s0.t == 0.0 and s0.step_count == 0
    assert s0.linf_history == history0
    history1 = list(s1.linf_history)
    s2, _ = advance(s1, cfg, 1.0)
    assert s1.linf_history == history1 and history1[-1][0] == 0.5
    assert s2.linf_history[: len(history1)] == history1
    assert s2.linf_history[-1][0] == 1.0


def test_advance_takes_no_sliver_step():
    # 100000 additions of dt leave state.t about 1e-10 short of t_final,
    # more than the 1e-12 t landing tolerance: the last step must absorb it
    cfg = scalar_config((2, 0), 0, 0.0, 0.03, 100, tableau="fe",
                        t_final=100000 * (0.03 / 100))
    state, stopped = advance(make_state((gaussian_pulse(100),)), cfg, cfg.t_final)
    assert not stopped
    assert state.step_count == 100000
    assert state.t == cfg.t_final


def test_advance_splits_off_a_fractional_last_step():
    cfg = scalar_config((1, 0), 0, 0.0, 0.5, 32)
    dt = cfg.grid.dt
    state, _ = advance(make_state((gaussian_pulse(32),)), cfg, 10.4 * dt)
    assert state.step_count == 11
    assert state.t == 10.4 * dt


def test_advance_stop_level():
    cfg = scalar_config((1, 0), 0, 0.0, 0.5, 32, t_final=10.0)
    state, stopped = advance(
        make_state((gaussian_pulse(32),)), cfg, 10.0, stop_linf=0.1
    )
    # the decaying pulse starts above the level, so the first step stops it
    assert stopped
    assert state.step_count == 1
    assert state.t < 10.0
    assert state.last_linf >= 0.1


def test_advance_stops_a_growing_run_at_the_level():
    # forward Euler with upwind at mu = 2 grows; the level lies above the
    # initial peak of 1, so the run must step up to it and stop there
    cfg = scalar_config((1, 0), 0, 0.0, 2.0, 32, tableau="fe", t_final=10.0)
    start = make_state((gaussian_pulse(32),))
    state, stopped = advance(start, cfg, 10.0, stop_linf=2.0)
    assert start.last_linf < 2.0
    assert stopped
    assert state.step_count > 1
    (_, before), (t_last, last) = state.linf_history[-2:]
    assert before < 2.0 <= last
    assert (t_last, last) == (state.t, state.last_linf)


@pytest.mark.parametrize("t_target", [math.nan, math.inf, -math.inf])
def test_advance_rejects_non_finite_target(t_target):
    cfg = scalar_config((1, 0), 0, 0.0, 0.5, 32)
    with pytest.raises(ValueError, match="t_target must be finite"):
        advance(make_state((gaussian_pulse(32),)), cfg, t_target)


def test_nan_stop_level_is_rejected():
    # a NaN level would never be reached, so the run would silently go on
    cfg = scalar_config((1, 0), 0, 0.0, 0.5, 32)
    with pytest.raises(ValueError, match="stop_linf must not be NaN"):
        advance(make_state((gaussian_pulse(32),)), cfg, 1.0, stop_linf=math.nan)
    with pytest.raises(ValueError, match="stop_linf must not be NaN"):
        run_simulation(cfg, (gaussian_pulse(32),), stop_linf=math.nan)


@pytest.mark.parametrize("dt", [math.nan, math.inf, -0.01, 0.0])
def test_explicit_dt_must_be_finite_and_positive(dt):
    cfg = scalar_config((1, 0), 0, 0.0, 0.5, 16)
    wcfg = SimConfig(
        grid=GridConfig(16, 0.0, dt=0.01),
        tableau=get_tableau("rk4"),
        operators=WaveDiscretization(build_dx(1, 0), build_dx(0, 1), build_dxx(1)),
        t_final=1.0,
    )
    u = gaussian_pulse(16)
    for step, config, fields in ((step_ade, cfg, (u,)), (step_wave, wcfg, (u, u))):
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            step(make_state(fields), config, dt)


def test_truncated_step_dt_override():
    cfg = scalar_config((1, 0), 0, 0.0, 0.5, 32)
    state = step_ade(make_state((gaussian_pulse(32),)), cfg, dt=1e-3)
    assert state.t == 1e-3


def test_config_validation():
    with pytest.raises(ValueError):
        scalar_config((1, 0), 0, 0.0, 0.5, 32, t_final=-1.0)
    with pytest.raises(ValueError):
        scalar_config((1, 0), 0, 0.0, 0.5, 32, snapshot_times=(0.5, 0.25))
    with pytest.raises(ValueError):
        scalar_config((1, 0), 0, 0.0, 0.5, 32, t_final=1.0, snapshot_times=(2.0,))
    with pytest.raises(ValueError):
        scalar_config((1, 0), 0, 0.3, 0.5, 32)  # viscosity without dxx
    with pytest.raises(ValueError):
        SimConfig(
            grid=GridConfig(16, 0.0, dt=0.01),
            tableau=get_tableau("fe"),
            operators=build_dx(1, 0),
            t_final=1.0,
        )
    for limit in (math.nan, 0.0):
        with pytest.raises(ValueError, match="^blow-up limit must be positive$"):
            scalar_config((1, 0), 0, 0.0, 0.5, 32, blowup_limit=limit)
    with pytest.raises(ValueError, match="^scalar config needs an advection operator$"):
        SimConfig(GridConfig(32, 0.1, dt=0.01), get_tableau("fe"), (None, build_dxx(1)), 1.0)
    # a first-derivative "diffusion" term would be scaled by n, not n^2
    for ops, kind in [((build_dx(1, 0), build_dx(2, 0)), "second-derivative"),
                      ((build_dxx(2), None), "first-derivative")]:
        with pytest.raises(ValueError, match=kind):
            SimConfig(GridConfig(32, 0.1, dt=0.01), get_tableau("fe"), ops, 1.0)


def test_initial_fields_must_match_the_config():
    cfg = scalar_config((1, 0), 0, 0.0, 0.5, 32)
    w = WaveDiscretization(build_dx(1, 0), build_dx(0, 1), build_dxx(1))
    wcfg = SimConfig(GridConfig(32, 0.0, dt=0.01), get_tableau("fe"), w, 1.0)
    u = gaussian_pulse(32)
    for config, fields in [
        (cfg, (gaussian_pulse(16),)),
        (cfg, (u, u)),
        (cfg, u),
        (cfg, (u[:, None],)),
        (cfg, ()),
        (wcfg, (u,)),
        (wcfg, (u, gaussian_pulse(31))),
    ]:
        with pytest.raises(ValueError, match=r"shapes \[\(32,\)"):
            run_simulation(config, fields)


@pytest.mark.parametrize("n", [8.0, True])
def test_pulse_cell_count_must_be_an_integer(n):
    # 8.0 gave 8 samples and True gave one
    with pytest.raises(ValueError) as err:
        gaussian_pulse(n)
    assert str(err.value) == f"n_cells must be an integer, got {n!r}"
    assert np.array_equal(gaussian_pulse(np.int64(8)), gaussian_pulse(8))


@pytest.mark.parametrize("n", [0, -2])
def test_pulse_needs_a_cell(n):
    with pytest.raises(ValueError, match="need at least 1 cells"):
        gaussian_pulse(n)
    assert gaussian_pulse(1).tobytes() == np.exp([-25.0]).tobytes()


def test_config_refuses_step_counts_past_2_52():
    # t + dt rounds back to t once t_final / dt passes about 2^53, and an
    # infinite ratio overflows advance's round(t_final / dt)
    def config(t_final, dt):
        return SimConfig(GridConfig(32, 0.0, dt=dt), get_tableau("rk4"),
                         (build_dx(3, 1), None), t_final)

    assert config(1.0, 2.0**-52).t_final == 1.0
    for t_final, dt in ((1.0 + 2.0**-52, 2.0**-52), (1.0, 1e-17), (0.1, 1e-310 / 32)):
        with pytest.raises(ValueError, match="at most 2\\^52"):
            config(t_final, dt)


@pytest.mark.parametrize("t_final,snaps,gap", [
    (1e-12, (), (0.0, 1e-12)),
    (1.0, (0.5, 0.5 + 0.9e-12), (0.5, 0.5 + 0.9e-12)),
    (3.0, (2.0, 2.0 + 1.9e-12), (2.0, 2.0 + 1.9e-12)),
    (1.0, (1.0 - 0.9e-12,), (1.0 - 0.9e-12, 1.0)),
])
def test_config_refuses_targets_within_the_landing_tolerance(t_final, snaps, gap):
    # advance counts a target within 1e-12 max(1, |t|) as reached, so it
    # would take no step and record the earlier time under the later one
    with pytest.raises(ValueError, match=f"{gap[1]!r} lies within .* of {gap[0]!r}"):
        scalar_config((1, 0), 0, 0.0, 0.5, 16, t_final=t_final, snapshot_times=snaps)


@pytest.mark.parametrize("t_final,snaps", [
    (1.1e-12, ()),
    (1.0, (0.5, 0.5 + 1.1e-12)),
    (3.0, (2.0, 2.0 + 2.1e-12)),
    (1.0, (1.0 - 1.1e-12,)),
])
def test_targets_past_the_landing_tolerance_are_reached(t_final, snaps):
    cfg = scalar_config((1, 0), 0, 0.0, 0.5, 16, t_final=t_final, snapshot_times=snaps)
    result = run_simulation(cfg, (gaussian_pulse(16),))
    assert [t for t, _ in result.snapshots] == [*snaps, t_final]


@pytest.mark.parametrize(
    "kw,field",
    [
        (dict(t_final=math.inf), "t_final"),
        (dict(t_final=math.nan), "t_final"),
        (dict(snapshot_times=(math.nan,)), "snapshot_times"),
        (dict(snapshot_times=(0.25, math.nan)), "snapshot_times"),
        (dict(snapshot_times=(-math.inf, 0.5)), "snapshot_times"),
        (dict(snapshot_times=(0.5, math.inf)), "snapshot_times"),
    ],
)
def test_config_rejects_non_finite_times(kw, field):
    with pytest.raises(ValueError, match=field):
        scalar_config((1, 0), 0, 0.0, 0.5, 32, **kw)


def test_stable_run_l2_never_grows():
    # circulants are normal, so rho <= 1 bounds the l2 norm step by step
    cfg = scalar_config((3, 1), 0, 0.0, 0.5, 64, tableau="rk4")
    state = make_state((gaussian_pulse(64),))
    norm = np.linalg.norm(state.fields[0])
    for _ in range(500):
        state = step_ade(state, cfg)
        new = np.linalg.norm(state.fields[0])
        assert new <= norm * (1.0 + 1e-12)
        norm = new


def test_wave_run_l2_never_grows_without_viscosity():
    w = WaveDiscretization(build_dx(3, 1), build_dx(1, 3), build_dxx(2))
    cfg = SimConfig(
        grid=GridConfig(64, 0.0, dt=0.5 / 64),
        tableau=get_tableau("rk4"),
        operators=w,
        t_final=1.0,
    )
    state = make_state((gaussian_pulse(64), gaussian_pulse(64)))
    energy = sum(np.linalg.norm(f) ** 2 for f in state.fields)
    for _ in range(300):
        state = step_wave(state, cfg)
        new = sum(np.linalg.norm(f) ** 2 for f in state.fields)
        assert new <= energy * (1.0 + 1e-12)
        energy = new


def test_single_mode_growth_rate_matches_spectral_radius():
    n, mu = 64, 0.03
    dx = build_dx(2, 0)
    grid = GridConfig(n, 0.0, dt=mu / n)
    rep = full_spectrum(dx, None, grid, stability_polynomial(get_tableau("fe")))
    k_worst = int(np.argmax(np.abs(rep.eigenvalues)))
    cfg = scalar_config((2, 0), 0, 0.0, mu, n, tableau="fe", t_final=10.0)
    j = np.arange(n)
    state = make_state((np.cos(2 * math.pi * k_worst * j / n),))
    n0 = np.linalg.norm(state.fields[0])
    steps = 500
    for _ in range(steps):
        state = step_ade(state, cfg)
    rate = math.log(np.linalg.norm(state.fields[0]) / n0) / steps
    assert rate == pytest.approx(math.log(rep.rho), rel=0.01)


@pytest.mark.parametrize(
    "name,order", [("fe", 1), ("rk2", 2), ("rk3", 3), ("rk4", 4)]
)
def test_temporal_convergence_order(name, order):
    n, nu, t = 32, 0.05, 0.5
    dx, dxx = build_dx(1, 0), build_dxx(1)
    exact = semidiscrete_exact(dx, dxx, nu, gaussian_pulse(n), t)
    errs = []
    for mu in (0.2, 0.1):
        cfg = scalar_config((1, 0), 1, nu, mu, n, tableau=name, t_final=t)
        res = run_simulation(cfg, (gaussian_pulse(n),))
        _, (w,) = res.snapshots[-1]
        errs.append(np.max(np.abs(w - exact)))
    slope = math.log2(errs[0] / errs[1])
    assert slope == pytest.approx(order, abs=0.3)


@pytest.mark.parametrize(
    "lr,q,nu,order",
    [((3, 1), 2, 0.01, 4), ((1, 0), 1, 0.02, 1), ((3, 1), 1, 0.05, 2)],
)
def test_spatial_convergence_order(lr, q, nu, order):
    # the combined scheme converges at min(first-derivative order, 2q)
    errs = []
    for n in (16, 32, 64):
        cfg = scalar_config(lr, q, nu, 0.05, n, t_final=0.25)
        x = np.arange(n) / n
        res = run_simulation(cfg, (np.sin(2 * np.pi * x),))
        t, (w,) = res.snapshots[-1]
        exact = np.exp(-4 * np.pi**2 * nu * t) * np.sin(2 * np.pi * (x - t))
        errs.append(np.max(np.abs(w - exact)))
    slope = math.log2(errs[1] / errs[2])
    assert slope == pytest.approx(order, abs=0.35)


def test_run_simulation_snapshots_and_history():
    cfg = scalar_config(
        (3, 1), 0, 0.0, 0.5, 50, tableau="rk3", t_final=1.0,
        snapshot_times=(0.25, 0.5),
    )
    res = run_simulation(cfg, (gaussian_pulse(50),))
    assert [t for t, _ in res.snapshots] == [0.25, 0.5, 1.0]
    assert not res.blowup and res.t_blowup is None
    assert res.final_state.t == 1.0
    assert res.linf_history[0][0] == 0.0
    assert res.linf_history[-1][0] == 1.0


def test_blowup_detection():
    cfg = scalar_config((1, 0), 0, 0.0, 2.0, 32, tableau="fe", t_final=50.0)
    res = run_simulation(cfg, (gaussian_pulse(32),))
    assert res.blowup
    assert res.t_blowup is not None and res.t_blowup < 50.0
    # the run ends on the last state within the limit, its history kept
    last = res.final_state
    assert 0 < last.t < res.t_blowup and last.last_linf <= 1e10
    assert res.linf_history is last.linf_history
    assert res.snapshots == [] and res.linf_history[-1][0] == last.t
    with pytest.raises(BlowUpError) as info:
        advance(make_state((gaussian_pulse(32),)), cfg, 50.0)
    assert info.value.limit == 1e10
    assert info.value.state.t == last.t and info.value.time > last.t
    tight = scalar_config(
        (1, 0), 0, 0.0, 2.0, 32, tableau="fe", t_final=50.0, blowup_limit=100.0
    )
    res2 = run_simulation(tight, (gaussian_pulse(32),))
    assert res2.blowup and res2.t_blowup < res.t_blowup


@pytest.mark.parametrize("fields", [
    (np.array([1.0]), np.array([np.nan])),
    (np.array([np.nan]), np.array([1.0])),
])
def test_linf_is_nan_when_any_field_is(fields):
    # the blow-up test of every step relies on this for the wave pair (v, p)
    assert math.isnan(molsim._linf(fields))
    assert molsim._linf((np.array([-3.0, 1.0]), np.array([2.0]))) == 3.0


def test_gaussian_recurrence_after_one_period():
    cfg = scalar_config(
        (3, 1), 0, 0.0, 0.5, 100, tableau="lsrk3", t_final=1.0,
        snapshot_times=(0.5, 1.0),
    )
    report = run_gaussian_experiment(cfg)
    assert not report.blowup
    # nu = 0, so the exact solution is the pulse again at t = 1
    t, (w,) = report.snapshots[-1]
    assert t == 1.0
    assert np.max(np.abs(w - gaussian_pulse(100))) < 0.05
    assert report.growth_factor <= 1.01


def test_gaussian_experiment_early_stop():
    cfg = scalar_config((2, 0), 0, 0.0, 0.03, 64, tableau="fe", t_final=500.0)
    report = run_gaussian_experiment(cfg, stop_factor=0.999)
    assert not report.blowup
    assert report.growth_factor >= 0.999
    assert report.linf_history[-1][0] < 500.0


@pytest.mark.parametrize("stop_factor", [None, 10.0])
def test_gaussian_experiment_is_run_simulation_of_the_pulse(stop_factor):
    # fe + dx(2,0) grows: stop_factor ends the run after two snapshots,
    # and without it the run blows up before t_final
    cfg = scalar_config((2, 0), 0, 0.0, 0.3, 32, tableau="fe", t_final=20.0,
                        snapshot_times=(0.5, 1.0, 5.0))
    w0 = gaussian_pulse(32)
    stop_linf = None if stop_factor is None else stop_factor * float(np.max(np.abs(w0)))
    got = run_gaussian_experiment(cfg, stop_factor)
    want = run_simulation(cfg, (w0,), stop_linf=stop_linf)
    assert got.blowup is want.blowup is (stop_factor is None)
    assert got.t_blowup == want.t_blowup
    assert [t for t, _ in got.snapshots] == [t for t, _ in want.snapshots]
    assert len(got.snapshots) == (3 if stop_factor is None else 2)
    for (_, (a,)), (_, (b,)) in zip(got.snapshots, want.snapshots):
        assert a.tobytes() == b.tobytes()
    assert got.linf_history == want.linf_history
    assert got.final_state.t == want.final_state.t
    assert got.final_state.step_count == want.final_state.step_count
    assert got.final_state.fields[0].tobytes() == want.final_state.fields[0].tobytes()


@pytest.mark.parametrize("stop_factor", [math.nan, math.inf, -1.0, 0.0])
def test_gaussian_experiment_rejects_bad_stop_factor(stop_factor):
    cfg = scalar_config((1, 0), 0, 0.0, 0.5, 32)
    with pytest.raises(ValueError, match="stop_factor must be finite and positive"):
        run_gaussian_experiment(cfg, stop_factor)


def test_growth_factor_is_a_result_property():
    cfg = scalar_config((1, 0), 0, 0.0, 0.5, 32, tableau="fe", t_final=0.5)
    res = run_simulation(cfg, (2 * gaussian_pulse(32),))
    peak = max(v for _, v in res.linf_history)
    assert res.linf_history[0][1] == 2.0 and res.growth_factor == peak / 2.0
    assert math.isnan(run_simulation(cfg, (np.zeros(32),)).growth_factor)


def test_gaussian_experiment_requires_pure_advection():
    with pytest.raises(ValueError):
        run_gaussian_experiment(scalar_config((1, 0), 1, 0.1, 0.5, 32))
    wcfg = SimConfig(
        grid=GridConfig(16, 0.0, dt=0.01),
        tableau=get_tableau("fe"),
        operators=WaveDiscretization(build_dx(1, 0), build_dx(0, 1), build_dxx(1)),
        t_final=1.0,
    )
    with pytest.raises(ValueError):
        run_gaussian_experiment(wcfg)


@pytest.mark.parametrize("bad,rule", [
    (1j, "real"), (math.nan, "finite"), (math.inf, "finite"), (-math.inf, "finite"),
])
def test_initial_fields_must_be_real_and_finite(bad, rule):
    # a float cast would run on the real part alone, and a NaN or inf would
    # pass for a blow-up at t = dt
    cfg = scalar_config((1, 0), 0, 0.0, 0.5, 32)
    wcfg = SimConfig(GridConfig(32, 0.0, dt=0.01), get_tableau("fe"),
                     WaveDiscretization(build_dx(1, 0), build_dx(0, 1), build_dxx(1)), 1.0)
    u = gaussian_pulse(32)
    bad_u = u * bad if bad == 1j else np.where(np.arange(32) == 5, bad, u)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for config, fields in ((cfg, (bad_u,)), (wcfg, (u, bad_u))):
            with pytest.raises(ValueError, match=f"initial fields must be {rule}"):
                make_state(fields)
            with pytest.raises(ValueError, match=f"initial fields must be {rule}"):
                run_simulation(config, fields)
