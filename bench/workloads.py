"""The benchmark workloads: seeded inputs, timed tasks and their checks.

``setup(name, seed, small)`` builds one workload's operators and stability
polynomials from the seed and returns its tasks.  A task runs one public
fdmlab entry point on those inputs.  Its ``check`` compares the output with
the reference route in ``oracle``, and its ``digest`` fingerprints the
output so later passes can be held to the first one byte for byte.

Problem sizes and step counts are fixed; the seed only picks stencils,
tableaux, R values and initial fields, and it picks them so that every seed
does the same amount of work (see README.md).  ``small`` shrinks every size
for the warm-up pass and the self-test.

The program is called through its module attributes (``fulldisc.x``, not
``from fdmlab.fulldisc import x``), so the tracer's patches are seen.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from fdmlab import fulldisc, molsim, stencil, timeint, wavesys

import oracle

TABLEAUX = ("rk3", "lsrk3", "rk4")
GOLDEN = Path(__file__).resolve().parent / "golden_seed0.json"
GOLDEN_SEED = 0


@dataclass
class Task:
    """One timed call into the program.

    ``rate`` names the throughput metric the task feeds, and ``units``
    gives the amount of that metric's work one output represents.
    ``check`` returns None when the output is correct, else a reason.
    """

    name: str
    rate: str
    run: Callable[[Path], object]
    check: Callable[[object], str | None]
    digest: Callable[[object], str]
    units: Callable[[object], float]
    files: Callable[[object], int] = lambda out: 0


def setup(name: str, seed: int, small: bool = False) -> list[Task]:
    builders = {"spectral": _spectral, "timestep": _timestep, "cli_output": _cli_output}
    return builders[name](seed, small)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _ref(op):
    """(float coefficients, left extent) for the oracle, or None."""
    return None if op is None else ([float(c) for c in op.coeffs], op.left)


def _moment_failure(*ops) -> str | None:
    for op in ops:
        if op is None:
            continue
        second = op.spec.kind is stencil.StencilKind.SECOND_DERIVATIVE_CENTERED
        if not oracle.moments_ok(op.coeffs, op.left, second):
            return f"moment conditions fail for {op!r}"
    return None


def _label(op) -> str:
    if op is None:
        return "-"
    kind = "dxx" if op.spec.kind is stencil.StencilKind.SECOND_DERIVATIVE_CENTERED else "dx"
    return f"{kind}({op.left},{op.right})"


# ---------------------------------------------------------------- spectral


def _threshold_task(dx, dxx, tab, poly, nu, n, mode) -> Task:
    fixed_mu_nu = mode is fulldisc.SweepMode.FIXED_MU_NU
    refs = (_ref(dx), _ref(dxx))

    def run(_):
        return fulldisc.stable_mu_threshold(dx, dxx, poly, nu, n, mode)

    def check(res):
        bad = _moment_failure(dx, dxx)
        if bad:
            return bad
        return oracle.threshold_failure(*refs, oracle.POLY[tab], n, res.mu_star, res.tol,
                                        nu, fixed_mu_nu)

    return Task(
        f"threshold {tab} {_label(dx)} {_label(dxx)} N={n} {mode.value}",
        "thresholds_per_s", run, check,
        lambda res: repr((res.mu_star, res.iterations, res.stable_beyond)),
        lambda res: 1,
    )


def _sweep_task(dx, dxx, tab, poly, control, ns, mode, nu) -> Task:
    fixed_mu_nu = mode is fulldisc.SweepMode.FIXED_MU_NU
    refs = (_ref(dx), _ref(dxx))

    def run(_):
        return fulldisc.instability_curve(dx, dxx, poly, control, ns, mode, nu=nu)

    def check(points):
        bad = _moment_failure(dx, dxx)
        if bad:
            return bad
        if [p.n_cells for p in points] != list(ns):
            return "resolutions differ from the request"
        for p in points:
            want = oracle.rho(*refs, oracle.POLY[tab], p.n_cells, control, nu, fixed_mu_nu)
            if abs(p.rho - want) > 1e-12 * want:
                return f"N={p.n_cells}: rho {p.rho!r} vs reference {want!r}"
            excess = p.rho - 1.0
            if (p.instability_index is None) != (excess <= oracle.TOL_STABLE):
                return f"N={p.n_cells}: instability index disagrees with rho"
            if p.instability_index is not None and p.instability_index != math.log10(excess):
                return f"N={p.n_cells}: instability index is not log10(rho - 1)"
        return None

    return Task(
        f"sweep {tab} {_label(dx)} {_label(dxx)} {mode.value}={control}",
        "sweep_points_per_s", run, check,
        lambda pts: repr([(p.n_cells, p.rho, p.instability_index) for p in pts]),
        lambda pts: len(pts),
    )


def _spectral(seed: int, small: bool) -> list[Task]:
    rng = np.random.default_rng(seed)
    n_slot, n_big = (64, 256) if small else (4096, 65536)
    top = 10 if small else 20
    # Four N = 4096 slots in two complementary pairs: (r+f, r) with
    # (20-r + 3-f, 20-r) keeps each pair's widths summing to 45, so the
    # symbol work is the same for every seed.
    extents = []
    for _ in range(2):
        r = int(rng.integers(0, 21))
        f = int(rng.integers(1, 3))
        extents += [(r + f, r), (20 - r + 3 - f, 20 - r)]
    tabs = [TABLEAUX[i] for i in rng.integers(0, len(TABLEAUX), size=5)]
    polys = {t: timeint.stability_polynomial(timeint.get_tableau(t))
             for t in sorted(set(tabs) | {"rk4", "fe"})}
    mu, mu_nu = fulldisc.SweepMode.FIXED_MU, fulldisc.SweepMode.FIXED_MU_NU
    tasks = [
        _threshold_task(stencil.build_dx(l, r), None, t, polys[t], 0.0, n_slot, mu)
        for (l, r), t in zip(extents, tabs)
    ]
    # The N = 65536 slot is held fixed: its search is most of the pass, and
    # the tableau alone moves its bisection count by up to a fifth.
    tasks.append(_threshold_task(stencil.build_dx(12, 11), None, "rk4", polys["rk4"],
                                 0.0, n_big, mu))
    dxx2 = stencil.build_dxx(2)
    tasks.append(_threshold_task(None, dxx2, tabs[4], polys[tabs[4]], 0.1, n_slot, mu_nu))
    tasks.append(_sweep_task(stencil.build_dx(2, 0), None, "fe", polys["fe"], 0.03,
                             [2**k for k in range(5, top + 1)], mu, 0.0))
    crit8_ns = [32 * 2**k for k in range(4 if small else 8)]
    dx31 = stencil.build_dx(3, 1)
    for control in (0.1, 0.2, 0.5):
        tasks.append(_sweep_task(dx31, dxx2, "fe", polys["fe"], control, crit8_ns, mu_nu, 0.1))
    return tasks


# ---------------------------------------------------------------- timestep


def _smooth_field(rng, n: int) -> np.ndarray:
    """Random sum of the four lowest periodic modes, scaled to max |u| = 1."""
    x = np.arange(n) / n
    u = np.zeros(n)
    for m in range(1, 5):
        u += rng.uniform(0.5, 1.0) / m * np.cos(2 * np.pi * m * x + rng.uniform(0, 2 * np.pi))
    return u / np.max(np.abs(u))


def _one_step_gain_error(cfg, tab) -> float:
    """Max deviation of one simulator step's Fourier gain from p(mu * lambda)."""
    n = cfg.grid.n_cells
    mu = cfg.grid.mu
    th = 2 * np.pi * np.arange(n) / n
    poly = oracle.POLY[tab]
    delta = np.zeros(n)
    delta[0] = 1.0
    if cfg.is_wave:
        w = cfg.operators
        blk = oracle.wave_block(_ref(w.dx_minus), _ref(w.dx_plus), _ref(w.dxx), cfg.grid.r, th)
        want = oracle.matrix_horner(poly, mu * blk)
        err = 0.0
        for col, fields in enumerate(((delta, 0 * delta), (0 * delta, delta))):
            got = molsim.step_wave(molsim.make_state(fields), cfg).fields
            for row in range(2):
                err = max(err, float(np.max(np.abs(np.fft.fft(got[row]) - want[:, row, col]))))
        return err
    dx, dxx = cfg.operators
    lam = oracle.ade_eigs(_ref(dx), _ref(dxx), n, cfg.grid.r, theta=th)
    want = oracle.horner(poly, mu * lam)
    got = molsim.step_ade(molsim.make_state((delta,)), cfg).fields[0]
    return float(np.max(np.abs(np.fft.fft(got) - want)))


def _run_task(label, tab, cfg, init, steps, must_grow) -> Task:
    def run(_):
        return molsim.run_simulation(cfg, init)

    def check(res):
        ops = cfg.operators
        bad = (_moment_failure(ops.dx_minus, ops.dx_plus, ops.dxx) if cfg.is_wave
               else _moment_failure(*ops))
        if bad:
            return bad
        err = _one_step_gain_error(cfg, tab)
        if err > 1e-11:
            return f"one-step Fourier gain off p(mu*lambda) by {err:.2e}"
        if res.blowup:
            return f"blew up at t={res.t_blowup}"
        # advance() may add one sliver step when rounding in state.t
        # outgrows its landing tolerance (the fe run does: 100001 steps)
        landed = abs(res.final_state.t - cfg.t_final) <= 1e-12 * max(1.0, cfg.t_final)
        if not landed or res.final_state.step_count - steps not in (0, 1):
            return (f"ended at t={res.final_state.t!r} after {res.final_state.step_count} "
                    f"steps, expected t={cfg.t_final!r} after {steps}")
        l2 = [math.sqrt(sum(float(f @ f) for f in fs)) for fs in (init, res.final_state.fields)]
        growth_l2 = l2[1] / l2[0]
        if must_grow:
            if not growth_l2 > 1.0:
                return f"weakly unstable run did not grow (L2 ratio {growth_l2!r})"
        else:
            linf0 = max(float(np.max(np.abs(f))) for f in init)
            peak = max(v for _, v in res.linf_history) / linf0
            if not peak < 2.0:
                return f"stable run grew by {peak:.3f}"
        if not cfg.is_wave:
            # circulant, hence normal: the L2 norm grows at most rho per step
            dx, dxx = cfg.operators
            rho = oracle.rho(_ref(dx), _ref(dxx), oracle.POLY[tab], cfg.grid.n_cells,
                             cfg.grid.mu, cfg.grid.nu, False)
            if growth_l2 > rho**steps * (1 + 1e-9):
                return f"L2 growth {growth_l2!r} exceeds rho^steps = {rho**steps!r}"
        return None

    def digest(res):
        h = hashlib.sha256(repr(res.final_state.step_count).encode())
        for f in res.final_state.fields:
            h.update(np.ascontiguousarray(f).tobytes())
        return h.hexdigest()

    return Task(label, "rk_steps_per_s", run, check, digest,
                lambda res: res.final_state.step_count)


def _timestep(seed: int, small: bool) -> list[Task]:
    rng = np.random.default_rng(seed)
    scale = 100 if small else 1
    # Stable configurations only: lsrk3 is criterion 11's run, and rk4's
    # threshold for dx(3,1) is 1.04 > mu.  Both take four stages per step.
    stable_tab = ("lsrk3", "rk4")[int(rng.integers(0, 2))]
    wave_tab = ("rk4", "lsrk3")[int(rng.integers(0, 2))]
    dx31 = stencil.build_dx(3, 1)
    wave = wavesys.WaveDiscretization(dx31, stencil.mirror(dx31), stencil.build_dxx(2))
    runs = (
        # label, tableau, operators, N, nu, mu, steps, fields, must grow
        ("run stable", stable_tab, (dx31, None), 100, 0.0, 0.5, 20000, 1, False),
        ("run fe", "fe", (stencil.build_dx(2, 0), None), 100, 0.0, 0.03, 100000, 1, True),
        ("run wave", wave_tab, wave, 256, 0.001, 0.2, 2560, 2, False),
    )
    tasks = []
    for label, tab, ops, n, nu, mu, steps, n_fields, grow in runs:
        steps //= scale
        dt = mu / n
        cfg = molsim.SimConfig(grid=fulldisc.GridConfig(n, nu, dt),
                               tableau=timeint.get_tableau(tab), operators=ops,
                               t_final=steps * dt)
        init = tuple(_smooth_field(rng, n) for _ in range(n_fields))
        tasks.append(_run_task(f"{label} {tab} N={n} steps={steps}", tab, cfg, init,
                               steps, grow))
    return tasks


# ---------------------------------------------------------------- cli_output


def _files(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def _rows(text: bytes, header: str) -> list[list[str]]:
    lines = text.decode().split("\n")
    if lines[0] != header or lines[-1] != "":
        raise ValueError(f"bad CSV framing, header {lines[0]!r}")
    return [ln.split(",") for ln in lines[1:-1]]


def _floats(text: bytes, header: str) -> np.ndarray:
    return np.array(_rows(text, header), dtype=float)


def _close(got, want, rel=1e-12) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return bool(np.all(np.abs(got - want) <= rel * (1.0 + np.abs(want))))


def _check_coeffs(files, l, r):
    rows = _rows(files["coeffs.csv"], "k,numerator,denominator,float")
    if [int(row[0]) for row in rows] != list(range(-l, r + 1)):
        return "offsets differ from the stencil extent"
    coeffs = [Fraction(int(row[1]), int(row[2])) for row in rows]
    if any(float(row[3]) != float(c) for row, c in zip(rows, coeffs)):
        return "float column is not the rounded fraction"
    if not oracle.moments_ok(coeffs, l, False):
        return "coefficients fail the moment conditions"
    return None


def _check_trajectory(files, dx, dxx, r_list, samples):
    th = oracle.sample_angles(samples)
    for rv in r_list:
        name = f"traj_dx{dx.left}_{dx.right}_dxx{dxx.left}_R{rv!r}.csv"
        if name not in files:
            return f"missing {name}"
        data = _floats(files[name], "theta,re,im")
        want = oracle.dx_symbol(*_ref(dx), th) + rv * oracle.dxx_symbol(_ref(dxx)[0], th)
        want[th == 0.0] = 0.0
        if not _close(data[:, 0], th, 1e-15):
            return f"{name}: angles off the uniform grid"
        scale = 1e-12 * (1.0 + np.abs(want))
        if np.any(np.abs(data[:, 1] - want.real) > scale) or np.any(
                np.abs(data[:, 2] - want.imag) > scale):
            return f"{name}: symbol values differ from the reference"
    return None


def _check_wave_spectrum(files, dxm, dxx, r_value, samples):
    data = _floats(files["wave.csv"], "theta,re1,im1,re2,im2,jordan")
    th = oracle.sample_angles(samples)
    if not _close(data[:, 0], th, 1e-15):
        return "angles off the uniform grid"
    blk = oracle.wave_block(_ref(dxm), _ref(stencil.mirror(dxm)), _ref(dxx), r_value, th)
    want = oracle.wave_pairs(blk)
    got = np.stack([data[:, 1] + 1j * data[:, 2], data[:, 3] + 1j * data[:, 4]], axis=1)
    err = oracle.pair_error(got, want)
    if np.any(err > 1e-9 * (1.0 + np.max(np.abs(want), axis=1))):
        return f"eigenvalue pairs differ from the reference by {float(np.max(err)):.2e}"
    return None


def _check_wave_classify(files, dxm, dxx, nu, n):
    out = json.loads(files["classify.json"])
    blk = oracle.wave_block(_ref(dxm), _ref(stencil.mirror(dxm)), _ref(dxx), nu * n,
                            oracle.grid_angles(n))
    lam = oracle.wave_pairs(blk)
    all_real = bool(np.all(np.abs(lam.imag) <= 1e-10 * (1.0 + np.abs(lam))))
    if out["N"] != n or out["nu"] != nu:
        return "echoed parameters differ"
    if out["class"] != ("AllReal" if all_real else "HasComplex"):
        return f"class {out['class']} disagrees with the reference"
    if abs(out["max_abs_im"] - float(np.max(np.abs(lam.imag)))) > 1e-9:
        return "max_abs_im differs from the reference"
    return None


def _check_sweep(files, dx, tab, mu, ns):
    rows = _rows(files["sweep.csv"], "N,mu_or_mu_nu,rho,instability_index")
    if [int(row[0]) for row in rows] != ns:
        return "resolutions differ from the request"
    for row in rows:
        n, rho = int(row[0]), float(row[2])
        want = oracle.rho(_ref(dx), None, oracle.POLY[tab], n, mu, 0.0, False)
        if float(row[1]) != mu or abs(rho - want) > 1e-12 * want:
            return f"N={n}: rho {rho!r} vs reference {want!r}"
        if (row[3] == "") != (rho - 1.0 <= oracle.TOL_STABLE):
            return f"N={n}: instability index disagrees with rho"
    return None


def _check_threshold(files, dx, tab, n):
    out = json.loads(files["threshold.json"])
    return oracle.threshold_failure(_ref(dx), None, oracle.POLY[tab], n, out["mu_star"],
                                    out["tol"], 0.0, False)


def _check_simulate(files, dx, tab, mu, n, t_final):
    summary = json.loads(files["sim_summary.json"])
    if summary["blowup"]:
        return "reference run blew up"
    dt = mu / n
    x = np.arange(n) / n
    gain = oracle.horner(oracle.POLY[tab],
                         mu * oracle.ade_eigs(_ref(dx), None, n, 0.0,
                                              theta=2 * np.pi * np.arange(n) / n))
    u0_hat = np.fft.fft(oracle.gaussian(n))
    times = summary["snapshot_times"]
    if not _close(times, [t_final * f for f in (0.25, 0.5, 1.0)], 1e-12):
        return f"snapshot times {times}"
    for i, t in enumerate(times):
        data = _floats(files[f"sim_snap_{i:03d}.csv"], "x,w")
        if not np.array_equal(data[:, 0], x):
            return "grid column differs"
        want = np.fft.ifft(gain ** round(t / dt) * u0_hat).real
        if np.max(np.abs(data[:, 1] - want)) > 1e-9:
            return f"snapshot at t={t} differs from the spectral solution"
    return None


def _cli_task(cli, label, argv, check, golden) -> Task:
    def run(workdir: Path):
        d = workdir / label
        d.mkdir()
        rc = cli.main([a.replace("{d}", str(d)) for a in argv])
        return rc, d

    def outputs(out):
        return {k: v for k, v in _files(out[1]).items() if not k.endswith("manifest.json")}

    def full_check(out):
        rc, d = out
        if rc != 0:
            return f"exit code {rc}"
        files = outputs(out)
        if not any(p.name.endswith("manifest.json") for p in d.iterdir()):
            return "no manifest written"
        if golden is not None:
            got = {f"{label}/{k}": _sha(v) for k, v in files.items()}
            want = {k: v for k, v in golden.items() if k.startswith(label + "/")}
            if got != want:
                return "outputs differ from the recorded seed-commit hashes"
        return check(files)

    def digest(out):
        return repr((out[0], sorted((k, _sha(v)) for k, v in outputs(out).items())))

    def units(out):
        return sum(p.stat().st_size for p in out[1].iterdir()) / 1e6

    return Task(f"cli {label}", "output_mb_per_s", run, full_check, digest, units,
                lambda out: len(list(out[1].iterdir())))


def _cli_output(seed: int, small: bool) -> list[Task]:
    from fdmlab import cli  # only this workload pays for importing the CLI

    rng = np.random.default_rng(seed)

    def pick(options):
        return options[int(rng.integers(0, len(options)))]

    samples = 1024 if small else 65536
    sweep_top = 256 if small else 65536
    thr_n = 64 if small else 4096
    sim_n, sim_t, sim_mu = (100, 0.1, 0.5) if small else (1000, 1.0, 0.5)
    # Stencils are drawn among equal widths and tableaux among rk3/rk4, so
    # the work stays the same; the R values change digits, not sizes.
    c_left = int(rng.integers(19, 23))
    c_ext = (c_left, 41 - c_left)
    traj_dx = stencil.build_dx(*pick([(3, 1), (2, 2), (1, 3)]))
    r_list: list[float] = []
    while len(r_list) < 3:
        rv = float(f"{10 ** rng.uniform(-2, 2):.3g}")
        if rv not in r_list:
            r_list.append(rv)
    wave_dxm = stencil.build_dx(3, 1)
    wave_r = float(f"{rng.uniform(0.1, 10):.3g}")
    cls_n = 256
    sweep_tab, sweep_dx = pick(["rk3", "rk4"]), stencil.build_dx(*pick([(3, 1), (2, 2), (1, 3)]))
    sweep_mu = float(f"{rng.uniform(0.1, 1.0):.2f}")
    thr_tab, thr_dx = pick(["rk3", "rk4"]), stencil.build_dx(*pick([(3, 1), (2, 2)]))
    sim_dx = stencil.build_dx(3, 1)
    dxx1, dxx2 = stencil.build_dxx(1), stencil.build_dxx(2)
    cls_dxm = stencil.build_dx(1, 0)

    sweep_ns = []
    v = 32
    while v <= sweep_top:
        sweep_ns.append(v)
        v *= 2
    golden = None
    if seed == GOLDEN_SEED and not small:
        golden = json.loads(GOLDEN.read_text())

    def ext(op):
        return [str(op.left), str(op.right)]

    specs = [
        ("coeffs", ["coeffs", "dx", *map(str, c_ext), "--out", "{d}/coeffs.csv"],
         lambda f: _check_coeffs(f, *c_ext)),
        ("trajectory", ["trajectory", "--dx", *ext(traj_dx), "--dxx", "2",
                        "--r-list", ",".join(map(repr, r_list)), "--samples", str(samples),
                        "--out", "{d}/traj_"],
         lambda f: _check_trajectory(f, traj_dx, dxx2, r_list, samples)),
        ("wave-spectrum", ["wave-spectrum", "--dx-minus", *ext(wave_dxm), "--dxx", "2",
                           "--r-value", repr(wave_r), "--out", "{d}/wave.csv"],
         lambda f: _check_wave_spectrum(f, wave_dxm, dxx2, wave_r, 4096)),
        ("wave-classify", ["wave-classify", "--dx-minus", "1", "0", "--dxx", "1",
                           "--nu", "10", "--n", str(cls_n), "--out", "{d}/classify.json"],
         lambda f: _check_wave_classify(f, cls_dxm, dxx1, 10.0, cls_n)),
        ("index-sweep", ["index-sweep", "--tableau", sweep_tab, "--dx", *ext(sweep_dx),
                         "--mu", repr(sweep_mu), "--n", f"32:{sweep_top}",
                         "--out", "{d}/sweep.csv"],
         lambda f: _check_sweep(f, sweep_dx, sweep_tab, sweep_mu, sweep_ns)),
        ("threshold", ["threshold", "--tableau", thr_tab, "--dx", *ext(thr_dx),
                       "--n", str(thr_n), "--out", "{d}/threshold.json"],
         lambda f: _check_threshold(f, thr_dx, thr_tab, thr_n)),
        ("simulate", ["simulate", "--tableau", "rk4", "--dx", *ext(sim_dx),
                      "--mu", repr(sim_mu), "--n", str(sim_n), "--t-final", repr(sim_t),
                      "--out", "{d}/sim_"],
         lambda f: _check_simulate(f, sim_dx, "rk4", sim_mu, sim_n, sim_t)),
    ]
    return [_cli_task(cli, label, argv, check, golden) for label, argv, check in specs]
