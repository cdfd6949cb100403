"""Command-line front end.

Subcommands map onto the library modules: coeffs (stencil), trajectory
(spectrum), tableau check (timeint), index-sweep and threshold (fulldisc),
wave-spectrum and wave-classify (wavesys), simulate (molsim).  Output is
CSV with a header row, comma separator, LF line endings and shortest
round-trip floats, or small JSON objects.  File-writing runs also emit a
run manifest JSON (command, parameters, version, outputs, duration) next
to the outputs, and all files are written atomically (temp file plus
rename).  Each ``cmd_*`` function yields (path or None, text) pairs;
:func:`_run_command` sends None to stdout, writes every path as it
arrives and then writes the one manifest.

Exit codes: 0 success, 2 usage or validation error, 3 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import __version__, fulldisc, molsim, spectrum, timeint, wavesys
from .stencil import FdOperator, build_dx, build_dxx, mirror

DEFAULT_TRAJECTORY_CONFIGS = (((3, 1), 2), ((21, 20), 20), ((3, 1), 20), ((21, 20), 2))
DEFAULT_R_LIST = "0.1,1,10"
# Commands whose --out is a file-name prefix; for the others it names the
# one output file.  The manifest goes to out + "manifest.json" for the
# former and out + ".manifest.json" for the latter.
_PREFIX_COMMANDS = ("trajectory", "simulate")


def _fmt(x) -> str:
    return repr(float(x))


def parse_int_list(text: str) -> list[int]:
    """Resolutions: "a:b" (inclusive, powers-of-two steps), "a:b:step",
    a comma list, or a single integer."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) == 2:
            a, b = int(parts[0]), int(parts[1])
            if a <= 0 or b < a:
                raise ValueError(f"bad range {text!r}")
            vals = []
            v = a
            while v <= b:
                vals.append(v)
                v *= 2
            return vals
        if len(parts) == 3:
            a, b, s = (int(p) for p in parts)
            if a <= 0 or b < a or s <= 0:
                raise ValueError(f"bad range {text!r}")
            return list(range(a, b + 1, s))
        raise ValueError(f"bad range {text!r}")
    if "," in text:
        return [int(p) for p in text.split(",") if p]
    return [int(text)]


def parse_float_list(text: str) -> list[float]:
    vals = [float(p) for p in text.split(",") if p]
    if not vals:
        raise ValueError("empty list")
    return vals


def _write_text_atomic(path: Path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent) or ".", prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
            # mkstemp creates 0600 whatever the umask; give the mode open() would.
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _csv_text(header: str, rows) -> str:
    """CSV with one line per row.  str() of a Python float is its shortest
    round-trip repr, so float columns are passed as ``array.tolist()``."""
    lines = [header]
    lines.extend(",".join(str(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


def _manifest_params(args) -> dict:
    skip = {"func", "command", "tableau_cmd"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _write_manifest(args, outputs: list, t0: float, manifest_path: Path) -> None:
    manifest = {
        "command": args.command,
        "params": _manifest_params(args),
        "version": __version__,
        "outputs": [str(p) for p in outputs],
        "duration_s": time.perf_counter() - t0,
    }
    _write_text_atomic(manifest_path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _run_command(args) -> int:
    """Run one subcommand, writing each (path or None, text) pair it yields
    as it comes, then the manifest if any file was written."""
    t0 = time.perf_counter()
    outputs: list = []
    for path, text in args.func(args):
        if path is None:
            sys.stdout.write(text)
        else:
            _write_text_atomic(Path(path), text)
            outputs.append(str(path))
    if outputs:
        suffix = "manifest.json" if args.command in _PREFIX_COMMANDS else ".manifest.json"
        _write_manifest(args, outputs, t0, Path(args.out + suffix))
    return 0


def _resolve_tableau(spec_str: str) -> timeint.ButcherTableau:
    try:
        return timeint.get_tableau(spec_str)
    except KeyError:
        try:
            if Path(spec_str).exists():
                return timeint.tableau_from_json(spec_str)
        except OSError:
            pass
        raise


def _dx_arg(pair) -> FdOperator:
    return build_dx(int(pair[0]), int(pair[1]))


def cmd_coeffs(args):
    if args.kind == "dx":
        if len(args.extent) != 2:
            raise ValueError("coeffs dx takes two extents: L R")
        op = _dx_arg(args.extent)
    else:
        if len(args.extent) != 1:
            raise ValueError("coeffs dxx takes one half-width: Q")
        op = build_dxx(int(args.extent[0]))
    rows = [
        (k, c.numerator, c.denominator, _fmt(c))
        for k, c in zip(range(-op.left, op.right + 1), op.coeffs)
    ]
    yield args.out, _csv_text("k,numerator,denominator,float", rows)


def cmd_trajectory(args):
    if (args.dx is None) != (args.dxx is None):
        raise ValueError("give both --dx and --dxx or neither")
    if args.dx is not None:
        configs = [((int(args.dx[0]), int(args.dx[1])), int(args.dxx))]
    else:
        configs = list(DEFAULT_TRAJECTORY_CONFIGS)
    r_list = parse_float_list(args.r_list)
    if any(r < 0 for r in r_list):
        raise ValueError("R values must be non-negative")
    for (l, r), q in configs:
        dx = build_dx(l, r)
        dxx = build_dxx(q)
        for rv in r_list:
            sym = spectrum.AdeSymbol(dx, dxx, rv)
            th, lam = spectrum.sample_trajectory(sym, args.samples)
            rows = zip(th.tolist(), lam.real.tolist(), lam.imag.tolist())
            yield (f"{args.out}dx{l}_{r}_dxx{q}_R{_fmt(rv)}.csv",
                   _csv_text("theta,re,im", rows))


def cmd_tableau_check(args):
    tab = timeint.tableau_from_json(args.file)
    p = timeint.stability_polynomial(tab)
    info = {
        "name": tab.name,
        "stages": tab.stages,
        "order": tab.order,
        "p_coeffs": [float(c) for c in p.coeffs],
    }
    yield None, json.dumps(info, sort_keys=True) + "\n"


def cmd_index_sweep(args):
    mode = fulldisc.SweepMode(args.mode)
    if mode is fulldisc.SweepMode.FIXED_MU:
        if args.mu is None:
            raise ValueError("fixed-mu sweep needs --mu")
        control = args.mu
    else:
        if args.mu_nu is None:
            raise ValueError("fixed-mu-nu sweep needs --mu-nu")
        control = args.mu_nu
    dx = _dx_arg(args.dx) if args.dx else None
    dxx = build_dxx(args.dxx) if args.dxx is not None else None
    tab = _resolve_tableau(args.tableau)
    n_list = parse_int_list(args.n)
    points = fulldisc.instability_curve(dx, dxx, tab, control, n_list, mode, nu=args.nu)
    rows = [
        (pt.n_cells, _fmt(pt.control), _fmt(pt.rho),
         "" if pt.instability_index is None else _fmt(pt.instability_index))
        for pt in points
    ]
    yield args.out, _csv_text("N,mu_or_mu_nu,rho,instability_index", rows)


def cmd_threshold(args):
    mode = fulldisc.SweepMode(args.mode)
    dx = _dx_arg(args.dx) if args.dx else None
    dxx = build_dxx(args.dxx) if args.dxx is not None else None
    tab = _resolve_tableau(args.tableau)
    res = fulldisc.stable_mu_threshold(dx, dxx, tab, args.nu, args.n, mode)
    yield args.out, json.dumps(
        {"mu_star": res.mu_star, "iterations": res.iterations, "tol": res.tol},
        sort_keys=True,
    ) + "\n"


def _wave_from_args(args) -> wavesys.WaveDiscretization:
    dx_minus = _dx_arg(args.dx_minus)
    dx_plus = _dx_arg(args.dx_plus) if args.dx_plus else mirror(dx_minus)
    return wavesys.WaveDiscretization(dx_minus, dx_plus, build_dxx(args.dxx))


def cmd_wave_spectrum(args):
    w = _wave_from_args(args)
    th, lam1, lam2, jordan = wavesys.sample_wave_trajectory(w, args.r_value, args.samples)
    rows = zip(th.tolist(), lam1.real.tolist(), lam1.imag.tolist(),
               lam2.real.tolist(), lam2.imag.tolist(), jordan.astype(int).tolist())
    yield args.out, _csv_text("theta,re1,im1,re2,im2,jordan", rows)


def cmd_wave_classify(args):
    w = _wave_from_args(args)
    cls = wavesys.classify_spectrum(w, args.nu, args.n)
    _, lam1, lam2, _ = wavesys.grid_eigenpairs(w, args.nu * args.n, args.n)
    max_im = float(np.maximum(np.abs(lam1.imag), np.abs(lam2.imag)).max())
    yield args.out, json.dumps(
        {"nu": args.nu, "N": args.n, "class": cls.value, "max_abs_im": max_im},
        sort_keys=True,
    ) + "\n"


def cmd_simulate(args):
    tab = _resolve_tableau(args.tableau)
    if args.mu <= 0:
        raise ValueError("--mu must be positive")
    grid = fulldisc.GridConfig(args.n, args.nu, dt=args.mu / args.n)
    if args.snapshot_times:
        snaps = tuple(parse_float_list(args.snapshot_times))
    else:
        snaps = tuple(args.t_final * f for f in (0.25, 0.5, 1.0))
    if args.system == "wave":
        if not args.dx_minus or args.dxx is None:
            raise ValueError("wave simulate needs --dx-minus and --dxx")
        operators = _wave_from_args(args)
        pulse = molsim.gaussian_pulse(args.n)
        initial = (pulse, pulse.copy())
        header = "x,v,p"
    else:
        if not args.dx:
            raise ValueError("scalar simulate needs --dx")
        dxx = build_dxx(args.dxx) if args.dxx is not None else None
        operators = (_dx_arg(args.dx), dxx)
        initial = (molsim.gaussian_pulse(args.n),)
        header = "x,w"
    config = molsim.SimConfig(
        grid=grid, tableau=tab, operators=operators, t_final=args.t_final,
        snapshot_times=snaps, blowup_limit=args.blowup_limit,
    )
    result = molsim.run_simulation(config, initial)
    x = (np.arange(args.n) / args.n).tolist()
    for i, (t_snap, fields) in enumerate(result.snapshots):
        rows = zip(x, *(f.tolist() for f in fields))
        yield f"{args.out}snap_{i:03d}.csv", _csv_text(header, rows)
    summary = {
        "blowup": result.blowup,
        "snapshot_times": [t for t, _ in result.snapshots],
        "linf_series": [[t, v] for t, v in result.linf_history],
    }
    if result.blowup:
        summary["t_blowup"] = result.t_blowup
    yield f"{args.out}summary.json", json.dumps(summary, sort_keys=True) + "\n"


def _add_dx_flags(p, minus_plus: bool = False) -> None:
    if minus_plus:
        p.add_argument("--dx-minus", nargs=2, type=int, metavar=("L", "R"), required=True)
        p.add_argument("--dx-plus", nargs=2, type=int, metavar=("L", "R"))
        p.add_argument("--dxx", type=int, metavar="Q", required=True)
    else:
        p.add_argument("--dx", nargs=2, type=int, metavar=("L", "R"))
        p.add_argument("--dxx", type=int, metavar="Q")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdmlab",
        description="finite-difference stability toolkit for periodic advection-diffusion",
    )
    parser.add_argument("--version", action="version", version=f"fdmlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="stencil coefficients as exact rationals")
    p.add_argument("kind", choices=("dx", "dxx"))
    p.add_argument("extent", nargs="+", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("trajectory", help="symbol curve samples, one CSV per R")
    _add_dx_flags(p)
    p.add_argument("--r-list", default=DEFAULT_R_LIST)
    p.add_argument("--samples", type=int, default=4096)
    p.add_argument("--out", default="trajectory_")
    p.set_defaults(func=cmd_trajectory)

    p = sub.add_parser("tableau", help="tableau utilities")
    tsub = p.add_subparsers(dest="tableau_cmd", required=True)
    pc = tsub.add_parser("check", help="validate a tableau JSON file")
    pc.add_argument("file")
    pc.set_defaults(func=cmd_tableau_check)

    p = sub.add_parser("index-sweep", help="instability index against resolution")
    p.add_argument("--tableau", required=True)
    _add_dx_flags(p)
    p.add_argument("--nu", type=float, default=0.0)
    p.add_argument("--mode", choices=("fixed-mu", "fixed-mu-nu"), default="fixed-mu")
    p.add_argument("--mu", type=float)
    p.add_argument("--mu-nu", dest="mu_nu", type=float)
    p.add_argument("--n", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_index_sweep)

    p = sub.add_parser("threshold", help="first stable-to-unstable crossing")
    p.add_argument("--tableau", required=True)
    _add_dx_flags(p)
    p.add_argument("--nu", type=float, default=0.0)
    p.add_argument("--mode", choices=("fixed-mu", "fixed-mu-nu"), default="fixed-mu")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--out")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("wave-spectrum", help="wave eigenvalue pairs over angles")
    _add_dx_flags(p, minus_plus=True)
    p.add_argument("--r-value", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=4096)
    p.add_argument("--out")
    p.set_defaults(func=cmd_wave_spectrum)

    p = sub.add_parser("wave-classify", help="real or complex wave spectrum at (nu, N)")
    _add_dx_flags(p, minus_plus=True)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_wave_classify)

    p = sub.add_parser("simulate", help="method-of-lines run from a Gaussian pulse")
    p.add_argument("--system", choices=("ade", "wave"), default="ade")
    p.add_argument("--tableau", required=True)
    p.add_argument("--dx", nargs=2, type=int, metavar=("L", "R"))
    p.add_argument("--dxx", type=int, metavar="Q")
    p.add_argument("--dx-minus", nargs=2, type=int, metavar=("L", "R"))
    p.add_argument("--dx-plus", nargs=2, type=int, metavar=("L", "R"))
    p.add_argument("--nu", type=float, default=0.0)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t-final", dest="t_final", type=float, required=True)
    p.add_argument("--snapshot-times", dest="snapshot_times")
    p.add_argument("--blowup-limit", dest="blowup_limit", type=float, default=1e10)
    p.add_argument("--out", default="sim_")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run_command(args)
    except fulldisc.ThresholdNotFoundError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
