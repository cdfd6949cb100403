"""Command-line front end.

Subcommands map onto the library modules: coeffs (stencil), trajectory
(spectrum), tableau check (timeint), index-sweep and threshold (fulldisc),
wave-spectrum and wave-classify (wavesys), simulate and wave-simulate
(molsim).  Output is CSV with a header row, comma separator and LF line
endings, or small JSON objects.  Every CSV goes through one column-wise
writer: each cell is the shortest round-trip repr of its float (or the
digits of its integer), formatted once per column, and a column equal in
bytes to the same column of the command's previous file (trajectory's
theta and im, simulate's x) reuses that file's cells.  The bytes are those
of earlier versions, which formatted row by row.  File-writing runs also
emit a run manifest JSON (command, parameters, version, outputs, duration)
next to the outputs, and all files are written atomically (temp file plus
rename).  Each ``cmd_*`` function yields (path or None, text) pairs;
:func:`_run_command` sends None to stdout, writes every path as it arrives
and then writes the one manifest.

Each flag is declared once, and the parser alone says which flags a
command takes.  Shared flags come from five parent parsers: ``ade``
(--dx, --dxx), ``stepper`` (--tableau, --nu), ``spectral`` (ade, stepper
and --out; index-sweep, threshold), ``sim`` (stepper and the run flags
--mu, --n, --t-final, --snapshot-times, --blowup-limit, --out; simulate,
wave-simulate) and ``wave`` (--dx-minus, --dx-plus, --dxx).

Exit codes: 0 success, 2 usage or validation error, 3 internal error.
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
_PREFIX_COMMANDS = ("trajectory", "simulate", "wave-simulate")


def _fmt(x) -> str:
    return repr(float(x))


def parse_int_list(text: str) -> list[int]:
    """Resolutions: "a:b" (inclusive, powers-of-two steps), "a:b:step",
    a comma list, or a single integer."""
    parts = text.split(":")
    if len(parts) == 1:
        vals = [int(p) for p in text.split(",") if p]
        if not vals:
            raise ValueError("empty list")
        return vals
    if len(parts) > 3:
        raise ValueError(f"bad range {text!r}")
    a, b, *step = map(int, parts)
    if a <= 0 or b < a or (step and step[0] <= 0):
        raise ValueError(f"bad range {text!r}")
    if step:
        return list(range(a, b + 1, step[0]))
    return [a << k for k in range((b // a).bit_length())]


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


class _CsvWriter:
    """CSV text built column by column; one writer serves one command.

    Each column is formatted once: a numeric array as
    ``map(str, column.tolist())``, where str of a Python float is its
    shortest round-trip repr, and a list (exact integers beyond int64, or
    cells already formatted) as ``map(str, column)``.  An array column whose
    dtype and raw bytes equal those of the same column of the previous file
    reuses that file's cells.  The key is the bytes, not ``==``, so 0.0 and
    -0.0 stay distinct.  Only the previous file's cells are kept, so memory
    does not grow with the number of files.
    """

    def __init__(self) -> None:
        self._prev: dict = {}  # column index -> (key, cells) of the previous file

    def text(self, header: str, *columns) -> str:
        prev, self._prev = self._prev, {}
        cells = []
        for i, col in enumerate(columns):
            if not isinstance(col, np.ndarray):
                cells.append(list(map(str, col)))
                continue
            key = (col.dtype.str, col.tobytes())
            old = prev.pop(i, None)
            if old is not None and old[0] == key:
                col_cells = old[1]
            else:
                del old  # free the replaced cells before formatting their successor
                col_cells = list(map(str, col.tolist()))
            self._prev[i] = (key, col_cells)
            cells.append(col_cells)
        return "\n".join([header, *map(",".join, zip(*cells)), ""])


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
        if os.path.exists(spec_str):
            return timeint.tableau_from_json(spec_str)
        raise


def _ade_operators(args) -> tuple[FdOperator | None, FdOperator | None]:
    """(dx, dxx) from --dx and --dxx; None for an operator not given."""
    return (build_dx(*args.dx) if args.dx else None,
            build_dxx(args.dxx) if args.dxx is not None else None)


def cmd_coeffs(args):
    op = (build_dx if args.kind == "dx" else build_dxx)(*args.extent)
    yield args.out, _CsvWriter().text(
        "k,numerator,denominator,float", np.arange(-op.left, op.right + 1),
        [c.numerator for c in op.coeffs], [c.denominator for c in op.coeffs],
        op.coeffs_float)


def cmd_trajectory(args):
    if (args.dx is None) != (args.dxx is None):
        raise ValueError("give both --dx and --dxx or neither")
    configs = [(args.dx, args.dxx)] if args.dx is not None else DEFAULT_TRAJECTORY_CONFIGS
    r_list = parse_float_list(args.r_list)
    if any(r < 0 for r in r_list):
        raise ValueError("R values must be non-negative")
    if len({_fmt(r) for r in r_list}) < len(r_list):  # one file name per R
        raise ValueError("R values must be distinct")
    # theta is the same in every file, and so is im wherever R is finite
    csv = _CsvWriter()
    for (l, r), q in configs:
        dx = build_dx(l, r)
        dxx = build_dxx(q)
        for rv in r_list:
            th, lam = spectrum.sample_trajectory(dx, dxx, rv, args.samples)
            yield (f"{args.out}dx{l}_{r}_dxx{q}_R{_fmt(rv)}.csv",
                   csv.text("theta,re,im", th, lam.real, lam.imag))


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


def _spectral_inputs(args, mode: fulldisc.SweepMode):
    """(dx, dxx, tableau) of index-sweep and threshold.  In fixed-mu mode
    --nu is only a viscosity, which the spectrum would drop unread without
    --dxx; in fixed-mu-nu mode it also sets dt."""
    dx, dxx = _ade_operators(args)
    if mode is fulldisc.SweepMode.FIXED_MU and args.nu > 0 and dxx is None:
        raise ValueError("nonzero viscosity needs a diffusion operator")
    return dx, dxx, _resolve_tableau(args.tableau)


def cmd_index_sweep(args):
    mode, control = ((fulldisc.SweepMode.FIXED_MU, args.mu) if args.mu_nu is None
                     else (fulldisc.SweepMode.FIXED_MU_NU, args.mu_nu))
    dx, dxx, tab = _spectral_inputs(args, mode)
    n_list = parse_int_list(args.n)
    points = fulldisc.instability_curve(dx, dxx, tab, control, n_list, mode, nu=args.nu)
    yield args.out, _CsvWriter().text(
        "N,mu_or_mu_nu,rho,instability_index", [pt.n_cells for pt in points],
        [float(pt.control) for pt in points], [float(pt.rho) for pt in points],
        ["" if pt.instability_index is None else _fmt(pt.instability_index)
         for pt in points])


def cmd_threshold(args):
    mode = fulldisc.SweepMode(args.mode)
    dx, dxx, tab = _spectral_inputs(args, mode)
    res = fulldisc.stable_mu_threshold(dx, dxx, tab, args.nu, args.n, mode)
    yield args.out, json.dumps(
        {"mu_star": res.mu_star, "iterations": res.iterations, "tol": res.tol},
        sort_keys=True,
    ) + "\n"


def _wave_from_args(args) -> wavesys.WaveDiscretization:
    dx_minus = build_dx(*args.dx_minus)
    dx_plus = build_dx(*args.dx_plus) if args.dx_plus else mirror(dx_minus)
    return wavesys.WaveDiscretization(dx_minus, dx_plus, build_dxx(args.dxx))


def cmd_wave_spectrum(args):
    w = _wave_from_args(args)
    th, lam1, lam2, jordan = wavesys.sample_wave_trajectory(w, args.r_value, args.samples)
    yield args.out, _CsvWriter().text(
        "theta,re1,im1,re2,im2,jordan", th, lam1.real, lam1.imag,
        lam2.real, lam2.imag, jordan.astype(int))


def cmd_wave_classify(args):
    w = _wave_from_args(args)
    cls, max_im = wavesys._classify(w, args.nu, args.n)
    yield args.out, json.dumps(
        {"nu": args.nu, "N": args.n, "class": cls.value, "max_abs_im": max_im},
        sort_keys=True,
    ) + "\n"


def _simulate(args, operators, n_fields: int, header: str):
    """The run both simulate commands share: n_fields copies of the Gaussian
    pulse stepped to --t-final, one CSV per snapshot and a summary JSON."""
    tab = _resolve_tableau(args.tableau)
    grid = fulldisc.grid_for(fulldisc.SweepMode.FIXED_MU, args.n, args.mu, args.nu)
    if args.snapshot_times is not None:
        snaps = tuple(parse_float_list(args.snapshot_times))
    else:
        snaps = tuple(args.t_final * f for f in (0.25, 0.5, 1.0))
    initial = (molsim.gaussian_pulse(args.n),) * n_fields  # make_state copies each field
    config = molsim.SimConfig(
        grid=grid, tableau=tab, operators=operators, t_final=args.t_final,
        snapshot_times=snaps, blowup_limit=args.blowup_limit,
    )
    result = molsim.run_simulation(config, initial)
    x = np.arange(args.n) / args.n
    csv = _CsvWriter()  # formats x once for all snapshots
    for i, (t_snap, fields) in enumerate(result.snapshots):
        yield f"{args.out}snap_{i:03d}.csv", csv.text(header, x, *fields)
    summary = {
        "blowup": result.blowup,
        "snapshot_times": [t for t, _ in result.snapshots],
        "linf_series": [[t, v] for t, v in result.linf_history],
    }
    if result.blowup:
        summary["t_blowup"] = result.t_blowup
    yield f"{args.out}summary.json", json.dumps(summary, sort_keys=True) + "\n"


def cmd_simulate(args):
    if not args.dx:  # optional in ade, where trajectory may go without it
        raise ValueError("simulate needs --dx")
    yield from _simulate(args, _ade_operators(args), 1, "x,w")


def cmd_wave_simulate(args):
    yield from _simulate(args, _wave_from_args(args), 2, "x,v,p")


def build_parser() -> argparse.ArgumentParser:
    ade = argparse.ArgumentParser(add_help=False)
    ade.add_argument("--dx", nargs=2, type=int, metavar=("L", "R"))
    ade.add_argument("--dxx", type=int, metavar="Q")
    stepper = argparse.ArgumentParser(add_help=False)
    stepper.add_argument("--tableau", required=True)
    stepper.add_argument("--nu", type=float, default=0.0)
    spectral = argparse.ArgumentParser(add_help=False, parents=[ade, stepper])
    spectral.add_argument("--out")
    sim = argparse.ArgumentParser(add_help=False, parents=[stepper])
    sim.add_argument("--mu", type=float, required=True)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--t-final", type=float, required=True)
    sim.add_argument("--snapshot-times")
    sim.add_argument("--blowup-limit", type=float, default=1e10)
    sim.add_argument("--out", default="sim_")
    wave = argparse.ArgumentParser(add_help=False)
    wave.add_argument("--dx-minus", nargs=2, type=int, metavar=("L", "R"), required=True)
    wave.add_argument("--dx-plus", nargs=2, type=int, metavar=("L", "R"))
    wave.add_argument("--dxx", type=int, metavar="Q", required=True)

    parser = argparse.ArgumentParser(
        prog="fdmlab",
        description="finite-difference stability toolkit for periodic advection-diffusion",
    )
    parser.add_argument("--version", action="version", version=f"fdmlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="stencil coefficients as exact rationals")
    csub = p.add_subparsers(dest="kind", required=True)
    for kind, names in (("dx", ("L", "R")), ("dxx", ("Q",))):
        pc = csub.add_parser(kind, help=f"{kind} stencil of extent {' '.join(names)}")
        for name in names:  # each extent appends to one list, args.extent
            pc.add_argument("extent", metavar=name, type=int, action="append")
        pc.add_argument("--out")
        pc.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("trajectory", parents=[ade], help="symbol curve samples, one CSV per R")
    p.add_argument("--r-list", default=DEFAULT_R_LIST)
    p.add_argument("--samples", type=int, default=spectrum.N_SAMPLES)
    p.add_argument("--out", default="trajectory_")
    p.set_defaults(func=cmd_trajectory)

    p = sub.add_parser("tableau", help="tableau utilities")
    tsub = p.add_subparsers(dest="tableau_cmd", required=True)
    pc = tsub.add_parser("check", help="validate a tableau JSON file")
    pc.add_argument("file")
    pc.set_defaults(func=cmd_tableau_check)

    p = sub.add_parser("index-sweep", parents=[spectral],
                       help="instability index against resolution")
    control = p.add_mutually_exclusive_group(required=True)  # --mu-nu: fixed-mu-nu mode
    control.add_argument("--mu", type=float)
    control.add_argument("--mu-nu", type=float)
    p.add_argument("--n", required=True)
    p.set_defaults(func=cmd_index_sweep)

    p = sub.add_parser("threshold", parents=[spectral], help="first stable-to-unstable crossing")
    p.add_argument("--mode", choices=("fixed-mu", "fixed-mu-nu"), default="fixed-mu")
    p.add_argument("--n", type=int, default=64)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("wave-spectrum", parents=[wave], help="wave eigenvalue pairs over angles")
    p.add_argument("--r-value", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=spectrum.N_SAMPLES)
    p.add_argument("--out")
    p.set_defaults(func=cmd_wave_spectrum)

    p = sub.add_parser("wave-classify", parents=[wave],
                       help="real or complex wave spectrum at (nu, N)")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_wave_classify)

    p = sub.add_parser("simulate", parents=[ade, sim], help="scalar run from a Gaussian pulse")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("wave-simulate", parents=[wave, sim], help="wave run from a Gaussian pulse")
    p.set_defaults(func=cmd_wave_simulate)

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
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
