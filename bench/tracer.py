"""In-memory span recorder wrapped around fdmlab's public functions.

The program is not modified.  ``Tracer.install`` replaces each traced
function in every ``fdmlab`` module namespace that binds it (``eval_p`` is
bound in ``timeint``, ``fulldisc`` and the package root, for instance), and
``Tracer.uninstall`` puts the originals back.  Each call records one span:
its duration, the part of it covered by traced child spans, and an optional
work count.  Spans are aggregated per name and per (parent, child) edge as
they close, so memory stays bounded however many steps a run takes; only
the per-step durations are kept whole, for percentiles.
"""

from __future__ import annotations

import functools
import sys
import threading
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

THRESHOLD = "fulldisc.stable_mu_threshold"
EIGS = "fulldisc.semidiscrete_eigs"
FULL = "fulldisc.full_spectrum"
ADV = "spectrum.advection_symbol"
DIF = "spectrum.diffusion_symbol"
TRAJ = "spectrum.sample_trajectory"
EVAL_P = "timeint.eval_p"
WAVE_TRAJ = "wavesys.sample_wave_trajectory"
STEP = "molsim.step"
APPLY = "molsim.apply_operator"
CLI = "cli.main"


def _points(args):
    return np.size(args[1]), 0


def _angles_terms(args):
    angles = np.size(args[1])
    return angles, angles * args[0].spec.width


def _modes(args):
    return args[2].n_cells, 0


# (module, function) -> (span name, work counter over the positional args)
TARGETS = {
    ("stencil", "build_dx"): ("stencil.build", None),
    ("stencil", "build_dxx"): ("stencil.build", None),
    ("stencil", "mirror"): ("stencil.build", None),
    ("timeint", "stability_polynomial"): ("timeint.stability_polynomial", None),
    ("timeint", "eval_p"): (EVAL_P, _points),
    ("spectrum", "advection_symbol"): (ADV, _angles_terms),
    ("spectrum", "diffusion_symbol"): (DIF, _points),
    ("spectrum", "sample_trajectory"): (TRAJ, None),
    ("fulldisc", "semidiscrete_eigs"): (EIGS, _modes),
    ("fulldisc", "full_spectrum"): (FULL, None),
    ("fulldisc", "stable_mu_threshold"): (THRESHOLD, None),
    ("fulldisc", "instability_curve"): ("fulldisc.instability_curve", None),
    ("wavesys", "sample_wave_trajectory"): (WAVE_TRAJ, None),
    ("wavesys", "grid_eigenpairs"): ("wavesys.grid_eigenpairs", None),
    ("molsim", "step_ade"): (STEP, None),
    ("molsim", "step_wave"): (STEP, None),
    ("molsim", "apply_operator"): (APPLY, None),
    ("molsim", "advance"): ("molsim.advance", None),
    ("cli", "main"): (CLI, None),
}

FIELDS = ("calls", "busy_ns", "self_ns", "raised", "units", "units2")


class _ThreadState:
    def __init__(self):
        self.stack = []  # open spans as [name, child_ns]
        # name -> totals in FIELDS order
        self.stats = {}
        self.edges = Counter()
        self.step_ns = array("q")
        self.eigs_in_threshold = 0


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._patched = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _wrap(self, name, fn, count):
        state = self._state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = state()
            frame = [name, 0]
            parent = st.stack[-1] if st.stack else None
            st.stack.append(frame)
            raised = 1
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                raised = 0
                return out
            finally:
                dur = perf_counter_ns() - t0
                st.stack.pop()
                if parent is not None:
                    parent[1] += dur
                rec = st.stats.get(name)
                if rec is None:
                    rec = st.stats[name] = [0, 0, 0, 0, 0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                rec[3] += raised
                if count is not None:
                    u1, u2 = count(args)
                    rec[4] += u1
                    rec[5] += u2
                st.edges[(parent[0] if parent else None, name)] += 1
                if name == STEP:
                    st.step_ns.append(dur)
                elif name == EIGS and any(f[0] == THRESHOLD for f in st.stack):
                    st.eigs_in_threshold += 1

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        mods = [m for n, m in sys.modules.items()
                if m is not None and (n == "fdmlab" or n.startswith("fdmlab."))]
        for (mod_name, fn_name), (span, count) in TARGETS.items():
            home = sys.modules.get(f"fdmlab.{mod_name}")
            if home is None:  # never imported, so never called
                continue
            orig = getattr(home, fn_name)
            wrapper = self._wrap(span, orig, count)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def merged(self):
        """Per-name stats, edges, step durations and the threshold eig count,
        summed over every thread that recorded spans."""
        stats, edges, steps, eigs_thr = {}, Counter(), array("q"), 0
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, rec in st.stats.items():
                acc = stats.setdefault(name, [0] * len(rec))
                for i, v in enumerate(rec):
                    acc[i] += v
            edges.update(st.edges)
            steps.extend(st.step_ns)
            eigs_thr += st.eigs_in_threshold
        return stats, edges, steps, eigs_thr

    def dump(self) -> dict:
        """JSON-ready record of the aggregated spans."""
        stats, edges, steps, eigs_thr = self.merged()
        return {
            "spans": {name: dict(zip(FIELDS, rec)) for name, rec in sorted(stats.items())},
            "edges": [{"parent": p, "child": c, "calls": n}
                      for (p, c), n in sorted(edges.items(), key=lambda e: str(e[0]))],
            "step_samples": len(steps),
            "eigs_in_threshold": eigs_thr,
        }

    def layer_metrics(self):
        """({metric: (value, unit)}, number of step spans behind the percentiles)."""
        stats, _, steps, eigs_thr = self.merged()

        def stat(name, i):
            rec = stats.get(name)
            return rec[i] if rec else 0

        m = {}
        for name in ("stencil.build", EIGS, ADV, EVAL_P, FULL, APPLY, CLI):
            m[f"{name}.calls"] = (stat(name, 0), "count")
        for name in ("stencil.build", "timeint.stability_polynomial", EIGS, ADV, DIF, EVAL_P,
                     FULL, THRESHOLD, "fulldisc.instability_curve", STEP, APPLY, TRAJ,
                     WAVE_TRAJ, "wavesys.grid_eigenpairs", CLI):
            m[f"{name}.busy_s"] = (stat(name, 1) / 1e9, "s")
        for name in (EIGS, "molsim.advance", TRAJ, WAVE_TRAJ):
            m[f"{name}.self_s"] = (stat(name, 2) / 1e9, "s")
        m[f"{EIGS}.modes"] = (stat(EIGS, 4), "count")
        m[f"{ADV}.angles"] = (stat(ADV, 4), "count")
        m[f"{ADV}.terms"] = (stat(ADV, 5), "computed_ops")
        m[f"{DIF}.angles"] = (stat(DIF, 4), "count")
        m[f"{EVAL_P}.points"] = (stat(EVAL_P, 4), "count")
        m["molsim.steps"] = (stat(STEP, 0), "count")
        thr_done = stat(THRESHOLD, 0) - stat(THRESHOLD, 3)
        m["fulldisc.eigs_per_threshold"] = (eigs_thr / thr_done if thr_done else 0.0, "ratio")
        step_busy = m[f"{STEP}.busy_s"][0]
        m[f"{APPLY}.share"] = (m[f"{APPLY}.busy_s"][0] / step_busy if step_busy else 0.0,
                               "ratio")
        step_us = np.asarray(steps, dtype=float) / 1e3
        for q in (50, 99):
            m[f"molsim.step_us.p{q}"] = (
                float(np.percentile(step_us, q)) if len(step_us) else 0.0, "us")
        m["cli.self_s"] = (stat(CLI, 2) / 1e9, "s")  # main minus its library calls
        return m, len(step_us)
