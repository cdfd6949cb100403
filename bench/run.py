"""fdmlab benchmark: one seeded workload per invocation.

    python3 bench/run.py --workload spectral --seed 1 --seconds 30 --trace 0

Runs from the repository root and imports fdmlab from ``src/``.  With
``--trace 0`` it measures the end-to-end metrics with no instrumentation;
with ``--trace 1`` it alternates plain and traced passes and reports the
per-layer metrics.  The last line of standard output is the JSON result;
the line before it is the run record (machine, settings, sample counts,
failures).  See README.md for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SETUP_PROBES = 9
NPROC = len(os.sched_getaffinity(0))

# Load comes from this one process.  Pin BLAS to one thread so the sweep
# pool's threads are the only parallelism and never exceed nproc.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("FDMLAB_THREADS", str(min(8, NPROC)))


def _import_program():
    """Import fdmlab from this checkout's src/, or explain why not."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fdmlab  # noqa: F401  (ImportError propagates)

    if src not in Path(fdmlab.__file__).resolve().parents:
        raise ImportError(f"fdmlab imported from {fdmlab.__file__}, not from {src}")


def _median(values):
    return statistics.median(values) if values else 0.0


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else None


def machine_record(seed: int) -> dict:
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": NPROC,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "FDMLAB_THREADS": os.environ["FDMLAB_THREADS"],
        "seed": seed,
        "git_commit": _git_commit(),
    }


def setup_probe(workload: str, seed: int) -> float:
    """Seconds for one fresh process to import fdmlab and set the workload up."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    done = subprocess.run([sys.executable, str(probe), workload, str(seed)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.strip().splitlines()[-1])


class Tally:
    """Attempted and failed tasks, with the first failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, task_name: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{task_name}: {reason}")


def run_pass(make_tasks, workdir: Path, tally: Tally, reference: list | None, tracer=None):
    """Set the workload up with ``make_tasks()`` and run every task once.

    Returns the pass's wall seconds (the sum of task times), per-rate
    [units, seconds, files] over the tasks that passed, the output digests
    and each task's seconds.

    The first full pass is checked against the oracle; every later pass
    must reproduce its digests exactly.  The tracer, if any, covers set-up
    and tasks; checks run after it is removed, so they never count as
    program work.
    """
    workdir.mkdir(parents=True)
    results = []
    if tracer is not None:
        tracer.install()
    try:
        for task in make_tasks():
            t0 = perf_counter()
            try:
                out, err = task.run(workdir), None
            except Exception as exc:  # a raising task is a failed task, not a crash
                out, err = None, f"raised {type(exc).__name__}: {exc}"
            results.append((task, out, err, perf_counter() - t0))
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = 0.0
    rates: dict[str, list[float]] = {}
    digests = []
    for i, (task, out, err, secs) in enumerate(results):
        wall += secs
        digest = None
        if err is None:
            try:
                digest = task.digest(out)
                if reference is None:
                    err = task.check(out)
                elif digest != reference[i]:
                    err = "output differs from the first pass"
                if err is None:
                    acc = rates.setdefault(task.rate, [0.0, 0.0, 0])
                    acc[0] += task.units(out)
                    acc[1] += secs
                    acc[2] += task.files(out)
            except Exception as exc:  # a check that cannot read the output fails it
                err = f"check raised {type(exc).__name__}: {exc}"
        tally.add(task.name, err)
        digests.append(digest)
    shutil.rmtree(workdir, ignore_errors=True)
    return wall, rates, digests, {task.name: secs for task, _, _, secs in results}


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False):
    """Measure one workload; return (metrics, record, attempted, failed)."""
    import workloads
    from tracer import Tracer

    # The first probe may compile src/ to bytecode, which a user pays once
    # per install, so it is discarded.  The rest are spread over the run,
    # a few between passes, so set-up sees the same machine as the passes.
    setup_probe(workload, seed)
    setup_times = [setup_probe(workload, seed) for _ in range(3)]
    tally = Tally()
    OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        # warm-up at reduced size: first-call costs stay out of the timings
        run_pass(lambda: workloads.setup(workload, seed, small=True), scratch / "warmup",
                 tally, None)
        plain, traced, ref, task_s = [], [], None, {}
        t_start = perf_counter()
        k = 0
        while True:
            tracer = Tracer() if trace and k % 2 == 1 else None
            wall, rates, digests, secs = run_pass(
                lambda: workloads.setup(workload, seed, small), scratch / f"pass{k}", tally,
                ref, tracer)
            if ref is None:
                ref = digests
            for _ in range(min(2, SETUP_PROBES - len(setup_times))):
                setup_times.append(setup_probe(workload, seed))
            if tracer is None:
                plain.append((wall, rates, tracer))
                for name, t in secs.items():
                    task_s.setdefault(name, []).append(t)
            else:
                traced.append((wall, rates, tracer))
            k += 1
            enough = len(plain) + len(traced) >= 2 and (not trace or len(traced) >= 1)
            if enough and perf_counter() - t_start >= seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    while len(setup_times) < SETUP_PROBES:
        setup_times.append(setup_probe(workload, seed))

    rate_names = ("thresholds_per_s", "sweep_points_per_s", "rk_steps_per_s", "output_mb_per_s")

    def rate(passes, name):
        vals = [r[name][0] / r[name][1] for _, r, _ in passes if name in r and r[name][1] > 0]
        return _median(vals), len(vals)

    samples = {}
    if not trace:
        metrics = {
            "setup_s": (_median(setup_times), "s"),
            "wall_s": (_median([w for w, _, _ in plain]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "pass_ratio": (1.0 - tally.failed / tally.attempted, "ratio"),
        }
        samples = {"setup_s": len(setup_times), "wall_s": len(plain), "peak_rss_mb": 1,
                   "pass_ratio": tally.attempted}
        trace_file = None
    else:
        per_pass = [t.layer_metrics() for _, _, t in traced]
        metrics = {}
        for name, (_, unit) in per_pass[0][0].items():
            metrics[name] = (_median([m[name][0] for m, _ in per_pass]), unit)
            samples[name] = len(per_pass)
        samples["molsim.step_us.p99"] = per_pass[0][1]
        samples["molsim.step_us.p50"] = per_pass[0][1]
        cli = [r.get("output_mb_per_s", [0.0, 0.0, 0]) for _, r, _ in traced]
        metrics["cli.bytes_written"] = (round(_median([c[0] for c in cli]) * 1e6), "bytes")
        metrics["cli.files_written"] = (_median([c[2] for c in cli]), "count")
        samples["cli.bytes_written"] = samples["cli.files_written"] = len(cli)
        for name, unit in zip(rate_names, ("1/s", "1/s", "1/s", "MB/s")):
            value, n = rate(plain, name)
            metrics[name] = (value, unit)
            samples[name] = n
        overhead = _median([w for w, _, _ in traced]) - _median([w for w, _, _ in plain])
        metrics["trace.overhead_s"] = (overhead, "s")
        samples["trace.overhead_s"] = min(len(plain), len(traced))
        trace_file = OUT / f"trace-{workload}-seed{seed}.json"
        trace_file.write_text(json.dumps(
            {"workload": workload, "seed": seed, "passes": [t.dump() for _, _, t in traced]},
            indent=1) + "\n")
    record = {
        "workload": workload,
        "seconds": seconds,
        "trace": int(trace),
        "size": "small" if small else "full",
        "machine": machine_record(seed),
        "passes": {"plain": len(plain), "traced": len(traced)},
        "samples": samples,
        "fail_ratio": tally.failed / tally.attempted,
        "failures": tally.reasons,
        "task_s": {name: _median(ts) for name, ts in task_s.items()},
        "pass_s": {"plain": [w for w, _, _ in plain], "traced": [w for w, _, _ in traced]},
        "setup_probe_s": setup_times,
        "trace_file": str(trace_file.relative_to(ROOT)) if trace_file else None,
    }
    return metrics, record, tally.attempted, tally.failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("spectral", "timestep", "cli_output"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        _import_program()
    except ImportError as exc:
        print(f"bench: cannot import fdmlab from this checkout: {exc}", file=sys.stderr)
        return 2
    metrics, record, attempted, failed = run(args.workload, args.seed, args.seconds,
                                             bool(args.trace))
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
