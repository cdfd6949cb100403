"""Self-test of the benchmark itself, at reduced problem sizes.

    python3 bench/selftest.py

For every workload in BENCHMARK.json, untraced and traced, it checks that
each metric the file names is emitted with its unit and a sample count, and
that no task fails.  It then makes the reference route return a wrong
expected value (the advection symbol off by one part in a million) and
checks that every workload's fail ratio rises above 0, which shows the gate
is live.  Last, it checks that a copy holding only BENCHMARK.json and
bench/ (no program) exits non-zero without printing a result.  Prints one
line per problem and exits 1 if there are any.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def main() -> int:
    run._import_program()
    import oracle

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            metrics, record, attempted, failed = run.run(wl, 1, 0.0, trace, small=True)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: unit for name, (_, unit) in metrics.items()}
            if got != want:
                problems.append(f"{wl} {key}: metrics {sorted(set(got) ^ set(want))} "
                                f"or their units differ from BENCHMARK.json")
            unsampled = sorted(set(want) - set(record["samples"]))
            if unsampled:
                problems.append(f"{wl} {key}: no sample count for {unsampled}")
            if failed or attempted < 1:
                problems.append(f"{wl} {key}: {failed}/{attempted} tasks failed: "
                                f"{record['failures'][:3]}")

        good = oracle.dx_symbol
        oracle.dx_symbol = lambda *args: good(*args) * (1 + 1e-6)
        try:
            _, record, _, _ = run.run(wl, 1, 0.0, False, small=True)
        finally:
            oracle.dx_symbol = good
        if not record["fail_ratio"] > 0:
            problems.append(f"{wl}: a wrong expected value left fail_ratio at 0")

    run.OUT.mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = subprocess.run([sys.executable, "bench/run.py", "--workload", "spectral",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
        if done.returncode == 0 or done.stdout.strip():
            problems.append("a copy without the program did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(p)
    print(f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
