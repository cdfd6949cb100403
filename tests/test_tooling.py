"""The names other tooling and the README rely on exist on the package."""

import argparse
import ast
import importlib
import importlib.util
import re
import shlex
import sys
from pathlib import Path

import fdmlab
from fdmlab import cli, molsim
from test_cli import BYTE_PINS

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
WORKLOADS = ROOT / "bench" / "workloads.py"
MODULES = ("stencil", "spectrum", "timeint", "fulldisc", "wavesys", "molsim")


def test_traced_functions_resolve():
    # the benchmark's tracer looks each of these up with getattr and
    # replaces it; a renamed or deleted one crashes the traced run
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for mod_name, fn_name in tracer.TARGETS:
        mod = importlib.import_module(f"fdmlab.{mod_name}")
        assert callable(getattr(mod, fn_name, None)), f"fdmlab.{mod_name}.{fn_name}"


def test_every_step_passes_through_the_traced_steppers(monkeypatch):
    # the tracer counts molsim.step_ade and molsim.step_wave calls as the
    # benchmark's step spans; a stepper that bypassed them would read 0
    calls = []
    for name in ("step_ade", "step_wave"):
        def counting(*args, _real=getattr(molsim, name), **kwargs):
            calls.append(1)
            return _real(*args, **kwargs)
        monkeypatch.setattr(molsim, name, counting)
    dx31, u = fdmlab.build_dx(3, 1), molsim.gaussian_pulse(32)
    wave = fdmlab.WaveDiscretization(dx31, fdmlab.mirror(dx31), fdmlab.build_dxx(2))
    for operators, nu, fields in (((dx31, None), 0.0, (u,)), (wave, 0.01, (u, u))):
        config = molsim.SimConfig(fdmlab.GridConfig(32, nu, dt=0.4 / 32),
                                  fdmlab.get_tableau("rk4"), operators, 1.0,
                                  snapshot_times=(0.3, 0.5))
        calls.clear()
        res = molsim.run_simulation(config, fields)
        assert res.final_state.step_count > 0
        assert len(calls) == res.final_state.step_count


def test_workload_names_resolve():
    # the benchmark is frozen: a rename that breaks one of its calls must
    # fail here, not only when the benchmark runs; docstrings are skipped
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "fdmlab"
        for alias in node.names
    }
    assert modules >= {"stencil", "timeint", "fulldisc", "wavesys", "molsim"}
    refs = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert refs
    for mod_name, name in sorted(refs):
        mod = importlib.import_module(f"fdmlab.{mod_name}")
        assert hasattr(mod, name), f"fdmlab.{mod_name}.{name}"


def test_exported_names_resolve():
    for name in fdmlab.__all__:
        assert hasattr(fdmlab, name), name
    for mod_name in MODULES:
        mod = importlib.import_module(f"fdmlab.{mod_name}")
        for name in mod.__all__:
            assert hasattr(mod, name), f"fdmlab.{mod_name}.{name}"


def test_package_names_are_the_modules_names():
    # the package restates no name: its list is the modules' lists in order
    want = ["__version__"]
    for mod_name in MODULES:
        want += importlib.import_module(f"fdmlab.{mod_name}").__all__
    assert fdmlab.__all__ == want
    assert len(set(want)) == len(want)


def test_readme_library_tour_runs():
    # the tour calls the public API with real signatures; running it
    # catches a renamed or dropped parameter that the prose still shows
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_readme_command_examples_parse():
    # a renamed or dropped flag would leave the README's examples stale
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = [line for block in re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
             for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line, comments=True) for line in lines if line.startswith("fdmlab ")]
    assert len(commands) == 11
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])


def _leaf_commands(parser, path=()):
    """(path, parser) of every runnable subcommand, e.g. ("tableau", "check")."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
        return
    for name, sub in subs[0].choices.items():
        yield from _leaf_commands(sub, path + (name,))


def test_every_command_and_output_path_is_byte_pinned():
    # a new subcommand, or a file-writing one pinned only on stdout, could
    # change its bytes unnoticed
    commands = list(_leaf_commands(cli.build_parser()))
    assert ("tableau", "check") in [path for path, _ in commands]
    for path, parser in commands:
        runs = [argv for argv, _, _ in BYTE_PINS if tuple(argv[:len(path)]) == path]
        assert runs, f"no byte pin runs {' '.join(path)}"
        if any("--out" in action.option_strings for action in parser._actions):
            assert any("--out" in argv for argv in runs), f"{' '.join(path)} --out"


def test_cli_output_golden_bytes(tmp_path, monkeypatch):
    # the benchmark's cli_output seed-0 tasks hold each file to the sha256 in
    # bench/golden_seed0.json and to the bench oracles; a change that moves a
    # golden byte fails here, not only when the benchmark runs
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up
    spec.loader.exec_module(workloads)
    tasks = workloads.setup("cli_output", workloads.GOLDEN_SEED)
    assert tasks
    for task in tasks:
        assert task.check(task.run(tmp_path)) is None, task.name
