"""The names other tooling relies on exist on the package."""

import importlib
import importlib.util
from pathlib import Path

import fdmlab

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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


def test_exported_names_resolve():
    for name in fdmlab.__all__:
        assert hasattr(fdmlab, name), name
    for mod_name in ("stencil", "spectrum", "timeint", "fulldisc", "wavesys", "molsim"):
        mod = importlib.import_module(f"fdmlab.{mod_name}")
        for name in mod.__all__:
            assert hasattr(mod, name), f"fdmlab.{mod_name}.{name}"
