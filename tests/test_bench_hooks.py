"""The benchmark's tracer patches wgdisp functions by module and name."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("wgdisp_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, function, _ in tracer.TARGETS:
        home = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        assert callable(getattr(home, function, None)), f"{module}.{function}"
