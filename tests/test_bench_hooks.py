"""The benchmark's tracer and the profile tool patch wgdisp functions by name."""

import importlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
PROFILE = ROOT / "tools" / "profile_report.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("wgdisp_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, function, _ in tracer.TARGETS:
        home = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        assert callable(getattr(home, function, None)), f"{module}.{function}"


def test_profile_stages_resolve():
    # tools/profile_report.py times a stage by replacing owner.__dict__[name];
    # a renamed target would fail there, or drop out of its stage unnoticed.
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("wgdisp_profile_report", PROFILE)
        report = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(report)
    finally:
        sys.path[:] = saved
    for workload, stages in report.STAGES.items():
        for stage, targets in stages.items():
            for owner, name in targets:
                assert callable(owner.__dict__.get(name)), f"{workload}/{stage}: {name}"
