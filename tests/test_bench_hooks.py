"""The benchmark's tracer and the profile tool patch wgdisp functions by
name, and its output checks hold the CLI to the reference mode sum."""

import contextlib
import hashlib
import importlib
import importlib.util
import io
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
PROFILE = ROOT / "tools" / "profile_report.py"
WORKLOADS = ROOT / "bench" / "workloads.py"


# The tracer's targets that an ``oracle`` op (``oracle-check``, then
# ``reproduce fig4``) must call, so that their spans carry the op's time.
ORACLE_OP_CALLS = ("asymptotics.reduced_zz_sum_direct",
                   "fourth_order.fourth_order_oracle",
                   "fourth_order.weighted_reference_energy",
                   "oracle_checks.run_oracle_checks",
                   "energy.dispersion_energy")
# Targets that no op calls any more: their per-layer metrics read 0, and
# their former time lands in their callers' self time.
KNOWN_UNCALLED = ("coupling.f_quadrature", "coupling.f_tm_closed",
                  "coupling.f_te_closed", "bessel.bessel_k0")


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _load_tracer():
    return _load("wgdisp_bench_tracer", TRACER)


def _import_targets(tracer):
    # The tracer wraps the target functions of the modules already imported,
    # and it finds each target's home in sys.modules; ``import wgdisp.cli``
    # leaves the oracle modules to the commands that use them.
    for module, _, _ in tracer.TARGETS:
        importlib.import_module(f"{tracer.PACKAGE}.{module}")


def test_tracer_targets_resolve():
    tracer = _load_tracer()
    for module, function, _ in tracer.TARGETS:
        home = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        assert callable(getattr(home, function, None)), f"{module}.{function}"


def test_profile_stages_resolve(tmp_path):
    # tools/profile_report.py times a stage by replacing owner.__dict__[name];
    # a renamed target would fail there, or drop out of its stage unnoticed:
    # a stage whose targets an op no longer calls reads 0 (the f_tensor
    # stage did while the ops reached f_tensor through a private twin).
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
    species = tmp_path / "species.txt"
    species.write_text("E=0.06283185307179587 d=(1,1,1)\n")
    ops = {"sweep-near": [["sweep", "--z-min", "0.05", "--z-max", "0.1", "--points", "2",
                           "--tail-tol", "1e-6", "--species1", str(species)]],
           "point-far": [["energy", "--z", "0.5", "--tail-tol", "1e-6",
                          "--species1", str(species)]],
           "oracle": [["oracle-check", "--seed", "1"], ["reproduce", "fig4"]]}
    for workload, commands in ops.items():
        with report.StageClock(report.STAGES[workload]).installed() as clock, \
                contextlib.redirect_stdout(io.StringIO()):
            for argv in commands:
                assert report.cli.main(argv) == 0
        idle = [stage for stage, seconds in clock.totals.items() if not seconds > 0.0]
        assert idle == [], f"{workload}: {idle}"


def test_energy_and_sweep_ops_call_their_traced_layers(tmp_path):
    # A point-far op (an energy report, here of three levels) and a
    # sweep-near op (an 8-point sweep) reach the tracer's f_tensor layer:
    # once per distinct level, and once per separation.
    from wgdisp import cli

    tracer = _load_tracer()
    _import_targets(tracer)
    three = tmp_path / "three.species"
    three.write_text("E=0.06 d=(1,0.5,0.2)\nE=0.09 d=(0.3,1,0.7)\n"
                     "E=0.12 d=(0.4,0.2,1)\n")
    one = tmp_path / "one.species"
    one.write_text("E=0.06283185307179587 d=(0,0,1)\n")
    ops = {"point-far": (["energy", "--b", "0.8", "--x1", "0.3", "--y1", "0.5",
                          "--x2", "0.7", "--y2", "0.2", "--z", "0.5", "--tail-tol", "1e-8",
                          "--orientation", "fixed-vector", "--species1", str(three)],
                         {"energy.dispersion_energy": 1, "energy.f_tensor": 3}),
           "sweep-near": (["sweep", "--b", "0.7", "--x1", "0.4", "--y1", "0.3",
                           "--x2", "0.4", "--y2", "0.3", "--z-min", "0.03",
                           "--z-max", "0.2", "--points", "8", "--tail-tol", "1e-6",
                           "--species1", str(one)],
                          {"energy.f_tensor": 8})}
    for workload, (argv, counts) in ops.items():
        run = tracer.Tracer()
        with run.installed(), contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        called = [span["name"] for span in run.dump()]
        assert "waveguide.mode_arrays" in called, workload
        for name, count in counts.items():
            assert called.count(name) == count, f"{workload}: {name}"


def test_oracle_op_calls_its_traced_layers():
    from wgdisp import cli

    tracer = _load_tracer()
    _import_targets(tracer)
    names = {f"{module}.{function}" for module, function, _ in tracer.TARGETS}
    assert names >= set(ORACLE_OP_CALLS) | set(KNOWN_UNCALLED)
    run = tracer.Tracer()
    with run.installed(), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["oracle-check", "--seed", "1"]) == 0
        assert cli.main(["reproduce", "fig4"]) == 0
    called = {span["name"] for span in run.dump()}
    for name in ORACLE_OP_CALLS:
        assert name in called, f"{name} is traced but an oracle op does not call it"


def test_workload_checks_pass_on_the_first_ops(tmp_path):
    # The benchmark's output check compares each energy with a reference
    # mode sum of both channels at 1.5 times the chosen cutoff, within both
    # tail estimates (bench/workloads.py, _certified).  The first four ops
    # of the seed-1 point-far and sweep-near pools pass it, so a tail that
    # no longer bounds that reference fails here before the benchmark.
    from wgdisp import cli, energy, species_io, waveguide

    workloads = _load("wgdisp_bench_workloads", WORKLOADS)
    lib = types.SimpleNamespace(energy=energy, species_io=species_io, waveguide=waveguide)
    for name in ("point-far", "sweep-near"):
        workload = workloads.WORKLOADS[name]
        for op in workload.generate(1, tmp_path)[:4]:
            stdouts = []
            for argv in op.commands:
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    assert cli.main(argv) == 0
                stdouts.append(out.getvalue())
            assert workload.verify(lib, op, stdouts) is None, (name, op.inputs)


# The stdout digests bench/run.py prints for the seed-1 pools: any change
# to a printed byte of a benchmark op shows here before the benchmark.
# bench/run.py's output digest of each workload's pool, by seed: seed 1 and
# the held-out seed 7001.
POOL_DIGESTS = {
    1: {"sweep-near": "cb7027660adc5bf37a93c51edbd0b9e34d071967f85b7461fa199978049160c6",
        "point-far": "f8251c282ba57453782dc4e0cc978a78f3371c1c943a281e0363282c1d1e0c67",
        "oracle": "d4356d3602ab76fa9594ee7ad90e28c13a72c50d584542d5556fa3351220a553"},
    7001: {"sweep-near": "874d728fd99d631e5a876fa0109c82494dc5f96fdfc8b30424cc494165b2669b",
           "point-far": "e31e37df796414430c1f62049c41644bd9325656fa225acd19a0c3b4fcb212ce",
           "oracle": "38fd32e6a9a3e09cb8c1f5b3847cc93bfd1966d5bc37ba19823463f3719fbb08"},
}


def _check_pool_digests(seed, tmp_path):
    # Each op runs once through cli.main, and its stdouts are hashed as
    # bench/run.py hashes them (timed_loop, output_digest).
    from wgdisp import cli

    workloads = _load("wgdisp_bench_workloads", WORKLOADS)
    for name, digest in POOL_DIGESTS[seed].items():
        shas = []
        for op in workloads.WORKLOADS[name].generate(seed, tmp_path):
            outs = []
            for argv in op.commands:
                with contextlib.redirect_stdout(io.StringIO()) as out, \
                        contextlib.redirect_stderr(io.StringIO()):
                    assert cli.main(argv) == 0, (name, argv)
                outs.append(out.getvalue())
            shas.append(hashlib.sha256("\0".join(outs).encode()).hexdigest())
        assert hashlib.sha256("".join(shas).encode()).hexdigest() == digest, (seed, name)


def test_seed_1_pool_digests(tmp_path):
    _check_pool_digests(1, tmp_path)


def test_seed_7001_pool_digests(tmp_path):
    _check_pool_digests(7001, tmp_path)
