"""Per-stage time of the ops of a seeded benchmark workload's pool.

    PYTHONPATH=src python tools/profile_report.py [--workload W] [--seed 1] [--passes 5]

W is ``point-far`` (the default), ``sweep-near`` or ``oracle``.  Builds the
pool of the benchmark's workload for the seed
(``bench/workloads.py``, read and never changed; species files go to a
temporary directory), runs every op once untimed, then runs the pool
``--passes`` times in this process through ``wgdisp.cli.main`` with stdout
captured.  Each stage below is a set of functions wrapped by a timer that
keeps self time: a stage's time excludes the stages it calls, and a
generator is drained inside its timer.  The report prints each stage's time
per op in the fastest pass, the rest of the op as ``other``, and the mean op
time of that pass.  The wrappers add about a microsecond per call, so
compare runs of this tool, not its total with the benchmark's.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from wgdisp import asymptotics, cli, coupling, energy, fourth_order, oracle_checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Per workload, stage name: (owner, attribute) pairs whose calls make up the
# stage.  "assembly" (energy._assemble) and "free-space" (cli._freespace,
# which takes the near-field contraction once) are one call per sweep or
# report: every separation's level pairs are one batch, and the f_tensor
# calls made inside the batch count under "f_tensor".  "screened listing" is
# the table's one pass over the splits' modes (ModeTable.extend, which lists
# them and builds their rows); "top_modes" ranks per-mode couplings that
# coupling._mode_tensors builds.
STAGES = {
    "sweep-near": {
        "parse": [(argparse.ArgumentParser, "parse_args")],
        "species/config": [(cli, "_species_pair"), (cli, "_pair_configuration")],
        "screened listing": [(energy.ModeTable, "extend")],
        "TM split": [(coupling, "_tm_split"), (coupling, "_tm_split_bound")],
        "TE split": [(coupling, "_te_split")],
        "f_tensor": [(energy, "f_tensor")],
        "assembly": [(energy, "_assemble")],
        "free-space": [(cli, "_freespace")],
        "CSV": [(cli, "_csv")],
    },
    "point-far": {
        "parse": [(argparse.ArgumentParser, "parse_args")],
        "species/config": [(cli, "_pair_configuration")],
        "screened listing": [(energy.ModeTable, "extend")],
        "TM split": [(coupling, "_tm_split"), (coupling, "_tm_split_bound")],
        "TE split": [(coupling, "_te_split")],
        "f_tensor": [(energy, "f_tensor")],
        "assembly": [(energy, "_assemble")],
        "top_modes": [(energy.FTensorResult, "top_modes"), (coupling, "_mode_tensors")],
        "free-space": [(cli, "_freespace")],
        "JSON": [(cli, "_json_dump")],
    },
    "oracle": {
        "case draw": [(oracle_checks, "_draw_cases")],
        "quadrature": [(oracle_checks, "_quadratures"), (fourth_order, "_quadratures")],
        "closed forms": [(oracle_checks, "_closed_forms"), (fourth_order, "_closed_forms")],
        "photon tables": [(fourth_order, "_photon_integrals")],
        "photon tails": [(fourth_order, "_ray_tail")],
        "fourth-order rest": [(oracle_checks, "fourth_order_oracle"),
                              (oracle_checks, "weighted_reference_energy"),
                              (oracle_checks, "closed_form_reference_energy")],
        "free-space recovery": [(oracle_checks, "dispersion_energy"),
                                (oracle_checks, "u_freespace_vdw")],
        "fig4": [(asymptotics, "reduced_zz_sum_direct"), (asymptotics, "reduced_zz_sum_integral")],
    },
}


class StageClock:
    """Self time per stage, with a stack so nested stages are not counted twice."""

    def __init__(self, stages):
        self.stages = stages
        self.totals = dict.fromkeys(stages, 0.0)
        self.stack = []  # [stage, time spent in nested stages]

    def wrap(self, stage, func):
        def timed(*args, **kwargs):
            self.stack.append([stage, 0.0])
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                return list(result) if inspect.isgenerator(result) else result
            finally:
                spent = time.perf_counter() - start
                _, nested = self.stack.pop()
                self.totals[stage] += spent - nested
                if self.stack:
                    self.stack[-1][1] += spent
        return timed

    @contextlib.contextmanager
    def installed(self):
        saved = []
        for stage, targets in self.stages.items():
            for owner, name in targets:
                func = owner.__dict__[name]
                saved.append((owner, name, func))
                setattr(owner, name, self.wrap(stage, func))
        try:
            yield self
        finally:
            for owner, name, func in reversed(saved):
                setattr(owner, name, func)


def run_pool(ops) -> float:
    """Run every op once; return the wall time."""
    sink = io.StringIO()
    start = time.perf_counter()
    for op in ops:
        for argv in op.commands:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if cli.main(argv) != 0:
                    raise SystemExit(f"op failed: {argv}")
            sink.seek(0)
            sink.truncate()
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(STAGES), default="point-far")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as work:
        ops = workload.generate(args.seed, Path(work))
        run_pool(ops)  # warm-up: imports, caches, first allocations
        best = None
        for _ in range(args.passes):
            with StageClock(STAGES[args.workload]).installed() as clock:
                wall = run_pool(ops)
            if best is None or wall < best[0]:
                best = (wall, clock.totals)
    wall, totals = best
    per_op = 1e3 / len(ops)
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops, fastest of "
          f"{args.passes} passes, ms per op")
    for stage, seconds in totals.items():
        print(f"  {stage:<20} {seconds * per_op:7.3f}")
    print(f"  {'other':<20} {(wall - sum(totals.values())) * per_op:7.3f}")
    print(f"  {'total':<20} {wall * per_op:7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
