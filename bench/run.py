"""wgdisp benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload sweep-near --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  One process on one thread drives ``wgdisp.cli.main``
in-process in a closed loop (one client; the next op starts when the
previous one returns), over a fixed number of whole passes of the
workload's op pool: enough to fill about ``--seconds`` on the code the
benchmark was defined on.  The count never depends on the speed of the
code under test, so every commit is timed on the same ops and
``op_tail_s`` is the same percentile on every commit.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:
set-up time (median of fresh interpreter launches that import wgdisp.cli
and run the warm-up op), ops per second, median and tail op latency, and
peak RSS.  Times are in seconds at reference speed (see ``Speed``); the
raw wall-clock figures are printed above the result line.  ``--trace 1``
reports the per-layer metrics: the passes for half of ``--seconds``
untraced, as many again with the outside-in tracer installed, plus import
times from ``python -X importtime`` launches.
Either way every op's stdout is hashed and checked afterwards (see
workloads.py); the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans and per-op records go to
.bench_build/records/.
"""

import os

# One thread everywhere: BLAS and OpenMP pools, here and (through the
# inherited environment) in the set-up launches.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
SETUP_LAUNCHES = 5
IMPORTTIME_LAUNCHES = 3
# The tail percentile needs ten samples beyond it and should sit at or
# above the median: at least 22 ops per timed run.
MIN_OPS = 22
CHILD_TIMEOUT_S = 150
MODULES = ("waveguide", "energy", "coupling", "bessel", "fourth_order",
           "asymptotics", "oracle_checks", "species_io", "cli")


class Lib:
    """The wgdisp modules, imported from this checkout's src/."""

    def __init__(self):
        if not (SRC / "wgdisp" / "cli.py").is_file():
            raise SystemExit(f"error: no wgdisp sources under {SRC}; run from "
                             "the root of a wgdisp checkout")
        sys.path.insert(0, str(SRC))
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"wgdisp.{name}"))
        origin = Path(self.cli.__file__).resolve()
        if SRC not in origin.parents:
            raise SystemExit(f"error: wgdisp imported from {origin}, not {SRC}")


# A fixed kernel that does not touch wgdisp: a pure-Python loop and numpy
# passes over a 1 MiB array, like the mix of interpreter and array work in
# the ops.  REF_PROBE_S is its time (faster of two tries) at the median
# speed of the machine the benchmark was defined on.
REF_PROBE_S = 0.0025
PROBE_EVERY_S = 0.05
PROBE_WINDOW = 5
_PROBE_DATA = np.random.default_rng(0).random(1 << 17)


def probe_once():
    start = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i
    for _ in range(4):
        (_PROBE_DATA * _PROBE_DATA + _PROBE_DATA).sum()
    return time.perf_counter() - start


class Speed:
    """Machine speed, from the probe timed between ops.

    CPU speed on a shared machine drifts by 10-30% over seconds, more than
    the changes the benchmark has to see.  ``to_ref(t)`` scales a time
    measured now by REF_PROBE_S over the median of the latest probes: the
    time it would have taken at reference speed.  Probes run at most every
    PROBE_EVERY_S, outside the timed ops.
    """

    def __init__(self):
        self.samples = []
        self.last = -math.inf

    def sample(self):
        self.samples.append(min(probe_once(), probe_once()))
        self.last = time.perf_counter()

    def maybe_sample(self):
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.sample()

    def to_ref(self, seconds, window=PROBE_WINDOW):
        return seconds * REF_PROBE_S / statistics.median(self.samples[-window:])


def run_op(lib, op):
    """Run one op; returns (latency_s, exit codes, stdouts, stderr)."""
    outs, rcs = [], []
    err = io.StringIO()
    start = time.perf_counter()
    for argv in op.commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rcs.append(lib.cli.main(argv))
            except Exception as exc:  # an escaped exception is a failed op
                rcs.append(f"{type(exc).__name__}: {exc}")
        outs.append(out.getvalue())
    return time.perf_counter() - start, rcs, outs, err.getvalue()


def pass_count(workload, seconds, min_ops):
    """Whole passes that fill about `seconds` on the baseline code."""
    return max(math.ceil(seconds / workload.pass_s),
               math.ceil(min_ops / workload.pool))


def timed_loop(lib, ops, passes, speed, tracer=None, between=lambda p: None):
    """Run `passes` whole passes over the pool; returns (runs, wall seconds).

    Each run records its wall-clock latency and, as ``ref_s``, the same
    latency at reference speed.  ``between(p)`` runs untimed before pass p
    and, with p = passes, after the last one.
    """
    runs, seen, wall = [], set(), 0.0
    for p in range(passes):
        between(p)
        start = time.perf_counter()
        for index, op in enumerate(ops):
            speed.maybe_sample()
            if tracer is not None:
                tracer.op = len(runs)
            latency, rcs, outs, err = run_op(lib, op)
            runs.append({"op": index, "latency_s": latency,
                         "ref_s": speed.to_ref(latency), "rcs": rcs,
                         "sha256": hashlib.sha256("\0".join(outs).encode()).hexdigest(),
                         "stdouts": None if index in seen else outs,
                         "stderr": err})
            if all(rc == 0 for rc in rcs):
                seen.add(index)
        wall += time.perf_counter() - start
    between(passes)
    return runs, wall


def launch(op, speed, importtime=False):
    """Fresh interpreter: import wgdisp.cli, run op.

    Returns (seconds, seconds at reference speed, exit codes of the op's
    commands, stderr).  The speed is the median of two probes taken just
    before the launch and two just after.
    """
    speed.sample()
    speed.sample()
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(HERE / "child.py"), str(SRC), json.dumps(op.commands)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up launch failed:\n{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    seconds = report["done"] - start
    speed.sample()
    speed.sample()
    return seconds, speed.to_ref(seconds, window=4), report["rcs"], proc.stderr


def returned(run):
    return all(rc == 0 for rc in run["rcs"])


def latency_stats(runs, key="ref_s"):
    """Median and tail latency over all ops.

    An op that exited with an error counts as infinitely slow; an op that
    returned a result keeps its measured time even if the check rejects
    the result (that shows in ``failed`` and ``correct``).
    """
    lat = sorted(r[key] if returned(r) else math.inf for r in runs)
    n = len(lat)
    k = max(n - 11, 0)  # highest rank with ten samples beyond it
    return statistics.median(lat), lat[k], 100.0 * (k + 1) / n, n - 1 - k


def check_outputs(lib, workload, ops, runs):
    """Verify each distinct op once and every repeat against its first output.

    Returns (indices of failed runs, list of failure records, correct).
    """
    first, verdict = {}, {}
    failed, failures = set(), []
    correct = True
    for i, r in enumerate(runs):
        op = ops[r["op"]]
        reason = None
        if not returned(r):
            reason = f"exit codes {r['rcs']}: {r['stderr'].strip()[-300:]}"
        elif r["op"] not in first:
            first[r["op"]] = r["sha256"]
            verdict[r["op"]] = workload.verify(lib, op, r["stdouts"])
            reason = verdict[r["op"]]
            correct = correct and reason is None
        elif r["sha256"] != first[r["op"]]:
            reason = "stdout differs from the first run of the same op"
            correct = False
        else:
            reason = verdict[r["op"]]
        if reason is not None:
            failed.add(i)
            failures.append({"run": i, "op": r["op"], "commands": op.commands,
                             "inputs": op.inputs, "reason": reason})
    return failed, failures, correct


def output_digest(runs):
    """sha256 over each distinct op's stdout sha, in pool order."""
    shas = {}
    for r in runs:
        shas.setdefault(r["op"], r["sha256"])
    return hashlib.sha256("".join(shas[k] for k in sorted(shas)).encode()).hexdigest()


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lib = Lib()
    workload = WORKLOADS[args.workload]
    declared = declared_metrics(args.trace)
    BUILD.mkdir(exist_ok=True)
    work = BUILD / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        ops = workload.generate(args.seed, work)
        values, info = {}, {}
        speed = Speed()
        if args.trace:
            launches = [launch(ops[0], speed, importtime=True)
                        for _ in range(IMPORTTIME_LAUNCHES)]
            per_module = [tracing.parse_importtime(stderr) for *_, stderr in launches]
            for key in tracing.import_metrics({}):
                values[key] = statistics.median(
                    tracing.import_metrics(m)[key] for m in per_module)

        run_op(lib, ops[0])  # in-process warm-up: lazy imports, first-use caches
        if args.trace:
            passes = pass_count(workload, args.seconds / 2, min_ops=1)
            plain, _ = timed_loop(lib, ops, passes, speed)
            tracer = tracing.Tracer()
            with tracer.installed():
                traced, _ = timed_loop(lib, ops, passes, speed, tracer)
            runs = plain + traced
        else:
            # CPU speed on a shared machine drifts over tens of seconds.
            # Spreading the set-up launches over the pass boundaries, rather
            # than running them back to back, lets both them and the timed
            # passes sample more of that drift, so the medians vary less
            # between runs.
            passes = pass_count(workload, args.seconds, MIN_OPS)
            plan = collections.Counter(round(i * passes / (SETUP_LAUNCHES - 1))
                                       for i in range(SETUP_LAUNCHES))
            launches = []
            runs, wall = timed_loop(lib, ops, passes, speed, between=lambda p: launches.extend(
                launch(ops[0], speed) for _ in range(plan[p])))
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values["setup_s"] = statistics.median(ref for _, ref, _, _ in launches)
            info["setup_launches_s"] = [t for t, _, _, _ in launches]
            info["setup_launches_ref_s"] = [ref for _, ref, _, _ in launches]
        # A warm-up op that fails ends early, so the set-up time it gives
        # is short; it is reported, not hidden.
        info["setup_warmup_rcs"] = sorted({rc for _, _, rcs, _ in launches for rc in rcs})
        info["probe_s"] = {"median": statistics.median(speed.samples),
                           "samples": len(speed.samples), "ref": REF_PROBE_S}

        failed, failures, correct = check_outputs(lib, workload, ops, runs)
        if args.trace:
            p50_plain = latency_stats(plain)[0]
            p50_traced = latency_stats(traced)[0]
            values.update(tracing.layer_metrics(tracer.spans, len(traced)))
            values["trace_overhead_ratio"] = p50_traced / p50_plain
        else:
            p50, tail, pct, beyond = latency_stats(runs)
            ok = sum(map(returned, runs))
            values.update({"ops_per_s": ok / sum(r["ref_s"] for r in runs),
                           "op_p50_s": p50, "op_tail_s": tail,
                           "peak_rss_mb": peak_mb})
            raw_p50, raw_tail, _, _ = latency_stats(runs, key="latency_s")
            info["raw"] = {"setup_s": statistics.median(info["setup_launches_s"]),
                           "ops_per_s": ok / sum(r["latency_s"] for r in runs),
                           "op_p50_s": raw_p50, "op_tail_s": raw_tail}
            info["op_tail"] = {"percentile": pct, "samples_beyond": beyond,
                               "samples": len(runs)}
            info["loop_wall_s"] = wall

        metrics = {}
        for m in declared:
            value = values[m["name"]]
            metrics[m["name"]] = {"value": value if math.isfinite(value) else None,
                                  "unit": m["unit"]}
        attempted = len(runs)
        info.update({"workload": args.workload, "seed": args.seed,
                     "seconds": args.seconds, "trace": args.trace,
                     "pool": len(ops), "passes": passes, "attempted": attempted,
                     "failed": len(failed), "failed_ratio": len(failed) / attempted,
                     "stdout_digest": output_digest(runs),
                     "threads": {**THREAD_ENV, "nproc": os.cpu_count()}})
        record = {"info": info, "metrics": metrics, "failures": failures,
                  "ops": [{"commands": op.commands, "inputs": op.inputs} for op in ops],
                  "runs": [{k: v for k, v in r.items() if k not in ("stdouts", "stderr")}
                           for r in runs]}
        if args.trace:
            record["spans"] = tracer.dump()
        records = BUILD / "records"
        records.mkdir(exist_ok=True)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (records / name).write_text(json.dumps(record, default=float), encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for m in declared:
        print(f"{m['name']:<48} {metrics[m['name']]['value']!r:>24} {m['unit']}")
    if not args.trace:
        print("raw wall clock: " + ", ".join(f"{k} {v!r}" for k, v in info["raw"].items())
              + f"; probe median {info['probe_s']['median']!r} s against "
              f"{REF_PROBE_S!r} s at reference speed")
        tail = info["op_tail"]
        print(f"op_tail_s is p{tail['percentile']:.1f}: {tail['samples_beyond']} of "
              f"{tail['samples']} samples beyond it")
    if any(rc != 0 for rc in info["setup_warmup_rcs"]):
        print(f"FAILED warm-up op in the set-up launches, exit codes "
              f"{info['setup_warmup_rcs']}: setup_s times a shortened op "
              f"(inputs {json.dumps(ops[0].inputs, default=float)})")
    print(f"{'failed_ratio':<48} {info['failed_ratio']!r:>24} ratio "
          f"({len(failed)} of {attempted})")
    for index in sorted({f["op"] for f in failures}):
        mine = [f for f in failures if f["op"] == index]
        runs_of_op = sum(r["op"] == index for r in runs)
        print(f"FAILED op {index} ({len(mine)} of {runs_of_op} runs) "
              f"inputs {json.dumps(mine[0]['inputs'], default=float)}: {mine[0]['reason']}")
    print(f"stdout sha256 digest over the pool: {info['stdout_digest']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
