"""Run the benchmark over several seeds and check that it is steady.

    python3 bench/suite.py                       # every workload, seed 1
    python3 bench/suite.py --runs 10 --sets 2    # steadiness: two sets of ten
    python3 bench/suite.py --runs 10 --held-out  # the held-out seeds

Each run is a separate ``bench/run.py --trace 0`` process, and every
workload in BENCHMARK.json runs.  For every workload and end-to-end metric
the suite prints the median, the quartile spread as a share of the median
(``statistics.quantiles(values, n=4)``) and the metric's bound from
BENCHMARK.json.  A spread is steady below a third of its bound and
acceptable up to the bound; with two sets, the second set's median may not
be worse than the first's by more than the bound.  ``failed_ratio`` (failed
over attempted ops, summed over the runs) is printed with every workload.
Later changes are tuned on seeds from 1 upwards; seeds from HELD_OUT_SEED
upwards are kept for checking a claimed gain on inputs it was not tuned on.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HELD_OUT_SEED = 7001
RUN_TIMEOUT_S = 300


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    """Share by which the second median is worse than the first."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=1, help="seeds per set")
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--held-out", action="store_true",
                        help=f"use seeds from {HELD_OUT_SEED} instead of 1")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    first_seed = HELD_OUT_SEED if args.held_out else 1
    seeds = range(first_seed, first_seed + args.runs)

    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    for s in range(args.sets):
        for w in workloads:
            for seed in seeds:
                start = time.monotonic()
                out = one_run(w, seed, seconds)
                results[w][s].append(out)
                print(f"set {s + 1} {w} seed {seed}: {time.monotonic() - start:.1f} s, "
                      f"correct={out['correct']} failed={out['failed']}/{out['attempted']}",
                      file=sys.stderr, flush=True)

    all_ok = True
    for w in workloads:
        runs = [r for one_set in results[w] for r in one_set]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"\n{w}: seeds {seeds.start}-{seeds.stop - 1}, {args.sets} set(s); "
              f"failed_ratio {failed / attempted:.4f} ratio ({failed} of {attempted} ops); "
              f"runs with correct=false: {sum(not r['correct'] for r in runs)}")
        for m in metrics:
            name, unit = m["name"], m["unit"]
            sets = [[r["metrics"][name]["value"] for r in one_set]
                    for one_set in results[w]]
            if any(v is None for one_set in sets for v in one_set):
                print(f"  {name:<40} missing values")
                all_ok = False
                continue
            medians = [statistics.median(v) for v in sets]
            line = f"  {name:<40} median {medians[0]:<12.6g} {unit:<9}"
            if len(sets[0]) < 2:
                print(line)
                continue
            bound = m["bound"]
            spreads = [spread(v) for v in sets]
            widest = max(spreads)
            verdict = ("steady" if widest < bound / 3 else
                       "within bound" if widest <= bound else "TOO WIDE")
            all_ok = all_ok and verdict != "TOO WIDE"
            line += f" spread {spreads[0]:.4f} (bound {bound}) {verdict}"
            if len(sets) == 2:
                worse = worse_by(medians[0], medians[1], m["better"])
                ok = worse <= bound
                all_ok = all_ok and ok
                line += (f"; set 2 median {medians[1]:.6g} spread {spreads[1]:.4f},"
                         f" worse by {worse:+.4f} {'ok' if ok else 'DRIFT'}")
            print(line)

    out_dir = ROOT / ".bench_build"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"suite-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.write_text(json.dumps({"seeds": list(seeds), "seconds": seconds,
                               "results": results}, indent=1),
                   encoding="utf-8")
    print(f"\nresults: {out}\n{'all metrics agree within their bounds' if all_ok else 'NOT STEADY'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
