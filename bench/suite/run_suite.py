#!/usr/bin/env python3
"""Runner of the repository benchmark (see README.md in this directory).

Builds bench_suite in Release under .bench_build/ at the repository root,
runs each workload in its own process, prints every metric by name with
its unit, and checks correctness: the program's own invariants on every
seed, and the recorded witnesses (witnesses.json) on seed 42.

One workload (the benchmark contract; the last stdout line is JSON):
  python3 bench/suite/run_suite.py --workload comm --seed 7 --seconds 28 --trace 0

The whole suite (every workload untraced, then one traced run each):
  python3 bench/suite/run_suite.py [--seed 42] [--sets N] [--record]
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
BUILD = ROOT / ".bench_build" / "suite"
BINARY = BUILD / "bench_suite"
WITNESSES = SUITE / "witnesses.json"
BASELINE = SUITE / "baseline.json"
WORKLOADS = ["fwq_boot", "comm", "jobstream", "ckpt_io"]
# The simulated metrics repeat exactly for a given seed.
EXACT = ["sim_cycles", "sim_op_p50_cycles", "sim_op_p99_cycles"]
RUN_TIMEOUT_S = 170


class SuiteError(Exception):
    pass


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure (once) and build bench_suite; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SuiteError(f"simulator sources not found in {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(SUITE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            raise SuiteError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD), "--target", "bench_suite", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise SuiteError("build failed")


def run_workload(workload, seed, seconds, trace):
    """One bench_suite process; returns its result document."""
    out = BUILD / "results" / f"{workload}-seed{seed}{'-trace' if trace else ''}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    if out.exists():
        out.unlink()
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--json", str(out)]
    if trace:
        cmd += ["--trace", "--chrome", str(out.with_suffix(".trace.json"))]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SuiteError(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    if not out.is_file():
        raise SuiteError(f"{workload}: bench_suite exited {proc.returncode} "
                         "without a result")
    with open(out) as f:
        return json.load(f)


def load_witnesses():
    if not WITNESSES.is_file():
        return {}
    with open(WITNESSES) as f:
        return json.load(f)


def witness_of(res):
    w = {"digest": res["digest"], "ops": res["ops"]}
    for name in EXACT:
        w[name] = res["end_to_end"][name]["value"]
    return w


def check_witness(res, witnesses):
    """Seed-42 results must equal the recorded witness exactly."""
    want = witnesses.get("workloads", {}).get(res["workload"])
    if res["seed"] != witnesses.get("seed") or want is None:
        return []
    got = witness_of(res)
    return [f"{res['workload']}: {k} {got[k]} != witness {want[k]}"
            for k in want if got.get(k) != want[k]]


def print_metrics(title, metrics):
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>20.6f} {m['unit']}")


def contract_run(args, spec):
    """One workload, one process: the benchmark contract's interface."""
    build()
    res = run_workload(args.workload, args.seed, args.seconds, args.trace == 1)
    errors = check_witness(res, load_witnesses())
    declared = spec["per_layer"] if args.trace == 1 else spec["end_to_end"]
    source = res.get("per_layer" if args.trace == 1 else "end_to_end", {})
    metrics = {}
    for m in declared:
        if m["name"] not in source:
            raise SuiteError(f"{args.workload}: metric {m['name']} missing")
        metrics[m["name"]] = source[m["name"]]
    print_metrics(f"{args.workload} seed {args.seed} "
                  f"({res['reps']} reps, digest {res['digest']})", metrics)
    for e in errors:
        print("WITNESS MISMATCH:", e)
    correct = bool(res["correct"]) and not errors
    print(json.dumps({"correct": correct, "attempted": res["ops"],
                      "failed": res["ops_failed"], "metrics": metrics}))
    return 0 if correct else 1


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def suite_run(args, spec):
    """Every workload, --sets times untraced, then one traced run each."""
    build()
    witnesses = load_witnesses()
    started = time.monotonic()
    sets = {w: [] for w in WORKLOADS}
    errors = []
    for s in range(args.sets):
        for w in WORKLOADS:
            res = run_workload(w, args.seed, args.seconds, False)
            sets[w].append(res)
            print_metrics(f"set {s + 1}/{args.sets} {w} ({res['reps']} reps, "
                          f"ops {res['ops']}, failed {res['ops_failed']}, "
                          f"digest {res['digest']})", res["end_to_end"])
            if not res["correct"]:
                errors.append(f"{w}: invariant violated (set {s + 1})")
            errors += check_witness(res, witnesses)
            if witness_of(res) != witness_of(sets[w][0]):
                errors.append(f"{w}: set {s + 1} simulated results differ "
                              "from set 1")
    traced = {}
    for w in WORKLOADS:
        res = run_workload(w, args.seed, args.seconds, True)
        traced[w] = res
        print_metrics(f"traced {w}", res["per_layer"])
        if not res["correct"]:
            errors.append(f"{w}: traced run incorrect")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    if args.sets > 1:
        print(f"\nspread over {args.sets} sets (max deviation from the "
              "median, as a share of it, against the bound)")
    for w in WORKLOADS:
        summary[w] = {}
        for name, bound in bounds.items():
            vals = [r["end_to_end"][name]["value"] for r in sets[w]]
            med = statistics.median(vals)
            q1, q3 = quartiles(vals)
            dev = max(abs(v - med) for v in vals) / med if med else 0.0
            summary[w][name] = {"median": med, "q1": q1, "q3": q3,
                                "max_dev": dev, "bound": bound,
                                "unit": sets[w][0]["end_to_end"][name]["unit"]}
            if args.sets > 1:
                flag = "ok" if dev <= bound else "OVER"
                print(f"  {w:<10} {name:<20} median {med:>18.6f}  "
                      f"q1 {q1:>18.6f}  q3 {q3:>18.6f}  "
                      f"max dev {100 * dev:6.2f}% / {100 * bound:5.1f}% {flag}")
    print(f"\nsuite wall time {time.monotonic() - started:.1f} s")
    for e in errors:
        print("ERROR:", e)
    print("witnesses and invariants:", "ok" if not errors else "FAILED")

    if args.record:
        if errors:
            raise SuiteError("not recording a failing run")
        with open(WITNESSES, "w") as f:
            json.dump({"seed": args.seed,
                       "workloads": {w: witness_of(sets[w][0]) for w in WORKLOADS}},
                      f, indent=2)
            f.write("\n")
        with open(BASELINE, "w") as f:
            json.dump({"seed": args.seed, "sets": args.sets,
                       "seconds": args.seconds, "cpus": os.cpu_count(),
                       "end_to_end": summary,
                       "per_layer": {w: traced[w]["per_layer"] for w in WORKLOADS}},
                      f, indent=2)
            f.write("\n")
        print(f"recorded {WITNESSES.name} and {BASELINE.name}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"sets": {w: sets[w] for w in WORKLOADS},
                       "traced": traced, "summary": summary,
                       "errors": errors}, f, indent=2)
    return 0 if not errors else 1


def main():
    parser = argparse.ArgumentParser(
        description="Build and run the repository benchmark.",
        allow_abbrev=False)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (benchmark contract mode)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int,
                        help="measuring time per run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="with --workload: 1 reports the per-layer metrics")
    parser.add_argument("--sets", type=int, default=1,
                        help="suite mode: untraced sets to run")
    parser.add_argument("--record", action="store_true",
                        help="suite mode: write witnesses.json and baseline.json")
    parser.add_argument("--json", help="suite mode: write all results here")
    args = parser.parse_args()
    if args.seed < 0 or args.sets < 1 or (args.seconds is not None and args.seconds < 1):
        parser.error("--seed must be >= 0, --sets and --seconds >= 1")
    if args.workload and (args.sets != 1 or args.record or args.json):
        parser.error("--sets, --record and --json are suite-mode options")
    if not args.workload and args.trace:
        parser.error("--trace needs --workload (the suite always traces)")
    try:
        spec = benchmark_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        return contract_run(args, spec) if args.workload else suite_run(args, spec)
    except (SuiteError, OSError, KeyError, ValueError) as e:
        log(f"run_suite: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
