#!/usr/bin/env python3
"""Benchmark front end: builds the simulator, runs one workload, checks it.

    python3 perfbench/run.py --workload fig7-pagein|storm-300|storm-300-obs
                             --seed N --seconds S --trace 0|1
                             [--spec-seed M] [--record]

Run from the repository root. The first run configures and builds a Release
tree of perfbench/CMakeLists.txt (the src/ libraries plus perfbench_workload)
in $CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
rebuild what changed. A tree of any other build type is refused.

--trace 0 runs repetitions of the workload for S host seconds and reports
the end-to-end metrics of BENCHMARK.json (the first repetition is a warm-up,
checked but left out of the rate); --trace 1 reports its per-layer
metrics from one traced repetition (see perfbench/README.md). Every
repetition's simulated outcome is checked against perfbench/fingerprints.json.
The last stdout line is the JSON result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--seed seeds the traced run's probe sampling; the simulated inputs are fixed
scripts (README.md, "Seeds"). --spec-seed M runs GenerateTenantStorm(M, 300)
for the storm workloads instead of the default spec seed 1. --record writes
the run's outcome into fingerprints.json instead of checking it.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import benchlib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FINGERPRINTS = HERE / "fingerprints.json"
RUN_LIMIT_S = 170  # a run must end within 180 s, builds excluded


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def cache_build_type(tree):
    cache = tree / "CMakeCache.txt"
    if not cache.exists():
        return None
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return ""


def build():
    """Configures (once) and builds the Release runner; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    tree = build_dir()
    if cache_build_type(tree) is None:
        cmd = ["cmake", "-S", str(HERE), "-B", str(tree), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            fail("configure failed:\n" + proc.stdout + proc.stderr)
    build_type = cache_build_type(tree)
    if build_type != "Release":
        fail(f"{tree} is a '{build_type}' tree; timings come from Release builds only")
    jobs = str(min(4, os.cpu_count() or 1))
    proc = subprocess.run(["cmake", "--build", str(tree), "-j", jobs, "--target",
                           "perfbench_workload"], capture_output=True, text=True)
    if proc.returncode != 0:
        fail("build failed:\n" + proc.stdout[-4000:] + proc.stderr[-4000:])
    return tree / "perfbench_workload"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def print_summary(args, doc, passed, failures, values):
    reps = doc["reps"]
    print(f"host: nproc={os.cpu_count()} cpu='{cpu_model()}' compiler='{doc['compiler']}' "
          f"build_type={doc['build_type']}")
    kind = "untraced repetitions and 1 traced one" if args.trace else "timed repetitions"
    print(f"workload {args.workload} (spec seed {doc['spec_seed']}, seed {args.seed}): "
          f"{len(reps)} {kind}, {passed} matched the recorded outcome")
    for line in failures:
        print(f"  FAIL {line}")
    rates = benchlib.timed_rates(doc)
    q1, med, q3 = benchlib.quartiles(rates)
    print(f"  faults per host-second: lower quartile {q1:.6g}, median {med:.6g}, upper quartile "
          f"{q3:.6g}, over {len(rates)} repetitions of {reps[0]['faults']} faults "
          "(the first, a warm-up, left out)")
    if args.workload == "fig7-pagein":
        print(f"  paper ratio error: {benchlib.paper_ratio_err_pct(reps[0]['fingerprint']):.4f} % "
              "(app-20%/app-10% vs 2.0, app-40%/app-10% vs 4.0)")
    for name, value in values.items():
        print(f"  {name} = {value}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=benchlib.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spec-seed", type=int, default=1)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    bench_json = ROOT / "BENCHMARK.json"
    if not bench_json.exists():
        fail(f"{bench_json} not found")
    spec = json.loads(bench_json.read_text())
    if not FINGERPRINTS.exists():
        fail(f"{FINGERPRINTS} not found")
    table = benchlib.load_fingerprints(FINGERPRINTS.read_text())

    runner = build()
    start = time.monotonic()
    cmd = [str(runner), "--workload", args.workload, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--seed", str(args.seed),
           "--spec-seed", str(args.spec_seed)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"runner did not finish within {RUN_LIMIT_S} s")
    if proc.returncode != 0:
        fail(f"runner exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    try:
        doc = benchlib.parse_runner_output(proc.stdout)
    except benchlib.BenchError as e:
        fail(str(e))
    if doc["build_type"] != "Release":
        fail(f"runner was built as '{doc['build_type']}', not Release")

    checked = doc["reps"] + ([doc["traced_rep"]] if args.trace else [])
    if args.record:
        outcomes = {json.dumps(r["fingerprint"], sort_keys=True) for r in checked}
        if len(outcomes) != 1:
            fail(f"repetitions disagree, nothing recorded: {sorted(outcomes)}")
        table.setdefault(args.workload, {})[str(args.spec_seed)] = checked[0]["fingerprint"]
        benchlib.load_fingerprints(json.dumps(table))  # same-outcome pairs must agree
        FINGERPRINTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
        print(f"recorded {args.workload} spec seed {args.spec_seed}: {checked[0]['fingerprint']}")
    expected = benchlib.recorded_fingerprint(table, args.workload, args.spec_seed)
    passed, failures = benchlib.check_fingerprints(checked, expected)
    attempted = len(checked)
    failed = attempted - passed

    if args.trace:
        values = doc["layers"]
        metrics = benchlib.with_units(values, spec["per_layer"])
    else:
        values = benchlib.end_to_end(doc, attempted, failed)
        metrics = benchlib.with_units(values, spec["end_to_end"])
    print_summary(args, doc, passed, failures, values)
    print(f"  runner wall time {time.monotonic() - start:.1f} s")
    print(benchlib.result_line(failed == 0, attempted, failed, metrics))


if __name__ == "__main__":
    main()
