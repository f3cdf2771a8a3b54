#!/usr/bin/env python3
"""Golden digests of the simulator's deterministic output.

Usage:
    tools/golden.py --build build            # check against the digest file
    tools/golden.py --build build --update   # rewrite the digest file

Runs the Figure 7/8/9 benches and tests/golden_scenarios in a fresh
temporary directory, hashes each output with SHA-256 and compares the
digests against tests/golden/golden.sha256 (sha256sum format). The outputs
are:

  * fig7/fig8/fig9 stdout;
  * fig7_usd_trace.csv and fig8_usd_trace.csv, which fig7 and fig8 always
    write;
  * fig9_trace.csv, which fig9 writes only under NEMESIS_OBS=1, so fig9 runs
    a second time with the variable set just to produce it (its stdout is
    taken from the plain run, because the observed run appends "written to"
    lines);
  * scenario_seed1.csv .. scenario_seed20.csv, the full traces of the
    FastConfig scenario seeds (scenario_test replays 11-15);
  * tenant_storm32.csv, the full trace of GenerateTenantStorm(1, 32, 200 ms),
    the fleet-density preset at unit-test size.

Simulated output is a pure function of the source, so every build type
(Release, RelWithDebInfo, Debug with sanitizers) must match the same
digests. A mismatch means simulated behaviour changed: either fix the change
or, when the new behaviour is intended, rerun with --update and say why in
the commit.

Exit status: 0 when every digest matches, 1 on a mismatch or missing output.
"""
import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

DIGEST_FILE = Path(__file__).resolve().parent.parent / "tests" / "golden" / "golden.sha256"

# (bench binary, stdout name, side CSVs, CSVs need NEMESIS_OBS=1)
FIGURE_RUNS = [
    ("bench_fig7_paging_in", "fig7.stdout", ["fig7_usd_trace.csv"], False),
    ("bench_fig8_paging_out", "fig8.stdout", ["fig8_usd_trace.csv"], False),
    ("bench_fig9_fs_isolation", "fig9.stdout", ["fig9_trace.csv"], True),
]
SCENARIO_TRACES = ([f"scenario_seed{seed}.csv" for seed in range(1, 21)]
                   + ["tenant_storm32.csv"])


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def clean_env(**extra):
    env = {k: v for k, v in os.environ.items() if not k.startswith("NEMESIS_")}
    env.update(extra)
    return env


def binary(build_dir, subdir, name):
    path = (build_dir / subdir / name).resolve()
    if not path.exists():
        sys.exit(f"error: {path} not found; build the tree first")
    return str(path)


def collect(build_dir, work_dir):
    """Runs every golden producer in work_dir; returns {name: sha256}."""
    digests = {}
    for bench, stdout_name, csvs, needs_obs in FIGURE_RUNS:
        exe = binary(build_dir, "bench", bench)
        out = subprocess.run([exe], check=True, capture_output=True,
                             cwd=work_dir, env=clean_env())
        digests[stdout_name] = sha256(out.stdout)
        if needs_obs:
            subprocess.run([exe], check=True, capture_output=True,
                           cwd=work_dir, env=clean_env(NEMESIS_OBS="1"))
        for csv in csvs:
            side = work_dir / csv
            if not side.exists():
                sys.exit(f"error: {bench} did not write {csv}")
            digests[csv] = sha256(side.read_bytes())
    exe = binary(build_dir, "tests", "golden_scenarios")
    subprocess.run([exe, str(work_dir)], check=True, cwd=work_dir,
                   env=clean_env())
    for name in SCENARIO_TRACES:
        digests[name] = sha256((work_dir / name).read_bytes())
    return digests


def load(path):
    digests = {}
    for line in path.read_text().splitlines():
        if line.strip():
            digest, name = line.split(maxsplit=1)
            digests[name.strip()] = digest
    return digests


def check(build_dir):
    """Returns the number of outputs whose digest differs from the file."""
    expected = load(DIGEST_FILE)
    with tempfile.TemporaryDirectory(prefix="nemesis-golden-") as tmp:
        actual = collect(build_dir, Path(tmp))
    mismatches = 0
    for name in sorted(set(expected) | set(actual)):
        want, got = expected.get(name), actual.get(name)
        if want == got:
            print(f"  match {name}")
        elif want is None:
            print(f"  EXTRA {name}: not in {DIGEST_FILE}")
            mismatches += 1
        elif got is None:
            print(f"  MISSING {name}: not produced")
            mismatches += 1
        else:
            print(f"  DIFF {name}: {got} != golden {want}")
            mismatches += 1
    return mismatches


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--build", default="build", type=Path)
    ap.add_argument("--update", action="store_true",
                    help="rewrite the digest file from this build's output")
    args = ap.parse_args()
    if args.update:
        with tempfile.TemporaryDirectory(prefix="nemesis-golden-") as tmp:
            digests = collect(args.build, Path(tmp))
        DIGEST_FILE.write_text("".join(f"{d}  {n}\n" for n, d in sorted(digests.items())))
        print(f"wrote {len(digests)} digests to {DIGEST_FILE}")
        return 0
    bad = check(args.build)
    if bad:
        print(f"error: {bad} golden mismatch(es): simulated output changed")
        return 1
    print("golden check: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
