"""Pure helpers of the benchmark front end (perfbench/run.py).

Everything here works on plain data so perfbench/test_benchlib.py can check
it on fixture output without building or running the simulator:

  * parse_runner_output: the JSON object perfbench_workload prints last;
  * check_fingerprints: every repetition's simulated outcome against the
    recorded one;
  * end_to_end / with_units: the metric objects of the final result line;
  * result_line: the line the benchmark prints last.
"""
import json
import statistics

WORKLOADS = ("fig7-pagein", "storm-300", "storm-300-obs")

# Workloads that must reproduce the same simulated outcome: observability
# never changes what the simulator does.
SAME_OUTCOME = ("storm-300", "storm-300-obs")

# The paper's Figure 7 progress ratios (app-20%/app-10%, app-40%/app-10%).
PAPER_RATIOS = {"app-20%": 2.0, "app-40%": 4.0}


class BenchError(Exception):
    """Malformed runner output or fingerprint table."""


def parse_runner_output(stdout):
    """Returns the runner's result object: the last non-empty stdout line."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise BenchError("runner printed nothing")
    try:
        doc = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise BenchError(f"runner's last line is not JSON: {e}") from None
    for key in ("workload", "spec_seed", "build_type", "compiler", "reps", "setup_samples_s",
                "peak_rss_mb"):
        if key not in doc:
            raise BenchError(f"runner output lacks '{key}'")
    if not doc["reps"]:
        raise BenchError("runner made no repetitions")
    for rep in doc["reps"]:
        for key in ("setup_s", "measured_s", "faults", "fingerprint"):
            if key not in rep:
                raise BenchError(f"repetition lacks '{key}'")
    return doc


def load_fingerprints(text):
    """Parses the recorded fingerprint table and checks its invariants."""
    table = json.loads(text)
    a, b = SAME_OUTCOME
    for spec_seed, fp in table.get(a, {}).items():
        other = table.get(b, {}).get(spec_seed)
        if other is not None and other != fp:
            raise BenchError(f"recorded {a} and {b} outcomes differ for spec seed {spec_seed}")
    return table


def recorded_fingerprint(table, workload, spec_seed):
    """The recorded outcome of (workload, spec seed), or None if unrecorded.

    The SAME_OUTCOME workloads share recordings."""
    key = str(spec_seed)
    names = [workload] + (list(SAME_OUTCOME) if workload in SAME_OUTCOME else [])
    for name in names:
        fp = table.get(name, {}).get(key)
        if fp is not None:
            return fp
    return None


def check_fingerprints(reps, expected):
    """Splits repetitions into (passed, failures).

    A repetition fails when its fingerprint differs from `expected`, or when
    it reports a failed audit or shape check. failures lists one line each."""
    failures = []
    for i, rep in enumerate(reps):
        fp = rep["fingerprint"]
        if fp.get("audit_ok") is False or fp.get("shape_ok") is False:
            failures.append(f"rep {i}: audit/shape check failed: {json.dumps(fp, sort_keys=True)}")
        elif expected is None:
            failures.append(f"rep {i}: no recorded fingerprint to compare against")
        elif fp != expected:
            diff = {k: (expected.get(k), fp.get(k))
                    for k in sorted(set(fp) | set(expected)) if fp.get(k) != expected.get(k)}
            failures.append(f"rep {i}: fingerprint differs (recorded, got): {diff}")
    return len(reps) - len(failures), failures


def failed_run_share(attempted, failed):
    """Failed repetitions over attempted ones; a run with none attempted failed."""
    if attempted <= 0:
        return 1.0
    return failed / attempted


def paper_ratio_err_pct(fingerprint):
    """Largest relative error (%) of the Figure 7 ratios against the paper's."""
    base = fingerprint["app-10%.bytes"]
    if base <= 0:
        return 100.0
    return max(abs(fingerprint[f"{name}.bytes"] / base - want) / want * 100.0
               for name, want in PAPER_RATIOS.items())


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def timed_rates(doc):
    """Faults per measured host-second of each timed repetition.

    The first repetition warms the process up (its heap grows to the
    workload's size) and is left out when there are others; its outcome is
    still checked."""
    reps = doc["reps"][1:] if len(doc["reps"]) > 1 else doc["reps"]
    return [r["faults"] / r["measured_s"] for r in reps]


def end_to_end(doc, attempted, failed):
    """Raw end-to-end values of one timed run (before units are attached).

    faults_per_host_s is the lower quartile of the repetitions' rates, the
    rate three quarters of them sustained: host speed rises in episodes of a
    few seconds on a shared host, and the lower quartile ignores them (see
    README.md, "Noise and bounds")."""
    rates = timed_rates(doc)
    return {
        "faults_per_host_s": quartiles(rates)[0],
        "setup_s": statistics.median(doc["setup_samples_s"]),
        "peak_rss_mb": doc["peak_rss_mb"],
        "run_pass_share": 1.0 - failed_run_share(attempted, failed),
    }


def with_units(values, specs):
    """Attaches the BENCHMARK.json units; every spec'd metric must be present."""
    out = {}
    for spec in specs:
        name = spec["name"]
        if name not in values:
            raise BenchError(f"metric '{name}' was not measured")
        out[name] = {"value": values[name], "unit": spec["unit"]}
    return out


def result_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})
