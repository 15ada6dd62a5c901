#!/usr/bin/env python3
"""Simulator benchmark: builds perfbench_sim from the repository sources,
runs one workload and prints its metrics.

    python3 perfbench/run.py --workload perm-dx-sharded --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --validate .bench_build/records/perm-dx-sharded-seed1-trace0.json
    python3 perfbench/run.py --update-goldens

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Everything above it is a
human-readable report. A run record with quartiles, sample counts and
the machine is written under <build dir>/records/. See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
GOLDENS = HERE / "goldens.json"
SCHEMA = "meshroute-perfbench/1"
RUN_TIMEOUT_S = 170

# Why each workload exists: README.md and BENCHMARK.json.
WORKLOADS = ("perm-dx-sharded", "openloop-observed", "openloop-saturated",
             "adversarial-main")

# name -> (unit, better); the order is the report order.
END_TO_END = {
    "run_s": ("s", "lower"),
    "moves_per_s": ("moves/s", "higher"),
    "cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "step_us_p50": ("us", "lower"),
    "step_us_p99": ("us", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "sim_steps": ("steps", "lower"),
    "sim_latency_p50_steps": ("steps", "lower"),
    "sim_latency_p99_steps": ("steps", "lower"),
}

# Per-layer metrics every workload reports (the JSON line of --trace 1).
PER_LAYER = {
    "routing.plan_out_s": "s",
    "routing.plan_in_s": "s",
    "routing.update_s": "s",
    "routing.plan_out_calls": "count",
    "routing.plan_in_calls": "count",
    "routing.update_calls": "count",
    "sim.plan_out_s": "s",
    "sim.plan_in_s": "s",
    "sim.transmit_s": "s",
    "sim.update_s": "s",
    "sim.other_s": "s",
    "sim.plan_out_self_s": "s",
    "sim.plan_in_self_s": "s",
    "sim.update_self_s": "s",
    "sim.active_nodes_mean": "nodes",
    "sim.moves_per_step": "moves",
    "sim.prepare_s": "s",
    "traffic.offered": "packets",
    "traffic.backlog_mean": "packets",
    "traffic.backlog_max": "packets",
    "snapshot.capture_s": "s",
    "snapshot.serialize_s": "s",
    "snapshot.bytes_last": "bytes",
    "snapshot.parse_s": "s",
    "snapshot.restore_s": "s",
    "core.parallel_speedup": "x",
    "core.cpu_per_wall": "x",
    "workload.generate_s": "s",
    "trace.overhead_frac": "fraction",
}

# Per-layer metrics of the layers only some workloads exercise. They are
# printed in the report and kept in the run record, not in the JSON line,
# which must carry the same metrics for every workload.
WORKLOAD_LAYER = {
    "traffic.advance_s": "s",
    "check.oracles_s": "s",
    "telemetry.collect_s": "s",
    "lower_bound.construct_s": "s",
    "lower_bound.construct_step_us_p50": "us",
    "lower_bound.exchanges": "count",
}

OUTCOME_KEYS = ("fingerprint", "delivery_hash", "moves", "sim_steps", "delivered")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else REPO / path


def build():
    """Configures (once) and builds perfbench_sim; returns its path."""
    if not (REPO / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {REPO / 'src'}")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "--target", "perfbench_sim",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            fail("build failed: " + " ".join(cmd))
    return out / "perfbench_sim"


def run_binary(binary, workload, seed, seconds, trace):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-8000:])
        fail(f"perfbench_sim exited with code {proc.returncode}")
    return json.loads(proc.stdout)


def summary(values):
    """Median, quartiles and sample count of a list of numbers."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        # "inclusive" keeps the quartiles of a few samples inside their range.
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        med = statistics.median(values)
        # quantiles() interpolates, which can put a quartile of equal
        # values a rounding error past the exact median.
        q1, q3 = min(q1, med), max(q3, med)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def outcome(rep):
    return {k: rep[k] for k in OUTCOME_KEYS}


def check_reps(raw, seed, goldens):
    """Failure messages per repetition. A repetition fails when it threw,
    stalled, left a packet undelivered or exceeded k (reported by the
    binary), when its outcome differs from the other repetitions of the
    same seed, or, at the golden seed, from the golden."""
    reps = raw["untraced"] + raw["traced"]
    golden = None
    if goldens and seed == goldens["seed"]:
        golden = goldens["workloads"].get(raw["workload"])
    reference = outcome(reps[0])
    failures = []
    for i, rep in enumerate(reps):
        problems = []
        if rep["error"]:
            problems.append(rep["error"].strip())
        if outcome(rep) != reference:
            problems.append("outcome differs from repetition 0")
        if golden is not None and outcome(rep) != golden:
            problems.append(f"outcome {outcome(rep)} differs from golden {golden}")
        if problems:
            failures.append(f"repetition {i}: " + "; ".join(problems))
    # The traced run must simulate exactly what the untraced run did.
    if raw["traced"] and raw["untraced"]:
        a, b = raw["untraced"][0], raw["traced"][0]
        for key in ("sim_steps", "latency_p50", "latency_p99", "fingerprint",
                    "delivery_hash"):
            if a[key] != b[key]:
                failures.append(f"traced {key} {b[key]} != untraced {a[key]}")
    failures.extend(raw["crosscheck"]["failures"])
    return failures


def host_times(rep, scaled=True):
    """The repetition's host times: at the reference speed (README, "Host
    time"), or as measured. setup_s is the list of set-up-only samples
    taken after the repetition."""
    if scaled:
        return {"run_s": rep["run_ref_s"], "cpu_s": rep["cpu_ref_s"],
                "setup_s": rep["setup_only_ref_s"],
                "step_us_p50": rep["step_ref_us_p50"],
                "step_us_p99": rep["step_ref_us_p99"]}
    return {"run_s": rep["run_s"], "cpu_s": rep["cpu_s"],
            "setup_s": rep["setup_only_s"],
            "step_us_p50": rep["step_us_p50"], "step_us_p99": rep["step_us_p99"]}


def end_to_end(raw):
    reps = [r for r in raw["untraced"] if not r["error"]] or raw["untraced"]
    host = [host_times(r) for r in reps]
    metrics = {
        "run_s": summary([h["run_s"] for h in host]),
        "moves_per_s": summary([r["moves"] / h["run_s"] for r, h in zip(reps, host)]),
        "cpu_s": summary([h["cpu_s"] for h in host]),
        "setup_s": summary([v for h in host for v in h["setup_s"]]),
        # Each repetition's percentile over its own steps; median over
        # repetitions ("steps" is the sample count behind each percentile).
        "step_us_p50": summary([h["step_us_p50"] for h in host]),
        "step_us_p99": summary([h["step_us_p99"] for h in host]),
        "peak_rss_mb": {"median": raw["peak_rss_mb"], "n": 1},
        "sim_steps": summary([r["sim_steps"] for r in reps]),
        "sim_latency_p50_steps": summary([r["latency_p50"] for r in reps]),
        "sim_latency_p99_steps": summary([r["latency_p99"] for r in reps]),
    }
    for name, (unit, better) in END_TO_END.items():
        metrics[name].update(unit=unit, better=better)
    for name in ("step_us_p50", "step_us_p99"):
        metrics[name]["steps"] = reps[0]["steps_timed"]
    for name in ("sim_latency_p50_steps", "sim_latency_p99_steps"):
        metrics[name]["packets"] = reps[0]["latency_count"]
    # The same host times as measured, before scaling to the reference speed.
    wall = [host_times(r, scaled=False) for r in reps]
    for name in ("run_s", "cpu_s", "step_us_p50", "step_us_p99"):
        metrics[name]["wall"] = summary([w[name] for w in wall])
    metrics["setup_s"]["wall"] = summary([v for w in wall for v in w["setup_s"]])
    return metrics


def per_layer(raw):
    traced = [r for r in raw["traced"] if not r["error"]] or raw["traced"]
    samples = {}
    for rep in traced:
        for name, value in rep["layers"].items():
            samples.setdefault(name, []).append(value)
    for name, value in raw["crosscheck"]["layers"].items():
        samples.setdefault(name, [value])
    samples["core.cpu_per_wall"] = [r["cpu_s"] / r["run_s"] if r["run_s"] > 0 else 0
                                    for r in raw["untraced"]]
    untraced_run = statistics.median(r["run_ref_s"] for r in raw["untraced"])
    traced_run = statistics.median(r["run_ref_s"] for r in traced)
    if untraced_run > 0:
        samples["trace.overhead_frac"] = [traced_run / untraced_run - 1]
    metrics = {}
    for name, unit in {**PER_LAYER, **WORKLOAD_LAYER}.items():
        if name in samples:
            metrics[name] = summary(samples[name]) | {"unit": unit}
    return metrics


def commit():
    proc = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def report(record):
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  repetitions {record['run_count']}  "
          f"nproc {record['nproc']}  {record['build_type']}  {record['compiler']}")
    print(f"{'metric':<36}{'unit':>9}{'median':>16}{'q1':>14}{'q3':>14}{'n':>7}")
    for name, m in record["metrics"].items():
        q1 = f"{m['q1']:.6g}" if "q1" in m else "-"
        q3 = f"{m['q3']:.6g}" if "q3" in m else "-"
        print(f"{name:<36}{m['unit']:>9}{m['median']:>16.6g}{q1:>14}{q3:>14}{m['n']:>7}")
    if record["trace"]:
        missing = [n for n in WORKLOAD_LAYER if n not in record["metrics"]]
        if missing:
            print("not on this workload's path: " + ", ".join(missing))
    rate = record["failed"] / record["attempted"]
    print(f"{'failure_rate':<36}{'fraction':>9}{rate:>16.6g}"
          f"{'':>28}{record['attempted']:>7}")
    for message in record["failures"]:
        print("FAILED: " + message)


def validate(path):
    """Checks a run record's schema; returns a list of problems."""
    try:
        record = json.loads(Path(path).read_text())
    except (OSError, ValueError) as err:
        return [f"cannot read {path}: {err}"]
    problems = []
    expect = {"schema": str, "workload": str, "seed": int, "trace": int,
              "nproc": int, "build_type": str, "compiler": str, "commit": str,
              "run_count": int, "config": dict, "metrics": dict,
              "correct": bool, "attempted": int, "failed": int, "failures": list}
    for key, kind in expect.items():
        if not isinstance(record.get(key), kind):
            problems.append(f"missing or non-{kind.__name__} {key!r}")
    if problems:
        return problems
    if record["schema"] != SCHEMA:
        problems.append(f"schema {record['schema']!r} != {SCHEMA!r}")
    if record["workload"] not in WORKLOADS:
        problems.append(f"unknown workload {record['workload']!r}")
    if record["attempted"] < 1 or not 0 <= record["failed"] <= record["attempted"]:
        problems.append("attempted/failed out of range")
    if record["correct"] != (record["failed"] == 0):
        problems.append("correct disagrees with failed")
    # A failed run may lack the metrics of the repetitions that failed.
    wanted = PER_LAYER if record["trace"] else END_TO_END
    for name in wanted:
        if record["correct"] and name not in record["metrics"]:
            problems.append(f"metric {name!r} missing")
    for name, m in record["metrics"].items():
        if not isinstance(m, dict) or not isinstance(m.get("unit"), str):
            problems.append(f"metric {name!r} has no unit")
            continue
        if not isinstance(m.get("n"), int) or m["n"] < 1:
            problems.append(f"metric {name!r} has no sample count")
        for key in ("median", "q1", "q3"):
            if key in m and not isinstance(m[key], (int, float)):
                problems.append(f"metric {name!r}: {key} is not a number")
        if "median" not in m:
            problems.append(f"metric {name!r} has no median")
        if "q1" in m and not m["q1"] <= m["median"] <= m["q3"]:
            problems.append(f"metric {name!r}: median outside its quartiles")
    return problems


def update_goldens(binary, seed):
    goldens = {"seed": seed, "workloads": {}}
    for workload in WORKLOADS:
        raw = run_binary(binary, workload, seed, 1, 0)
        reps = raw["untraced"]
        if any(r["error"] for r in reps) or any(outcome(r) != outcome(reps[0]) for r in reps):
            fail(f"{workload}: repetitions failed or disagree; goldens not written")
        goldens["workloads"][workload] = outcome(reps[0])
        print(f"{workload}: {outcome(reps[0])}")
    GOLDENS.write_text(json.dumps(goldens, indent=2) + "\n")
    print(f"wrote {GOLDENS}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--validate", metavar="RECORD",
                        help="check a run record's schema and exit")
    parser.add_argument("--update-goldens", action="store_true",
                        help="rewrite goldens.json from runs at --seed")
    args = parser.parse_args()

    if args.validate:
        problems = validate(args.validate)
        for p in problems:
            print(f"validate: {p}", file=sys.stderr)
        print(f"validate: {args.validate} {'ok' if not problems else 'INVALID'}")
        sys.exit(1 if problems else 0)
    if not args.update_goldens and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if args.update_goldens:
        update_goldens(binary, args.seed)
        return

    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.is_file() else None
    raw = run_binary(binary, args.workload, args.seed, args.seconds, args.trace)
    failures = check_reps(raw, args.seed, goldens)
    attempted = len(raw["untraced"]) + len(raw["traced"]) + raw["crosscheck"]["runs"]
    failed = min(attempted, len(failures))
    record = {
        "schema": SCHEMA,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": raw["nproc"],
        "build_type": raw["build_type"],
        "compiler": raw["compiler"],
        "commit": commit(),
        "run_count": len(raw["untraced"]) + len(raw["traced"]),
        "seconds": args.seconds,
        "config": raw["config"],
        "metrics": per_layer(raw) if args.trace else end_to_end(raw),
        "golden_checked": bool(goldens and args.seed == goldens["seed"]),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }
    records = build_dir() / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    problems = validate(path)
    if problems:
        fail(f"run record {path} is invalid: {problems}")

    report(record)
    print(f"record: {path}")
    wanted = PER_LAYER if args.trace else END_TO_END
    line = {
        "correct": record["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": record["metrics"].get(name, {"median": 0.0})["median"],
                           "unit": unit if isinstance(unit, str) else unit[0]}
                    for name, unit in wanted.items()},
    }
    print(json.dumps(line))


if __name__ == "__main__":
    main()
