#!/usr/bin/env python3
"""The repo benchmark: builds perfbench from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Workloads, metrics and bounds are listed in BENCHMARK.json; see
perfbench/README.md for what each one measures and why.  The build goes to
$CARGO_TARGET_DIR when that is a directory inside the checkout, else to
.bench_build.  Each run writes its full record (metrics, layer table,
build metadata) to <build>/results/, and a traced run writes its spans as
Chrome trace JSON to <build>/traces/.

The last line of standard output is one JSON object with exactly the keys
"correct", "attempted", "failed" and "metrics".  The exit code is 0 when
the run completed and its outputs were correct, nonzero otherwise.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.getcwd()
SOURCE = os.path.join(ROOT, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    candidate = os.environ.get("CARGO_TARGET_DIR", "")
    if candidate:
        path = os.path.realpath(os.path.join(ROOT, candidate))
        if path.startswith(os.path.realpath(ROOT) + os.sep):
            return path
    return os.path.join(ROOT, ".bench_build")


def run_checked(cmd, timeout):
    """Runs cmd with its output on stderr; fails the benchmark on error."""
    try:
        subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=timeout, check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        fail(f"build step failed: {' '.join(cmd)}: {e}")


def build(build_path):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "dyn_forest.hpp")):
        fail("no src/ next to perfbench/: run from the root of a full "
             "checkout of the repository")
    started = time.monotonic()
    if not os.path.isfile(os.path.join(build_path, "CMakeCache.txt")):
        run_checked(["cmake", "-S", SOURCE, "-B", build_path,
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(max(1, os.cpu_count() or 1))
    left = BUILD_TIMEOUT_S - (time.monotonic() - started)
    run_checked(["cmake", "--build", build_path, "--target", "perfbench",
                 "-j", jobs], max(1.0, left))
    return os.path.join(build_path, "perfbench")


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def print_summary(record):
    metrics = record["metrics"]
    width = max((len(n) for n in metrics), default=0)
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']:.6g} {m['unit']}")
    if record["layers"]:
        print(f"\nattribution of {record['wall_s']:.4f} s "
              "(self time per layer, one denominator)")
        for row in record["layers"]:
            print(f"  {row['layer']:<20} {row['self_s']:10.4f} s "
                  f"{100 * row['share']:6.2f} %")
    meta = record["meta"]
    print(f"\nnproc {meta['nproc']}, {meta['build_type']} build, "
          f"{meta['compiler']}, commit {meta['git_commit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        fail("--seed must be >= 0 and --seconds in 1..3600")

    build_path = build_dir()
    binary = build(build_path)
    expected = expected_metrics(args.trace)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(build_path, "traces"), exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(build_path, "traces", f"{tag}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"perfbench exited with {proc.returncode} and no result")
    metrics = record["metrics"]
    if args.trace:
        # A per-layer metric that does not apply to the workload reads 0.
        for name, unit in expected.items():
            metrics.setdefault(name, {"value": 0.0, "unit": unit})
    missing = sorted(set(expected) - set(metrics))
    extra = sorted(set(metrics) - set(expected))
    wrong_unit = sorted(n for n in expected
                        if n in metrics and metrics[n]["unit"] != expected[n])
    if missing or extra or wrong_unit:
        fail(f"metric names differ from BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}, wrong unit {wrong_unit}")
    if any(metrics[n]["value"] is None for n in metrics):
        fail("a metric is not a finite number")

    record["meta"] = {
        "nproc": os.cpu_count(),
        "build_type": record["build"]["type"],
        "compiler": record["build"]["compiler"],
        "git_commit": git_commit(),
        "seconds": args.seconds,
    }
    os.makedirs(os.path.join(build_path, "results"), exist_ok=True)
    with open(os.path.join(build_path, "results", f"{tag}.json"), "w") as f:
        json.dump(record, f, indent=1)
    print_summary(record)
    print(json.dumps({
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {n: {"value": metrics[n]["value"],
                        "unit": metrics[n]["unit"]} for n in expected},
    }))
    return 0 if proc.returncode == 0 and record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
