#!/usr/bin/env python3
"""End-to-end APSP benchmark driver.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds the library and the
benchmark from source (Release) into .bench_build/, then runs one workload
in its own process and prints, as the last stdout line, one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics. --trace 1 reports the per-layer
metrics: it runs the workload untraced and then traced, each for half of
--seconds, and writes the traced run's Chrome trace (Perfetto-loadable) to
.bench_build/traces/<workload>.json. The span self times (self.*) and
obs.trace_events come from the traced run, every other metric from the
untraced one; obs.trace_overhead is the traced op_p50_ms over the untraced
one, minus one.

setup_s is the mean over SETUP_PROCESSES processes of each process's median
set-up time: the main run plus set-up-only runs. The set-up time of a solve
workload depends on the process's heap layout and falls into one of two
modes about 1.6x apart, so one process's median is not a steady figure.
See e2ebench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "e2ebench")
BINARY = os.path.join(BUILD_DIR, "e2e_bench")
RUN_TIMEOUT_S = 170
SETUP_PROCESSES = 5


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; build output goes to
    stderr so stdout carries only results."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "e2e_bench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def run_once(args, seconds, trace, setup_only=False):
    """Runs one benchmark process and returns its RESULT object."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0",
           "--workdir", os.path.join(BUILD_ROOT, "work"),
           "--setup-only", "1" if setup_only else "0"]
    if trace:
        trace_dir = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, args.workload + ".json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    result = None
    for line in lines:
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    sys.stdout.flush()
    if proc.returncode != 0 or result is None:
        log("e2e_bench exited with %d" % proc.returncode)
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1
    if not args.trace:
        runs = [run_once(args, args.seconds, False)]
        runs += [run_once(args, args.seconds, False, setup_only=True)
                 for _ in range(SETUP_PROCESSES - 1)]
    else:
        runs = [run_once(args, args.seconds / 2, False),
                run_once(args, args.seconds / 2, True)]
    if any(r is None for r in runs):
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if not args.trace:
        metrics = dict(runs[0]["end_to_end"])
        setups = [r["end_to_end"]["setup_s"]["value"] for r in runs]
        metrics["setup_s"] = {"value": sum(setups) / len(setups), "unit": "s"}
        print("setup_s over %d processes: %s" % (len(setups), setups))
    else:
        untraced, traced = runs
        metrics = dict(untraced["per_layer"])
        for name, metric in traced["per_layer"].items():
            if name.startswith("self.") or name == "obs.trace_events":
                metrics[name] = metric
        metrics["obs.trace_overhead"] = {
            "value": traced["end_to_end"]["op_p50_ms"]["value"] /
            untraced["end_to_end"]["op_p50_ms"]["value"] - 1.0,
            "unit": "ratio"}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
