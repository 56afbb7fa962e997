#!/usr/bin/env python3
"""Session benchmark: whole BCFL sessions on a named workload.

    python3 sessionbench/run.py --workload paper_long --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout. Builds the sessionbench binary (and
the bcfl libraries it links) from source into .sessionbench/build, runs it,
checks its verdicts and prints, as the last line of standard output, one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics. The lines before it state the hardware, how the tail
percentile was taken and any check failures. Exits 1 when a session's
outputs are wrong, 2 when the benchmark cannot build or run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

import metrics  # noqa: E402

WORK = os.path.join(ROOT, ".sessionbench")
BUILD = os.path.join(WORK, "build")
BINARY = os.path.join(BUILD, "sessionbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("sessionbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    os.makedirs(WORK, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "sessionbench",
                  "-j", jobs])
    log_path = os.path.join(WORK, "build.log")
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as err:
                fail("build step %s failed: %s" % (step[:2], err))
            if done.returncode != 0:
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed (log in %s)" % log_path)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    run_dir = os.path.join(WORK, "run")
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", run_dir]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail("run failed: %s" % err)
    if done.returncode != 0:
        fail("sessionbench exited with %d" % done.returncode)
    raw = json.loads(done.stdout)

    sessions = raw["sessions"]
    failures = metrics.session_failures(sessions)
    attempted = sum(int(s["rounds_expected"]) for s in sessions)
    failed = sum(failures)
    problems = [p for s in sessions for p in s["problems"]]
    for i in metrics.inconsistent_sessions(sessions):
        problems.append("session %d: digests or chain tip differ from the "
                        "other sessions of this seed" % i)

    try:
        if args.trace:
            # round_growth of the untraced session (the first), with the layers.
            values = dict(raw["layers"])
            values["round_growth"] = metrics.round_growth(
                metrics.session_latencies(sessions[0]))
            details = {}
        else:
            values, details = metrics.end_to_end(raw)
    except (ValueError, ZeroDivisionError, IndexError) as err:
        fail("no metrics from this run (%s); problems: %s" % (err, problems[:5]))
    details.update({
        "workload": args.workload,
        "seed": args.seed,
        "hardware": raw["hardware"],
        "failed_frac": metrics.failed_frac(attempted, failed),
        "sv_digest": sessions[0]["sv_digest"] if sessions else "",
        "problems": problems[:20],
        "note": "network delay is simulated; wall times measure computation only",
    })
    print(json.dumps(details))

    out = {}
    for spec in declared_metrics(args.trace):
        if spec["name"] not in values:
            fail("no value for metric %s" % spec["name"])
        out[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
