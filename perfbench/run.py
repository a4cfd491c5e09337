#!/usr/bin/env python3
"""Runs one workload of the end-to-end benchmark and prints its result.

    python3 perfbench/run.py --workload scale-certify|serve-hot|serve-cold \\
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

Run from the root of a source tree. The first call builds the benchmark
package (perfbench/CMakeLists.txt: the library from src/, lid_serve and
lid_cluster from tools/, lid_perfbench and its self-test) into
.bench_build/perfbench; later calls only check that the build is current.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The line before it starts with
"perfbench-detail " and carries the facts behind the metrics (sample counts
behind each percentile, generator lateness, failure kinds, span totals).

With --trace 1 the workload runs twice with the same seed, untraced and then
traced. The per-layer metrics come from the traced run; trace.overhead_pct is
the traced minus the untraced headline timing, as a percentage of the
untraced one. A per-layer metric that names a layer the workload does not
cross is reported as 0.

Seeds: 7 is the default seed, 11 the held-out seed for checking a claim.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time

SOURCE = "perfbench"
BUILD = os.path.join(".bench_build", "perfbench")
WORK = os.path.join(".bench_build", "run")
WORKLOADS = ("scale-certify", "serve-hot", "serve-cold")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the package; build output goes to stderr."""
    if not os.path.isfile(os.path.join(SOURCE, "CMakeLists.txt")):
        fail("run from the root of the source tree (no perfbench/CMakeLists.txt here)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("configuring the benchmark build failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("building the benchmark failed")


def declared_metrics():
    """(end_to_end, per_layer) name -> unit maps from BENCHMARK.json."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def drive(workload, seed, seconds, traced, deadline):
    command = [os.path.join(BUILD, "lid_perfbench"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--bin-dir", BUILD, "--work-dir", WORK]
    if traced:
        command.append("--trace")
    # A session of its own, so that on a timeout lid_perfbench, the daemons
    # it spawned and the workers they spawned go down together.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail("%s run timed out" % workload)
    if child.returncode != 0:
        fail("%s run failed (exit %d)" % (workload, child.returncode))
    lines = out.strip().splitlines()
    if not lines:
        fail("%s run printed nothing" % workload)
    return json.loads(lines[-1])


def shape(declared, produced, workload, fill_missing):
    """The declared metrics with their values; refuses undeclared names."""
    unknown = sorted(set(produced) - set(declared))
    if unknown:
        fail("%s produced undeclared metrics: %s" % (workload, ", ".join(unknown)))
    out = {}
    for name, unit in declared.items():
        if name in produced:
            if produced[name]["unit"] != unit:
                fail("%s: %s is in %s, declared %s" % (workload, name, produced[name]["unit"], unit))
            out[name] = {"value": produced[name]["value"], "unit": unit}
        elif fill_missing:
            out[name] = {"value": 0, "unit": unit}
        else:
            fail("%s did not produce %s" % (workload, name))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    build()
    if args.self_test:
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    end_to_end, per_layer = declared_metrics()
    os.makedirs(WORK, exist_ok=True)

    # Runs after the build must end within 180 s in all.
    deadline = time.monotonic() + 175
    untraced = drive(args.workload, args.seed, args.seconds, False, deadline)
    if args.trace == 0:
        run = untraced
        metrics = shape(end_to_end, run["end_to_end"], args.workload, False)
        detail = {"untraced": run["detail"]}
    else:
        run = drive(args.workload, args.seed, args.seconds, True, deadline)
        produced = dict(run["per_layer"])
        overhead = 100.0 * (run["headline_ms"] - untraced["headline_ms"]) / untraced["headline_ms"]
        produced["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        metrics = shape(per_layer, produced, args.workload, True)
        detail = {"untraced": untraced["detail"], "traced": run["detail"],
                  "headline_ms": {"untraced": untraced["headline_ms"],
                                  "traced": run["headline_ms"]},
                  "spans": run["trace"]}
        run["correct"] = run["correct"] and untraced["correct"]
    print("perfbench-detail " + json.dumps({"workload": args.workload, "seed": args.seed,
                                            "seconds": args.seconds, **detail}))
    print(json.dumps({"correct": bool(run["correct"]), "attempted": int(run["attempted"]),
                      "failed": int(run["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
