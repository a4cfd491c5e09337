#!/usr/bin/env python3
"""Records the run-to-run noise of the benchmark.

    python3 perfbench/noise.py [--seeds 1-10] [--sets 2] [--workloads a,b]
                               [--traced] [--out perfbench/NOISE.json]

Run from the root of a source tree. Runs perfbench/run.py once per seed and
workload (--trace 0), one run after the other, and repeats that whole set
--sets times. For every end-to-end metric and set it writes the values,
their median, quartiles and spread, (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4), next to the bound in BENCHMARK.json; and
across the sets the largest move of a median in either direction,
max / min - 1 of the set medians, which is how much worse one set would look
than another if either had come first. It also keeps what stands behind the
latency percentiles: the sample count and the samples beyond each rank, the
whole-run p50 and p90 beside the gated medians over one-second windows, the
generator's lateness, and the ungated p99 with its own spread; and per run
the steal time the hypervisor took from the machine's CPUs, which shows the
runs other tenants disturbed. With --traced it adds one --trace 1 run per
workload (seed 7) with its per-layer metrics.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def seeds_from(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload, seed, seconds, trace):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    elapsed = time.monotonic() - started
    if done.returncode != 0:
        raise SystemExit("%s seed %d failed (exit %d)" % (workload, seed, done.returncode))
    lines = done.stdout.strip().splitlines()
    detail = json.loads(lines[-2][len("perfbench-detail "):])
    return json.loads(lines[-1]), detail, elapsed


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None,
            "values": values}


def record_set(workload, seeds, seconds, bounds):
    results = []
    for seed in seeds:
        result, detail, elapsed = run(workload, seed, seconds, 0)
        results.append((result, detail["untraced"], elapsed))
        print("%s seed %d: %.0f s, failed %d of %d" % (workload, seed, elapsed,
                                                      result["failed"], result["attempted"]),
              file=sys.stderr)
    entry = {"recorded": time.strftime("%Y-%m-%d %H:%M UTC", time.gmtime()),
             "metrics": {name: spread([r["metrics"][name]["value"] for r, _, _ in results])
                         for name in bounds},
             "correct": [r["correct"] for r, _, _ in results],
             "attempted": [r["attempted"] for r, _, _ in results],
             "failed": [r["failed"] for r, _, _ in results],
             "failures": [d["failures"] for _, d, _ in results],
             "run_wall_s": [round(e, 1) for _, _, e in results]}
    details = [d for _, d, _ in results]
    if "p99" in details[0]:
        entry["percentile_samples"] = {
            rank: {"samples": [d[rank]["samples"] for d in details],
                   "beyond": [d[rank]["beyond"] for d in details]}
            for rank in ("p50", "p90", "p99") if details[0][rank] is not None}
        entry["p99_ms_ungated"] = spread([d["p99"]["value_ms"] for d in details])
        entry["whole_run_p50_ms"] = spread([d["p50"]["value_ms"] for d in details])
        entry["whole_run_p90_ms"] = spread([d["p90"]["value_ms"] for d in details])
        entry["lateness_p50_ms"] = spread([d["lateness_p50_ms"] for d in details])
        entry["lateness_max_ms"] = [d["lateness_max_ms"] for d in details]
        entry["setup_samples"] = len(details[0]["setup_ms"])
        entry["verify_samples"] = [d["verify_samples"] for d in details]
    else:
        entry["sizing_outcome"] = [d["sizing_outcome"] for d in details]
    entry["host_steal_ms"] = [round(d["host_steal_ms"]) for d in details]
    return entry


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default="scale-certify,serve-hot,serve-cold")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", default=os.path.join("perfbench", "NOISE.json"))
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",")
    seeds = seeds_from(args.seeds)

    sets = [{w: record_set(w, seeds, seconds, bounds) for w in workloads}
            for _ in range(args.sets)]

    record = {"machine": "%s, %d CPUs" % (platform.machine(), os.cpu_count() or 0),
              "command": " ".join(["python3", "perfbench/noise.py"] + sys.argv[1:]),
              "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for w in workloads:
        summary = {}
        for name in bounds:
            medians = [s[w]["metrics"][name]["median"] for s in sets]
            spreads = [s[w]["metrics"][name]["spread"] for s in sets]
            low, high = min(medians), max(medians)
            summary[name] = {"unit": units[name], "bound": bounds[name],
                             "spread_per_set": spreads,
                             "median_per_set": medians,
                             "largest_move": (high / low - 1.0) if low > 0 else None}
        entry = {"summary": summary, "sets": [s[w] for s in sets]}
        if args.traced:
            result, detail, elapsed = run(w, 7, seconds, 1)
            entry["traced_seed_7"] = {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
                                      "headline_ms": detail["headline_ms"],
                                      "run_wall_s": round(elapsed, 1)}
        record["workloads"][w] = entry
        for name, m in summary.items():
            worst = max(x or 0.0 for x in m["spread_per_set"])
            flags = []
            if name != "setup_s" and worst > m["bound"] / 3:
                flags.append("spread over bound/3")
            if (m["largest_move"] or 0.0) > m["bound"]:
                flags.append("move over bound")
            print("%-14s %-22s medians %-26s spreads %-18s move %.3f (bound %.2f) %s"
                  % (w, name, " ".join("%.6g" % x for x in m["median_per_set"]),
                     " ".join("%.3f" % (x or 0.0) for x in m["spread_per_set"]),
                     m["largest_move"] or 0.0, m["bound"], ", ".join(flags)))
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
