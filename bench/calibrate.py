#!/usr/bin/env python3
"""Calibrate the benchmark's bounds: run every workload in two sets of seeds
on identical code and record, per candidate metric, each set's values,
median and quartiles, the spread inside a set, the set-to-set difference, the
bound the rule derives from them, and whether the metric holds.

    python3 bench/calibrate.py [-n 10] [-m 5] [-seconds 48] [-o bench/CALIBRATION.json]
    python3 bench/calibrate.py -recompute bench/CALIBRATION.json   # derive again from the recorded values

Run from the repository root on an otherwise idle box. The candidates are the
end-to-end metrics of BENCHMARK.json plus lat_p50_us, which every untraced
run still prints on its "not gated" line. The rule, from bench/README.md:

    bound = max(3 %, 2 x set-to-set difference, 1.5 x the larger spread),
    rounded up to 3 %, 5 % or 10 %; beyond 10 % the metric does not hold.

The spread term is there because whoever gates on these numbers also wants
the spread of ten runs inside the bound, and a spread of ten runs is itself
uncertain by about half; it is left out for setup_s, whose spread is not
gated. A metric that does not hold on a gated workload is not an end-to-end
metric; a workload on which an end-to-end metric does not hold is not gated.

For the in-process workloads the record also holds what the same runs read
as measured, before scaling to the reference clock, so that what the scaling
is worth can be read off it.
"""
import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

SPEC = json.load(open("BENCHMARK.json"))
GATED = [w["name"] for w in SPEC["workloads"]]
UNGATED = ["wire-ip32", "wire-ndn-zipf"]
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
BETTER["lat_p50_us"] = "lower"
STEPS = [0.03, 0.05, 0.10]


def run(workload, seed, seconds):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: correct={res['correct']} failed={res['failed']}")
    values = {k: v["value"] for k, v in res["metrics"].items()}
    for prefix, line in (("", "not gated"), ("as_measured.", "as measured")):
        found = re.search(rf"^# {line}: (.*)$", out, re.M)
        if found:
            values.update({prefix + k: float(v) for k, v in (kv.split("=") for kv in found.group(1).split())})
    flags = sum(l.startswith("# FLAG") for l in out.splitlines())
    print(f"  {workload} seed {seed}: {time.time() - t0:.1f}s " +
          " ".join(f"{k}={values[k]:.5g}" for k in BETTER) +
          (f"  [{flags} flag(s)]" if flags else ""), flush=True)
    return values


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "q1": q1, "median": med, "q3": q3, "spread": (q3 - q1) / med}


def compare(metric, set1, set2):
    a, b = summarize(set1), summarize(set2)
    # How much worse the second set's median is than the first's.
    diff = (b["median"] - a["median"]) / a["median"]
    if BETTER[metric] == "higher":
        diff = -diff
    need = max(0.03, 2 * abs(diff))
    if metric != "setup_s":
        need = max(need, 1.5 * max(a["spread"], b["spread"]))
    bound = next((s for s in STEPS if need <= s + 1e-12), None)
    return {"set1": a, "set2": b, "second_worse_by": diff, "needs": need, "bound": bound, "holds": bound is not None}


def derive(record):
    """Fill in everything that follows from the recorded values."""
    for rec in record["workloads"].values():
        for group in ("metrics", "as_measured"):
            for m, c in rec[group].items():
                rec[group][m] = compare(m, c["set1"]["values"], c["set2"]["values"])
    # End-to-end: what holds on every gated workload. Gated: every workload
    # on which all of those hold.
    metrics = record["workloads"][GATED[0]]["metrics"]
    record["end_to_end"] = [m for m in metrics if all(record["workloads"][w]["metrics"][m]["holds"] for w in GATED)]
    record["bounds"] = {m: max(record["workloads"][w]["metrics"][m]["bound"] for w in GATED) for m in record["end_to_end"]}
    for w, rec in record["workloads"].items():
        rec["holds"] = all(rec["metrics"][m]["holds"] for m in record["end_to_end"])
    return record


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("-n", type=int, default=10, help="runs per set of a gated workload")
    ap.add_argument("-m", type=int, default=5, help="runs per set of an ungated workload")
    ap.add_argument("-seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("-o", default="bench/CALIBRATION.json")
    ap.add_argument("-recompute", metavar="FILE", help="derive bounds again from FILE's recorded values; runs nothing")
    args = ap.parse_args()

    if args.recompute:
        record = json.load(open(args.recompute))
        args.o = args.recompute
    else:
        workloads = GATED + UNGATED
        sets = []
        for s in range(2):
            print(f"set {s + 1}", flush=True)
            runs = {w: [] for w in workloads}
            # Workloads innermost: each one's runs spread over the whole set,
            # so a slow quarter of an hour on the box touches all alike.
            for i in range(args.n):
                for w in workloads:
                    if w in GATED or i < args.m:
                        runs[w].append(run(w, 1 + s * args.n + i, args.seconds))
            sets.append(runs)
        record = {
            "machine": {"nproc": os.cpu_count(), "kernel": platform.release(),
                        "go": subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()},
            "transport": "loopback, not a real link",
            "run_seconds": args.seconds, "runs_per_set": {"gated": args.n, "ungated": args.m},
            "workloads": {},
        }
        for w in workloads:
            rec = record["workloads"][w] = {"metrics": {}, "as_measured": {}}
            for key in sets[0][w][0]:
                group, m = ("as_measured", key[len("as_measured."):]) if key.startswith("as_measured.") else ("metrics", key)
                if m in BETTER:
                    rec[group][m] = {"set1": {"values": [r[key] for r in sets[0][w]]}, "set2": {"values": [r[key] for r in sets[1][w]]}}
    record["rule"] = ("bound = max(3%, 2 x set-to-set difference, 1.5 x the larger spread; no spread term for setup_s), "
                      "rounded up to 3%, 5% or 10%; beyond 10% the metric does not hold")
    derive(record)
    json.dump(record, open(args.o, "w"), indent=1)
    for w, rec in record["workloads"].items():
        print(w, "holds" if rec["holds"] else "does not hold",
              {m: (c["bound"], round(c["needs"], 3)) for m, c in rec["metrics"].items()})
    print("end to end:", json.dumps(record["bounds"]))


if __name__ == "__main__":
    main()
