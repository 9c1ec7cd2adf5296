#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

Usage, from the repository root:

    python3 perfbench/collect.py --seeds 1-10 [--sets N] [--workloads a,b]
        [--trace 0|1] [--out FILE]

For each workload and end-to-end metric it prints the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread, i.e. the
distance between the quartiles as a share of the median, next to the bound
in BENCHMARK.json. Where a run prints its speed factor and raw times, the
same summary is made of the raw times, so that scaled and raw spreads can be
compared; the metrics printed only in the notes (error_rate, points_per_s,
point_ms.dimD) are summarised too. --sets repeats the whole collection, as
a check that two sets of runs agree. With --out it writes every set as JSON.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys


def seeds(text):
    """'1-10' or '1,1,2' (a seed may repeat, to check that counts repeat)."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


NOTE = re.compile(r"^(error_rate|points_per_s|point_ms\.dim\d) (\S+)(?: (1/s|ms))?", re.M)
SPEED = re.compile(r"^speed (\S+) .*; raw (.*)$", re.M)


def summary(values, bound=None):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def show(name, s, bound=None):
    print(f"  {name:40s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  "
          f"q3 {s['q3']:12.6g}  spread {s['spread']:.4f}"
          + (f"  bound {bound}" if bound is not None else ""), flush=True)


def collect(spec, workload, seeds, trace, bounds):
    runs = []
    for seed in seeds:
        cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=900)
        if proc.returncode != 0:
            sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                     f"{proc.stderr.decode()[-2000:]}")
        stdout = proc.stdout.decode()
        result = json.loads(stdout.splitlines()[-1])
        notes = {m[1]: (float(m[2]), m[3] or "ratio") for m in NOTE.finditer(stdout)}
        speed = SPEED.search(stdout)
        raw = ({k: float(v) for k, v in re.findall(r"(\w+) (\S+) s", speed[2])}
               if speed else {})
        runs.append({"result": result, "notes": notes, "raw": raw,
                     "speed": float(speed[1]) if speed else None})
        print(f"{workload} seed {seed}: attempted {result['attempted']} "
              f"failed {result['failed']}", flush=True)
    out = {"seeds": seeds, "attempted": sum(r["result"]["attempted"] for r in runs),
           "failed": sum(r["result"]["failed"] for r in runs), "metrics": {}}
    for name, first in runs[0]["result"]["metrics"].items():
        s = summary([r["result"]["metrics"][name]["value"] for r in runs])
        out["metrics"][name] = {"unit": first["unit"], **s}
        show(name, s, bounds.get(name))
    if runs[0]["speed"] is not None:
        out["speed"] = summary([r["speed"] for r in runs])
        show("speed", out["speed"])
        out["raw"] = {}
        for name in runs[0]["raw"]:
            out["raw"][name] = {"unit": "s", **summary([r["raw"][name] for r in runs])}
            show(f"{name} (raw)", out["raw"][name])
    out["notes"] = {name: {"unit": unit, **summary([r["notes"][name][0] for r in runs])}
                    for name, (_, unit) in runs[0]["notes"].items()}
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    sets = []
    for k in range(args.sets):
        print(f"set {k + 1} of {args.sets}", flush=True)
        sets.append({w: collect(spec, w, args.seeds, args.trace, bounds) for w in names})
        if args.out:  # written after every set, so a cut collection keeps its sets
            os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump({"run_seconds": spec["run_seconds"], "sets": sets}, fh, indent=1)
                fh.write("\n")


if __name__ == "__main__":
    main()
