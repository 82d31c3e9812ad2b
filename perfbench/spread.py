#!/usr/bin/env python3
"""Run workloads over several seeds and report each end-to-end metric's
median and spread (distance between the first and third quartile as a
share of the median), the way BENCHMARK.json's bounds are checked.

Usage, from the repository root:

    python3 perfbench/spread.py [--seeds 1,2,...] [--out FILE]
                                [--against FILE] [workload ...]

With no workload named, runs every workload in BENCHMARK.json, untraced.
A metric is flagged when its spread is above a third of its bound.
--out writes the runs in the schema of perfbench/baseline.json, so

    python3 perfbench/spread.py --out perfbench/baseline.json

re-measures the baseline. --against FILE compares each median with the
one in FILE (an earlier --out) and flags a metric whose median is worse
by more than its bound; with --out, the ratios are written too.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr}")
    lines = p.stdout.strip().splitlines()
    r = json.loads(lines[-1])
    # keep the printed workload outputs (virtual-time results and counts)
    # and the wall-clock times as measured, before scaling
    sections, title = {}, None
    for line in lines[:-1]:
        if not line.startswith("  "):
            title = line
        elif title in ("workload outputs", "wall-clock times as measured"):
            name, value, _unit = line.split()
            sections.setdefault(title, {})[name] = float(value)
    r["outputs"] = sections.get("workload outputs", {})
    r["measured"] = sections["wall-clock times as measured"]
    return r


def stats(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": round((q3 - q1) / med, 4),
            "values": values}


def summarize(results):
    return {name: {"unit": m["unit"], **stats([r["metrics"][name]["value"] for r in results])}
            for name, m in results[0]["metrics"].items()}


def worse_by(name, median, earlier, better):
    """How much worse [median] is than [earlier], as a share of it."""
    ratio = median / earlier
    return ratio - 1 if better[name] == "lower" else 1 - ratio


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workloads", nargs="*")
    p.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    p.add_argument("--out")
    p.add_argument("--against")
    a = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    earlier = {}
    if a.against:
        with open(a.against) as f:
            earlier = json.load(f)["workloads"]
    names = a.workloads or [w["name"] for w in bench["workloads"]]
    seeds = [int(s) for s in a.seeds.split(",")]
    report = {
        "about": "python3 perfbench/spread.py: workload seeds %s, engine seed 7, run_seconds %d, "
                 "untraced. Per end-to-end metric: median, first and third quartile "
                 "(statistics.quantiles n=4), spread = (q3 - q1) / median, and the values in "
                 "seed order. 'measured' gives the same for the wall-clock times as measured, "
                 "before scaling to the reference host speed, and for the host factor. "
                 "'outputs' holds the medians of the printed workload outputs; "
                 "'median_ratio' (with --against) this median over the earlier one."
                 % (a.seeds, bench["run_seconds"]),
        "workloads": {},
    }
    for w in names:
        results = []
        for s in seeds:
            r = run_once(w, s, bench["run_seconds"])
            if not r["correct"]:
                print(f"{w} seed {s}: output checks failed", file=sys.stderr)
            results.append(r)
        summary = summarize(results)
        before = earlier.get(w, {}).get("end_to_end", {})
        print(f"{w}: all correct = {all(r['correct'] for r in results)}")
        for name, s in summary.items():
            flags = []
            if s["spread"] > bounds[name] / 3:
                flags.append("spread above a third of the bound")
            against = ""
            if name in before:
                s["median_ratio"] = round(s["median"] / before[name]["median"], 4)
                against = f"  vs earlier {s['median_ratio']:.4f}"
                if worse_by(name, s["median"], before[name]["median"], better) > bounds[name]:
                    flags.append("median worse than the earlier one by more than the bound")
            print(f"  {name:14s} median {s['median']:.6g}  spread {s['spread']:.4f}"
                  f"  bound {bounds[name]}{against}" + "".join(f"  [{x}]" for x in flags))
        measured = {k: stats([r["measured"][k] for r in results])
                    for k in ("measured_setup_s", "measured_run_s", "host_factor")}
        print("  before scaling to the reference speed:" + "".join(
            f"  {k} median {v['median']:.6g} spread {v['spread']:.4f}" for k, v in measured.items()))
        sys.stdout.flush()
        outs = {k: statistics.median(r["outputs"][k] for r in results) for k in results[0]["outputs"]}
        report["workloads"][w] = {
            "seeds": seeds,
            "all_correct": all(r["correct"] for r in results),
            "end_to_end": summary,
            "measured": measured,
            "outputs": outs,
            "outputs_by_seed": {k: [r["outputs"][k] for r in results]
                                for k in ("p99_fault_ratio", "tput_fault_ratio")
                                if k in results[0]["outputs"]},
        }
    if a.out:
        with open(a.out, "w") as f:
            f.write(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
