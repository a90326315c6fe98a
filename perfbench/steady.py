#!/usr/bin/env python3
"""Steadiness check and baseline record for the repository benchmark.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10] [--sets 2]
                                [--noise-seed N --noise-runs R] [--record FILE]

Runs run.py once per (workload, seed) -- each set of runs uses every seed
once -- and prints, per end-to-end metric, the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median
against the metric's bound in BENCHMARK.json. A spread is steady when it is
below a third of the bound; setup_s included. With --sets 2 the seeds run
twice and the two sets' medians must agree: neither may differ from the
other by more than the bound, in either direction.

A spread over different seeds holds input variety (the seed changes the
data) as well as run-to-run noise. --noise-runs R adds R runs of the one
seed --noise-seed and reports their spread on its own: that is the noise
of the host and the program alone.

--record FILE also makes one traced run per workload on the held-out seed
and writes every raw value, the summaries and the configuration to FILE
(JSON). The held-out seed is never used while tuning; claims are checked on
it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HELDOUT_SEED = 7919


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if HELDOUT_SEED in seeds:
        sys.exit(f"seed {HELDOUT_SEED} is held out for checking claims")
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    result = json.loads(lines[-1])
    config = next((json.loads(l[len("# config: "):]) for l in lines
                   if l.startswith("# config: ")), None)
    return result, config, proc.stdout


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def differs_by(first, second):
    """Relative difference of `second` from `first`, signed."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    return (second - first) / first


def print_row(label, st, bound, steady):
    print(f"  {label:<22} {st['median']:>12.5g} {st['q1']:>12.5g} "
          f"{st['q3']:>12.5g} {st['spread']:>8.4f} {bound:>6.3f} "
          f"{'yes' if steady else 'NO':>4}")


def run_set(workload, seeds, seconds, metrics, label):
    runs, config = [], None
    for seed in seeds:
        result, config, _ = run_once(workload, seed, seconds, 0)
        if not result["correct"]:
            sys.exit(f"{workload} seed {seed}: incorrect output")
        runs.append(result)
        values = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.5g}"
                          for m in metrics)
        print(f"# {workload} {label} seed {seed}: attempted {result['attempted']} "
              f"failed {result['failed']} {values}", file=sys.stderr, flush=True)
    return runs, config


def main():
    bench = load_bench()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--noise-seed", type=int, default=1)
    ap.add_argument("--noise-runs", type=int, default=0)
    ap.add_argument("--record", metavar="FILE")
    args = ap.parse_args()
    seconds = bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    parse_seeds(str(args.noise_seed))  # refuses the held-out seed
    metrics = bench["end_to_end"]

    record = {"nproc": os.cpu_count(), "run_seconds": seconds,
              "seeds": seeds, "heldout_seed": HELDOUT_SEED, "workloads": {}}
    if args.noise_runs:
        record["noise_seed"] = args.noise_seed
    all_ok = True
    header = (f"  {'metric':<22} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6} {'ok':>4}")
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            runs, config = run_set(workload, seeds, seconds, metrics, f"set {s + 1}")
            sets.append(runs)
        noise = []
        if args.noise_runs:
            noise, _ = run_set(workload, [args.noise_seed] * args.noise_runs,
                               seconds, metrics, "noise")

        print(f"\n{workload} ({len(seeds)} seeds x {args.sets} set(s), "
              f"{seconds:g} s per run)")
        print(header)
        summary = {}
        for m in metrics:
            name = m["name"]
            per_set = []
            for i, runs in enumerate(sets):
                st = summarize([r["metrics"][name]["value"] for r in runs])
                steady = st["spread"] < m["bound"] / 3
                all_ok &= steady
                per_set.append(st)
                print_row(f"{name} set {i + 1}", st, m["bound"], steady)
            entry = {"unit": m["unit"], "sets": per_set,
                     "values": [[r["metrics"][name]["value"] for r in runs]
                                for runs in sets]}
            if len(per_set) == 2:
                diff = differs_by(per_set[0]["median"], per_set[1]["median"])
                agree = abs(diff) <= m["bound"]
                all_ok &= agree
                entry["set2_vs_set1"] = diff
                print(f"  {name + ' 2 vs 1':<22} differs by {diff:+.4f} "
                      f"(bound {m['bound']}) {'agree' if agree else 'DISAGREE'}")
            if noise:
                values = [r["metrics"][name]["value"] for r in noise]
                st = summarize(values)
                steady = st["spread"] < m["bound"] / 3
                all_ok &= steady
                entry["noise"] = st
                entry["noise_values"] = values
                print_row(f"{name} noise", st, m["bound"], steady)
            summary[name] = entry
        record["workloads"][workload] = {"config": config, "untraced": summary}

        if args.record:
            result, _, text = run_once(workload, HELDOUT_SEED, seconds, 1)
            record["workloads"][workload]["traced_heldout"] = {
                "metrics": result["metrics"],
                "table": text.splitlines()[:-1]}

    record["steady"] = all_ok
    if args.record:
        with open(args.record, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    print("\nsteady" if all_ok else "\nNOT steady")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
