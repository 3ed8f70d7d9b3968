#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's spread.

    python3 perfbench/spread.py --workloads compile_suite,serve_warm \
        --seeds 1,2,3,4,5 --seconds 20 [--trace 0]

For every metric it prints the median over the seeds and the distance
between the first and third quartile as a share of the median, the figure
the benchmark's bounds are set against. Run from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="compile_suite,exact_oracle,serve_warm")
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    ok = True
    for w in a.workloads.split(","):
        values = {}
        for seed in a.seeds.split(","):
            cmd = bench["command"] + ["--workload", w, "--seed", seed,
                                      "--seconds", a.seconds, "--trace", a.trace]
            p = subprocess.run(cmd, capture_output=True, text=True)
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else "{}"
            result = json.loads(last)
            if p.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{w} seed {seed}: exit {p.returncode}, {last}", file=sys.stderr)
            for name, m in result.get("metrics", {}).items():
                values.setdefault(name, []).append(m["value"])
        print(f"{w} ({len(a.seeds.split(','))} seeds)")
        for name, vs in sorted(values.items()):
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0], vs[0], vs[0]]
            spread = (q[2] - q[0]) / med if med else float("nan")
            print(f"  {name:<32} median {med:<14.6g} spread {spread:7.3%}  {vs}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
