#!/usr/bin/env python3
"""Steadiness check: runs each workload N times with distinct seeds and
prints, per end-to-end metric, the median, the quartiles and the spread
(interquartile range over median) against the metric's bound.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workloads a,b]

Run from the root of a checkout (it calls perfbench/run.py there).  A
metric is steady when its spread is below a third of its bound; the
`setup_s` spread is reported but not held to that rule (its bound limits
the shift of its median between two sets of runs instead).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_one(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    t0 = time.time()
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    wall = time.time() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return None, wall, p.stdout
    return json.loads(lines[-1]), wall, p.stdout


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]

    ok_all = True
    for wl in names:
        values = {m: [] for m in bounds}
        walls = []
        for i in range(args.runs):
            seed = args.first_seed + i
            res, wall, raw = run_one(wl, seed, seconds)
            walls.append(wall)
            if res is None or not res["correct"]:
                print(f"{wl} seed {seed}: FAILED\n{raw}", flush=True)
                ok_all = False
                continue
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
            print(f"{wl} seed {seed}: {wall:.1f}s " + " ".join(
                f"{m}={res['metrics'][m]['value']:.4g}" for m in bounds),
                flush=True)
        print(f"\n{wl}: {len(values['setup_s'])} runs, wall per run "
              f"median {statistics.median(walls):.1f}s max {max(walls):.1f}s")
        print(f"  {'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}  verdict")
        for m, spec in bounds.items():
            v = values[m]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if m == "setup_s":
                verdict = "(not held to the spread rule)"
            elif spread < spec["bound"] / 3:
                verdict = "steady"
            elif spread <= spec["bound"]:
                verdict = "within bound, above a third of it"
                ok_all = False
            else:
                verdict = "TOO NOISY"
                ok_all = False
            print(f"  {m:<16}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                  f"{spread:>9.4f}{spec['bound']:>7.2f}  {verdict}")
        print(flush=True)
    return 0 if ok_all else 1


if __name__ == "__main__":
    sys.exit(main())
