#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of the same code.

Usage, from the root of a checkout:

    python3 perfbench/steady.py

It makes two sets of 10 runs of every workload in BENCHMARK.json, each run
as long as its run_seconds, alternating workloads, each run with its own
seed (set 1 uses seeds 1..10, set 2 seeds 11..20). For every end-to-end
metric it prints each set's median and quartiles (statistics.quantiles,
n=4), the quartile spread as a share of the median, and how much worse set
2's median is than set 1's, next to the metric's bound from BENCHMARK.json.
The bounds are set from this output. It also checks that every run was
correct and that the share of failed operations is the same in both sets.
The raw results go to perfbench/out/steady.json. Exits non-zero if any
spread or drift exceeds its bound.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
RUNS = 10


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def worse_by(metric, first, second):
    """Share by which the second median is worse than the first."""
    if metric["better"] == "lower":
        return second / first - 1
    return first / second - 1


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    started = time.time()
    for s in range(SETS):
        for i in range(RUNS):
            seed = s * RUNS + i + 1
            for w in workloads:
                res = run_once(w, seed, seconds)
                results[w][s].append(res)
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())),
                      file=sys.stderr, flush=True)

    ok = True
    print(f"{SETS} sets x {RUNS} runs x {len(workloads)} workloads, "
          f"{seconds} s each, {time.time() - started:.0f} s wall")
    for w in workloads:
        print(f"\n{w}")
        shares = set()
        for s in range(SETS):
            runs = results[w][s]
            if not all(r["correct"] for r in runs):
                print(f"  set {s + 1}: a run failed its checks")
                ok = False
            shares.add(tuple(sorted({(r["failed"], r["attempted"]) for r in runs})))
        if len(shares) != 1:
            print(f"  failed/attempted differs between sets: {shares}")
            ok = False
        print(f"  {'metric':<16}{'bound':>7}  " + "  ".join(
            f"{'set ' + str(s + 1) + ' median [q1, q3] spread':>40}" for s in range(SETS))
            + "  drift")
        for m in bench["end_to_end"]:
            cells, medians = [], []
            for s in range(SETS):
                med, q1, q3, spread = summary([r["metrics"][m["name"]]["value"] for r in results[w][s]])
                medians.append(med)
                flag = ""
                if spread > m["bound"]:
                    flag, ok = "!", False
                elif spread > m["bound"] / 3:
                    flag = "~"
                cells.append(f"{med:>11.4g} [{q1:.4g}, {q3:.4g}] {100 * spread:5.1f}%{flag:1}")
            line = f"  {m['name']:<16}{100 * m['bound']:>6.0f}%  " + "  ".join(f"{c:>40}" for c in cells)
            drift = worse_by(m, medians[0], medians[1])
            flag = "!" if drift > m["bound"] else ""
            ok = ok and not flag
            line += f"  {100 * drift:+5.1f}%{flag}"
            print(line)
    print("\n! exceeds the bound; ~ spread above a third of the bound")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w") as f:
        json.dump({"seconds": seconds, "results": results}, f)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
