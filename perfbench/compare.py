#!/usr/bin/env python3
"""Run two sets of benchmark runs of the same code and compare them.

    python3 perfbench/compare.py

Each set runs every workload once per seed, seeds 1-10 in the
first set and 11-20 in the second, with the command and run length from
BENCHMARK.json.  For each end-to-end metric it prints each set's median
and quartile spread (the distance between the first and third quartiles
over the median, as statistics.quantiles(values, n=4) gives them), the
second median's change against the first, and whether the sets agree:
the change, either way, and every spread within the metric's bound.  The
spread of setup_s is printed but not held to the bound: set-up is a few
short timings of fresh processes, and on a shared 2-core machine their
spread over ten seeds reached 0.27; its two medians must still agree.
It also prints each run's share of failed operations, which must be the
same in every run.  Raw results go to .perfbench/compare-<time>.json.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = 10      # runs per set and workload


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    out = json.loads(lines[-1])
    out["stderr"] = proc.stderr
    return out


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    results: dict[str, list[list[dict]]] = {w: [] for w in names}
    for first in (1, 1 + SEEDS):
        for w in names:
            runs = []
            for seed in range(first, first + SEEDS):
                t0 = time.perf_counter()
                runs.append(run_once(bench["command"], w, seed, bench["run_seconds"]))
                print(f"{w} seed {seed}: {time.perf_counter() - t0:.1f} s, "
                      + ", ".join(f"{k}={v['value']:.4g}"
                                  for k, v in runs[-1]["metrics"].items()),
                      file=sys.stderr, flush=True)
            results[w].append(runs)

    ok = True
    print(f"{'workload':11s} {'metric':13s} {'bound':>6s}  {'median1':>10s} {'spread1':>8s}"
          f"  {'median2':>10s} {'spread2':>8s}   change   agree")
    for w in names:
        set1, set2 = results[w]
        for m in metrics:
            vals = [[r["metrics"][m["name"]]["value"] for r in runs] for runs in (set1, set2)]
            med1, med2 = (statistics.median(v) for v in vals)
            sp1, sp2 = (spread(v) for v in vals)
            change = med2 / med1 - 1.0
            good = abs(change) <= m["bound"] and (
                m["name"] == "setup_s" or max(sp1, sp2) <= m["bound"])
            ok = ok and good
            print(f"{w:11s} {m['name']:13s} {m['bound']:6.2f}  {med1:10.4g} {sp1:8.3f}"
                  f"  {med2:10.4g} {sp2:8.3f}  {change:+6.3f}   {'yes' if good else 'NO'}")
        runs = set1 + set2
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        ok = ok and len(shares) == 1 and correct
        print(f"{w:11s} failed share {', '.join(f'{x:.4f}' for x in sorted(shares))}; "
              f"the same in every run: {'yes' if len(shares) == 1 else 'NO'}; "
              f"all correct: {'yes' if correct else 'NO'}")

    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    path = os.path.join(ROOT, ".perfbench", f"compare-{int(time.time())}.json")
    with open(path, "w") as fh:
        json.dump(results, fh)
    print(f"raw results: {os.path.relpath(path, ROOT)}; overall: {'agree' if ok else 'DISAGREE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
