"""Run the benchmark on several seeds and report each metric's median and spread.

Usage:
    python3 perfbench/spread.py --workloads default,sweep --seeds 1-10
                                [--trace 0|1] [--sets 2]

For every end-to-end metric it prints the median, the quartiles, and their
distance as a share of the median, against the bound in BENCHMARK.json.
With ``--sets 2`` it runs the seeds twice and also checks that the second
median is no worse than the first by more than the bound. With ``--trace 1``
it lists the count metrics that repeat exactly across the seeds.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        try:
            out, err = proc.communicate(timeout=900)
        finally:
            if proc.poll() is None:
                proc.terminate()  # run.py stops its own child on SIGTERM
                proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {err[-400:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / |median|)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / abs(median) if median else float("inf")


def worse_by(first: float, second: float, better: str) -> float:
    """Share of the first median by which the second is worse (negative: better)."""
    delta = (first - second) if better == "higher" else (second - first)
    return delta / abs(first) if first else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="default,sweep")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--sets", type=int, choices=[1, 2], default=1)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that run_once stops and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in bench["end_to_end" if args.trace == 0 else "per_layer"]}
    seeds = parse_seeds(args.seeds)
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for _ in range(args.sets):
            results = [run_once(workload, seed, bench["run_seconds"], args.trace) for seed in seeds]
            sets.append(results)
            bad = [s for s, r in zip(seeds, results) if not r["correct"] or r["failed"]]
            if bad:
                ok = False
                print(f"{workload}: seeds {bad} failed a check")
        print(f"\n== {workload}, trace {args.trace}, seeds {args.seeds}, {args.sets} set(s)")
        if args.trace:
            for name in declared:
                values = [r["metrics"].get(name, {}).get("value") for r in sets[0]]
                if declared[name]["unit"] == "count":
                    same = len(set(values)) == 1
                    print(f"   {name:<40} {values[0]!s:>12} {'repeats exactly' if same else 'VARIES: ' + str(values)}")
            continue
        for name, meta in declared.items():
            line = f"   {name:<22}"
            medians = []
            for results in sets:
                values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
                median, q1, q3, share = spread(values)
                medians.append(median)
                flag = "ok" if share <= meta["bound"] / 3 else ("within bound" if share <= meta["bound"] else "OVER BOUND")
                if share > meta["bound"] and name != "setup_s":
                    ok = False
                line += f" median {median:10.5g} q1 {q1:10.5g} q3 {q3:10.5g} spread {share:6.3f}/{meta['bound']} {flag};"
            if len(medians) == 2:
                worse = worse_by(medians[0], medians[1], meta["better"])
                ok &= worse <= meta["bound"]
                line += f" 2nd vs 1st worse by {worse:+.3f}"
            print(line)
    print("\nresult:", "steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
