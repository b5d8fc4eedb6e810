"""Fast self-check of the benchmark (about 10 s).

Usage: python3 perfbench/selfcheck.py

1. BENCHMARK.json agrees with the metric tables and workloads in run.py and
   keeps the format limits.
2. A tiny workload, untraced and traced, emits every declared metric with its
   unit and passes every output check.
3. The same workload with a stage that must fail (an infeasible FP-retention
   share makes allocate exit 4) raises the failure count.
4. Without the mixprec sources, run.py exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import run

TINY = run.Workload(
    "selfcheck-tiny",
    ("--width", "2", "--spatial", "4", "--inputs", "2", "--eval-inputs", "2", "--proxy-inputs", "2",
     "--n-budgets", "1", "--tokens", "2", "--text-channels", "2", "--time-dim", "2"),
    "tiny model; every stage runs in well under a second",
)
BROKEN = run.Workload("selfcheck-broken", TINY.flags + ("--retain-fp", "0.9"), "allocate is infeasible")

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_declaration(problems: list[str]) -> dict:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if set(bench) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        problems.append(f"BENCHMARK.json keys: {sorted(bench)}")
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if e2e != run.END_TO_END_UNITS:
        problems.append("end_to_end metrics differ from run.END_TO_END_UNITS")
    if layer != run.per_layer_units():
        problems.append("per_layer metrics differ from run.per_layer_units()")
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOADS):
        problems.append("workloads differ from run.WORKLOADS")
    for w in bench["workloads"]:
        if not NAME.match(w["name"]) or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w['name']!r} breaks the format")
    for m in bench["end_to_end"] + bench["per_layer"]:
        if not NAME.match(m["name"]) or not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            problems.append(f"metric {m['name']!r} breaks the format")
    for m in bench["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            problems.append(f"bound of {m['name']} is outside (0, 0.25]")
    setup = next((m for m in bench["end_to_end"] if m["name"] == "setup_s"), None)
    if setup is None or setup["bound"] < max(m["bound"] for m in bench["end_to_end"]):
        problems.append("setup_s must be declared with the largest bound")
    return bench


def check_emitted(result: dict, units: dict, what: str, problems: list[str]) -> None:
    if not result["correct"] or result["failed"]:
        problems.append(f"{what}: a check failed ({result['failed']} of {result['attempted']})")
    for name, unit in units.items():
        got = result["metrics"].get(name)
        if got is None or got["unit"] != unit or not isinstance(got["value"], (int, float)):
            problems.append(f"{what}: metric {name} missing or without unit {unit}")
    if set(result["metrics"]) - set(units):
        problems.append(f"{what}: undeclared metrics {sorted(set(result['metrics']) - set(units))}")


def check_bare_directory(problems: list[str]) -> None:
    bare = run.WORK / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "default", "--seed", "1", "--seconds", "1"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without sources run.py exited {proc.returncode} and printed {proc.stdout.strip()[:80]!r}")


def main() -> int:
    problems: list[str] = []
    check_declaration(problems)
    check_emitted(run.run_one(TINY, 1, 0, trace=False)[0], run.END_TO_END_UNITS, "untraced", problems)
    check_emitted(run.run_one(TINY, 1, 0, trace=True)[0], run.per_layer_units(), "traced", problems)
    broken = run.run_one(BROKEN, 1, 0, trace=False)[0]
    if broken["correct"] or broken["failed"] == 0:
        problems.append("a failing allocate stage did not raise the failure count")
    check_bare_directory(problems)
    for p in problems:
        print("PROBLEM", p)
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
