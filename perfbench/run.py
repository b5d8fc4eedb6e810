"""Benchmark of the mixprec pipeline, driven from outside through its CLI.

Usage:
    python3 perfbench/run.py --workload {default,sweep,all} [--seed N]
                             [--seconds S] [--trace 0|1]

Closed loops, one client per CPU (two at most), each client pinned to its own
CPU: pipelines (gen-model, sensitivity, allocate, evaluate) run in rounds, one
per client, each in a fresh single-threaded interpreter that calls
``mixprec.cli.main`` once per stage. Two rounds run, and more while one more
fits in ``--seconds``. Every pipeline's outputs are checked; see checks.py.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json (medians over
the pipelines of the run). ``--trace 1`` runs one pipeline with every public
function of the mixprec modules wrapped (tracer.py) and, alongside it on the
other CPU, one without, and reports the per-layer metrics. ``--workload all``
runs both modes on every workload and prints a readable report.

The last line of stdout is one JSON object: correct, attempted, failed, metrics.
Details of each run (environment, per-pipeline times, checks, the static cost
table, per-function statistics) go to .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# The model (weights and calibration set) is the workload's fixed reference,
# seed 7; --seed draws the held-out evaluation inputs. Allocation quality over
# model seeds spans 2.1-12.3 dB, too wide for a bound on a quality metric.
MODEL_SEED = 7
RUN_LIMIT_S = 170.0  # a run must end within 180 s
# Extra gen-model runs, each in its own fresh interpreter, before the first
# round of pipelines and after each one. With the pipelines' own gen-model
# stages they give the setup_s median: a fresh interpreter's gen-model, as a
# user runs it, sampled in many processes and at many moments of the run.
SETUP_PROCS = 6
# Rounds of pipelines per run: MIN_ROUNDS (unless a round nears the run limit),
# so that no median rests on one moment of the host, and more while one more
# fits in --seconds.
MIN_ROUNDS = 2
# One client per CPU, two at most, each pinned to its CPU. On a shared host each
# vCPU slows down and speeds up on its own; over ten seeds, run medians spread
# 0.07-0.13 of their median with two pinned clients and 0.14-0.29 with one
# (see README.md).
CPUS = sorted(os.sched_getaffinity(0))[:2] if hasattr(os, "sched_getaffinity") else [None]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    flags: tuple[str, ...]
    why: str
    weight_target: float = 4.0  # the CLI defaults; no workload overrides them
    act_target: float = 8.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "default", (),
            "stock flags; sensitivity is ~80% of the time in ~5.7k tiny forwards, so batching and prefix caching show",
        ),
        Workload(
            "sweep", ("--inputs", "4", "--n-budgets", "10", "--proxy-inputs", "16"),
            "allocate-bound: 150 fully quantized proxy scorings and 310 MCKP solves; FP-prefix caching should not move it",
        ),
    )
}

STAGES = ("gen_model", "sensitivity", "allocate", "evaluate")

END_TO_END_UNITS = {
    "pipeline_s": "s", "setup_s": "s", "sensitivity_s": "s", "peak_rss_mb": "MB",
    "eval_sqnr_db": "dB", "eval_ssim": "1", "uniform_noise_ratio": "1",
}

# Per-layer metrics taken from the traced run's per-function statistics.
FUNCTION_METRICS = {
    "toy_model.forward": ("calls", "self_s", "p50_ms", "tail_ms", "tail_pct"),
    "sensitivity.probe_layer": ("calls", "p50_ms", "tail_ms", "tail_pct"),
    "sensitivity.fp_references": ("calls", "s"),
    "sensitivity.analyze": ("s",),
    "allocator.proxy_score": ("calls", "self_s"),
    "allocator.solve_mckp": ("calls", "self_s", "p50_ms", "tail_ms", "tail_pct"),
    "allocator.allocate": ("s",),
    "metrics.ssim": ("calls", "self_s"),
    "metrics.sqnr_db": ("calls", "self_s"),
    "quantizer.fake_quant": ("calls", "self_s"),
    "quantizer.bos_aware_linear": ("calls", "self_s"),
    "toy_model.calibrate_activations": ("calls", "s"),
    "toy_model.make_input_set": ("s",),
    "toy_model.build_toy_unet": ("s",),
    "toy_model.save_model": ("s",),
    "toy_model.load_model": ("s",),
    "manifest.verify_artifacts": ("s",),
    "manifest.record_checksums": ("s",),
    "tensor_core.sha256_file": ("calls", "s"),
    "tensor_core.save_tensor": ("calls", "s"),
    "tensor_core.load_tensor": ("calls", "s"),
}
STAT_UNITS = {"calls": "count", "s": "s", "self_s": "s", "p50_ms": "ms", "tail_ms": "ms", "tail_pct": "%"}
COUNT_METRICS = {
    "toy_model.forward.inputs": "count",
    **{f"stage.{s}.forwards": "count" for s in STAGES},
    **{f"tensor_core.{f}.bytes": "B" for f in ("sha256_file", "save_tensor", "load_tensor")},
}


def per_layer_units() -> dict[str, str]:
    units = {f"{fn}.{stat}": STAT_UNITS[stat] for fn, stats in FUNCTION_METRICS.items() for stat in stats}
    units.update(COUNT_METRICS)
    units["toy_model.forward.gmac_per_s"] = "GMAC/s"
    units["allocator.proxy_score.unique_ratio"] = "1"
    units.update({f"stage.{s}.s": "s" for s in STAGES})
    units["trace.pipeline_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


# ------------------------------------------------------------------ children


class Run:
    """State of one benchmark run: its work directory, deadline and check tally."""

    def __init__(self, workload: Workload, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.dir = WORK / f"{workload.name}-s{seed}-t{int(trace)}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.attempted = 0
        self.failures: list[str] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def tally(self, what: str, reason: str | None) -> bool:
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{what}: {reason}")
        return reason is None

    def children(self, jobs: list[tuple[str, list, dict]]) -> list[dict]:
        """Run jobs of (tag, stages, options), one fresh interpreter each (see
        child.py), in rounds of one per CPU in CPUS. Returns each job's result,
        or {"error": ...}."""
        results = []
        for i in range(0, len(jobs), len(CPUS)):
            started = []
            try:
                for cpu, (tag, stages, options) in zip(CPUS, jobs[i:i + len(CPUS)]):
                    started.append(self._start(tag, stages, cpu=cpu, **options))
                results += [self._collect(proc, spec) for proc, spec in started]
            finally:
                for proc, _ in started:
                    if proc.poll() is None:
                        proc.kill()
                        proc.wait()
        return results

    def _start(self, tag: str, stages, **options) -> tuple[subprocess.Popen, dict]:
        base = self.dir / tag
        spec = {
            "src": str(SRC), "stages": stages, **options,
            "log": str(base) + ".log", "out": str(base) + ".out.json", "spans": str(base) + ".spans.jsonl",
            "stderr": str(base) + ".stderr",
        }
        spec_path = Path(str(base) + ".spec.json")
        spec_path.write_text(json.dumps(spec))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env.update({k: "1" for k in THREAD_VARS})
        env["PYTHONHASHSEED"] = "0"
        with open(spec["stderr"], "w") as err:
            proc = subprocess.Popen(
                [sys.executable, "-s", str(HERE / "child.py"), str(spec_path)],
                env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err,
            )
        return proc, spec

    def _collect(self, proc: subprocess.Popen, spec: dict) -> dict:
        timeout = max(1.0, RUN_LIMIT_S - self.elapsed())
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return {"error": f"timed out after {timeout:.0f} s"}
        if proc.returncode != 0 or not Path(spec["out"]).exists():
            stderr = Path(spec["stderr"]).read_text(errors="replace").strip()
            return {"error": f"child exited {proc.returncode}: {stderr[-400:]}"}
        out = json.loads(Path(spec["out"]).read_text())
        out["spans_path"] = spec["spans"]
        return out

    def gen_argv(self, out_dir: Path) -> list[str]:
        return ["gen-model", "--out-dir", str(out_dir), "--seed", str(MODEL_SEED), "--eval-seed", str(self.seed),
                *self.workload.flags]

    def setup_samples(self, tag: str) -> list[float]:
        """gen-model wall times, each in a fresh interpreter."""
        jobs = [(f"{tag}-{j}", [["gen_model", self.gen_argv(self.dir / f"{tag}-{j}")]], {}) for j in range(SETUP_PROCS)]
        samples = []
        for j, res in enumerate(self.children(jobs)):
            ran = res.get("stages", [])
            reason = res.get("error") or (None if ran[0]["rc"] == 0 else f"exit code {ran[0]['rc']}")
            if self.tally(f"{tag}-{j} setup gen-model", reason):
                samples.append(ran[0]["s"])
        return samples

    def pipelines(self, first: int, traces: list[bool]) -> list[dict]:
        """One pipeline per entry of traces, in rounds on all CPUs, each with its output checks."""
        jobs = []
        for index, trace in enumerate(traces, first):
            tree = self.dir / f"p{index}" / "tree"
            manifest = str(tree / "manifest.json")
            stages = [["gen_model", self.gen_argv(tree)]] + [[s, [s, "--manifest", manifest]] for s in STAGES[1:]]
            jobs.append((f"p{index}", stages, {"trace": trace}))
        return [self.check_pipeline(tag, res) for (tag, _, _), res in zip(jobs, self.children(jobs))]

    def check_pipeline(self, tag: str, res: dict) -> dict:
        """Tally one pipeline's stages and output checks; returns its record."""
        tree = self.dir / tag / "tree"
        ran = res.get("stages", [])
        for i, name in enumerate(STAGES):
            if i >= len(ran):
                reason = res.get("error", "not reached")
            else:
                reason = None if ran[i]["rc"] == 0 else f"exit code {ran[i]['rc']}"
            self.tally(f"{tag} stage {name}", reason)
        record = {"tree": tree, "result": res, "ok": len(ran) == len(STAGES) and all(st["rc"] == 0 for st in ran)}
        if not record["ok"]:
            for what in ("checksums", "bits", "finite"):
                self.tally(f"{tag} {what}", "pipeline did not finish")
            return record
        record["stage_s"] = {st["name"]: st["s"] for st in ran}
        record["digest"] = checks.tree_digest(tree)
        self.tally(f"{tag} checksums", checks.checksums_verify(tree))
        self.tally(f"{tag} bits", checks.bits_within_targets(tree, self.workload.weight_target, self.workload.act_target))
        self.tally(f"{tag} finite", checks.report_finite(tree / "report.json"))
        return record

    def identical(self, records: list[dict]) -> None:
        """Each finished tree must equal the first tree of this workload, seed and source.

        The first tree's digest is kept under WORK/digests, keyed by a digest of
        the mixprec sources and the workload's flags, so runs of one set compare
        with each other and a changed program starts a new set.
        """
        key = checks.digest_of([self.workload.name, *self.workload.flags, str(self.seed), checks.tree_digest(SRC, "*.py")])
        ref_path = WORK / "digests" / key
        for i, r in enumerate(records):
            if not r["ok"]:
                continue  # its stages already count as failed
            if not ref_path.exists():
                ref_path.parent.mkdir(parents=True, exist_ok=True)
                ref_path.write_text(r["digest"])
                continue
            self.tally(f"p{i} identical", checks.identical_tree(r["digest"], ref_path.read_text()))

    def uniform_sqnr(self, tree: Path) -> float | None:
        """Score uniform W/A bits at the workload's targets on a copy of the run tree."""
        copy = self.dir / "uniform"
        shutil.copytree(tree, copy)
        layers = [row["id"] for row in checks.cost_table(copy / "model.json")]
        bits = {"weight": int(self.workload.weight_target), "activation": int(self.workload.act_target)}
        config = {"layers": {lid: dict(bits) for lid in layers}, "fp_retained": {}, "summary": {}}
        (copy / "uniform.json").write_text(json.dumps(config, sort_keys=True, indent=2) + "\n")
        argv = ["evaluate", "--manifest", str(copy / "manifest.json"), "--config", "uniform.json"]
        [res] = self.children([("uniform", [["evaluate_uniform", argv]], {})])
        stages = res.get("stages", [])
        reason = res.get("error") or (None if stages and stages[0]["rc"] == 0 else "uniform evaluate failed")
        if reason is None:
            reason = checks.report_finite(copy / "report.json")
        if not self.tally("uniform evaluate", reason):
            return None
        return checks.report_means(copy / "report.json")[0]


def _quartiles(values):
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


# ------------------------------------------------------------------ modes


def run_untraced(workload: Workload, seed: int, seconds: float) -> tuple[dict, dict]:
    run = Run(workload, seed, trace=False)
    setups = run.setup_samples("setup0")
    records = run.pipelines(0, [False] * len(CPUS))
    rounds = 1
    setups += run.setup_samples("setup1")

    def next_round_ends_by(limit: float) -> bool:
        return run.elapsed() * (rounds + 1) / rounds <= limit

    while next_round_ends_by(min(seconds, RUN_LIMIT_S - 10)) or (
        rounds < MIN_ROUNDS and next_round_ends_by(RUN_LIMIT_S - 10)
    ):
        records += run.pipelines(len(records), [False] * len(CPUS))
        rounds += 1
        setups += run.setup_samples(f"setup{rounds}")
    run.identical(records)

    metrics: dict[str, float] = {}
    details: dict = {"pipelines": []}
    good = [r for r in records if r["ok"]]
    for r in records:
        res = r["result"]
        details["pipelines"].append(
            {key: res.get(key) for key in ("stages", "maxrss_kb", "error")} | {"digest": r.get("digest")}
        )
    if good:
        pipe = [sum(r["stage_s"].values()) for r in good]
        metrics["pipeline_s"] = statistics.median(pipe)
        setups += [r["stage_s"]["gen_model"] for r in good]
        metrics["setup_s"] = statistics.median(setups)
        metrics["sensitivity_s"] = statistics.median([r["stage_s"]["sensitivity"] for r in good])
        metrics["peak_rss_mb"] = statistics.median([r["result"]["maxrss_kb"] / 1024.0 for r in good])
        first = good[0]["tree"]
        sqnr, ssim = checks.report_means(first / "report.json")
        metrics["eval_sqnr_db"], metrics["eval_ssim"] = sqnr, ssim
        uniform = run.uniform_sqnr(first)
        if uniform is not None:
            gap = sqnr - uniform
            metrics["uniform_noise_ratio"] = 10.0 ** (-gap / 10.0)
            details["uniform_sqnr_db"] = uniform
            details["uniform_gap_db"] = gap
        details["spread"] = {
            "pipeline_s": _quartiles(pipe), "setup_s": _quartiles(setups),
            "n_pipelines": len(good), "n_setups": len(setups),
        }
        details["setup_samples_s"] = setups
        details["cost_table"] = checks.cost_table(first / "model.json")
        details["env"] = good[0]["result"]["env"]
    return finish(run, metrics, END_TO_END_UNITS, details, required=END_TO_END_UNITS)


def run_traced(workload: Workload, seed: int) -> tuple[dict, dict]:
    run = Run(workload, seed, trace=True)
    traced, plain = run.pipelines(0, [True, False])
    run.identical([traced, plain])
    metrics: dict[str, float] = {}
    details: dict = {}
    res = traced["result"]
    if traced["ok"]:
        funcs, counts = res["functions"], res["counts"]
        for fn, stats in FUNCTION_METRICS.items():
            for stat in stats:
                if stat in funcs.get(fn, {}):
                    metrics[f"{fn}.{stat}"] = funcs[fn][stat]
        for name in COUNT_METRICS:
            if name in counts or name.startswith("stage."):
                metrics[name] = counts.get(name, 0)
        costs = checks.cost_table(traced["tree"] / "model.json")
        fwd = funcs.get("toy_model.forward")
        if fwd and "toy_model.forward.inputs" in counts:
            macs = sum(row["mac_count"] for row in costs)
            metrics["toy_model.forward.gmac_per_s"] = macs * counts["toy_model.forward.inputs"] / fwd["s"] / 1e9
        proxy = funcs.get("allocator.proxy_score")
        if proxy:
            metrics["allocator.proxy_score.unique_ratio"] = res["proxy_distinct_configs"] / proxy["calls"]
        metrics["trace.pipeline_s"] = sum(traced["stage_s"].values())
        if plain["ok"]:
            metrics["trace.overhead_s"] = metrics["trace.pipeline_s"] - sum(plain["stage_s"].values())
            for stage, seconds in plain["stage_s"].items():
                metrics[f"stage.{stage}.s"] = seconds
        details = {"functions": funcs, "counts": counts, "cost_table": costs, "env": res["env"]}
        spans = WORK / "results" / f"{workload.name}-seed{seed}-spans.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        shutil.move(res["spans_path"], spans)
        details["spans"] = str(spans.relative_to(ROOT))
    # A per-layer metric of a function a later version renames or removes is
    # absent rather than failed.
    return finish(run, metrics, per_layer_units(), details, required=())


def finish(run: Run, metrics: dict, units: dict, details: dict, required) -> tuple[dict, dict]:
    shutil.rmtree(run.dir, ignore_errors=True)
    failed = len(run.failures)
    result = {
        "correct": failed == 0 and all(name in metrics for name in required),
        "attempted": max(1, run.attempted),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }
    details.update(
        workload=run.workload.name, seed=run.seed, flags=list(run.workload.flags), failures=run.failures,
        failed_ratio=failed / max(1, run.attempted), wall_s=run.elapsed(),
    )
    return result, details


def save_details(details: dict, trace: bool) -> Path:
    out = WORK / "results" / f"{details['workload']}-seed{details['seed']}-trace{int(trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(details, indent=1, default=str) + "\n")
    return out


def run_one(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    result, details = run_traced(workload, seed) if trace else run_untraced(workload, seed, seconds)
    path = save_details(details, trace)
    info = {
        "workload": workload.name, "seed": seed, "trace": int(trace), "details": str(path.relative_to(ROOT)),
        "failed_ratio": details["failed_ratio"], "failures": details["failures"][:5],
    }
    for key in ("uniform_gap_db", "uniform_sqnr_db", "env"):
        if key in details:
            info[key] = details[key]
    print("info " + json.dumps(info), flush=True)
    return result, details


def report_all(seed: int, seconds: float) -> dict:
    """Both modes on every workload, printed as a table; returns the combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for workload in WORKLOADS.values():
        for trace in (False, True):
            result, details = run_one(workload, seed, seconds, trace)
            print(f"\n== {workload.name} ({'traced' if trace else 'untraced'}), seed {seed}: {workload.why}")
            if not trace:
                print(f"   env: {json.dumps(details.get('env'))}")
                extra = {"failed_ratio": (details["failed_ratio"], "1")}
                if "uniform_gap_db" in details:
                    extra["uniform_gap_db"] = (details["uniform_gap_db"], "dB")
                rows = [(k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
                rows += [(k, v, u) for k, (v, u) in extra.items()]
            else:
                rows = [(k, v["value"], v["unit"]) for k, v in sorted(result["metrics"].items())]
            for name, value, unit in rows:
                label = " (computed)" if name.endswith("gmac_per_s") else ""
                print(f"   {name:<40} {value:>14.6g} {unit}{label}")
            if not trace and details.get("cost_table"):
                print(f"   {'layer':<28} {'param_count':>12} {'act_elem_count':>15} {'mac_count':>12}")
                for row in details["cost_table"]:
                    print(f"   {row['id']:<28} {row['param_count']:>12} {row['act_elem_count']:>15} {row['mac_count']:>12}")
            for failure in details["failures"]:
                print(f"   FAILED {failure}")
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["workloads"][f"{workload.name}{'.traced' if trace else ''}"] = result["metrics"]
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7, help="draws the held-out evaluation inputs")
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "mixprec" / "cli.py").is_file():
        print(f"error: no mixprec sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = report_all(args.seed, args.seconds)
    else:
        result, _ = run_one(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
