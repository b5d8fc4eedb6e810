"""Run the stages of one pipeline in this (fresh) interpreter and time each.

Usage: python3 child.py SPEC.json

SPEC holds ``src`` (directory that must contain the ``mixprec`` package),
``stages`` (a list of ``[name, argv]`` pairs passed to ``mixprec.cli.main``;
the run stops at the first stage that fails), ``trace`` (wrap the public
functions and report per-function statistics), ``cpu`` (the one CPU to run on,
or null), ``log``, ``out`` and ``spans`` (paths). The result is written to
``out`` as JSON.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path


def _call_main(main, argv: list[str], log) -> int:
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # any escape is a failed stage, not a crashed benchmark
            traceback.print_exc(file=log)
            rc = 1
    return int(rc or 0)


def _timed(main, argv: list[str], log) -> dict:
    t0, c0 = time.perf_counter(), time.process_time()
    rc = _call_main(main, argv, log)
    return {"rc": rc, "s": time.perf_counter() - t0, "cpu_s": time.process_time() - c0}


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except (TypeError, AttributeError):
        pass
    threads = {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "threads": threads,
    }


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    env = environment() | {"cpu": spec.get("cpu")}  # nproc as the benchmark sees it, before pinning
    if spec.get("cpu") is not None:
        os.sched_setaffinity(0, {spec["cpu"]})
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import mixprec
    from mixprec import cli

    if not Path(mixprec.__file__).resolve().is_relative_to(src):
        print(f"mixprec imported from {mixprec.__file__}, not from {src}", file=sys.stderr)
        return 3

    tracer = None
    if spec.get("trace"):
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()

    result = {"env": env, "stages": []}
    with open(spec["log"], "w") as log:
        for name, argv in spec["stages"]:
            if tracer is not None:
                tracer.stage = name
            result["stages"].append({"name": name, **_timed(cli.main, argv, log)})
            if result["stages"][-1]["rc"]:
                break

    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["functions"] = tracer.function_stats()
        result["counts"] = dict(tracer.counts)
        result["proxy_distinct_configs"] = len(tracer.proxy_configs)
        tracer.dump(Path(spec["spans"]))
    Path(spec["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
