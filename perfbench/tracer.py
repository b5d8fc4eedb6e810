"""Span tracer that wraps the public functions of the mixprec modules from outside.

Every public module-level function of the traced modules is replaced, in
every module that holds a reference to it, by a generic ``*args, **kwargs``
wrapper. The wrapper records one span (name, start, end, parent) per call
and a few counts taken from the call's arguments. Spans stay in memory and
are written out once, at the end of the run.

The program runs single-threaded under the benchmark, so one call stack
describes every span's parent.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from array import array
from collections import Counter
from pathlib import Path

TRACED_MODULES = (
    "cli", "toy_model", "quantizer", "metrics", "sensitivity", "allocator", "manifest", "tensor_core",
)

# Percentiles tried for the tail figure, highest first; the first one with at
# least TAIL_MIN_BEYOND samples above it is reported.
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("l")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.self_s = array("d")
        self._stack: list[list] = []  # [span index, time covered by child spans]
        self.stage = "none"
        self.counts: Counter = Counter()
        self.proxy_configs: set[str] = set()

    # ------------------------------------------------------------ install

    def install(self, package: str = "mixprec") -> None:
        """Wrap every public function of the traced modules."""
        modules = {}
        for short in TRACED_MODULES:
            try:
                modules[short] = importlib.import_module(f"{package}.{short}")
            except ImportError:
                continue  # a module a later version removed yields absent metrics
        wrappers = {}
        for short, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not callable(value) or isinstance(value, type):
                    continue
                if getattr(value, "__module__", None) != mod.__name__:
                    continue
                wrappers[id(value)] = self._wrap(f"{short}.{attr}", value)
        # Patch every reference, including names imported with ``from x import f``.
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        before, after = _HOOKS.get(name, (None, None))
        stack = self._stack
        starts, ends, parents, name_ids, self_s = self.starts, self.ends, self.parents, self.name_ids, self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                self._hook(before, args, kwargs, None)
            idx = len(starts)
            parents.append(stack[-1][0] if stack else -1)
            name_ids.append(nid)
            ends.append(0.0)
            self_s.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            starts.append(start)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                ends[idx] = end
                self_s[idx] = (end - start) - frame[1]
                if stack:
                    stack[-1][1] += end - start
                if after is not None:
                    self._hook(after, args, kwargs, result)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _hook(self, hook, args, kwargs, result) -> None:
        try:
            hook(self, args, kwargs, result)
        except (TypeError, ValueError, AttributeError, IndexError, KeyError, OSError):
            # A signature a later version changed loses that count, not the run.
            self.counts["trace.hook_errors"] += 1

    # ------------------------------------------------------------- report

    def function_stats(self) -> dict[str, dict]:
        """Per wrapped function: calls, inclusive and self seconds, latency quantiles."""
        durs: dict[int, list[float]] = {}
        selfs: dict[int, float] = {}
        for nid, s, e, own in zip(self.name_ids, self.starts, self.ends, self.self_s):
            durs.setdefault(nid, []).append(e - s)
            selfs[nid] = selfs.get(nid, 0.0) + own
        out = {}
        for nid, d in durs.items():
            d.sort()
            row = {"calls": len(d), "s": sum(d), "self_s": selfs[nid], "p50_ms": 1e3 * _nearest_rank(d, 50.0)}
            tail = tail_percentile(len(d))
            if tail is not None:
                row["tail_pct"] = tail
                row["tail_ms"] = 1e3 * _nearest_rank(d, tail)
            out[self.names[nid]] = row
        return out

    def dump(self, path: Path) -> None:
        """Write every span as JSON lines: name, start and end (s), parent span index."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as f:
            for nid, parent, s, e in zip(self.name_ids, self.parents, self.starts, self.ends):
                f.write(json.dumps([self.names[nid], round(s - t0, 9), round(e - t0, 9), parent]) + "\n")


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ``TAIL_MIN_BEYOND`` of ``n`` samples above it."""
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND:
            return pct
    return None


def _nearest_rank(sorted_values: list[float], pct: float) -> float:
    k = max(0, min(len(sorted_values) - 1, -(-len(sorted_values) * pct // 100) - 1))
    return sorted_values[int(k)]


# ------------------------------------------------------------------ hooks


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _forward_before(tr: Tracer, args, kwargs, _result) -> None:
    model, latent = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "latent")
    per_input = model.latent_channels * model.spatial * model.spatial
    tr.counts["toy_model.forward.inputs"] += max(1, latent.size // per_input)
    tr.counts[f"stage.{tr.stage}.forwards"] += 1


def _proxy_before(tr: Tracer, args, kwargs, _result) -> None:
    config = _arg(args, kwargs, 1, "config")
    tr.proxy_configs.add(json.dumps(config.to_json_dict(), sort_keys=True))


def _size_of(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


def _sha_before(tr: Tracer, args, kwargs, _result) -> None:
    tr.counts["tensor_core.sha256_file.bytes"] += _size_of([_arg(args, kwargs, 0, "path")])


def _save_after(tr: Tracer, _args, _kwargs, result) -> None:
    if result is not None:
        tr.counts["tensor_core.save_tensor.bytes"] += _size_of(result)


def _load_before(tr: Tracer, args, kwargs, _result) -> None:
    base = Path(_arg(args, kwargs, 0, "base_path"))
    tr.counts["tensor_core.load_tensor.bytes"] += _size_of(
        [base.parent / (base.name + ".bin"), base.parent / (base.name + ".json")]
    )


# name -> (hook before the call, hook after the call)
_HOOKS = {
    "toy_model.forward": (_forward_before, None),
    "allocator.proxy_score": (_proxy_before, None),
    "tensor_core.sha256_file": (_sha_before, None),
    "tensor_core.save_tensor": (None, _save_after),
    "tensor_core.load_tensor": (_load_before, None),
}
