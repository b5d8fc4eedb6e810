"""Batch pipeline driver: gen-model, sensitivity, allocate, evaluate.

``gen-model`` takes every setting of a run as a flag and records it in the
run's manifest. Every later stage takes only ``--manifest`` (and ``evaluate``
an optional ``--config`` to score), and reads its settings from the manifest's
params and seeds alone, so the manifest is the run's one record. Each stage
reads and writes the run directory's fixed layout (``manifest.LAYOUT``) and is
a pure function of the manifest and those files; re-running a stage reproduces
byte-identical artifacts. ``sensitivity`` writes a table only for a kind whose
target is below the grid's top width (``allocator.needs_table``), and
``allocate`` reads only those. Exit codes: 0 success, 2 usage,
3 validation, 4 infeasible budget, 5 I/O.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import allocator, manifest as mf, metrics, quantizer, sensitivity, toy_model
from .errors import (
    ConfigError,
    InfeasibleBudgetError,
    InputError,
    ParameterError,
    ShapeError,
    UndefinedMetricError,
    ValidationError,
)
from .sensitivity import ACTIVATION, WEIGHT, SensitivityTable
from .tensor_core import derive_seed

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_INFEASIBLE = 4
EXIT_IO = 5


# Value rules shared by the flags and the manifest params they set. A JSON value
# must already have the flag's type: `type(...)` rejects bools and numeric strings.


def _check_int(value, minimum: int, what: str) -> int:
    if type(value) is not int:
        raise ParameterError(f"{what} must be an integer")
    if value < minimum:
        raise ParameterError(f"{what} must be >= {minimum}")
    return value


def _check_count(value, what: str) -> int:
    """An input-set size: an integer from 1 to ``toy_model.MAX_INPUTS``."""
    value = _check_int(value, 1, what)
    toy_model.check_input_count(value)
    return value


def _check_number(value, what: str) -> float:
    if type(value) not in (int, float):
        raise ParameterError(f"{what} must be a number")
    return float(value)


def _check_bool(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise ParameterError(f"{what} must be true or false")
    return value


def _check_bits(value) -> list[int]:
    grid = quantizer.BIT_WIDTHS
    if type(value) is not list or not value or any(type(b) is not int or b not in grid for b in value):
        raise ParameterError(f"bits must be a non-empty subset of {','.join(map(str, grid))}")
    return sorted(set(value))


def _check_target(value) -> float | None:
    if value is None:
        return None
    value = _check_number(value, "target bits")
    if not 2 <= value <= 8:
        raise ParameterError("target bits must lie in [2, 8]")
    return value


def _check_n_budgets(value) -> int:
    """Budgets per allocation sweep: swept over either kind's ratio grid, they
    must fit ``allocator.MAX_SWEEP_CELLS``."""
    value = _check_int(value, 1, "n_budgets")
    for grid in (allocator.DEFAULT_RATIO_GRID_WEIGHT, allocator.DEFAULT_RATIO_GRID_ACT):
        allocator.check_sweep_cells(value, len(grid))
    return value


def _flag_type(convert, check, bad_text: str):
    """An argparse type: ``convert`` the text, then apply ``check``, the rule its manifest param gets too."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(bad_text)
        try:
            return check(value)
        except ParameterError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return parse


def _int_at_least(minimum: int, what: str):
    return _flag_type(int, lambda v: _check_int(v, minimum, what), f"{what} must be an integer")


def _input_count(what: str):
    return _flag_type(int, lambda v: _check_count(v, what), f"{what} must be an integer")


def _even_int_at_least(minimum: int, what: str):
    base = _int_at_least(minimum, what)

    def parse(text: str) -> int:
        value = base(text)
        if value % 2:
            raise argparse.ArgumentTypeError(f"{what} must be even")
        return value

    return parse


_bits_list = _flag_type(
    lambda text: [int(tok) for tok in text.split(",") if tok.strip()],
    _check_bits,
    "bits must be a comma-separated list of integers",
)
_target_bits = _flag_type(
    lambda text: None if text.lower() in ("fp", "fp16", "none") else float(text),
    _check_target,
    "target bits must be a number or 'fp'",
)
_delta_bits = _flag_type(float, allocator.check_delta_avg_bits, "delta bits must be a number")
_n_budgets = _flag_type(int, _check_n_budgets, "n_budgets must be an integer")

# Every manifest param a stage reads, checked by the rule of the flag that sets it.
_PARAM_CHECKS = {
    "inputs": lambda v: _check_count(v, "inputs"),
    "bits": _check_bits,
    "bos_aware": lambda v: _check_bool(v, "bos_aware"),
    "target_bits": _check_target,
    "act_target_bits": _check_target,
    "proxy_inputs": lambda v: _check_count(v, "proxy_inputs"),
    "eval_inputs": lambda v: _check_count(v, "eval_inputs"),
    "n_budgets": _check_n_budgets,
    "delta_avg_bits": allocator.check_delta_avg_bits,
}


def _checked_params(data: dict) -> dict:
    """The manifest's params, each one a stage reads checked; a bad or missing one is a ValidationError."""
    checked = dict(data["params"])
    for key, check in _PARAM_CHECKS.items():
        if key not in checked:
            raise ValidationError(f"manifest params lack {key!r}")
        try:
            checked[key] = check(checked[key])
        except ParameterError as exc:
            raise ValidationError(f"manifest params.{key}: {exc}") from exc
    return checked


# Every manifest seed. The input seeds key Philox streams, which take no negative
# seed; the model seed only derives other seeds, so any integer will do.
_SEED_MINIMUMS = {"model": -math.inf, "calibration": 0, "proxy": 0, "eval": 0}


def _checked_seeds(data: dict) -> dict:
    """The manifest's seeds, each checked; a bad or missing one is a ValidationError."""
    seeds = data["seeds"]
    for key, minimum in _SEED_MINIMUMS.items():
        if key not in seeds:
            raise ValidationError(f"manifest seeds lack {key!r}")
        try:
            _check_int(seeds[key], minimum, "seed")
        except ParameterError as exc:
            raise ValidationError(f"manifest seeds.{key}: {exc}") from exc
    return seeds


def _targets(params: dict) -> dict[str, float]:
    """The target average bits of each tensor kind the run allocates, weights first;
    a kind whose target is FP is left out. A run that allocates neither is invalid."""
    targets = {
        kind: params[key]
        for kind, key in ((WEIGHT, "target_bits"), (ACTIVATION, "act_target_bits"))
        if params[key] is not None
    }
    if not targets:
        raise ValidationError("nothing to allocate: both weight and activation targets are FP")
    return targets


def _table_kinds(params: dict) -> tuple[str, ...]:
    """The kinds whose sensitivity tables allocate reads: a target at or above the grid's top width needs none."""
    return tuple(kind for kind, target in _targets(params).items() if allocator.needs_table(target, params["bits"]))


class _UsageError(Exception):
    """A combination of flags that no single flag's parser can reject; exits 2."""


def _fmt(value: float) -> str:
    return repr(float(value))


# ---------------------------------------------------------------- gen-model


def run_gen_model(args) -> int:
    if args.target_bits is None and args.act_target_bits is None:
        raise _UsageError("nothing to allocate: --target-bits and --act-target-bits are both fp")
    try:
        toy_model.check_model_size(
            args.width, args.depth, spatial=args.spatial, latent_channels=args.latent_channels,
            text_tokens=args.tokens, text_channels=args.text_channels, time_dim=args.time_dim,
        )
    except ParameterError as exc:
        raise _UsageError(str(exc)) from exc
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    mf.check_layout(out_dir.resolve())
    model = toy_model.build_toy_unet(
        seed=args.seed,
        width=args.width,
        depth=args.depth,
        spatial=args.spatial,
        latent_channels=args.latent_channels,
        text_tokens=args.tokens,
        text_channels=args.text_channels,
        time_dim=args.time_dim,
    )

    seeds = {
        "model": args.seed,
        "calibration": derive_seed(args.seed, "calibration"),
        "proxy": derive_seed(args.seed, "proxy"),
        "eval": args.eval_seed if args.eval_seed is not None else derive_seed(args.seed, "eval"),
    }
    params = {
        "width": args.width,
        "depth": args.depth,
        "spatial": args.spatial,
        "latent_channels": args.latent_channels,
        "text_tokens": args.tokens,
        "text_channels": args.text_channels,
        "time_dim": args.time_dim,
        "inputs": args.inputs,
        "bits": args.bits,
        "bos_aware": args.bos_aware,
        "target_bits": args.target_bits,
        "act_target_bits": args.act_target_bits,
        "proxy_inputs": args.proxy_inputs,
        "eval_inputs": args.eval_inputs,
        "n_budgets": args.n_budgets,
        "delta_avg_bits": args.delta_bits,
    }
    # The digests of the bytes just written, without reading the files back
    digests = toy_model.save_model(model, out_dir / mf.MODEL_JSON, out_dir / mf.WEIGHTS_DIR)
    checksums = {rel: digests[out_dir / rel] for rel in mf.model_artifact_paths(model.layer_order)}
    data = {"version": mf.MANIFEST_VERSION, "seeds": seeds, "params": params, "checksums": checksums}
    mf.write_json(out_dir / "manifest.json", data)
    print(f"model: {len(model.layer_order)} layers -> {out_dir / mf.MODEL_JSON}")
    print(f"manifest: {out_dir / 'manifest.json'}")
    return EXIT_OK


def _load_model_checked(data: dict, root: Path) -> toy_model.ToyModel:
    """The model, parsed from the bytes of its JSON and then its weights, each once they match their checksums."""
    def load(raw: bytes) -> toy_model.ToyModel:
        meta = mf.read_json(raw)
        ids = [row["id"] for row in meta["layers"]]
        found = mf.verify_artifacts(data, root, mf.model_artifact_paths(ids)[1:])  # .bin, sidecar, by layer
        return toy_model.load_model(meta, root / mf.WEIGHTS_DIR, dict(zip(ids, zip(found[::2], found[1::2]))))

    [model_json] = mf.verify_artifacts(data, root, [mf.MODEL_JSON])
    return mf.read_artifact(root / mf.MODEL_JSON, model_json, "model description", load)


# --------------------------------------------------------------- sensitivity


def run_sensitivity(args) -> int:
    data, root = mf.load_manifest(args.manifest)
    model = _load_model_checked(data, root)
    params = _checked_params(data)
    seeds = _checked_seeds(data)
    bits = params["bits"]
    kinds = _table_kinds(params)
    if not kinds:
        print("sensitivity: no table needed; every allocated target is at or above the grid's top width")
        return EXIT_OK

    inputs = toy_model.make_input_set(seeds["calibration"], params["inputs"], model)
    # One analysis for both kinds shares their FP references, ranges and walk.
    tables = sensitivity.analyze(model, inputs, bit_widths=bits, tensor_kind=kinds, bos_aware=params["bos_aware"])
    written = []
    for kind in kinds:
        table = tables.of_kind(kind)
        table.validate_complete(model.layer_order, bits, kind)
        rel = mf.table_path(kind)
        mf.write_atomic(root / rel, table.to_jsonl())
        written.append(rel)
        print(f"sensitivity[{kind}]: {len(table.entries)} entries -> {root / rel}")
    mf.record_checksums(data, root, written)
    mf.write_json(root / Path(args.manifest).name, data)
    return EXIT_OK


# ------------------------------------------------------------------ allocate


def run_allocate(args) -> int:
    data, root = mf.load_manifest(args.manifest)
    model = _load_model_checked(data, root)
    params = _checked_params(data)
    seeds = _checked_seeds(data)
    targets = _targets(params)
    bos_aware = params["bos_aware"]
    options = allocator.AllocOptions(
        bit_widths=tuple(params["bits"]),
        n_budgets=params["n_budgets"],
        delta_avg_bits=params["delta_avg_bits"],
        proxy_inputs=params["proxy_inputs"],
        proxy_seed=seeds["proxy"],
        bos_aware=bos_aware,
    )

    kinds = _table_kinds(params)
    rels = [mf.table_path(kind) for kind in kinds]
    tables = {
        kind: mf.read_artifact(root / rel, raw, "table", lambda raw: SensitivityTable.from_jsonl(raw.decode("utf-8")))
        for kind, rel, raw in zip(kinds, rels, mf.verify_artifacts(data, root, rels))
    }
    act_ranges = None
    if ACTIVATION in targets:
        calib_inputs = toy_model.make_input_set(seeds["calibration"], params["inputs"], model)
        act_ranges = toy_model.calibrate_activations(model, calib_inputs, bos_aware=bos_aware)

    config, results = allocator.allocate_mixed(
        model,
        weight_table=tables.get(WEIGHT),
        act_table=tables.get(ACTIVATION),
        weight_target=targets.get(WEIGHT),
        act_target=targets.get(ACTIVATION),
        options=options,
        act_ranges=act_ranges,
    )

    mf.write_json(root / mf.CONFIG, config.to_json_dict())

    # Frontier over the weight sweep when weights were allocated, else activations.
    frontier_kind = WEIGHT if WEIGHT in targets else ACTIVATION
    res = results[frontier_kind]
    frontier = allocator.pareto_frontier(res.sweep)
    (root / mf.FRONTIER_CONFIGS_DIR).mkdir(parents=True, exist_ok=True)
    model_costs = toy_model.model_layer_summary(model)
    written = [mf.CONFIG]
    rows = ["avg_bits,score,config_path\n"]
    for point in frontier:
        cell_cfg = res.sweep_configs[point.ref]
        cell = allocator.BitWidthConfig(config=cell_cfg, summary=allocator.cost_summary(cell_cfg, model_costs))
        rel = f"{mf.FRONTIER_CONFIGS_DIR}/{frontier_kind}_{point.ref:03d}.json"
        mf.write_json(root / rel, cell.to_json_dict())
        written.append(rel)
        rows.append(f"{_fmt(point.avg_bits)},{_fmt(point.score)},{rel}\n")
    mf.write_atomic(root / mf.FRONTIER, "".join(rows))
    written.append(mf.FRONTIER)
    mf.record_checksums(data, root, written)
    mf.write_json(root / Path(args.manifest).name, data)
    s = config.summary
    print(
        f"allocate: avg W{s['avg_weight_bits']:.3g} A{s['avg_act_bits']:.3g} "
        f"storage {s['storage_opt_ratio']:.2f}x compute {s['compute_opt_ratio']:.2f}x -> {root / mf.CONFIG}"
    )
    print(f"frontier: {len(frontier)} points -> {root / mf.FRONTIER}")
    return EXIT_OK


# ------------------------------------------------------------------ evaluate


def run_evaluate(args) -> int:
    data, root = mf.load_manifest(args.manifest)
    model = _load_model_checked(data, root)
    params = _checked_params(data)
    seeds = _checked_seeds(data)
    config_rel = args.config if args.config is not None else mf.CONFIG
    config_path = mf.resolve_inside(root, config_rel, "config")
    rel = config_path.relative_to(root).as_posix()
    if args.config is not None and rel not in data["checksums"] and config_path.exists():
        raw = config_path.read_bytes()  # a config the manifest does not record is scored unverified
    else:  # the gate, which names a missing config
        [raw] = mf.verify_artifacts(data, root, [rel])
    bw = mf.read_artifact(config_path, raw, "config",
                          lambda raw: allocator.BitWidthConfig.from_json_dict(mf.read_json(raw)))
    bw.config.validate(model.layer_order)

    bos_aware = params["bos_aware"]
    n_eval = params["eval_inputs"]
    eval_inputs = toy_model.make_input_set(seeds["eval"], n_eval, model)
    act_ranges = None
    if bw.config.wants_act_quant():
        calib_inputs = toy_model.make_input_set(seeds["calibration"], params["inputs"], model)
        act_ranges = toy_model.calibrate_activations(model, calib_inputs, bos_aware=bos_aware)

    chunks = list(toy_model.input_chunks(eval_inputs))
    ssim, sqnr_db, base_ssim, base_sqnr_db = [], [], [], []
    for chunk, batch in zip(chunks, sensitivity.fp_references(model, chunks, bos_aware=bos_aware)):
        out = toy_model.forward(model, *chunk, config=bw.config, bos_aware=bos_aware, act_ranges=act_ranges)
        ssim += metrics.ssim(batch, out)
        sqnr_db += metrics.sqnr_db(batch, out)
        base_ssim += metrics.ssim(batch, batch.values)
        base_sqnr_db += metrics.sqnr_db(batch, batch.values)

    def mean(values):
        return sum(values) / len(values)

    report = {
        "config_path": str(config_rel),
        "bos_aware": bos_aware,
        "n_inputs": n_eval,
        "metrics": {"ssim_mean": mean(ssim), "sqnr_db_mean": mean(sqnr_db)},
        "baseline": {"ssim_mean": mean(base_ssim), "sqnr_db_mean": mean(base_sqnr_db)},
        "per_input": [{"index": i, "ssim": a, "sqnr_db": b} for i, (a, b) in enumerate(zip(ssim, sqnr_db))],
        "summary": bw.summary,
    }
    report["deltas"] = {
        "ssim": report["metrics"]["ssim_mean"] - report["baseline"]["ssim_mean"],
        "sqnr_db": report["metrics"]["sqnr_db_mean"] - report["baseline"]["sqnr_db_mean"],
    }

    mf.write_json(root / mf.REPORT, report)
    mf.record_checksums(data, root, [mf.REPORT])
    mf.write_json(root / Path(args.manifest).name, data)
    print(
        f"evaluate: ssim {report['metrics']['ssim_mean']:.4f} "
        f"sqnr {report['metrics']['sqnr_db_mean']:.2f} dB -> {root / mf.REPORT}"
    )
    return EXIT_OK


# ------------------------------------------------------------------ pipeline


def run_pipeline(args) -> int:
    """``gen-model``, then each later stage on the manifest it wrote; every stage returns 0 or raises."""
    run_gen_model(args)
    manifest = str(Path(args.out_dir) / "manifest.json")
    run_sensitivity(argparse.Namespace(manifest=manifest))
    run_allocate(argparse.Namespace(manifest=manifest))
    return run_evaluate(argparse.Namespace(manifest=manifest, config=None))


# ---------------------------------------------------------------------- main


def _add_gen_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=7, help="master seed for weights")
    p.add_argument("--width", type=_int_at_least(2, "--width"), default=8)
    p.add_argument("--depth", type=_int_at_least(1, "--depth"), default=1)
    p.add_argument("--spatial", type=_even_int_at_least(4, "--spatial"), default=16)
    p.add_argument("--latent-channels", type=_int_at_least(1, "--latent-channels"), default=4)
    p.add_argument("--tokens", type=_int_at_least(2, "--tokens"), default=8)
    p.add_argument("--text-channels", type=_int_at_least(2, "--text-channels"), default=16)
    p.add_argument("--time-dim", type=_even_int_at_least(2, "--time-dim"), default=16)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--inputs", type=_input_count("--inputs"), default=32,
                   help="calibration/sensitivity input count")
    p.add_argument("--bits", type=_bits_list, default=list(quantizer.BIT_WIDTHS))
    p.add_argument("--bos-aware", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--target-bits", type=_target_bits, default=4.0)
    p.add_argument("--act-target-bits", type=_target_bits, default=8.0)
    p.add_argument("--proxy-inputs", type=_input_count("--proxy-inputs"), default=8)
    p.add_argument("--eval-inputs", type=_input_count("--eval-inputs"), default=16)
    p.add_argument("--n-budgets", type=_n_budgets, default=5)
    p.add_argument("--delta-bits", type=_delta_bits, default=0.25)
    p.add_argument("--eval-seed", type=_int_at_least(0, "--eval-seed"), default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mixprec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-model", help="build the toy network and seed a pipeline manifest")
    _add_gen_model_flags(p)
    p.set_defaults(func=run_gen_model)

    p = sub.add_parser(
        "sensitivity", help="per-layer sensitivity tables of each kind whose target is below the top bit-width"
    )
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=run_sensitivity)

    p = sub.add_parser("allocate", help="bit-width allocation under the manifest's budget")
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=run_allocate)

    p = sub.add_parser("evaluate", help="score a config against the FP baseline on the manifest's eval inputs")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", default=None, help="config JSON in the run directory (default: config.json)")
    p.set_defaults(func=run_evaluate)

    p = sub.add_parser("pipeline", help="gen-model + sensitivity + allocate + evaluate")
    _add_gen_model_flags(p)
    p.set_defaults(func=run_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        parser.error(str(exc))
    except InfeasibleBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValidationError, ConfigError, ParameterError, InputError, ShapeError, UndefinedMetricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
