import csv
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixprec import allocator, cli, manifest as mf, quantizer, toy_model
from mixprec.errors import ParameterError
from mixprec.tensor_core import load_tensor, save_tensor, sha256_file

SMALL = [
    "--width", "4", "--spatial", "8", "--tokens", "4", "--text-channels", "8",
    "--time-dim", "8", "--inputs", "4", "--proxy-inputs", "2", "--eval-inputs", "2",
    "--n-budgets", "2",
]


def run(argv):
    return cli.main(argv)


def tree_checksums(root: Path) -> dict:
    return {
        str(p.relative_to(root)): sha256_file(p)
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_gen_model_deterministic(tmp_path):
    t0 = time.monotonic()
    assert run(["gen-model", "--seed", "3", "--out-dir", str(tmp_path / "a"), *SMALL]) == 0
    assert time.monotonic() - t0 < 5.0
    assert run(["gen-model", "--seed", "3", "--out-dir", str(tmp_path / "b"), *SMALL]) == 0
    assert tree_checksums(tmp_path / "a") == tree_checksums(tmp_path / "b")


def test_gen_model_seed_changes_weights(tmp_path):
    run(["gen-model", "--seed", "3", "--out-dir", str(tmp_path / "a"), *SMALL])
    run(["gen-model", "--seed", "4", "--out-dir", str(tmp_path / "b"), *SMALL])
    assert tree_checksums(tmp_path / "a") != tree_checksums(tmp_path / "b")


def test_usage_errors_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["gen-model", "--width", "1", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["gen-model", "--bits", "2,3", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2


def test_sensitivity_requires_model(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{"version": 1, "model": {"json": "model.json", "weights_dir": "w"}, '
                        '"params": {}, "seeds": {}, "artifacts": {}, "checksums": {}}')
    assert run(["sensitivity", "--manifest", str(manifest)]) == 3


def test_allocate_requires_tables(tmp_path):
    out = tmp_path / "run"
    run(["gen-model", "--seed", "3", "--out-dir", str(out), *SMALL])
    assert run(["allocate", "--manifest", str(out / "manifest.json")]) == 3


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipe") / "run"
    assert run(["gen-model", "--seed", "3", "--out-dir", str(out), *SMALL]) == 0
    assert run(["sensitivity", "--manifest", str(out / "manifest.json")]) == 0
    assert run(["allocate", "--manifest", str(out / "manifest.json")]) == 0
    assert run(["evaluate", "--manifest", str(out / "manifest.json")]) == 0
    return out


def test_sensitivity_output_complete(pipeline_dir):
    for kind, n_layers in (("weight", None), ("activation", None)):
        lines = (pipeline_dir / f"sensitivity_{kind}.jsonl").read_text().splitlines()
        model = json.loads((pipeline_dir / "model.json").read_text())
        assert len(lines) == len(model["layers"]) * 3


def test_sensitivity_rerun_identical(pipeline_dir):
    before = sha256_file(pipeline_dir / "sensitivity_weight.jsonl")
    assert run(["sensitivity", "--manifest", str(pipeline_dir / "manifest.json"), "--kind", "weight"]) == 0
    assert sha256_file(pipeline_dir / "sensitivity_weight.jsonl") == before


def test_jobs_flag_is_gone(pipeline_dir):
    for argv in (["sensitivity", "--manifest", str(pipeline_dir / "manifest.json"), "--jobs", "4"],
                 ["gen-model", "--out-dir", str(pipeline_dir / "unused"), "--jobs", "1"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2


def test_retain_fp_flag_is_gone(pipeline_dir, tmp_path):
    for argv in (["gen-model", "--out-dir", str(tmp_path / "g")], ["pipeline", "--out-dir", str(tmp_path / "p")],
                 ["allocate", "--manifest", str(pipeline_dir / "manifest.json")]):
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--retain-fp", "0"])
        assert exc.value.code == 2
    assert not (tmp_path / "g").exists() and not (tmp_path / "p").exists()


@pytest.mark.parametrize("retain_fp", [0.01, 1.0])
def test_manifest_with_retain_fp_param_still_allocates(pipeline_dir, tmp_path, retain_fp):
    # manifests written before FP16 retention was removed carry params.retain_fp; it is ignored
    manifest = _copy_with_params(pipeline_dir, tmp_path, retain_fp=retain_fp)
    assert run(["allocate", "--manifest", str(manifest)]) == 0
    assert sha256_file(manifest.parent / "config.json") == sha256_file(pipeline_dir / "config.json")


def test_manifest_with_jobs_param_still_loads(pipeline_dir, tmp_path):
    # manifests written before --jobs was removed carry params.jobs; it is ignored
    copy = tmp_path / "run"
    shutil.copytree(pipeline_dir, copy)
    manifest = json.loads((copy / "manifest.json").read_text())
    manifest["params"]["jobs"] = 4
    (copy / "manifest.json").write_text(json.dumps(manifest))
    assert run(["sensitivity", "--manifest", str(copy / "manifest.json"), "--kind", "weight"]) == 0
    assert sha256_file(copy / "sensitivity_weight.jsonl") == sha256_file(pipeline_dir / "sensitivity_weight.jsonl")


def run_subprocess(argv, timeout=60):
    """The CLI in a fresh interpreter, killed after ``timeout`` seconds so a hang fails the test."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-m", "mixprec.cli", *argv], env=env, capture_output=True,
                          text=True, timeout=timeout)


def test_allocate_delta_bits_nan_exits_2_without_hanging(pipeline_dir):
    # used to loop forever in the budget sweep
    proc = run_subprocess(["allocate", "--manifest", str(pipeline_dir / "manifest.json"), "--delta-bits", "nan"])
    assert proc.returncode == 2
    assert "delta" in proc.stderr


def test_negative_delta_bits_exits_2(pipeline_dir, tmp_path):
    # used to succeed with an allocation above the average-bit targets
    proc = run_subprocess(["allocate", "--manifest", str(pipeline_dir / "manifest.json"), "--delta-bits", "-1"])
    assert proc.returncode == 2
    for argv in (["gen-model", "--out-dir", str(tmp_path / "g")], ["pipeline", "--out-dir", str(tmp_path / "p")],
                 ["allocate", "--manifest", str(pipeline_dir / "manifest.json")]):
        for bad in ("-1", "-0.5", "inf", "-inf", "nan", "abc"):
            with pytest.raises(SystemExit) as exc:
                run([*argv, "--delta-bits", bad])
            assert exc.value.code == 2
    assert not (tmp_path / "g").exists() and not (tmp_path / "p").exists()


def test_nonfinite_ratio_grid_exits_2_without_hanging(pipeline_dir):
    # nan and inf ratios used to give nan budgets that the knapsack search never pruned
    for grid in ("nan:1:3", "1:inf:3"):
        proc = run_subprocess(["allocate", "--manifest", str(pipeline_dir / "manifest.json"), "--ratio-grid", grid])
        assert proc.returncode == 2
        assert "ratio grid" in proc.stderr


def test_manifest_delta_bits_nan_exits_3(pipeline_dir, tmp_path):
    copy = tmp_path / "run"
    shutil.copytree(pipeline_dir, copy)
    manifest = json.loads((copy / "manifest.json").read_text())
    manifest["params"]["delta_avg_bits"] = float("nan")
    (copy / "manifest.json").write_text(json.dumps(manifest))
    proc = run_subprocess(["allocate", "--manifest", str(copy / "manifest.json")])
    assert proc.returncode == 3
    assert "delta_avg_bits" in proc.stderr


def _copy_with_params(pipeline_dir, tmp_path, **params):
    copy = tmp_path / "run"
    shutil.copytree(pipeline_dir, copy)
    manifest = json.loads((copy / "manifest.json").read_text())
    manifest["params"].update(params)
    (copy / "manifest.json").write_text(json.dumps(manifest))
    return copy / "manifest.json"


# each param a stage reads, a value of the wrong type or range, and a stage that reads it
BAD_PARAMS = [
    ("inputs", 0, "sensitivity"),
    ("inputs", "4", "evaluate"),
    ("bits", [2, 3], "sensitivity"),
    ("bits", "2,4,8", "allocate"),
    ("bos_aware", "yes", "sensitivity"),
    ("bos_aware", 1, "evaluate"),
    ("target_bits", "abc", "allocate"),
    ("target_bits", 9, "allocate"),
    ("act_target_bits", True, "allocate"),
    ("n_budgets", "5", "allocate"),
    ("n_budgets", 0, "allocate"),
    ("delta_avg_bits", -1, "allocate"),
    ("proxy_inputs", 1.5, "allocate"),
    ("eval_inputs", None, "evaluate"),
    ("inputs", toy_model.MAX_INPUTS + 1, "sensitivity"),
    ("proxy_inputs", toy_model.MAX_INPUTS + 1, "allocate"),
    ("eval_inputs", toy_model.MAX_INPUTS + 1, "evaluate"),
]


@pytest.mark.parametrize("key,value,stage", BAD_PARAMS)
def test_bad_manifest_param_exits_3(pipeline_dir, tmp_path, capsys, key, value, stage):
    manifest = _copy_with_params(pipeline_dir, tmp_path, **{key: value})
    assert run([stage, "--manifest", str(manifest)]) == 3
    assert f"params.{key}" in capsys.readouterr().err


def test_missing_manifest_param_exits_3(pipeline_dir, tmp_path, capsys):
    manifest = _copy_with_params(pipeline_dir, tmp_path)
    data = json.loads(manifest.read_text())
    del data["params"]["eval_inputs"]
    manifest.write_text(json.dumps(data))
    assert run(["evaluate", "--manifest", str(manifest)]) == 3
    assert "eval_inputs" in capsys.readouterr().err


# model.json cut short (checksum no longer matches), the same file with its
# checksum recorded again (so it is parsed), and valid JSON of the wrong shape
BAD_MODEL_JSON = [("truncated", False), ("truncated", True), ("wrong_shape", True)]


@pytest.mark.parametrize("stage", ["sensitivity", "allocate", "evaluate"])
@pytest.mark.parametrize("damage,rechecksum", BAD_MODEL_JSON)
def test_bad_model_json_exits_3(pipeline_dir, tmp_path, capsys, stage, damage, rechecksum):
    manifest = _copy_with_params(pipeline_dir, tmp_path)
    model_json = manifest.parent / "model.json"
    text = model_json.read_text()
    model_json.write_text(text[: len(text) // 2] if damage == "truncated" else '{"layers": 5}')
    if rechecksum:
        data = json.loads(manifest.read_text())
        data["checksums"]["model.json"] = sha256_file(model_json)
        manifest.write_text(json.dumps(data))
    assert run([stage, "--manifest", str(manifest)]) == 3
    err = capsys.readouterr().err
    assert ("checksum mismatch: model.json" in err) == (not rechecksum)
    assert ("not a valid model description" in err) == rechecksum


def _edit_first_entry(edit):
    def damage(text):
        first, *rest = text.splitlines(keepends=True)
        return json.dumps(edit(json.loads(first))) + "\n" + "".join(rest)

    return damage


# each damage has its checksum recorded again, so the table is parsed
TABLE_DAMAGES = {
    "cut_line": lambda text: text[:150],
    "missing_key": _edit_first_entry(lambda e: {k: v for k, v in e.items() if k != "metric_kind"}),
    "extra_key": _edit_first_entry(lambda e: {**e, "note": "x"}),
    "not_an_object": lambda text: "[1, 2]\n" + text,
    "string_score": _edit_first_entry(lambda e: {**e, "score": "x"}),
    "nan_score": _edit_first_entry(lambda e: {**e, "score": float("nan")}),
}


@pytest.mark.parametrize("damage", TABLE_DAMAGES)
@pytest.mark.parametrize("kind", ["weight", "activation"])
def test_malformed_sensitivity_table_exits_3(pipeline_dir, tmp_path, capsys, damage, kind):
    manifest = _copy_with_params(pipeline_dir, tmp_path)
    rel = f"sensitivity_{kind}.jsonl"
    table = manifest.parent / rel
    table.write_text(TABLE_DAMAGES[damage](table.read_text()))
    data = json.loads(manifest.read_text())
    data["checksums"][rel] = sha256_file(table)
    manifest.write_text(json.dumps(data))
    assert run(["allocate", "--manifest", str(manifest)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"{rel} is not a valid table" in err or "is not a finite number" in err


def test_failed_write_leaves_no_partial_or_temp_file(pipeline_dir, tmp_path, monkeypatch):
    manifest = _copy_with_params(pipeline_dir, tmp_path)
    root = manifest.parent
    (root / "config.json").unlink()
    before = tree_checksums(root)

    def failing_replace(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", failing_replace)
    assert run(["allocate", "--manifest", str(manifest)]) == cli.EXIT_IO
    assert tree_checksums(root) == before  # no config.json, no temp file, nothing else touched

    monkeypatch.undo()
    path = root / "frontier.csv"
    with pytest.raises(UnicodeEncodeError):
        mf.write_atomic(path, "avg_bits\n" + "\ud800")  # fails while writing the temp file
    assert tree_checksums(root) == before


def test_gen_model_failed_model_json_write_exits_5(tmp_path, monkeypatch):
    def failing_replace(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", failing_replace)
    out = tmp_path / "run"
    assert run(["gen-model", "--out-dir", str(out), *TINY]) == cli.EXIT_IO
    # no weight tensor, no model JSON and no temp file is left
    assert sorted(str(p.relative_to(out)) for p in out.rglob("*")) == ["weights"]
    monkeypatch.undo()
    assert run(["gen-model", "--out-dir", str(tmp_path / "ok"), *TINY]) == 0
    text = (tmp_path / "ok" / "model.json").read_text()  # sorted keys, indent 2, a trailing newline
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_gen_model_failed_weight_write_exits_5(tmp_path, monkeypatch):
    real = os.replace

    def failing_replace(src, dst):
        if Path(dst).name == "mid.self.to_q.bin":
            raise OSError(28, "No space left on device")
        return real(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    out = tmp_path / "run"
    assert run(["gen-model", "--out-dir", str(out), *TINY]) == cli.EXIT_IO
    names = sorted(str(p.relative_to(out)) for p in out.rglob("*"))
    assert "weights/enc0.conv_in.bin" in names  # the tensors before it were written whole
    assert "weights/mid.self.to_q.bin" not in names
    assert not any(name.endswith(".tmp") for name in names)
    assert "model.json" not in names and "manifest.json" not in names


MISSING = "missing"
BAD_SEEDS = [
    ("calibration", "x", "sensitivity"),
    ("calibration", -1, "allocate"),
    ("calibration", 2.0, "evaluate"),
    ("proxy", True, "allocate"),
    ("proxy", MISSING, "allocate"),
    ("eval", None, "evaluate"),
    ("model", "7", "sensitivity"),
    ("model", MISSING, "evaluate"),
]


@pytest.mark.parametrize("key,value,stage", BAD_SEEDS)
def test_bad_manifest_seed_exits_3(pipeline_dir, tmp_path, capsys, key, value, stage):
    manifest = _copy_with_params(pipeline_dir, tmp_path)
    data = json.loads(manifest.read_text())
    if value == MISSING:
        del data["seeds"][key]
    else:
        data["seeds"][key] = value
    manifest.write_text(json.dumps(data))
    assert run([stage, "--manifest", str(manifest)]) == 3
    assert f"seeds.{key}" in capsys.readouterr().err or value == MISSING


def test_negative_seed_flags_exit_2(tmp_path):
    for flag in ("--calib-seed", "--proxy-seed", "--eval-seed"):
        with pytest.raises(SystemExit) as exc:
            run(["gen-model", "--out-dir", str(tmp_path / "unused"), flag, "-1"])
        assert exc.value.code == 2, flag


def test_evaluate_malformed_config_exits_3(pipeline_dir, tmp_path):
    manifest = _copy_with_params(pipeline_dir, tmp_path)
    for name, text in (("truncated.json", '{"layers": {'), ("list.json", "[1, 2]"),
                       ("no_layers.json", '{"summary": {}}'), ("bad_entry.json", '{"layers": {"a": 4}}')):
        (manifest.parent / name).write_text(text)
        assert run(["evaluate", "--manifest", str(manifest), "--config", name]) == 3, name


def test_evaluate_config_confined_to_run_directory(pipeline_dir, tmp_path):
    manifest = _copy_with_params(pipeline_dir, tmp_path)
    outside = tmp_path / "other"
    outside.mkdir()
    shutil.copy(manifest.parent / "config.json", outside / "config.json")
    for path in (str(outside / "config.json"), "../other/config.json"):
        assert run(["evaluate", "--manifest", str(manifest), "--config", path]) == 3, path
    (manifest.parent / "sub").mkdir()
    shutil.copy(manifest.parent / "config.json", manifest.parent / "sub" / "mine.json")
    assert run(["evaluate", "--manifest", str(manifest), "--config", "sub/mine.json"]) == 0
    assert json.loads((manifest.parent / "report.json").read_text())["config_path"] == "sub/mine.json"


def test_evaluate_config_checksum_verified_when_recorded(pipeline_dir, tmp_path):
    manifest = _copy_with_params(pipeline_dir, tmp_path)
    [cell] = sorted((manifest.parent / "frontier_configs").iterdir())[:1]
    cell.write_text(cell.read_text() + "\n")
    assert run(["evaluate", "--manifest", str(manifest), "--config", f"frontier_configs/{cell.name}"]) == 3


def test_allocate_outputs(pipeline_dir):
    config = json.loads((pipeline_dir / "config.json").read_text())
    assert set(config) == {"layers", "summary"}
    # every activation layer is allocated, so the A8 target ships uniform A8
    assert all(entry["activation"] == 8 for entry in config["layers"].values())
    model = json.loads((pipeline_dir / "model.json").read_text())
    assert set(config["layers"]) == {row["id"] for row in model["layers"]}
    summary = config["summary"]
    assert summary["avg_weight_bits"] <= 4.0 + 1e-9

    with open(pipeline_dir / "frontier.csv") as f:
        rows = list(csv.DictReader(f))
    assert rows
    bits = [float(r["avg_bits"]) for r in rows]
    assert bits == sorted(bits)
    for r in rows:
        assert (pipeline_dir / r["config_path"]).exists()


def test_evaluate_report(pipeline_dir):
    report = json.loads((pipeline_dir / "report.json").read_text())
    assert report["baseline"]["ssim_mean"] == pytest.approx(1.0, abs=1e-12)
    assert report["baseline"]["sqnr_db_mean"] == 100.0
    assert report["metrics"]["sqnr_db_mean"] <= 100.0
    assert len(report["per_input"]) == report["n_inputs"]


def test_evaluate_all_fp_config(pipeline_dir):
    config = json.loads((pipeline_dir / "config.json").read_text())
    for entry in config["layers"].values():
        entry["weight"] = None
        entry["activation"] = None
    fp_config = pipeline_dir / "fp_config.json"
    fp_config.write_text(json.dumps(config))
    assert run(["evaluate", "--manifest", str(pipeline_dir / "manifest.json"),
                "--config", "fp_config.json"]) == 0
    report = json.loads((pipeline_dir / "report.json").read_text())
    assert report["metrics"]["ssim_mean"] == pytest.approx(1.0, abs=1e-12)
    assert report["metrics"]["sqnr_db_mean"] == 100.0
    # restore the default report
    assert run(["evaluate", "--manifest", str(pipeline_dir / "manifest.json")]) == 0


def test_evaluate_csv_format(pipeline_dir):
    assert run(["evaluate", "--manifest", str(pipeline_dir / "manifest.json"), "--format", "csv"]) == 0
    text = (pipeline_dir / "report.csv").read_text()
    assert text.splitlines()[0] == "index,ssim,sqnr_db"
    # switching back to json restores the json report path
    assert run(["evaluate", "--manifest", str(pipeline_dir / "manifest.json")]) == 0
    manifest = json.loads((pipeline_dir / "manifest.json").read_text())
    assert manifest["artifacts"]["report"] == "report.json"


@pytest.mark.parametrize("fp_retained", [{}, {"activation": ["enc0.conv_in"]}], ids=["empty", "one_layer"])
def test_evaluate_accepts_config_with_fp_retained_key(pipeline_dir, tmp_path, fp_retained):
    # configs written before FP16 retention was removed carry an fp_retained key; it is ignored
    manifest = _copy_with_params(pipeline_dir, tmp_path)
    config = json.loads((manifest.parent / "config.json").read_text())
    (manifest.parent / "old.json").write_text(json.dumps({**config, "fp_retained": fp_retained}))
    assert run(["evaluate", "--manifest", str(manifest)]) == 0
    want = json.loads((manifest.parent / "report.json").read_text())
    assert run(["evaluate", "--manifest", str(manifest), "--config", "old.json"]) == 0
    report = json.loads((manifest.parent / "report.json").read_text())
    assert report == {**want, "config_path": "old.json"}


def test_allocate_infeasible_exit_4(tmp_path, capsys):
    # a grid without 2 bits cannot reach an average of 2
    out = tmp_path / "run"
    tiny_4_8 = [*TINY[:TINY.index("--bits")], "--bits", "4,8"]
    assert run(["pipeline", "--out-dir", str(out), "--seed", "5", *tiny_4_8]) == 0
    before = tree_checksums(out)
    capsys.readouterr()
    assert run(["allocate", "--manifest", str(out / "manifest.json"), "--target-bits", "2"]) == 4
    assert "minimum achievable average is 4.0000 bits" in capsys.readouterr().err
    assert tree_checksums(out) == before


def test_checksum_validation_blocks_stage(pipeline_dir):
    table = pipeline_dir / "sensitivity_weight.jsonl"
    original = table.read_text()
    table.write_text(original + "\n")
    try:
        assert run(["allocate", "--manifest", str(pipeline_dir / "manifest.json")]) == 3
    finally:
        table.write_text(original)
        assert run(["allocate", "--manifest", str(pipeline_dir / "manifest.json")]) == 0
        assert run(["evaluate", "--manifest", str(pipeline_dir / "manifest.json")]) == 0


def test_weight_only_allocation(tmp_path):
    out = tmp_path / "wonly"
    run(["gen-model", "--seed", "3", "--out-dir", str(out), *SMALL,
         "--act-target-bits", "fp", "--target-bits", "4"])
    assert run(["sensitivity", "--manifest", str(out / "manifest.json"), "--kind", "weight"]) == 0
    assert run(["allocate", "--manifest", str(out / "manifest.json")]) == 0
    config = json.loads((out / "config.json").read_text())
    assert all(entry["activation"] is None for entry in config["layers"].values())
    assert config["summary"]["compute_opt_ratio"] == 1.0  # FP16 compute when acts stay FP


def test_bits_are_checked_against_the_quantizer_grid(monkeypatch):
    with pytest.raises(ParameterError, match="^bits must be a non-empty subset of 2,4,8$"):
        cli._check_bits([2, 3])
    monkeypatch.setattr(quantizer, "BIT_WIDTHS", (2, 3, 4, 5, 6, 8))
    assert cli._check_bits([5, 3, 3]) == [3, 5]
    with pytest.raises(ParameterError, match="^bits must be a non-empty subset of 2,3,4,5,6,8$"):
        cli._check_bits([7])


def test_default_calibration_inputs_is_32():
    args = cli.build_parser().parse_args(["gen-model", "--out-dir", "unused"])
    assert args.inputs == 32
    assert args.bits == [2, 4, 8]
    assert args.bos_aware is True


def test_pipeline_command(tmp_path):
    out = tmp_path / "p"
    assert run(["pipeline", "--seed", "3", "--out-dir", str(out), *SMALL]) == 0
    for name in ("model.json", "sensitivity_weight.jsonl", "sensitivity_activation.jsonl",
                 "config.json", "frontier.csv", "report.json", "manifest.json"):
        assert (out / name).exists()


def _write_manifest(pipeline_dir, tmp_path, edit):
    copy = tmp_path / "run"
    shutil.copytree(pipeline_dir, copy)
    manifest = copy / "manifest.json"
    manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
    return manifest


def test_manifest_top_level_list_exits_3(pipeline_dir, tmp_path, capsys):
    # used to end in an AttributeError traceback in evaluate
    manifest = _write_manifest(pipeline_dir, tmp_path, lambda data: [data])
    for stage in ("sensitivity", "allocate", "evaluate"):
        assert run([stage, "--manifest", str(manifest)]) == 3
        assert "must be a JSON object" in capsys.readouterr().err


def test_manifest_artifacts_string_exits_3(pipeline_dir, tmp_path, capsys):
    # used to end in a TypeError traceback in sensitivity
    manifest = _write_manifest(pipeline_dir, tmp_path, lambda data: {**data, "artifacts": "x"})
    assert run(["sensitivity", "--manifest", str(manifest)]) == 3
    assert "artifacts must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("section", ["artifacts", "checksums", "params", "seeds"])
@pytest.mark.parametrize("value", ["x", [], None, 1, "missing"])
def test_manifest_section_not_an_object_exits_3(pipeline_dir, tmp_path, capsys, section, value):
    def edit(data):
        if value == "missing":
            del data[section]
        else:
            data[section] = value
        return data

    manifest = _write_manifest(pipeline_dir, tmp_path, edit)
    for stage in ("sensitivity", "allocate", "evaluate"):
        assert run([stage, "--manifest", str(manifest)]) == 3
        assert f"{section} must be a JSON object" in capsys.readouterr().err


def test_oversized_sweep_flags_exit_2_without_hanging(pipeline_dir):
    # both used to run until killed
    manifest = str(pipeline_dir / "manifest.json")
    for flags in (["--ratio-grid", "1:2:100000"], ["--act-ratio-grid", "1:2:1000000000000"],
                  ["--n-budgets", "1000000"], ["--n-budgets", "200"]):
        proc = run_subprocess(["allocate", "--manifest", manifest, *flags], timeout=30)
        assert proc.returncode == 2, flags
        assert "cells" in proc.stderr, flags
    for argv in (["gen-model", "--out-dir", str(pipeline_dir / "unused")], ["pipeline", "--out-dir", str(pipeline_dir / "unused")]):
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--n-budgets", str(allocator.MAX_SWEEP_CELLS // 8 + 1)])
        assert exc.value.code == 2
    assert not (pipeline_dir / "unused").exists()


@pytest.mark.parametrize("n_budgets", [allocator.MAX_SWEEP_CELLS // 8 + 1, allocator.MAX_SWEEP_CELLS + 1])
def test_oversized_sweep_manifest_param_exits_3(pipeline_dir, tmp_path, capsys, n_budgets):
    manifest = _copy_with_params(pipeline_dir, tmp_path, n_budgets=n_budgets)
    assert run(["allocate", "--manifest", str(manifest)]) == 3
    assert "params.n_budgets" in capsys.readouterr().err


def test_sweep_cap_boundary_through_the_cli(pipeline_dir, tmp_path, monkeypatch):
    # The default grids have 8 ratios and SMALL records n_budgets 2: 16 cells.
    monkeypatch.setattr(allocator, "MAX_SWEEP_CELLS", 16)
    manifest = _copy_with_params(pipeline_dir, tmp_path)
    assert run(["allocate", "--manifest", str(manifest)]) == 0
    assert run(["allocate", "--manifest", str(manifest), "--n-budgets", "2", "--ratio-grid", "0.5:1.5:8"]) == 0
    for flags in (["--n-budgets", "3"], ["--ratio-grid", "0.5:1.5:9"], ["--act-ratio-grid", "1:1:17"]):
        with pytest.raises(SystemExit) as exc:
            run(["allocate", "--manifest", str(manifest), *flags])
        assert exc.value.code == 2, flags
    data = json.loads(manifest.read_text())
    data["params"]["n_budgets"] = 3
    manifest.write_text(json.dumps(data))
    assert run(["allocate", "--manifest", str(manifest)]) == 3
    assert run(["allocate", "--manifest", str(manifest), "--n-budgets", "2"]) == 0


def test_manifest_artifact_number_exits_3(pipeline_dir, tmp_path, capsys):
    # used to end in a TypeError traceback (exit 1) in allocate
    manifest = _write_manifest(pipeline_dir, tmp_path, lambda d: {**d, "artifacts": {**d["artifacts"], "config": 5}})
    assert run(["allocate", "--manifest", str(manifest)]) == 3
    assert "error: " in capsys.readouterr().err


def test_manifest_artifact_escaping_run_dir_exits_3(pipeline_dir, tmp_path, capsys):
    # used to exit 0 after writing the frontier outside the run directory
    edit = lambda d: {**d, "artifacts": {**d["artifacts"], "frontier": "../escaped.csv"}}  # noqa: E731
    manifest = _write_manifest(pipeline_dir, tmp_path, edit)
    before = tree_checksums(manifest.parent)
    assert run(["allocate", "--manifest", str(manifest)]) == 3
    assert "outside the run directory" in capsys.readouterr().err
    assert not (tmp_path / "escaped.csv").exists()
    assert tree_checksums(manifest.parent) == before


@pytest.mark.parametrize("key", ["config", "report", "frontier_configs_dir", "sensitivity_weight", "extra"])
@pytest.mark.parametrize("value", [None, ["config.json"], "/abs/config.json", "", ".", "..", "sub/../../x", "a\0b"])
def test_manifest_bad_artifact_path_exits_3(pipeline_dir, tmp_path, capsys, key, value):
    manifest = _write_manifest(pipeline_dir, tmp_path, lambda d: {**d, "artifacts": {**d["artifacts"], key: value}})
    for stage in ("sensitivity", "allocate", "evaluate"):
        assert run([stage, "--manifest", str(manifest)]) == 3
        assert f"artifacts.{key}" in capsys.readouterr().err


def test_manifest_missing_artifact_exits_3(pipeline_dir, tmp_path, capsys):
    for key in mf.ARTIFACT_KEYS:
        def edit(d):
            del d["artifacts"][key]
            return d

        manifest = _write_manifest(pipeline_dir, tmp_path / key, edit)
        assert run(["evaluate", "--manifest", str(manifest)]) == 3
        assert f"lack {key!r}" in capsys.readouterr().err


def test_manifest_artifact_inside_a_subdirectory_is_accepted(pipeline_dir, tmp_path):
    edit = lambda d: {**d, "artifacts": {**d["artifacts"], "report": "weights/../report.json"}}  # noqa: E731
    manifest = _write_manifest(pipeline_dir, tmp_path, edit)
    assert run(["evaluate", "--manifest", str(manifest)]) == 0


def test_manifest_model_paths_outside_the_run_dir_exit_3(tiny_tree, tmp_path, capsys):
    # used to exit 0 after reading the model from a copy beside the run directory
    copy, other = tmp_path / "run", tmp_path / "other"
    shutil.copytree(tiny_tree, copy)
    other.mkdir()
    shutil.copy(copy / "model.json", other / "model.json")
    shutil.copytree(copy / "weights", other / "weights")
    data = json.loads((copy / "manifest.json").read_text())
    data["model"] = {"json": "../other/model.json", "weights_dir": "../other/weights"}
    data["checksums"] = {
        (f"../other/{rel}" if rel == "model.json" or rel.startswith("weights/") else rel): digest
        for rel, digest in data["checksums"].items()
    }
    (copy / "manifest.json").write_text(json.dumps(data))
    assert run(["evaluate", "--manifest", str(copy / "manifest.json")]) == 3
    assert "model.json '../other/model.json' lies outside the run directory" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["json", "weights_dir"])
@pytest.mark.parametrize("value", ["missing", None, 5, ["model.json"], "/abs/model.json", "", ".", "../model.json"])
def test_manifest_bad_model_path_exits_3(pipeline_dir, tmp_path, capsys, key, value):
    def edit(data):
        if value == "missing":
            del data["model"][key]
        else:
            data["model"][key] = value
        return data

    manifest = _write_manifest(pipeline_dir, tmp_path, edit)
    for stage in ("sensitivity", "allocate", "evaluate"):
        assert run([stage, "--manifest", str(manifest)]) == 3
        assert f"model.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["x", [], None, "missing"])
def test_manifest_model_not_an_object_exits_3(pipeline_dir, tmp_path, capsys, value):
    def edit(data):
        if value == "missing":
            del data["model"]
        else:
            data["model"] = value
        return data

    manifest = _write_manifest(pipeline_dir, tmp_path, edit)
    for stage in ("sensitivity", "allocate", "evaluate"):
        assert run([stage, "--manifest", str(manifest)]) == 3
        assert "model must be a JSON object" in capsys.readouterr().err


def test_oversized_model_flags_exit_2_without_allocating(tmp_path, capsys):
    # gen-model used to ask numpy for 671 GiB and die with a MemoryError
    for command in ("gen-model", "pipeline"):
        for flags in (["--width", "100000", "--spatial", "100000"], ["--depth", "1000000000000"], ["--tokens", "10000000"]):
            with pytest.raises(SystemExit) as exc:
                run([command, "--out-dir", str(tmp_path / command), *flags])
            assert exc.value.code == 2, flags
            assert "cap" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_model_size_cap_boundary_through_the_cli(tmp_path, monkeypatch):
    shape = dict(spatial=8, latent_channels=4, text_tokens=4, text_channels=8, time_dim=8)
    monkeypatch.setattr(toy_model, "MAX_MODEL_ELEMENTS", toy_model.model_elements(4, 1, **shape))
    assert run(["gen-model", "--out-dir", str(tmp_path / "at"), *SMALL]) == 0
    monkeypatch.setattr(toy_model, "MAX_MODEL_ELEMENTS", toy_model.MAX_MODEL_ELEMENTS - 1)
    with pytest.raises(SystemExit) as exc:
        run(["gen-model", "--out-dir", str(tmp_path / "over"), *SMALL])
    assert exc.value.code == 2
    assert not (tmp_path / "over").exists()
    # a stored model over the cap is refused by the stages that load it
    assert run(["sensitivity", "--manifest", str(tmp_path / "at" / "manifest.json")]) == 3


def test_input_count_flags_are_capped(pipeline_dir, tmp_path, monkeypatch):
    manifest = str(pipeline_dir / "manifest.json")
    too_many = str(toy_model.MAX_INPUTS + 1)
    for argv in (["gen-model", "--out-dir", str(tmp_path / "g"), "--inputs", too_many],
                 ["gen-model", "--out-dir", str(tmp_path / "g"), "--proxy-inputs", too_many],
                 ["gen-model", "--out-dir", str(tmp_path / "g"), "--eval-inputs", too_many],
                 ["sensitivity", "--manifest", manifest, "--inputs", too_many],
                 ["evaluate", "--manifest", manifest, "--inputs", too_many]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv
    assert not (tmp_path / "g").exists()
    copy = _copy_with_params(pipeline_dir, tmp_path)
    monkeypatch.setattr(toy_model, "MAX_INPUTS", 4)  # SMALL records 4 calibration inputs
    assert run(["evaluate", "--manifest", str(copy), "--inputs", "4"]) == 0
    with pytest.raises(SystemExit) as exc:
        run(["evaluate", "--manifest", str(copy), "--inputs", "5"])
    assert exc.value.code == 2


# A tiny pipeline tree for the property test: each stage on it takes a fraction of a second.
TINY = [
    "--width", "2", "--spatial", "4", "--tokens", "2", "--text-channels", "2", "--time-dim", "2",
    "--inputs", "2", "--proxy-inputs", "2", "--eval-inputs", "2", "--n-budgets", "1", "--bits", "2,8",
]


def test_sensitivity_of_a_model_with_non_finite_metrics_exits_3(tmp_path, capsys):
    # out.conv_out's weights at 1e200, checksums recorded again: the outputs'
    # SSIM stabilizers overflow, which used to end in an OverflowError (exit 1)
    out = tmp_path / "run"
    assert run(["gen-model", "--out-dir", str(out), *TINY]) == 0
    weight = out / "weights" / "out.conv_out"
    save_tensor(np.full_like(load_tensor(weight), 1e200), weight)
    data = json.loads((out / "manifest.json").read_text())
    for suffix in (".bin", ".json"):
        data["checksums"][f"weights/out.conv_out{suffix}"] = sha256_file(out / f"weights/out.conv_out{suffix}")
    (out / "manifest.json").write_text(json.dumps(data))
    before = tree_checksums(out)
    assert run(["sensitivity", "--manifest", str(out / "manifest.json")]) == 3
    assert "undefined" in capsys.readouterr().err
    assert tree_checksums(out) == before


@pytest.fixture(scope="module")
def tiny_tree(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny") / "run"
    assert run(["pipeline", "--out-dir", str(out), "--seed", "5", *TINY]) == 0
    return out


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(["../out.json", "/tmp/out.json", "", ".", "sub/x.json", "model.json", "weights", "config.json"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)
_DELETE = object()


@settings(max_examples=40, deadline=10_000)
@given(data=st.data())
def test_mutated_manifest_exits_with_a_documented_code(tiny_tree, data):
    # Every stage on a manifest with mutated artifacts, params, seeds or
    # checksums ends in 0/2/3/4/5, never a traceback. The input-count and sweep
    # caps are patched down so that no valid example runs long; their
    # boundaries have tests of their own.
    manifest = json.loads((tiny_tree / "manifest.json").read_text())
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        section = data.draw(st.sampled_from(["artifacts", "params", "seeds", "checksums"]), label="section")
        key = data.draw(st.sampled_from(sorted(manifest[section])) | st.text(max_size=6), label="key")
        value = data.draw(st.just(_DELETE) | _json_values, label="value")
        if value is _DELETE:
            manifest[section].pop(key, None)
        else:
            manifest[section][key] = value
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(toy_model, "MAX_INPUTS", 8), \
            mock.patch.object(allocator, "MAX_SWEEP_CELLS", 16):
        copy = Path(tmp) / "run"
        shutil.copytree(tiny_tree, copy)
        (copy / "manifest.json").write_text(json.dumps(manifest))
        for stage in ("sensitivity", "allocate", "evaluate"):
            try:
                rc = run([stage, "--manifest", str(copy / "manifest.json")])
            except SystemExit as exc:
                rc = exc.code
            assert rc in (0, 2, 3, 4, 5), (stage, rc)
