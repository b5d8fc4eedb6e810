import argparse
import csv
import json
import os
import shutil
import struct
import subprocess
import sys
import time
from pathlib import Path

import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mixprec import allocator, cli, manifest as mf, quantizer, sensitivity, tensor_core, toy_model
from mixprec.errors import ParameterError
from mixprec.tensor_core import save_tensor, sha256_file

import golden_trees
import helpers
import trees

SMALL = [
    "--width", "4", "--spatial", "8", "--tokens", "4", "--text-channels", "8",
    "--time-dim", "8", "--inputs", "4", "--proxy-inputs", "2", "--eval-inputs", "2",
    "--n-budgets", "2",
]


def run(argv):
    return cli.main(argv)


def tree_checksums(root: Path) -> dict:
    return golden_trees.digests(root)


# SHA-256 of the config.json of a seed-7 pipeline, at the default flags, at
# the flags of the ``sweep`` benchmark workload, and at W4A6, the one whose
# activation table and first-token path decide the config. config.json holds only
# bit-widths: scores that move in their last bits leave it unchanged unless they
# change a choice of the allocator. A mismatch is a change of logic, or a build
# whose kernels round some score across such a choice.
PINNED_CONFIGS = {
    "default": ((), "51c0083e6fed6c11e1e97a77ba3ef6e7ec10bef24c97893e525024df616e46a6"),
    "sweep": (
        ("--inputs", "4", "--n-budgets", "10", "--proxy-inputs", "16"),
        "a1d311443f34d8aff5eb92cc36c2cf7284f1666f19746cd4c53b2654110d8702",
    ),
    "w4a6": (("--act-target-bits", "6"), "aa39e53829a7fbcbe81304287a95c335219fe90582b0a12b55457060cc959c94"),
}
PINNED_ENVIRONMENT = "Python 3.11.7, numpy 2.4.6, BLAS scipy-openblas 0.3.31.188.0"


def _environment() -> str:
    return "Python {python}, numpy {numpy}, BLAS {blas}".format(**trees.environment())


@pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
def test_config_json_equals_its_pinned_digest(seed7_tree, name):
    flags, digest = PINNED_CONFIGS[name]
    got = sha256_file(seed7_tree(flags) / "config.json")
    assert got == digest, (
        f"{name} config.json has sha256 {got}, pinned {digest}; "
        f"pinned on {PINNED_ENVIRONMENT}, run on {_environment()}"
    )


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


def test_both_targets_fp_is_a_usage_error_before_anything_is_written(tmp_path, capsys):
    for command in ("gen-model", "pipeline"):
        with pytest.raises(SystemExit) as exc:
            run([command, "--out-dir", str(tmp_path / command), "--target-bits", "fp", "--act-target-bits", "fp"])
        assert exc.value.code == 2
        assert "nothing to allocate" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_sensitivity_requires_model(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{"version": 2, "params": {}, "seeds": {}, "checksums": {}}')
    assert run(["sensitivity", "--manifest", str(manifest)]) == 3
    assert "required artifact missing: model.json" in capsys.readouterr().err


def test_manifest_path_with_a_nul_byte_exits_3(capsys):
    for stage in ("sensitivity", "allocate", "evaluate"):
        assert run([stage, "--manifest", "run/\x00manifest.json"]) == 3
        assert "is not a usable path" in capsys.readouterr().err


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


@pytest.fixture(scope="module")
def act6_dir(tmp_path_factory):
    """A W4A6 tree: both targets lie below the top width, so it holds a table of each kind."""
    out = tmp_path_factory.mktemp("act6") / "run"
    assert run(["pipeline", "--seed", "3", "--out-dir", str(out), *SMALL, "--act-target-bits", "6"]) == 0
    return out


def test_sensitivity_output_complete(act6_dir):
    for kind, n_layers in (("weight", None), ("activation", None)):
        lines = (act6_dir / f"sensitivity_{kind}.jsonl").read_text().splitlines()
        model = json.loads((act6_dir / "model.json").read_text())
        assert len(lines) == len(model["layers"]) * 3


def test_sensitivity_rerun_identical(pipeline_dir):
    before = sha256_file(pipeline_dir / "sensitivity_weight.jsonl")
    assert run(["sensitivity", "--manifest", str(pipeline_dir / "manifest.json")]) == 0
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


@pytest.mark.parametrize(
    "flags", [["--inputs", "4"], ["--bits", "2,4"], ["--no-bos-aware"], ["--bos-aware"]],
    ids=["inputs", "bits", "no-bos-aware", "bos-aware"],
)
def test_sensitivity_overrides_are_gone(pipeline_dir, flags):
    # an override used to write tables that the manifest, and so allocate and evaluate, did not describe
    before = tree_checksums(pipeline_dir)
    with pytest.raises(SystemExit) as exc:
        run(["sensitivity", "--manifest", str(pipeline_dir / "manifest.json"), *flags])
    assert exc.value.code == 2
    assert tree_checksums(pipeline_dir) == before


# every flag that let a stage after gen-model override or bypass the manifest
STAGE_OVERRIDES = {
    "allocate-target-bits": ("allocate", ["--target-bits", "3"]),
    "allocate-act-target-bits": ("allocate", ["--act-target-bits", "fp"]),
    "allocate-n-budgets": ("allocate", ["--n-budgets", "3"]),
    "allocate-delta-bits": ("allocate", ["--delta-bits", "0.5"]),
    "allocate-ratio-grid": ("allocate", ["--ratio-grid", "0.5:1.5:3"]),
    "allocate-act-ratio-grid": ("allocate", ["--act-ratio-grid", "0.9:1.1:3"]),
    "evaluate-inputs": ("evaluate", ["--inputs", "1"]),
    "evaluate-format": ("evaluate", ["--format", "csv"]),
    "sensitivity-kind": ("sensitivity", ["--kind", "weight"]),
    "pipeline-manifest": ("pipeline", []),
}


@pytest.mark.parametrize("override", STAGE_OVERRIDES)
def test_stage_overrides_are_gone(pipeline_dir, tmp_path, capsys, override):
    # each wrote artifacts that the manifest, the run's one record, did not describe
    stage, flags = STAGE_OVERRIDES[override]
    if stage == "pipeline":  # pipeline --manifest used to re-run the stages of an existing tree
        flags = ["--out-dir", str(tmp_path / "p")]
    before = tree_checksums(pipeline_dir)
    with pytest.raises(SystemExit) as exc:
        run([stage, "--manifest", str(pipeline_dir / "manifest.json"), *flags])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert tree_checksums(pipeline_dir) == before
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize("fp_kind", ["activation", "weight"])
def test_single_kind_run_writes_and_reads_only_its_table(tmp_path, fp_kind):
    out = tmp_path / "run"
    # the allocated kind's target lies below the top width, so its table is read
    if fp_kind == "activation":
        flags = ["--act-target-bits", "fp"]
    else:
        flags = ["--target-bits", "fp", "--act-target-bits", "6"]
    assert run(["gen-model", "--seed", "3", "--out-dir", str(out), *SMALL, *flags]) == 0
    kind = "weight" if fp_kind == "activation" else "activation"
    manifest = str(out / "manifest.json")
    assert run(["sensitivity", "--manifest", manifest]) == 0
    assert sorted(p.name for p in out.glob("sensitivity_*")) == [f"sensitivity_{kind}.jsonl"]
    assert [rel for rel in json.loads((out / "manifest.json").read_text())["checksums"]
            if rel.startswith("sensitivity_")] == [f"sensitivity_{kind}.jsonl"]
    assert run(["allocate", "--manifest", manifest]) == 0
    assert run(["evaluate", "--manifest", manifest]) == 0
    config = json.loads((out / "config.json").read_text())
    assert all(entry[fp_kind] is None and entry[kind] is not None for entry in config["layers"].values())


def _activation_table(root: Path) -> sensitivity.SensitivityTable:
    """The activation table of a run, at its manifest's settings: what trees at an A8 target used to hold."""
    data = json.loads((root / "manifest.json").read_text())
    params = data["params"]
    model = helpers.read_model(root)
    inputs = toy_model.make_input_set(data["seeds"]["calibration"], params["inputs"], model)
    return sensitivity.analyze(model, inputs, bit_widths=params["bits"], tensor_kind="activation",
                               bos_aware=params["bos_aware"])


def test_top_width_activation_target_writes_only_the_weight_table(pipeline_dir, tmp_path, monkeypatch):
    # at A8 on the 2,4,8 grid allocate ships uniform A8 and never reads an activation table
    assert sorted(p.name for p in pipeline_dir.glob("sensitivity_*")) == ["sensitivity_weight.jsonl"]
    assert [rel for rel in json.loads((pipeline_dir / "manifest.json").read_text())["checksums"]
            if rel.startswith("sensitivity_")] == ["sensitivity_weight.jsonl"]
    # the same stages given an activation table write the same config, frontier and report
    manifest = _copy_with_params(pipeline_dir, tmp_path)
    for name in ("config.json", "frontier.csv", "report.json"):
        (manifest.parent / name).unlink()
    act_table = _activation_table(manifest.parent)
    real = allocator.allocate_mixed
    given = []

    def with_act_table(model, **kwargs):
        given.append(kwargs["act_table"])
        return real(model, **{**kwargs, "act_table": act_table})

    monkeypatch.setattr(allocator, "allocate_mixed", with_act_table)
    assert run(["allocate", "--manifest", str(manifest)]) == 0
    assert run(["evaluate", "--manifest", str(manifest)]) == 0
    assert given == [None]
    for name in ("config.json", "frontier.csv", "report.json"):
        assert (manifest.parent / name).read_bytes() == (pipeline_dir / name).read_bytes(), name


@pytest.mark.parametrize("flags,top", [(["--target-bits", "8"], 8), (["--bits", "2,4"], 4)], ids=["w8a8", "bits-2-4"])
def test_top_width_targets_write_no_table(tmp_path, capsys, flags, top):
    out = tmp_path / "run"
    manifest = str(out / "manifest.json")
    assert run(["gen-model", "--seed", "3", "--out-dir", str(out), *SMALL, *flags]) == 0
    before = tree_checksums(out)
    assert run(["sensitivity", "--manifest", manifest]) == 0
    assert "no table needed" in capsys.readouterr().out
    assert tree_checksums(out) == before
    assert run(["allocate", "--manifest", manifest]) == 0
    assert run(["evaluate", "--manifest", manifest]) == 0
    config = json.loads((out / "config.json").read_text())
    assert all(entry == {"weight": top, "activation": top} for entry in config["layers"].values())
    assert json.loads((out / "report.json").read_text())["summary"] == config["summary"]
    assert not list(out.glob("sensitivity_*"))


def test_tree_with_an_unread_activation_table_still_allocates(pipeline_dir, tmp_path):
    # trees written before the rule hold an A8 activation table that allocate now never opens
    manifest = _copy_with_params(pipeline_dir, tmp_path)
    rel = "sensitivity_activation.jsonl"
    table = manifest.parent / rel
    table.write_text(_activation_table(manifest.parent).to_jsonl())
    table.write_text(TABLE_DAMAGES["nan_score"](table.read_text()))
    data = json.loads(manifest.read_text())
    data["checksums"][rel] = sha256_file(table)
    manifest.write_text(json.dumps(data))
    (manifest.parent / "config.json").unlink()
    assert run(["allocate", "--manifest", str(manifest)]) == 0
    assert (manifest.parent / "config.json").read_bytes() == (pipeline_dir / "config.json").read_bytes()


def test_lowering_a_target_from_the_top_width_needs_sensitivity_again(pipeline_dir, tmp_path, capsys):
    manifest = _copy_with_params(pipeline_dir, tmp_path, act_target_bits=6)
    assert run(["allocate", "--manifest", str(manifest)]) == 3
    assert "sensitivity_activation.jsonl (run the sensitivity stage first)" in capsys.readouterr().err
    assert run(["sensitivity", "--manifest", str(manifest)]) == 0
    assert run(["allocate", "--manifest", str(manifest)]) == 0
    config = json.loads((manifest.parent / "config.json").read_text())
    assert config["summary"]["avg_act_bits"] <= 6.0


@pytest.mark.parametrize("stage", ["sensitivity", "allocate"])
def test_manifest_with_both_targets_fp_exits_3(pipeline_dir, tmp_path, capsys, stage):
    manifest = _copy_with_params(pipeline_dir, tmp_path, target_bits=None, act_target_bits=None)
    before = tree_checksums(manifest.parent)
    assert run([stage, "--manifest", str(manifest)]) == 3
    assert "nothing to allocate" in capsys.readouterr().err
    assert tree_checksums(manifest.parent) == before


def test_sensitivity_reads_inputs_bits_and_bos_aware_from_the_manifest(pipeline_dir, tmp_path):
    manifest = _copy_with_params(pipeline_dir, tmp_path, inputs=2, bits=[8, 2], bos_aware=False, act_target_bits=None)
    assert run(["sensitivity", "--manifest", str(manifest)]) == 0
    data = json.loads(manifest.read_text())
    model = helpers.read_model(manifest.parent)
    inputs = toy_model.make_input_set(data["seeds"]["calibration"], 2, model)
    want = sensitivity.analyze(model, inputs, bit_widths=(2, 8), tensor_kind="weight", bos_aware=False)
    assert (manifest.parent / "sensitivity_weight.jsonl").read_text() == want.to_jsonl()


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
    assert run(["sensitivity", "--manifest", str(copy / "manifest.json")]) == 0
    assert sha256_file(copy / "sensitivity_weight.jsonl") == sha256_file(pipeline_dir / "sensitivity_weight.jsonl")


def run_subprocess(argv, timeout=60):
    """The CLI in a fresh interpreter, killed after ``timeout`` seconds so a hang fails the test."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-m", "mixprec.cli", *argv], env=env, capture_output=True,
                          text=True, timeout=timeout)


def test_allocate_delta_bits_nan_exits_2_without_hanging(tmp_path):
    # a nan sweep width used to loop forever in allocate's budget sweep
    proc = run_subprocess(["gen-model", "--out-dir", str(tmp_path / "g"), "--delta-bits", "nan"])
    assert proc.returncode == 2
    assert "delta" in proc.stderr
    assert not (tmp_path / "g").exists()


def test_negative_delta_bits_exits_2(tmp_path):
    # used to succeed with an allocation above the average-bit targets
    for argv in (["gen-model", "--out-dir", str(tmp_path / "g")], ["pipeline", "--out-dir", str(tmp_path / "p")]):
        for bad in ("-1", "-0.5", "inf", "-inf", "nan", "abc"):
            with pytest.raises(SystemExit) as exc:
                run([*argv, "--delta-bits", bad])
            assert exc.value.code == 2
    assert not (tmp_path / "g").exists() and not (tmp_path / "p").exists()


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


@pytest.mark.parametrize("key", cli._PARAM_CHECKS)
def test_missing_manifest_param_exits_3(pipeline_dir, tmp_path, capsys, key):
    # manifests written before n_budgets, delta_avg_bits and proxy_inputs were
    # recorded used to get defaults for them; every param a stage reads is required
    manifest = _copy_with_params(pipeline_dir, tmp_path)
    data = json.loads(manifest.read_text())
    del data["params"][key]
    manifest.write_text(json.dumps(data))
    before = tree_checksums(manifest.parent)
    assert run(["evaluate", "--manifest", str(manifest)]) == 3
    assert f"manifest params lack {key!r}" in capsys.readouterr().err
    assert tree_checksums(manifest.parent) == before


def _record_checksums_again(root: Path, damaged: Path) -> None:
    """Record a damaged artifact's checksum again, in its weight sidecar when it is
    a ``.bin`` and in the manifest, so that the stages go on to parse it."""
    rels = [damaged.relative_to(root).as_posix()]
    if damaged.suffix == ".bin":
        sidecar = damaged.with_suffix(".json")
        meta = json.loads(sidecar.read_text())
        meta["checksum"] = "sha256:" + sha256_file(damaged)
        sidecar.write_text(json.dumps(meta))
        rels.append(sidecar.relative_to(root).as_posix())
    data = json.loads((root / "manifest.json").read_text())
    data["checksums"].update({rel: sha256_file(root / rel) for rel in rels})
    (root / "manifest.json").write_text(json.dumps(data))


MODEL_JSON_DAMAGES = {
    "truncated": lambda raw: raw[: len(raw) // 2],
    "wrong_shape": lambda raw: b'{"layers": 5}',
    "non_utf8": lambda raw: b"\xff" + raw,
}
# model.json cut short (checksum no longer matches), the same file with its
# checksum recorded again (so it is parsed), valid JSON of the wrong shape,
# and bytes that are not UTF-8
BAD_MODEL_JSON = [("truncated", False), ("truncated", True), ("wrong_shape", True), ("non_utf8", True)]


@pytest.mark.parametrize("stage", ["sensitivity", "allocate", "evaluate"])
@pytest.mark.parametrize("damage,rechecksum", BAD_MODEL_JSON)
def test_bad_model_json_exits_3(pipeline_dir, tmp_path, capsys, stage, damage, rechecksum):
    manifest = _copy_with_params(pipeline_dir, tmp_path)
    model_json = manifest.parent / "model.json"
    model_json.write_bytes(MODEL_JSON_DAMAGES[damage](model_json.read_bytes()))
    if rechecksum:
        _record_checksums_again(manifest.parent, model_json)
    before = tree_checksums(manifest.parent)
    assert run([stage, "--manifest", str(manifest)]) == 3
    err = capsys.readouterr().err
    assert ("checksum mismatch: model.json" in err) == (not rechecksum)
    assert ("model.json is not a valid model description" in err) == rechecksum
    assert tree_checksums(manifest.parent) == before


@pytest.mark.parametrize(
    "field,value", [("width", 1), ("depth", 0), ("spatial", 7), ("text_tokens", 1), ("time_dim", 5), ("width", 10**6)]
)
def test_model_json_with_a_shape_the_model_refuses_exits_3(pipeline_dir, tmp_path, capsys, field, value):
    # each check of build_toy_unet's shape, the size cap last, holds for a stored model
    manifest = _copy_with_params(pipeline_dir, tmp_path)
    model_json = manifest.parent / "model.json"
    meta = json.loads(model_json.read_text())
    meta[field] = value
    model_json.write_text(json.dumps(meta))
    _record_checksums_again(manifest.parent, model_json)
    assert run(["sensitivity", "--manifest", str(manifest)]) == 3
    assert ("cap" if value == 10**6 else field) in capsys.readouterr().err


# a damaged sidecar or .bin of one weight tensor, its checksums recorded again;
# each used to end in a traceback (exit 1)
WEIGHT_DAMAGES = {
    "sidecar_non_utf8": (".json", lambda raw: b"\xff" + raw),
    "sidecar_list": (".json", lambda raw: b"[1]"),
    "bin_empty": (".bin", lambda raw: b""),
    "bin_rank_200": (".bin", lambda raw: struct.pack("<I", 200) + bytes(16)),
    "bin_rank_2_31": (".bin", lambda raw: struct.pack("<I", 2**31) + raw[4:]),  # used to read 16 GiB
    "bin_payload_too_long": (".bin", lambda raw: raw + b"\0"),
}


@pytest.mark.parametrize("damage", WEIGHT_DAMAGES)
def test_malformed_weight_file_exits_3(tiny_tree, tmp_path, capsys, damage):
    copy = tmp_path / "run"
    shutil.copytree(tiny_tree, copy)
    suffix, edit = WEIGHT_DAMAGES[damage]
    path = copy / "weights" / f"enc0.conv_in{suffix}"
    path.write_bytes(edit(path.read_bytes()))
    _record_checksums_again(copy, path)
    before = tree_checksums(copy)
    assert run(["evaluate", "--manifest", str(copy / "manifest.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "weights/enc0.conv_in is not a valid weight tensor" in err
    assert tree_checksums(copy) == before


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
    "non_utf8": lambda text: "\udcff" + text,  # written with surrogateescape: a 0xff byte
}


@pytest.mark.parametrize("damage", TABLE_DAMAGES)
@pytest.mark.parametrize("kind", ["weight", "activation"])
def test_malformed_sensitivity_table_exits_3(act6_dir, tmp_path, capsys, damage, kind):
    manifest = _copy_with_params(act6_dir, tmp_path)
    rel = f"sensitivity_{kind}.jsonl"
    table = manifest.parent / rel
    table.write_text(TABLE_DAMAGES[damage](table.read_text()), errors="surrogateescape")
    _record_checksums_again(manifest.parent, table)
    before = tree_checksums(manifest.parent)
    assert run(["allocate", "--manifest", str(manifest)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"{rel} is not a valid table" in err or "is not a finite number" in err
    assert tree_checksums(manifest.parent) == before


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
        mf.write_atomic(path, "avg_bits\n" + "\ud800")  # fails to encode, before any file is written
    assert tree_checksums(root) == before


def test_gen_model_records_checksums_without_reading_its_files_back(tmp_path, monkeypatch):
    assert run(["gen-model", "--out-dir", str(tmp_path / "read"), *TINY]) == 0

    def no_read_back(path):
        raise AssertionError(f"gen-model read {path} back to hash it")

    with monkeypatch.context() as patched:
        patched.setattr(mf, "sha256_file", no_read_back)
        patched.setattr(tensor_core, "sha256_file", no_read_back)
        assert run(["gen-model", "--out-dir", str(tmp_path / "written"), *TINY]) == 0
    manifest = (tmp_path / "written" / "manifest.json").read_bytes()
    assert manifest == (tmp_path / "read" / "manifest.json").read_bytes()
    data = json.loads(manifest)
    mf.verify_artifacts(data, tmp_path / "written", list(data["checksums"]))


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
    with pytest.raises(SystemExit) as exc:
        run(["gen-model", "--out-dir", str(tmp_path / "unused"), "--eval-seed", "-1"])
    assert exc.value.code == 2


def test_evaluate_malformed_config_exits_3(pipeline_dir, tmp_path):
    manifest = _copy_with_params(pipeline_dir, tmp_path)
    config = json.loads((manifest.parent / "config.json").read_text())
    config["layers"][min(config["layers"])]["weight"] = [4]  # used to end in a TypeError traceback
    for name, text in (("truncated.json", '{"layers": {'), ("list.json", "[1, 2]"),
                       ("no_layers.json", '{"summary": {}}'), ("bad_entry.json", '{"layers": {"a": 4}}'),
                       ("list_bits.json", json.dumps(config))):
        (manifest.parent / name).write_text(text)
        assert run(["evaluate", "--manifest", str(manifest), "--config", name]) == 3, name


def test_evaluate_config_confined_to_run_directory(pipeline_dir, tmp_path):
    manifest = _copy_with_params(pipeline_dir, tmp_path)
    outside = tmp_path / "other"
    outside.mkdir()
    shutil.copy(manifest.parent / "config.json", outside / "config.json")
    (manifest.parent / "loop").symlink_to("loop")
    before = tree_checksums(manifest.parent)
    for path in (str(outside / "config.json"), "../other/config.json", "loop"):
        assert run(["evaluate", "--manifest", str(manifest), "--config", path]) == 3, path
    assert tree_checksums(manifest.parent) == before
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


def test_evaluate_report_equals_the_per_input_oracle(tmp_path):
    # two eval chunks: FORWARD_CHUNK inputs and 2
    out, n = tmp_path / "run", toy_model.FORWARD_CHUNK + 2
    assert run(["pipeline", "--seed", "3", "--out-dir", str(out), *SMALL, "--eval-inputs", str(n)]) == 0
    data = json.loads((out / "manifest.json").read_text())
    model = helpers.read_model(out)
    config = allocator.BitWidthConfig.from_json_dict(json.loads((out / mf.CONFIG).read_text())).config
    assert config.wants_act_quant()
    calib = toy_model.make_input_set(data["seeds"]["calibration"], data["params"]["inputs"], model)
    ranges = toy_model.calibrate_activations(model, calib, bos_aware=True)
    inputs = toy_model.make_input_set(data["seeds"]["eval"], n, model)
    refs = helpers.forward_inputs(model, inputs, bos_aware=True)
    outs = helpers.forward_inputs(model, inputs, config=config, bos_aware=True, act_ranges=ranges)
    ssims, sqnrs = helpers.per_input_scores(refs, outs)
    base_ssims, base_sqnrs = helpers.per_input_scores(refs, refs)

    report = json.loads((out / mf.REPORT).read_text())
    assert report["n_inputs"] == n
    assert report["per_input"] == [
        {"index": i, "ssim": ssim, "sqnr_db": sqnr} for i, (ssim, sqnr) in enumerate(zip(ssims, sqnrs))
    ]
    assert report["metrics"] == {
        "ssim_mean": helpers.mean_in_order(ssims), "sqnr_db_mean": helpers.mean_in_order(sqnrs),
    }
    assert report["baseline"] == {
        "ssim_mean": helpers.mean_in_order(base_ssims), "sqnr_db_mean": helpers.mean_in_order(base_sqnrs),
    }


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
    data = json.loads((out / "manifest.json").read_text())
    data["params"]["target_bits"] = 2
    (out / "manifest.json").write_text(json.dumps(data))
    before = tree_checksums(out)
    capsys.readouterr()
    assert run(["allocate", "--manifest", str(out / "manifest.json")]) == 4
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
    assert run(["sensitivity", "--manifest", str(out / "manifest.json")]) == 0
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
    assert run(["pipeline", "--seed", "3", "--out-dir", str(out), *SMALL, "--act-target-bits", "6"]) == 0
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


def test_manifest_not_utf8_exits_3(pipeline_dir, tmp_path, capsys):
    # used to end in a UnicodeDecodeError traceback in every stage
    copy = tmp_path / "run"
    shutil.copytree(pipeline_dir, copy)
    manifest = copy / "manifest.json"
    manifest.write_bytes(b"\xff" + manifest.read_bytes())
    before = tree_checksums(copy)
    for stage in ("sensitivity", "allocate", "evaluate"):
        assert run([stage, "--manifest", str(manifest)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "manifest.json is not a valid manifest" in err
    assert tree_checksums(copy) == before


@pytest.mark.parametrize("section", ["checksums", "params", "seeds"])
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


def test_manifest_names_no_paths(pipeline_dir, tmp_path):
    # the run directory's layout is fixed (manifest.LAYOUT); the manifest records seeds, params and checksums
    assert run(["gen-model", "--out-dir", str(tmp_path / "run"), *SMALL]) == 0
    for root in (tmp_path / "run", pipeline_dir):
        assert sorted(json.loads((root / "manifest.json").read_text())) == ["checksums", "params", "seeds", "version"]


# The paths a version-1 manifest named; version 2 fixes them.
_V1_PATHS = {
    "model": {"json": "model.json", "weights_dir": "weights"},
    "artifacts": {
        "sensitivity_weight": "sensitivity_weight.jsonl",
        "sensitivity_activation": "sensitivity_activation.jsonl",
        "config": "config.json",
        "frontier": "frontier.csv",
        "frontier_configs_dir": "frontier_configs",
        "report": "report.json",
    },
}


def test_version_1_manifest_exits_3(pipeline_dir, tmp_path, capsys):
    manifest = _write_manifest(pipeline_dir, tmp_path, lambda d: {**d, **_V1_PATHS, "version": 1})
    before = tree_checksums(manifest.parent)
    for stage in ("sensitivity", "allocate", "evaluate"):
        assert run([stage, "--manifest", str(manifest)]) == 3
        assert "unsupported version 1" in capsys.readouterr().err
    assert tree_checksums(manifest.parent) == before


@pytest.mark.parametrize("entry", [mf.FRONTIER_CONFIGS_DIR, mf.WEIGHTS_DIR])
def test_layout_entry_symlinked_out_of_the_run_dir_exits_3(pipeline_dir, tmp_path, capsys, entry):
    copy, outside = tmp_path / "run", tmp_path / "outside"
    shutil.copytree(pipeline_dir, copy)
    shutil.move(copy / entry, outside)
    (copy / entry).symlink_to(outside, target_is_directory=True)
    before = tree_checksums(outside)
    assert run(["allocate", "--manifest", str(copy / "manifest.json")]) == 3
    assert "outside the run directory" in capsys.readouterr().err
    assert tree_checksums(outside) == before


@pytest.mark.parametrize("command", ["gen-model", "pipeline"])
@pytest.mark.parametrize("entry", [mf.FRONTIER_CONFIGS_DIR, mf.WEIGHTS_DIR])
def test_gen_model_into_a_layout_entry_symlinked_out_of_the_run_dir_exits_3(tmp_path, capsys, command, entry):
    run_dir, outside = tmp_path / "run", tmp_path / "outside"
    run_dir.mkdir()
    outside.mkdir()
    (outside / "keep.txt").write_text("kept\n")
    (run_dir / entry).symlink_to(outside, target_is_directory=True)
    before = tree_checksums(outside)
    assert run([command, "--out-dir", str(run_dir), *SMALL]) == 3
    assert "outside the run directory" in capsys.readouterr().err
    assert tree_checksums(outside) == before
    assert [p.name for p in run_dir.iterdir()] == [entry]  # nothing written inside either


# A version-2 manifest that still names a path is refused, not silently ignored.
def _with_section(section, **paths):
    return lambda d: {**d, section: {**_V1_PATHS[section], **paths}}


def test_manifest_artifacts_string_exits_3(pipeline_dir, tmp_path, capsys):
    # used to end in a TypeError traceback in sensitivity
    manifest = _write_manifest(pipeline_dir, tmp_path, lambda data: {**data, "artifacts": "x"})
    assert run(["sensitivity", "--manifest", str(manifest)]) == 3
    assert "unknown section(s) artifacts" in capsys.readouterr().err


def test_manifest_artifact_number_exits_3(pipeline_dir, tmp_path, capsys):
    # used to end in a TypeError traceback (exit 1) in allocate
    manifest = _write_manifest(pipeline_dir, tmp_path, _with_section("artifacts", config=5))
    assert run(["allocate", "--manifest", str(manifest)]) == 3
    assert "error: " in capsys.readouterr().err


def test_manifest_artifact_escaping_run_dir_exits_3(pipeline_dir, tmp_path, capsys):
    # used to exit 0 after writing the frontier outside the run directory
    manifest = _write_manifest(pipeline_dir, tmp_path, _with_section("artifacts", frontier="../escaped.csv"))
    before = tree_checksums(manifest.parent)
    assert run(["allocate", "--manifest", str(manifest)]) == 3
    assert "unknown section(s) artifacts" in capsys.readouterr().err
    assert not (tmp_path / "escaped.csv").exists()
    assert tree_checksums(manifest.parent) == before


@pytest.mark.parametrize("key", ["config", "report", "frontier_configs_dir", "sensitivity_weight", "extra"])
@pytest.mark.parametrize("value", [None, ["config.json"], "/abs/config.json", "", ".", "..", "sub/../../x", "a\0b"])
def test_manifest_bad_artifact_path_exits_3(pipeline_dir, tmp_path, capsys, key, value):
    manifest = _write_manifest(pipeline_dir, tmp_path, _with_section("artifacts", **{key: value}))
    before = tree_checksums(manifest.parent)
    for stage in ("sensitivity", "allocate", "evaluate"):
        assert run([stage, "--manifest", str(manifest)]) == 3
        assert "unknown section(s) artifacts" in capsys.readouterr().err
    assert tree_checksums(manifest.parent) == before


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
    assert "unknown section(s) model" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["json", "weights_dir"])
@pytest.mark.parametrize("value", ["missing", None, 5, ["model.json"], "/abs/model.json", "", ".", "../model.json"])
def test_manifest_bad_model_path_exits_3(pipeline_dir, tmp_path, capsys, key, value):
    def edit(data):
        data = _with_section("model")(data)
        if value == "missing":
            del data["model"][key]
        else:
            data["model"][key] = value
        return data

    manifest = _write_manifest(pipeline_dir, tmp_path, edit)
    for stage in ("sensitivity", "allocate", "evaluate"):
        assert run([stage, "--manifest", str(manifest)]) == 3
        assert "unknown section(s) model" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["x", [], None])
def test_manifest_model_not_an_object_exits_3(pipeline_dir, tmp_path, capsys, value):
    manifest = _write_manifest(pipeline_dir, tmp_path, lambda data: {**data, "model": value})
    for stage in ("sensitivity", "allocate", "evaluate"):
        assert run([stage, "--manifest", str(manifest)]) == 3
        assert "unknown section(s) model" in capsys.readouterr().err


def test_oversized_sweep_flags_exit_2_without_hanging(pipeline_dir):
    # sweeps this size used to run allocate until killed
    for n_budgets in ("1000000", "200"):
        proc = run_subprocess(["gen-model", "--out-dir", str(pipeline_dir / "unused"), "--n-budgets", n_budgets],
                              timeout=30)
        assert proc.returncode == 2, n_budgets
        assert "cells" in proc.stderr, n_budgets
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
    assert run(["gen-model", "--out-dir", str(tmp_path / "at"), *SMALL]) == 0
    with pytest.raises(SystemExit) as exc:
        run(["gen-model", "--out-dir", str(tmp_path / "over"), *SMALL, "--n-budgets", "3"])
    assert exc.value.code == 2
    assert not (tmp_path / "over").exists()

    def allocate_at(n_budgets):
        data = json.loads(manifest.read_text())
        data["params"]["n_budgets"] = n_budgets
        manifest.write_text(json.dumps(data))
        return run(["allocate", "--manifest", str(manifest)])

    assert allocate_at(3) == 3
    assert allocate_at(2) == 0
    # n_budgets is checked against both kinds' grids
    monkeypatch.setattr(allocator, "DEFAULT_RATIO_GRID_ACT", (1.0,) * 9)
    assert allocate_at(2) == 3


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


def test_input_count_flags_are_capped(pipeline_dir, tmp_path, monkeypatch, capsys):
    too_many = str(toy_model.MAX_INPUTS + 1)
    for flag in ("--inputs", "--proxy-inputs", "--eval-inputs"):
        with pytest.raises(SystemExit) as exc:
            run(["gen-model", "--out-dir", str(tmp_path / "g"), flag, too_many])
        assert exc.value.code == 2, flag
    assert not (tmp_path / "g").exists()
    copy = _copy_with_params(pipeline_dir, tmp_path, eval_inputs=4)
    monkeypatch.setattr(toy_model, "MAX_INPUTS", 4)  # SMALL records 4 calibration inputs
    assert run(["evaluate", "--manifest", str(copy)]) == 0
    assert json.loads((copy.parent / "report.json").read_text())["n_inputs"] == 4
    data = json.loads(copy.read_text())
    data["params"]["eval_inputs"] = 5
    copy.write_text(json.dumps(data))
    assert run(["evaluate", "--manifest", str(copy)]) == 3
    assert "params.eval_inputs" in capsys.readouterr().err


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
    shape = json.loads((out / "weights" / "out.conv_out.json").read_text())["shape"]
    save_tensor(np.full(shape, 1e200), weight)
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


# Runs each later stage on a tree, and `evaluate` on its first frontier cell too,
# under an audit hook that counts the read-mode opens of each file in the tree.
# Audit hooks cannot be removed, so this runs in its own interpreter.
_COUNT_READS = r"""
import collections, json, os, sys
from mixprec import cli

root = os.path.realpath(sys.argv[1])
reads = collections.Counter()


def count(event, args):
    if event == "open" and isinstance(args[0], (str, os.PathLike)) and isinstance(args[1], str) \
            and ("r" in args[1] or "+" in args[1]):
        path = os.path.realpath(args[0])
        if path.startswith(root + os.sep):
            reads[os.path.relpath(path, root)] += 1


sys.addaudithook(count)
manifest = os.path.join(root, "manifest.json")
stages = {}
for name in ("sensitivity", "allocate", "evaluate", "evaluate --config"):
    argv = [name.split()[0], "--manifest", manifest]
    if name == "evaluate --config":
        argv += ["--config", "frontier_configs/" + sorted(os.listdir(os.path.join(root, "frontier_configs")))[0]]
    reads.clear()
    stages[name] = [cli.main(argv), dict(reads)]
print(json.dumps(stages))
"""


def test_no_stage_reads_a_file_twice(tmp_path):
    # the bytes the checksum gate reads are the bytes each parser gets; W4A6, so allocate reads both tables
    out = tmp_path / "run"
    assert run(["gen-model", "--out-dir", str(out), *TINY, "--act-target-bits", "6"]) == 0
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", _COUNT_READS, str(out)], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    stages = json.loads(proc.stdout.splitlines()[-1])
    for name, (code, reads) in stages.items():
        assert code == 0, name
        assert max(reads.values()) == 1, (name, {rel: n for rel, n in reads.items() if n > 1})
    assert {"manifest.json", "model.json", "weights/enc0.conv_in.bin", "weights/enc0.conv_in.json"} <= set(
        stages["sensitivity"][1])
    assert {"sensitivity_weight.jsonl", "sensitivity_activation.jsonl"} <= set(stages["allocate"][1])
    assert "config.json" in stages["evaluate"][1]
    assert "config.json" not in stages["evaluate --config"][1]
    assert any(rel.startswith("frontier_configs/") for rel in stages["evaluate --config"][1])


# a file of the tiny tree, and a stage that reads it
UNRECORDED = [
    ("model.json", "sensitivity"),
    ("weights/enc0.conv_in.bin", "evaluate"),
    ("weights/enc0.conv_in.json", "allocate"),
    ("sensitivity_weight.jsonl", "allocate"),
    ("config.json", "evaluate"),
]


@pytest.mark.parametrize("rel,stage", UNRECORDED)
def test_artifact_without_a_recorded_checksum_exits_3(tiny_tree, tmp_path, capsys, rel, stage):
    copy = tmp_path / "run"
    shutil.copytree(tiny_tree, copy)
    data = json.loads((copy / "manifest.json").read_text())
    del data["checksums"][rel]
    (copy / "manifest.json").write_text(json.dumps(data))
    before = tree_checksums(copy)
    assert run([stage, "--manifest", str(copy / "manifest.json")]) == 3
    assert f"artifact has no recorded checksum: {rel}" in capsys.readouterr().err
    assert tree_checksums(copy) == before


def test_evaluate_of_a_missing_config_exits_3(tiny_tree, tmp_path, capsys):
    # the allocated config, named with the stage that writes it, and a --config the manifest does not record
    copy = tmp_path / "run"
    shutil.copytree(tiny_tree, copy)
    (copy / "config.json").unlink()
    before = tree_checksums(copy)
    for extra, message in (([], "required artifact missing: config.json (run the allocate stage first)"),
                           (["--config", "absent.json"], "required artifact missing: absent.json\n")):
        assert run(["evaluate", "--manifest", str(copy / "manifest.json"), *extra]) == 3
        assert message in capsys.readouterr().err
    assert tree_checksums(copy) == before


def test_weight_that_disagrees_with_its_sidecar_checksum_exits_3(tiny_tree, tmp_path, capsys):
    # one payload byte flipped and both manifest digests recorded again: only the sidecar's checksum disagrees
    copy = tmp_path / "run"
    shutil.copytree(tiny_tree, copy)
    weight = copy / "weights" / "enc0.conv_in.bin"
    raw = weight.read_bytes()
    weight.write_bytes(raw[:-1] + bytes([raw[-1] ^ 0x01]))
    data = json.loads((copy / "manifest.json").read_text())
    for rel in ("weights/enc0.conv_in.bin", "weights/enc0.conv_in.json"):
        data["checksums"][rel] = sha256_file(copy / rel)
    (copy / "manifest.json").write_text(json.dumps(data))
    before = tree_checksums(copy)
    assert run(["evaluate", "--manifest", str(copy / "manifest.json")]) == 3
    err = capsys.readouterr().err
    assert "checksum mismatch for " in err and err.rstrip().endswith("weights/enc0.conv_in.bin"), err
    assert tree_checksums(copy) == before


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
    # Every stage on a manifest with mutated params, seeds or
    # checksums ends in 0/2/3/4/5, never a traceback. The input-count and sweep
    # caps are patched down so that no valid example runs long; their
    # boundaries have tests of their own.
    manifest = json.loads((tiny_tree / "manifest.json").read_text())
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        section = data.draw(st.sampled_from(["params", "seeds", "checksums"]), label="section")
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


# each artifact a fuzzed example damages, and the stage that reads it
_READERS = {
    "model.json": "evaluate",
    "weights/enc0.conv_in.json": "evaluate",
    "weights/enc0.conv_in.bin": "evaluate",
    "sensitivity_weight.jsonl": "allocate",
    "config.json": "evaluate",
}


@st.composite
def _damaged_bytes(draw, raw: bytes) -> bytes:
    how = draw(st.sampled_from(["truncate", "flip", "non_utf8", "json"]), label="how")
    if how == "json":
        return json.dumps(draw(_json_values, label="value")).encode()
    at = draw(st.integers(0, len(raw) - 1), label="at")
    if how == "truncate":
        return raw[:at]
    if how == "flip":
        return raw[:at] + bytes([raw[at] ^ draw(st.integers(1, 255), label="mask")]) + raw[at + 1:]
    return raw[:at] + b"\xff" + raw[at:]  # 0xff never occurs in UTF-8


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_damaged_artifact_exits_0_or_3(tiny_tree, data):
    # A model, weight, table or config file truncated, with a byte flipped, with
    # a byte that is not UTF-8, or replaced by another JSON value, its checksums
    # recorded again, is either read or refused with exit 3: never a traceback.
    rel = data.draw(st.sampled_from(sorted(_READERS)), label="artifact")
    damaged = data.draw(_damaged_bytes((tiny_tree / rel).read_bytes()), label="bytes")
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "run"
        shutil.copytree(tiny_tree, copy)
        (copy / rel).write_bytes(damaged)
        _record_checksums_again(copy, copy / rel)
        assert run([_READERS[rel], "--manifest", str(copy / "manifest.json")]) in (0, 3)


def _flag_vocabulary() -> dict[str, list[str]]:
    """Each subcommand's option strings, from its parser, but for the paths the
    argv fuzz sets itself."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    return {
        name: sorted(s for action in sub._actions for s in action.option_strings if s not in ("--out-dir", "--manifest"))
        for name, sub in commands.items()
    }


_FLAGS = _flag_vocabulary()
_ANY_FLAG = st.sampled_from(sorted({flag for flags in _FLAGS.values() for flag in flags}))
# Values a flag may take on a tiny model, then junk that none takes. No text
# starts with "--": argparse would take a prefix such as "--ou" for --out-dir.
_ARG_VALUES = st.sampled_from([
    "1", "2", "4", "6", "8", "2,8", "0.25", "config.json", "frontier_configs/weight_000.json",
    "nan", "inf", "-inf", "1e309", "fp", "2,,4", "-1", "\x00", "../x", "", " ",
]) | st.text(max_size=4).filter(lambda text: not text.startswith("--"))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_random_argv_exits_with_a_documented_code(tiny_tree, tmp_path_factory, data):
    # Any subcommand, with tokens drawn from its own and the other parsers' flags
    # and values, junk included, ends in 0/2/3/4/5: never exit 1 or a traceback.
    # A run writes only under a fresh directory: gen-model and pipeline into it,
    # on the tiny shape unless a token overrides it; the other stages on a copy
    # of a tiny run, at its manifest, a file that is no manifest, the run
    # directory itself or a missing path.
    command = data.draw(st.sampled_from(sorted(_FLAGS)), label="command")
    root = tmp_path_factory.mktemp("argv")
    if command in ("gen-model", "pipeline"):
        argv = [command, "--out-dir", str(root / "run"), *TINY]
    else:
        shutil.copytree(tiny_tree, root / "run")
        manifest = data.draw(st.sampled_from(["run/manifest.json", "run/model.json", "run", "missing.json"]))
        argv = [command, "--manifest", str(root / manifest)]
    flag = st.sampled_from(_FLAGS[command]) | _ANY_FLAG
    token = st.tuples(flag, _ARG_VALUES).map(list) | flag.map(lambda f: [f]) | _ARG_VALUES.map(lambda v: [v])
    for tokens in data.draw(st.lists(token, max_size=5), label="tokens"):
        argv += tokens
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    assert rc in (0, 2, 3, 4, 5), argv


_TARGETS = st.sampled_from([None, 2.0, 3.0, 4.0, 6.0, 8.0]) | st.floats(2, 8)


@settings(max_examples=25, deadline=None)
@given(target=_TARGETS, act_target=_TARGETS, bits=st.sets(st.sampled_from(quantizer.BIT_WIDTHS), min_size=1))
def test_drawn_targets_and_grids_exit_with_a_documented_code(target, act_target, bits):
    # Every stage on a tiny model, at any targets (at the top width and fp
    # included) and any grid, ends in 0, 3 or 4, never a traceback, and
    # sensitivity writes a table for exactly the kinds allocator.needs_table names.
    assume(target is not None or act_target is not None)  # both fp is a usage error at gen-model
    grid = sorted(bits)
    flags = [*TINY[:TINY.index("--bits")], "--bits", ",".join(map(str, grid))]
    for flag, value in (("--target-bits", target), ("--act-target-bits", act_target)):
        flags += [flag, "fp" if value is None else repr(value)]
    want = sorted(f"sensitivity_{kind}.jsonl" for kind, value in (("weight", target), ("activation", act_target))
                  if allocator.needs_table(value, grid))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        manifest = str(out / "manifest.json")
        assert run(["gen-model", "--seed", "5", "--out-dir", str(out), *flags]) == 0
        rc = run(["sensitivity", "--manifest", manifest])
        assert rc in (0, 3, 4)
        if rc == 0:
            assert sorted(p.name for p in out.glob("sensitivity_*")) == want
        rc = run(["allocate", "--manifest", manifest])
        assert rc in (0, 3, 4)
        assert run(["evaluate", "--manifest", manifest]) == (0 if rc == 0 else 3)  # no config: exit 3
