import builtins
import io
import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mixprec import tensor_core as tc
from mixprec.errors import ParameterError, ShapeError, ValidationError

import helpers


def test_random_normal_rejects_bad_extents():
    with pytest.raises(ShapeError):
        tc.random_normal([0], 0.0, 1.0, seed=1)
    with pytest.raises(ShapeError):
        tc.random_normal([2, -1], 0.0, 1.0, seed=1)
    with pytest.raises(ShapeError):
        tc.random_normal([], 0.0, 1.0, seed=1)


def test_random_normal_degenerate_stddev():
    t = tc.random_normal([5], mean=3.0, stddev=0.0, seed=1)
    assert np.all(t == 3.0)


def test_random_normal_determinism():
    a = tc.random_normal([4, 4], 0.0, 1.0, seed=42)
    b = tc.random_normal([4, 4], 0.0, 1.0, seed=42)
    assert np.array_equal(a, b)
    c = tc.random_normal([4, 4], 0.0, 1.0, seed=43)
    assert not np.array_equal(a, c)


def test_random_normal_sample_mean():
    t = tc.random_normal([10_000], 0.0, 1.0, seed=7)
    assert abs(t.mean()) < 0.05


def test_random_normal_rejects_negative_stddev():
    with pytest.raises(ParameterError):
        tc.random_normal([3], 0.0, -1.0, seed=0)


def test_l2_and_mse_examples():
    assert tc.l2_norm_sq(np.array([3.0, 4.0])) == 25.0
    x = np.array([1.0, -2.0, 0.5])
    assert helpers.mse(x, x) == 0.0
    assert helpers.mse(np.zeros(2), np.ones(2)) == 1.0


def test_mse_shape_mismatch():
    with pytest.raises(ShapeError):
        helpers.mse(np.zeros(2), np.zeros(3))


finite_arrays = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=3, max_side=6),
    elements=st.floats(-1e6, 1e6, allow_nan=False),
)


@given(finite_arrays)
def test_mse_symmetric_nonnegative(a):
    b = a[::-1].copy().reshape(a.shape)
    assert helpers.mse(a, b) == helpers.mse(b, a)
    assert helpers.mse(a, b) >= 0.0


def load(base):
    return tc.load_tensor(base, *helpers.tensor_files(base))


def test_tensor_roundtrip(tmp_path):
    t = tc.random_normal([3, 5, 2], 1.0, 2.0, seed=9)
    tc.save_tensor(t, tmp_path / "t")
    back = load(tmp_path / "t")
    assert back.shape == t.shape
    assert np.array_equal(back, t)


def test_tensor_checksum_detects_tamper(tmp_path):
    t = np.full(4, 1.0)
    bin_path, _ = tc.save_tensor(t, tmp_path / "t")
    raw = bytearray(bin_path.read_bytes())
    raw[-1] ^= 0xFF
    bin_path.write_bytes(bytes(raw))
    with pytest.raises(ValidationError):
        load(tmp_path / "t")


def test_load_tensor_hashes_the_bytes_it_parses(tmp_path, monkeypatch):
    # load_tensor opens no file: it checks the bytes it is given against the sidecar and parses them
    t = tc.random_normal([3, 4], 0.0, 1.0, seed=3)
    tc.save_tensor(t, tmp_path / "t")
    raw, sidecar_raw = helpers.tensor_files(tmp_path / "t")

    def no_read(path, *args, **kwargs):
        raise AssertionError(f"load_tensor opened {path}")

    with monkeypatch.context() as patched:
        for owner, name in ((builtins, "open"), (io, "open"), (os, "open"), (Path, "read_bytes"), (Path, "read_text")):
            patched.setattr(owner, name, no_read)
        assert np.array_equal(tc.load_tensor(tmp_path / "t", raw, sidecar_raw), t)
        with pytest.raises(ValidationError, match="checksum mismatch"):
            tc.load_tensor(tmp_path / "t", raw[:-1] + bytes([raw[-1] ^ 0xFF]), sidecar_raw)


def test_save_tensor_hashes_the_bytes_it_writes(tmp_path, monkeypatch):
    # the sidecar checksum comes from the bytes in hand, not from reading the .bin back
    t = tc.random_normal([3, 4], 0.0, 1.0, seed=3)

    def no_read_back(path):
        raise AssertionError(f"save_tensor read {path} back through sha256_file")

    with monkeypatch.context() as patched:
        patched.setattr(tc, "sha256_file", no_read_back)
        digests = tc.save_tensor(t, tmp_path / "t")
    bin_path, json_path = digests
    # the same bytes as a save that hashed the written file, and their digests
    assert digests == {bin_path: tc.sha256_file(bin_path), json_path: tc.sha256_file(json_path)}
    assert bin_path.read_bytes() == struct.pack("<IQQ", 2, 3, 4) + t.tobytes()
    sidecar = {"shape": [3, 4], "dtype": "float64", "checksum": "sha256:" + tc.sha256_file(bin_path)}
    assert json_path.read_text() == json.dumps(sidecar, sort_keys=True, indent=2) + "\n"
    assert np.array_equal(load(tmp_path / "t"), t)


def test_write_atomic_returns_the_digest_of_the_bytes_it_wrote(tmp_path):
    for data in (b"\x00\xffbytes", "text \u00e9\n", ""):
        path = tmp_path / "f"
        digest = tc.write_atomic(path, data)
        assert path.read_bytes() == (data.encode("utf-8") if isinstance(data, str) else data)
        assert digest == tc.sha256_file(path)


def test_tensor_file_layout(tmp_path):
    # little-endian u32 rank, u64 extents, f64 payload
    t = np.arange(6, dtype=np.float64).reshape(2, 3)
    bin_path, _ = tc.save_tensor(t, tmp_path / "t")
    raw = bin_path.read_bytes()
    assert raw[:4] == (2).to_bytes(4, "little")
    assert raw[4:12] == (2).to_bytes(8, "little")
    assert raw[12:20] == (3).to_bytes(8, "little")
    assert np.array_equal(np.frombuffer(raw[20:], "<f8").reshape(2, 3), t)


def test_derive_seed_stable():
    assert tc.derive_seed(7, "x") == tc.derive_seed(7, "x")
    assert tc.derive_seed(7, "x") != tc.derive_seed(7, "y")
    assert tc.derive_seed(7, "x") != tc.derive_seed(8, "x")
