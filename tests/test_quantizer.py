import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixprec import quantizer as q
from mixprec import tensor_core as tc
from mixprec.errors import CalibrationMismatchWarning, InputError, ParameterError, ShapeError
from mixprec.toy_model import synth_text_embedding

import helpers


def test_calibrate_unit_grid():
    p = q.calibrate_minmax(np.array([0.0, 100.0, 255.0]), 8)
    assert float(p.scales) == 1.0
    assert int(p.zero_points) == 0


def test_calibrate_two_bit_example():
    p = q.calibrate_minmax(np.array([-1.0, 0.5, 2.0]), 2)
    assert float(p.scales) == 1.0
    assert int(p.zero_points) == 1


def test_calibrate_degenerate_constant():
    p = q.calibrate_minmax(tc.full([4], 7.0), 4)
    assert float(p.scales) == 1.0
    assert int(p.zero_points) == 0


def test_calibrate_rejects_nonfinite():
    with pytest.raises(InputError):
        q.calibrate_minmax(np.array([1.0, np.nan]), 8)


def test_calibrate_rejects_bad_bits():
    with pytest.raises(ParameterError):
        q.calibrate_minmax(np.zeros(3), 3)


def test_quantize_grid_aligned_roundtrip():
    x = np.array([-1.0, 0.0, 1.0, 2.0])
    p = q.calibrate_minmax(x, 2)
    qt = q.quantize(x, p)
    assert np.array_equal(qt.codes, [0, 1, 2, 3])
    assert np.array_equal(q.dequantize(qt), x)


def test_fake_quant_idempotent():
    x = tc.random_normal([64], 0.0, 1.0, seed=3)
    p = q.calibrate_minmax(x, 4)
    once = q.fake_quant(x, p)
    assert np.array_equal(q.fake_quant(once, p), once)


@pytest.mark.parametrize("bits", [2, 4, 8])
def test_roundtrip_error_within_half_step(bits):
    # in-range elements never clamp, so the rounding bound is exact
    for i in range(100):
        x = tc.random_normal([128], float(i % 5 - 2), 1.0 + 0.1 * (i % 7), seed=1000 + i)
        p = q.calibrate_minmax(x, bits)
        err = np.abs(x - q.fake_quant(x, p))
        assert np.all(err <= float(p.scales) / 2)


@pytest.mark.parametrize("bits", [2, 4, 8])
def test_roundtrip_error_per_channel(bits):
    w = tc.random_normal([8, 24], 0.0, 0.5, seed=77)
    p = q.calibrate_minmax(w, bits, q.PER_CHANNEL, channel_axis=0)
    err = np.abs(w - q.fake_quant(w, p))
    assert np.all(err <= p.scales[:, None] / 2)


@given(st.lists(st.floats(-100, 100), min_size=2, max_size=50), st.sampled_from([2, 4, 8]))
@example([0.0, 5e-324], 2)
@settings(max_examples=200)
def test_monotone_codes(values, bits):
    x = np.array(values)
    p = q.calibrate_minmax(x, bits)
    codes = q.quantize(x, p).codes
    order = np.argsort(x, kind="stable")
    assert np.all(np.diff(codes[order]) >= 0)


@pytest.mark.parametrize("lo, hi", [(0.0, 5e-324), (-5e-324, 0.0), (-1e308, 1e308)])
def test_unrepresentable_step_is_degenerate(lo, hi):
    # the step (hi - lo) / qmax underflows to 0 or overflows to inf
    p = q.params_from_minmax(lo, hi, 8)
    assert float(p.scales) == 1.0
    assert int(p.zero_points) == 0


def test_per_channel_unrepresentable_step_only_hits_its_channel():
    p = q.params_from_minmax(np.array([0.0, -1.0]), np.array([5e-324, 2.0]), 2, q.PER_CHANNEL, 0)
    assert p.scales.tolist() == [1.0, 1.0]
    assert p.zero_points.tolist() == [0, 1]


def test_per_channel_mse_not_worse_on_gaussian_weights():
    # statistical property of min-max grids on spread-out channels; asserted
    # on fixed seeded fixtures rather than adversarial inputs
    for i, bits in enumerate([2, 4, 8] * 4):
        w = tc.random_normal([6, 40], 0.0, 1.0, seed=500 + i) * (1 + np.arange(6)[:, None])
        per_tensor = q.fake_quant(w, q.calibrate_minmax(w, bits))
        per_channel = q.fake_quant(w, q.calibrate_minmax(w, bits, q.PER_CHANNEL, 0))
        assert helpers.mse(w, per_channel) <= helpers.mse(w, per_tensor)


def test_quantparams_validation():
    with pytest.raises(ParameterError):
        q.QuantParams(8, q.PER_TENSOR, np.asarray(0.0), np.asarray(0, dtype=np.int64))
    with pytest.raises(ParameterError):
        q.QuantParams(8, q.PER_TENSOR, np.asarray(1.0), np.asarray(300, dtype=np.int64))


def test_int_tensor_rejects_out_of_range_codes():
    p = q.calibrate_minmax(np.array([0.0, 3.0]), 2)
    with pytest.raises(ParameterError):
        q.IntTensor(codes=np.array([0, 4]), params=p)
    with pytest.raises(ParameterError):
        q.IntTensor(codes=np.array([-1, 2]), params=p)


def test_split_bos_shapes_and_losslessness():
    emb = tc.random_normal([77, 640], 0.0, 1.0, seed=5)
    split = q.split_bos(emb)
    assert split.bos_feature.shape == (1, 640)
    assert split.rest.shape == (76, 640)
    assert np.array_equal(np.concatenate([split.bos_feature, split.rest]), emb)


def test_split_bos_needs_two_tokens():
    with pytest.raises(InputError):
        q.split_bos(np.zeros((1, 8)))
    with pytest.raises(ShapeError):
        q.split_bos(np.zeros(8))


def test_split_bos_batch():
    embs = np.stack([synth_text_embedding(s, tokens=8, channels=16) for s in (1, 2, 3)])
    split = q.split_bos(embs)
    assert split.bos_feature.shape == (3, 1, 16)
    assert split.rest.shape == (3, 7, 16)
    with pytest.raises(ShapeError):
        q.split_bos(np.zeros((2, 2, 2, 2)))


def test_bos_aware_linear_batch_matches_per_embedding():
    embs = np.stack([synth_text_embedding(s, tokens=8, channels=16) for s in (1, 2, 3)])
    w = tc.random_normal([12, 16], 0.0, 0.25, seed=21)
    a_params = q.calibrate_minmax(embs[:, 1:], 8)
    batched = q.bos_aware_linear(embs, w, a_params, _bos_output(embs, w))
    for e, out in zip(embs, batched):
        assert np.array_equal(out, q.bos_aware_linear(e, w, a_params, _bos_output(e, w)))


def test_split_bos_outlier_ratio_on_synthetic_embedding():
    emb = synth_text_embedding(3, tokens=8, channels=16)
    split = q.split_bos(emb)
    assert np.abs(split.bos_feature).max() / np.abs(split.rest).max() >= 50


def _linear_ref(emb, w):
    return emb @ w.T


def _bos_output(emb, w):
    """The full-precision first-token rows: (1, out), or (B, 1, out) for a batch."""
    return emb[..., :1, :] @ w.T


def test_bos_aware_zero_bos_row_matches_plain():
    emb = tc.random_normal([6, 8], 0.0, 1.0, seed=11)
    emb[0] = 0.0
    w = tc.random_normal([4, 8], 0.0, 0.5, seed=12)
    a_params = q.calibrate_minmax(emb[1:], 8)
    plain = q.fake_quant(emb, a_params) @ w.T
    aware = q.bos_aware_linear(emb, w, a_params, _bos_output(emb, w))
    assert np.allclose(aware, plain, atol=1e-12)
    # row 0 is exact in both: zero row quantizes to ~zero and multiplies to ~zero
    assert np.allclose(aware[0], _linear_ref(emb, w)[0])


def test_bos_aware_identity_weight_on_grid():
    emb = np.vstack([np.full(4, 900.0), np.array([[-1.0, 0.0, 1.0, 2.0]] * 3)])
    w = np.eye(4)
    a_params = q.calibrate_minmax(emb[1:], 2)  # grid {-1,0,1,2}
    out = q.bos_aware_linear(emb, w, a_params, _bos_output(emb, w))
    assert np.array_equal(out, emb)  # rest rows on-grid, bos row exact


def test_bos_aware_bos_row_bitexact():
    emb = synth_text_embedding(9, tokens=8, channels=16)
    w = tc.random_normal([12, 16], 0.0, 0.25, seed=21)
    wq = q.fake_quant(w, q.calibrate_minmax(w, 8, q.PER_CHANNEL, 0))
    a_params = q.calibrate_minmax(emb[1:], 8)
    out = q.bos_aware_linear(emb, wq, a_params, _bos_output(emb, w))
    assert np.array_equal(out[0], (emb[:1] @ w.T)[0])  # the full-precision weight's row, not wq's
    assert np.array_equal(out[1:], q.fake_quant(emb[1:], a_params) @ wq.T)


def test_bos_aware_error_ratio_vs_naive():
    # 8-bit activations; compare non-BOS output rows for both calibrations
    emb = synth_text_embedding(4, tokens=8, channels=16)
    w = tc.random_normal([16, 16], 0.0, 0.25, seed=23)
    ref = _linear_ref(emb, w)[1:]

    naive_params = q.calibrate_minmax(emb, 8)  # grid stretched by the outlier row
    naive_out = (q.fake_quant(emb, naive_params) @ w.T)[1:]

    aware_params = q.calibrate_minmax(emb[1:], 8)
    aware_out = q.bos_aware_linear(emb, w, aware_params, _bos_output(emb, w))[1:]

    assert helpers.mse(ref, aware_out) <= 0.01 * helpers.mse(ref, naive_out)


def test_quant_params_json_roundtrip():
    w = tc.random_normal([6, 10], 0.0, 1.0, seed=31)
    for granularity, axis in ((q.PER_TENSOR, None), (q.PER_CHANNEL, 0)):
        params = q.calibrate_minmax(w, 4, granularity, axis)
        record = helpers.quant_params_to_json_dict("enc0.conv_in", "weight", params)
        assert record["tensor_kind"] == "weight"
        assert record["bit_width"] == 4
        lid, kind, back = helpers.quant_params_from_json_dict(record)
        assert (lid, kind) == ("enc0.conv_in", "weight")
        assert np.array_equal(back.scales, params.scales)
        assert np.array_equal(back.zero_points, params.zero_points)
        assert np.array_equal(q.fake_quant(w, back), q.fake_quant(w, params))


def test_calibration_mismatch_warning():
    emb = synth_text_embedding(4, tokens=8, channels=16)
    w = tc.random_normal([16, 16], 0.0, 0.25, seed=24)
    bad_params = q.calibrate_minmax(emb, 8)  # includes the outlier row
    with pytest.warns(CalibrationMismatchWarning):
        q.bos_aware_linear(emb, w, bad_params, _bos_output(emb, w))
    with pytest.warns(CalibrationMismatchWarning):  # any embedding of a batch warns
        batch = np.stack([emb, np.zeros_like(emb)])
        q.bos_aware_linear(batch, w, bad_params, _bos_output(batch, w))
    good_params = q.calibrate_minmax(emb[1:], 8)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", CalibrationMismatchWarning)
        q.bos_aware_linear(emb, w, good_params, _bos_output(emb, w))
