import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mixprec import quantizer as q
from mixprec import tensor_core as tc
from mixprec.errors import InputError, ParameterError
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
    p = q.calibrate_minmax(np.full(4, 7.0), 4)
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
    assert np.array_equal(helpers.quantize_codes(x, p), [0, 1, 2, 3])
    assert np.array_equal(q.fake_quant(x, p), x)


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
    p = q.calibrate_minmax(w, bits, channel_axis=0)
    assert p.scales.shape == p.zero_points.shape == (8, 1)
    err = np.abs(w - q.fake_quant(w, p))
    assert np.all(err <= p.scales / 2)


@given(st.lists(st.floats(-100, 100), min_size=2, max_size=50), st.sampled_from([2, 4, 8]))
@example([0.0, 5e-324], 2)
@settings(max_examples=200)
def test_monotone_codes(values, bits):
    x = np.array(values)
    p = q.calibrate_minmax(x, bits)
    order = np.argsort(x, kind="stable")
    assert np.all(np.diff(q.fake_quant(x, p)[order]) >= 0)  # s > 0: ordered outputs are ordered codes


@pytest.mark.parametrize("lo, hi", [(0.0, 5e-324), (-5e-324, 0.0), (-1e308, 1e308)])
def test_unrepresentable_step_is_degenerate(lo, hi):
    # the step (hi - lo) / qmax underflows to 0 or overflows to inf
    p = q.params_from_minmax(lo, hi, 8)
    assert float(p.scales) == 1.0
    assert int(p.zero_points) == 0


def test_per_channel_unrepresentable_step_only_hits_its_channel():
    p = q.params_from_minmax(np.array([0.0, -1.0]), np.array([5e-324, 2.0]), 2)
    assert p.scales.tolist() == [1.0, 1.0]
    assert p.zero_points.tolist() == [0, 1]


def test_per_channel_mse_not_worse_on_gaussian_weights():
    # statistical property of min-max grids on spread-out channels; asserted
    # on fixed seeded fixtures rather than adversarial inputs
    for i, bits in enumerate([2, 4, 8] * 4):
        w = tc.random_normal([6, 40], 0.0, 1.0, seed=500 + i) * (1 + np.arange(6)[:, None])
        per_tensor = q.fake_quant(w, q.calibrate_minmax(w, bits))
        per_channel = q.fake_quant(w, q.calibrate_minmax(w, bits, channel_axis=0))
        assert helpers.mse(w, per_channel) <= helpers.mse(w, per_tensor)


def test_quantparams_validation():
    with pytest.raises(ParameterError):
        q.QuantParams(8, np.asarray(0.0), np.asarray(0, dtype=np.int64))
    with pytest.raises(ParameterError):
        q.QuantParams(8, np.asarray(1.0), np.asarray(300, dtype=np.int64))
    with pytest.raises(ParameterError):
        q.QuantParams(8, np.ones((2, 1)), np.array([[0], [-1]], dtype=np.int64))


def test_calibrate_grid_shapes_broadcast():
    w = tc.random_normal([5, 3, 3, 3], 0.0, 1.0, seed=41)
    per_tensor = q.calibrate_minmax(w, 4)
    assert per_tensor.scales.shape == per_tensor.zero_points.shape == ()
    per_channel = q.calibrate_minmax(w, 4, channel_axis=0)
    assert per_channel.scales.shape == per_channel.zero_points.shape == (5, 1, 1, 1)
    negative_axis = q.calibrate_minmax(w, 4, channel_axis=-4)
    assert np.array_equal(negative_axis.scales, per_channel.scales)
    assert np.array_equal(negative_axis.zero_points, per_channel.zero_points)
    for c in range(5):  # each channel's grid is the per-tensor grid of that channel alone
        alone = q.calibrate_minmax(w[c], 4)
        assert per_channel.scales[c, 0, 0, 0] == alone.scales
        assert per_channel.zero_points[c, 0, 0, 0] == alone.zero_points
        assert np.array_equal(q.fake_quant(w, per_channel)[c], q.fake_quant(w[c], alone))


_calib_tensors = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 4), st.integers(1, 8)),
    elements=st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=True),
)


@given(_calib_tensors, st.sampled_from(q.BIT_WIDTHS), st.booleans())
@settings(max_examples=300)
def test_fake_quant_equals_integer_code_oracle_bitwise(w, bits, per_channel):
    # the integer-code round trip (quantize, then dequantize in int64) is the
    # oracle; probes: the calibration values, values beyond the range, exact
    # ties (k + 0.5) * s around every code, signed zeros and infinities
    p = q.calibrate_minmax(w, bits, channel_axis=0 if per_channel else None)
    s = np.broadcast_to(p.scales, (w.shape[0], 1))
    z = np.broadcast_to(p.zero_points, (w.shape[0], 1))
    ties = (np.arange(-2, p.qmax + 2) - z + 0.5) * s
    specials = np.broadcast_to([0.0, -0.0, np.inf, -np.inf, 1e300, -1e300], (w.shape[0], 6))
    probe = np.concatenate([w, 3 * w, ties, -ties, specials], axis=1)
    with np.errstate(over="ignore"):
        got = q.fake_quant(probe, p)
        want = helpers.dequantize_codes(helpers.quantize_codes(probe, p), p)
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_fake_quant_propagates_nan():
    p = q.calibrate_minmax(np.array([-1.0, 2.0]), 4)
    x = np.array([np.nan, -np.nan, 1.0, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = q.fake_quant(x, p)
    assert np.isnan(out[:2]).all()
    assert np.array_equal(out[2:], q.fake_quant(x[2:], p))
    assert out[3] == q.fake_quant(np.array([2.0]), p)[0]  # inf clamps to the top code


def test_bos_aware_linear_batch_matches_per_embedding():
    embs = np.stack([synth_text_embedding(s, tokens=8, channels=16) for s in (1, 2, 3)])
    w = tc.random_normal([12, 16], 0.0, 0.25, seed=21)
    a_params = q.calibrate_minmax(embs[:, 1:], 8)
    batched = q.bos_aware_linear(embs, w, a_params, _bos_output(embs, w))
    for e, out in zip(embs, batched):
        assert np.array_equal(out, q.bos_aware_linear(e, w, a_params, _bos_output(e, w)))


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
    wq = q.fake_quant(w, q.calibrate_minmax(w, 8, channel_axis=0))
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



def test_a_grid_cast_to_float32_keeps_fake_quant_in_float32():
    p = q.params_from_minmax(-1.3, 2.9, 4)
    p32 = p.astype(np.float32)
    assert p32.scales.dtype == p32.zero_points.dtype == np.float32
    assert float(p32.scales) == float(np.float32(p.scales)) and float(p32.zero_points) == int(p.zero_points)
    x = np.linspace(-1.3, 2.9, 101, dtype=np.float32)
    got = q.fake_quant(x, p32)
    assert got.dtype == np.float32
    step = float(p32.scales)
    assert np.all(np.abs(got.astype(np.float64) - x) <= 0.5 * step * (1 + 1e-6))  # within half a step
    codes = got.astype(np.float64) / step + float(p32.zero_points)
    assert np.allclose(codes, np.round(codes), rtol=0, atol=1e-4) and codes.min() >= 0 and codes.max() <= p.qmax
    bos = synth_text_embedding(3, tokens=4, channels=8).astype(np.float32)
    w = np.eye(8, dtype=np.float32)
    out = q.bos_aware_linear(bos[None], w, p32, bos[None, :1] @ w.T)
    assert out.dtype == np.float32


def test_a_grid_whose_step_underflows_float32_casts_to_the_degenerate_grid():
    # a range of float32 subnormals: its float64 step, 1e-44 / 255, is below every float32
    p = q.params_from_minmax(0.0, 1e-44, 8)
    assert float(p.scales) > 0
    p32 = p.astype(np.float32)
    assert float(p32.scales) == 1.0 and float(p32.zero_points) == 0.0
    assert np.array_equal(q.fake_quant(np.array([1e-44, 0.0], dtype=np.float32), p32), [0.0, 0.0])
