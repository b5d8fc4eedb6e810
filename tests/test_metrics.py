import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mixprec import metrics as mx
from mixprec import tensor_core as tc
from mixprec.errors import ParameterError, ShapeError, UndefinedMetricError


def scalar_ssim(x, y, c1, c2):
    """Independent scalar re-implementation used as the oracle."""
    xs = [float(v) for v in np.ravel(x)]
    ys = [float(v) for v in np.ravel(y)]
    n = len(xs)
    mx_, my_ = sum(xs) / n, sum(ys) / n
    vx = sum((v - mx_) ** 2 for v in xs) / n
    vy = sum((v - my_) ** 2 for v in ys) / n
    cov = sum((a - mx_) * (b - my_) for a, b in zip(xs, ys)) / n
    lum = (2 * mx_ * my_ + c1) / (mx_ * mx_ + my_ * my_ + c1)
    con = (2 * math.sqrt(vx) * math.sqrt(vy) + c2) / (vx + vy + c2)
    struct = (cov + c2 / 2) / (math.sqrt(vx) * math.sqrt(vy) + c2 / 2)
    return lum * con * struct


def test_ssim_self_identity():
    x = tc.random_normal([12, 12], 0.3, 1.0, seed=2)
    assert abs(mx.ssim(x, x).value - 1.0) < 1e-12


def test_ssim_constant_images_with_stabilizers():
    x = tc.full([8, 8], 0.5)
    assert mx.ssim(x, x).value == pytest.approx(1.0, abs=1e-12)


def test_ssim_constant_images_unstabilized_undefined():
    x = tc.full([8, 8], 0.5)
    with pytest.raises(UndefinedMetricError):
        mx.ssim(x, x, mx.SsimWeights.unstabilized())


def test_ssim_shape_mismatch():
    with pytest.raises(ShapeError):
        mx.ssim(np.zeros((2, 2)), np.zeros((3, 3)))


def test_ssim_doubled_image_components():
    x = tc.random_normal([400], 0.0, 1.0, seed=4)
    x -= x.mean()  # zero-mean fixture
    y = 2 * x
    w = mx.SsimWeights(c1=1e-4, c2=1e-12)
    lum, con, struct = mx.ssim_components(x, y, w)
    assert lum == pytest.approx(1.0, abs=1e-9)  # both means are zero
    assert con == pytest.approx(4 / 5, rel=1e-6)  # 2*s*2s / (s^2 + 4s^2) as c2 -> 0
    assert struct == pytest.approx(1.0, rel=1e-9)
    assert mx.ssim(x, y, w).value == pytest.approx(scalar_ssim(x, y, w.c1, w.c2), rel=1e-12)


def test_ssim_matches_scalar_oracle_on_random_pairs():
    for i in range(5):
        x = tc.random_normal([9, 9], 0.1 * i, 1.0, seed=30 + i)
        y = x + tc.random_normal([9, 9], 0.0, 0.3, seed=60 + i)
        w = mx.SsimWeights()
        assert mx.ssim(x, y, w).value == pytest.approx(scalar_ssim(x, y, w.c1, w.c2), rel=1e-12)


images = hnp.arrays(np.float64, (16,), elements=st.floats(-10, 10, allow_nan=False))


@given(images, images)
@settings(max_examples=100)
def test_ssim_symmetric(x, y):
    w = mx.SsimWeights()
    assert mx.ssim(x, y, w).value == pytest.approx(mx.ssim(y, x, w).value, rel=1e-12, abs=1e-12)


def test_ssim_offset_invariance_of_contrast_and_structure():
    x = tc.random_normal([50], 0.0, 1.0, seed=8)
    y = tc.random_normal([50], 0.0, 1.0, seed=9)
    w = mx.SsimWeights.unstabilized()
    _, con0, str0 = mx.ssim_components(x, y, w)
    _, con1, str1 = mx.ssim_components(x + 3.0, y + 3.0, w)
    assert con1 == pytest.approx(con0, rel=1e-9)
    assert str1 == pytest.approx(str0, rel=1e-9)


def test_ssim_range_with_unit_exponents():
    for i in range(10):
        x = tc.random_normal([30], 0.0, 1.0, seed=100 + i)
        y = tc.random_normal([30], 0.0, 1.0, seed=200 + i)
        assert -1.0 - 1e-12 <= mx.ssim(x, y).value <= 1.0 + 1e-12


def test_sqnr_zero_noise_hits_cap():
    x = tc.random_normal([20], 0.0, 1.0, seed=1)
    assert mx.sqnr_db(x, x).value == 100.0
    assert mx.sqnr_db(x, x, cap_db=40.0).value == 40.0


def test_sqnr_twenty_db_example():
    ref = np.zeros(101)
    ref[0] = 10.0  # ||ref||^2 = 100
    test = ref.copy()
    test[1] = 1.0  # ||ref - test||^2 = 1
    assert mx.sqnr_db(ref, test).value == pytest.approx(20.0, abs=1e-12)


def test_sqnr_zero_reference_undefined():
    with pytest.raises(UndefinedMetricError):
        mx.sqnr_db(np.zeros(4), np.ones(4))


def test_sqnr_requires_finite_cap():
    with pytest.raises(ParameterError):
        mx.sqnr_db(np.ones(4), np.zeros(4), cap_db=math.inf)


def test_sqnr_strictly_decreasing_in_noise_scale():
    ref = tc.random_normal([64], 0.0, 1.0, seed=5)
    d = tc.random_normal([64], 0.0, 1.0, seed=6)
    values = [mx.sqnr_db(ref, ref + eps * d).value for eps in (1e-3, 1e-2, 1e-1, 1.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_sqnr_joint_scale_invariance():
    ref = tc.random_normal([64], 0.0, 1.0, seed=7)
    test = ref + tc.random_normal([64], 0.0, 0.1, seed=8)
    base = mx.sqnr_db(ref, test).value
    for a in (2.0, -3.0, 0.125, 1e6):
        assert abs(mx.sqnr_db(a * ref, a * test).value - base) < 1e-9


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_output_is_undefined_never_a_score(bad):
    # a NaN output used to score the SQNR cap, and an inf one to raise a raw ValueError
    refs, outs = _batch_pair(700, n=3)
    outs[1, 0, 2, 3] = bad
    batch = mx.ReferenceBatch.of(refs)
    with pytest.raises(UndefinedMetricError):
        mx.sqnr_db(refs[1], outs[1])
    with pytest.raises(UndefinedMetricError):
        mx.sqnr_db_batch(batch, outs)
    with pytest.raises(UndefinedMetricError):
        mx.ssim(refs[1], outs[1], mx.SsimWeights.for_reference(refs[1]))
    with pytest.raises(UndefinedMetricError):
        mx.ssim_batch(batch, outs)
    with pytest.raises(UndefinedMetricError):  # nor as a reference
        mx.ReferenceBatch.of(outs)


@pytest.mark.parametrize("data_range", [1e200, math.inf, math.nan])
def test_ssim_stabilizers_that_overflow_are_undefined(data_range):
    # (0.01 * 1e200) ** 2 used to raise a raw OverflowError
    with pytest.raises(UndefinedMetricError):
        mx.SsimWeights.for_data_range(data_range)
    refs = np.stack([np.linspace(0.0, 1.0, 8), np.linspace(-1.0, 1.0, 8)])
    refs[1, 0] = data_range
    with pytest.raises(UndefinedMetricError):
        mx.ReferenceBatch.of(refs)
    with pytest.raises(UndefinedMetricError):
        mx.SsimWeights.for_reference(refs[1])
    big = mx.SsimWeights.for_data_range(1e150)  # large but finite stabilizers keep their value
    assert (big.c1, big.c2) == ((0.01 * 1e150) ** 2, (0.03 * 1e150) ** 2)


def test_metric_score_kinds():
    x = tc.random_normal([8], 0.0, 1.0, seed=11)
    assert mx.ssim(x, x).kind == mx.SSIM
    assert mx.sqnr_db(x, x).kind == mx.SQNR_DB


def _batch_pair(seed: int, n: int = 5):
    refs = np.stack([tc.random_normal([3, 6, 6], 0.1 * i, 1.0 + i, seed=seed + i) for i in range(n)])
    noise = np.stack([tc.random_normal([3, 6, 6], 0.0, 0.05 * (i + 1), seed=seed + 50 + i) for i in range(n)])
    return refs, refs + noise


def test_batched_ssim_and_sqnr_give_the_per_input_bits():
    refs, outs = _batch_pair(400)
    refs[2] = 0.75  # a constant reference: its data range falls back to 1.0
    outs[3] = refs[3]  # a zero-noise output: its SQNR is capped
    batch = mx.ReferenceBatch.of(refs)
    assert batch.size == len(refs)
    ssim_want = [mx.ssim(r, o, mx.SsimWeights.for_reference(r)).value for r, o in zip(refs, outs)]
    sqnr_want = [mx.sqnr_db(r, o, cap_db=60.0).value for r, o in zip(refs, outs)]
    assert mx.ssim_batch(batch, outs) == ssim_want
    assert mx.sqnr_db_batch(batch, outs, cap_db=60.0) == sqnr_want
    assert batch.weights[2] == mx.SsimWeights.for_data_range(1.0)
    assert sqnr_want[3] == 60.0


def test_batched_ssim_of_a_reference_with_itself_is_one():
    refs, _ = _batch_pair(500, n=3)
    batch = mx.ReferenceBatch.of(refs)
    assert mx.ssim_batch(batch, refs) == pytest.approx([1.0] * 3, abs=1e-12)
    assert mx.sqnr_db_batch(batch, refs) == [mx.DEFAULT_SQNR_CAP_DB] * 3


@given(
    hnp.arrays(np.float64, (3, 2, 4), elements=st.floats(-100, 100, allow_nan=False)),
    hnp.arrays(np.float64, (3, 2, 4), elements=st.floats(-100, 100, allow_nan=False)),
)
@settings(max_examples=60, deadline=None)
def test_batched_metrics_match_per_input_metrics(refs, outs):
    def outcome(score):
        try:
            return score()
        except UndefinedMetricError:  # a zero reference, or stabilizers that underflow to zero
            return UndefinedMetricError

    batch = mx.ReferenceBatch.of(refs)
    assert outcome(lambda: mx.ssim_batch(batch, outs)) == outcome(
        lambda: [mx.ssim(r, o, mx.SsimWeights.for_reference(r)).value for r, o in zip(refs, outs)]
    )
    assert outcome(lambda: mx.sqnr_db_batch(batch, outs)) == outcome(
        lambda: [mx.sqnr_db(r, o).value for r, o in zip(refs, outs)]
    )


def test_batched_metrics_check_their_arguments():
    refs, outs = _batch_pair(600, n=2)
    batch = mx.ReferenceBatch.of(refs)
    with pytest.raises(ShapeError):
        mx.ssim_batch(batch, outs[:1])
    with pytest.raises(ShapeError):
        mx.sqnr_db_batch(batch, outs[:, :2])
    with pytest.raises(ParameterError):
        mx.sqnr_db_batch(batch, outs, cap_db=math.nan)
    with pytest.raises(ShapeError):
        mx.ReferenceBatch.of(np.zeros(4))
    refs[1] = 0.0
    with pytest.raises(UndefinedMetricError):
        mx.sqnr_db_batch(mx.ReferenceBatch.of(refs), outs)
    with pytest.raises(ValueError):
        batch.values[0, 0, 0, 0] = 1.0  # the statistics describe these values; they stay as they are
