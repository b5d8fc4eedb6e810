import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mixprec import metrics as mx
from mixprec import tensor_core as tc
from mixprec.errors import ShapeError, UndefinedMetricError

import helpers


def scalar_ssim(x, y, c1, c2):
    """Independent scalar re-implementation, the oracle of the per-input form."""
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


def one(score, reference, output) -> float:
    """``score`` (``mx.ssim`` or ``mx.sqnr_db``) of one output against one reference."""
    (value,) = score(mx.ReferenceBatch.of([reference]), [output])
    return value


def test_ssim_self_identity():
    x = tc.random_normal([12, 12], 0.3, 1.0, seed=2)
    assert abs(one(mx.ssim, x, x) - 1.0) < 1e-12
    assert abs(helpers.ssim(x, x) - 1.0) < 1e-12


def test_ssim_constant_images_with_stabilizers():
    x = np.full((8, 8), 0.5)
    assert one(mx.ssim, x, x) == pytest.approx(1.0, abs=1e-12)  # a constant reference uses data range 1
    assert helpers.ssim(x, x) == pytest.approx(1.0, abs=1e-12)


def test_ssim_constant_images_unstabilized_undefined():
    x = np.full((8, 8), 0.5)
    with pytest.raises(UndefinedMetricError):
        helpers.ssim(x, x, mx.SsimWeights(c1=0.0, c2=0.0))
    # a data range whose stabilizers underflow to zero, against a zero output
    ref = np.zeros([8, 8])
    ref[0, 0] = 1e-300
    assert mx.ReferenceBatch.of([ref]).weights == (mx.SsimWeights(c1=0.0, c2=0.0),)
    with pytest.raises(UndefinedMetricError):
        one(mx.ssim, ref, np.zeros([8, 8]))


def test_ssim_shape_mismatch():
    with pytest.raises(ShapeError):
        helpers.ssim(np.zeros((2, 2)), np.zeros((3, 3)))
    with pytest.raises(ShapeError):
        mx.ssim(mx.ReferenceBatch.of(np.zeros((1, 2, 2))), np.zeros((1, 3, 3)))


def test_ssim_doubled_image_components():
    x = tc.random_normal([400], 0.0, 1.0, seed=4)
    x -= x.mean()  # zero-mean fixture
    y = 2 * x
    w = mx.SsimWeights(c1=1e-4, c2=1e-12)
    lum, con, struct = helpers.ssim_components(x, y, w)
    assert lum == pytest.approx(1.0, abs=1e-9)  # both means are zero
    assert con == pytest.approx(4 / 5, rel=1e-6)  # 2*s*2s / (s^2 + 4s^2) as c2 -> 0
    assert struct == pytest.approx(1.0, rel=1e-9)
    assert helpers.ssim(x, y, w) == pytest.approx(scalar_ssim(x, y, w.c1, w.c2), rel=1e-12)
    batch = mx.ReferenceBatch.of([x])
    (wx,) = batch.weights
    assert mx.ssim(batch, [y]) == [pytest.approx(scalar_ssim(x, y, wx.c1, wx.c2), rel=1e-12)]


def test_ssim_matches_scalar_oracle_on_random_pairs():
    xs = np.stack([tc.random_normal([9, 9], 0.1 * i, 1.0, seed=30 + i) for i in range(5)])
    ys = xs + np.stack([tc.random_normal([9, 9], 0.0, 0.3, seed=60 + i) for i in range(5)])
    batch = mx.ReferenceBatch.of(xs)
    want = [scalar_ssim(x, y, w.c1, w.c2) for x, y, w in zip(xs, ys, batch.weights)]
    assert mx.ssim(batch, ys) == pytest.approx(want, rel=1e-12)
    w = mx.SsimWeights()
    for x, y in zip(xs, ys):
        assert helpers.ssim(x, y, w) == pytest.approx(scalar_ssim(x, y, w.c1, w.c2), rel=1e-12)


images = hnp.arrays(np.float64, (16,), elements=st.floats(-10, 10, allow_nan=False))


@given(images, images)
@settings(max_examples=100)
def test_ssim_symmetric(x, y):
    # under fixed stabilizers; ``mx.ssim`` takes them from the reference's data range
    w = mx.SsimWeights()
    assert helpers.ssim(x, y, w) == pytest.approx(helpers.ssim(y, x, w), rel=1e-12, abs=1e-12)


def test_ssim_offset_invariance_of_contrast_and_structure():
    x = tc.random_normal([50], 0.0, 1.0, seed=8)
    y = tc.random_normal([50], 0.0, 1.0, seed=9)
    w = mx.SsimWeights(c1=0.0, c2=0.0)
    _, con0, str0 = helpers.ssim_components(x, y, w)
    _, con1, str1 = helpers.ssim_components(x + 3.0, y + 3.0, w)
    assert con1 == pytest.approx(con0, rel=1e-9)
    assert str1 == pytest.approx(str0, rel=1e-9)


def test_ssim_range_with_unit_exponents():
    xs = np.stack([tc.random_normal([30], 0.0, 1.0, seed=100 + i) for i in range(10)])
    ys = np.stack([tc.random_normal([30], 0.0, 1.0, seed=200 + i) for i in range(10)])
    for value in mx.ssim(mx.ReferenceBatch.of(xs), ys):
        assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12


def test_sqnr_zero_noise_hits_cap():
    x = tc.random_normal([20], 0.0, 1.0, seed=1)
    assert one(mx.sqnr_db, x, x) == mx.SQNR_CAP_DB == 100.0


def test_sqnr_twenty_db_example():
    ref = np.zeros(101)
    ref[0] = 10.0  # ||ref||^2 = 100
    test = ref.copy()
    test[1] = 1.0  # ||ref - test||^2 = 1
    assert one(mx.sqnr_db, ref, test) == pytest.approx(20.0, abs=1e-12)


def test_sqnr_zero_reference_undefined():
    with pytest.raises(UndefinedMetricError):
        one(mx.sqnr_db, np.zeros(4), np.ones(4))
    with pytest.raises(UndefinedMetricError):
        helpers.sqnr_db(np.zeros(4), np.ones(4))


def test_sqnr_of_a_subnormal_signal_is_finite():
    # signal / noise = 3.5e-323 / 32 underflows to zero; the score is the
    # difference of the logarithms, not a math domain error
    ref, out = np.zeros(8), np.full(8, 2.0)
    ref[0] = 6.06529028e-162
    want = 10.0 * (math.log10(float(ref[0] ** 2)) - math.log10(32.0))
    assert one(mx.sqnr_db, ref, out) == helpers.sqnr_db(ref, out) == pytest.approx(want)
    assert -3300.0 < want < -3200.0


def test_sqnr_strictly_decreasing_in_noise_scale():
    ref = tc.random_normal([64], 0.0, 1.0, seed=5)
    d = tc.random_normal([64], 0.0, 1.0, seed=6)
    scales = (1e-3, 1e-2, 1e-1, 1.0)
    values = mx.sqnr_db(mx.ReferenceBatch.of([ref] * len(scales)), [ref + eps * d for eps in scales])
    assert all(a > b for a, b in zip(values, values[1:]))


def test_sqnr_joint_scale_invariance():
    ref = tc.random_normal([64], 0.0, 1.0, seed=7)
    test = ref + tc.random_normal([64], 0.0, 0.1, seed=8)
    base = one(mx.sqnr_db, ref, test)
    for a in (2.0, -3.0, 0.125, 1e6):
        assert abs(one(mx.sqnr_db, a * ref, a * test) - base) < 1e-9


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_output_is_undefined_never_a_score(bad):
    # a NaN output used to score the SQNR cap, and an inf one to raise a raw ValueError
    refs, outs = _batch_pair(700, n=3)
    outs[1, 0, 2, 3] = bad
    batch = mx.ReferenceBatch.of(refs)
    with pytest.raises(UndefinedMetricError):
        mx.sqnr_db(batch, outs)
    with pytest.raises(UndefinedMetricError):
        mx.ssim(batch, outs)
    with pytest.raises(UndefinedMetricError):
        helpers.sqnr_db(refs[1], outs[1])
    with pytest.raises(UndefinedMetricError):
        helpers.ssim(refs[1], outs[1], helpers.ssim_weights(refs[1]))
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
        helpers.ssim_weights(refs[1])
    big = mx.SsimWeights.for_data_range(1e150)  # large but finite stabilizers keep their value
    assert (big.c1, big.c2) == ((0.01 * 1e150) ** 2, (0.03 * 1e150) ** 2)


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
    ssim_want, sqnr_want = helpers.per_input_scores(refs, outs)
    assert mx.ssim(batch, outs) == ssim_want
    assert mx.sqnr_db(batch, outs) == sqnr_want
    assert batch.weights == tuple(helpers.ssim_weights(r) for r in refs)
    assert batch.weights[2] == mx.SsimWeights.for_data_range(1.0)
    assert sqnr_want[3] == mx.SQNR_CAP_DB


def test_batched_ssim_of_a_reference_with_itself_is_one():
    refs, _ = _batch_pair(500, n=3)
    batch = mx.ReferenceBatch.of(refs)
    assert mx.ssim(batch, refs) == pytest.approx([1.0] * 3, abs=1e-12)
    assert mx.sqnr_db(batch, refs) == [mx.SQNR_CAP_DB] * 3


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
    assert outcome(lambda: mx.ssim(batch, outs)) == outcome(
        lambda: [helpers.ssim(r, o, helpers.ssim_weights(r)) for r, o in zip(refs, outs)]
    )
    assert outcome(lambda: mx.sqnr_db(batch, outs)) == outcome(
        lambda: [helpers.sqnr_db(r, o) for r, o in zip(refs, outs)]
    )


def test_batched_metrics_check_their_arguments():
    refs, outs = _batch_pair(600, n=2)
    batch = mx.ReferenceBatch.of(refs)
    with pytest.raises(ShapeError):
        mx.ssim(batch, outs[:1])
    with pytest.raises(ShapeError):
        mx.sqnr_db(batch, outs[:, :2])
    with pytest.raises(ShapeError):
        mx.ReferenceBatch.of(np.zeros(4))
    refs[1] = 0.0
    with pytest.raises(UndefinedMetricError):
        mx.sqnr_db(mx.ReferenceBatch.of(refs), outs)
    with pytest.raises(ValueError):
        batch.values[0, 0, 0, 0] = 1.0  # the statistics describe these values; they stay as they are
