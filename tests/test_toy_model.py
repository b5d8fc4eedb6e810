import dataclasses
import itertools

import numpy as np
import pytest

from mixprec import quantizer, toy_model as tm
from mixprec.errors import ConfigError, InputError, ParameterError, ShapeError, ValidationError

import helpers


def test_build_deterministic(model):
    other = tm.build_toy_unet(7)
    for lid in model.layer_order:
        assert np.array_equal(model.layers[lid].weight, other.layers[lid].weight)
    different = tm.build_toy_unet(8)
    assert any(
        not np.array_equal(model.layers[lid].weight, different.layers[lid].weight)
        for lid in model.layer_order
    )


def test_structure_contracts(model):
    kinds = [model.layers[lid].kind for lid in model.layer_order]
    assert kinds.count(tm.LayerKind.CONV_IN) == 1
    assert kinds.count(tm.LayerKind.CONV_OUT) == 1
    for kind in tm.LayerKind:
        assert kind in kinds
    groups = [model.layers[lid].group for lid in model.layer_order]
    assert groups.count(tm.CONTENT) >= 4
    assert groups.count(tm.QUALITY) >= 4


def test_grouping_is_pure_function_of_kind(model):
    content_kinds = {
        tm.LayerKind.CROSS_ATTN_TO_Q,
        tm.LayerKind.CROSS_ATTN_TO_K,
        tm.LayerKind.CROSS_ATTN_TO_V,
        tm.LayerKind.CROSS_ATTN_TO_OUT,
        tm.LayerKind.FFN,
    }
    for lid in model.layer_order:
        layer = model.layers[lid]
        expected = tm.CONTENT if layer.kind in content_kinds else tm.QUALITY
        assert layer.group == expected == tm.group_for_kind(layer.kind)


def test_param_count_matches_weight_shape(model):
    for lid in model.layer_order:
        layer = model.layers[lid]
        assert layer.param_count == int(np.prod(layer.weight.shape))


def test_shape_audit_clean(model, monkeypatch):
    for bos_aware in (False, True):
        assert helpers.descriptor_problems(monkeypatch, model, bos_aware=bos_aware) == [], bos_aware


@pytest.mark.parametrize("depth,width,spatial", list(itertools.product((1, 2), (2, 16), (4, 16))))
def test_shape_audit_clean_across_shapes(monkeypatch, depth, width, spatial):
    # the descriptors of _layer_specs against counts taken from the operands of a
    # forward, with and without the first-token-aware K/V path; the phase-split
    # up_conv and the split fuse are counted as the logical convs
    net = tm.build_toy_unet(3, width=width, depth=depth, spatial=spatial)
    for bos_aware in (False, True):
        assert helpers.descriptor_problems(monkeypatch, net, bos_aware=bos_aware) == [], bos_aware


def test_build_rejects_bad_sizes():
    with pytest.raises(ParameterError):
        tm.build_toy_unet(1, width=1)
    with pytest.raises(ParameterError):
        tm.build_toy_unet(1, depth=0)
    with pytest.raises(ParameterError):
        tm.build_toy_unet(1, spatial=7)
    with pytest.raises(ParameterError):
        tm.build_toy_unet(1, time_dim=5)


def test_depth_adds_conv_layers():
    deeper = tm.build_toy_unet(7, depth=2)
    base = tm.build_toy_unet(7, depth=1)
    assert len(deeper.layer_order) == len(base.layer_order) + 3


def test_synth_embedding_bos_constant_across_seeds():
    a = tm.synth_text_embedding(1)
    b = tm.synth_text_embedding(2)
    assert np.array_equal(a[0], b[0])
    assert not np.array_equal(a[1:], b[1:])


def test_synth_embedding_magnitudes():
    emb = tm.synth_text_embedding(5, tokens=8, channels=16, bos_magnitude=800, body_magnitude=12)
    assert np.abs(emb[0]).max() == pytest.approx(800.0)
    body_max = np.abs(emb[1:]).max()
    assert 6.0 <= body_max <= 24.0
    assert np.abs(emb[0]).max() / body_max >= 50


def test_synth_embedding_needs_two_tokens():
    with pytest.raises(InputError):
        tm.synth_text_embedding(1, tokens=1)


def test_forward_all_fp_matches_plain(model, small_inputs):
    latent, emb, t = small_inputs[0]
    plain = tm.forward(model, latent, emb, t)
    cfg = tm.QuantConfig.all_fp(model.layer_order)
    hooked = tm.forward(model, latent, emb, t, config=cfg)
    assert np.array_equal(plain, hooked)


def test_forward_shape_matches_latent(model, small_inputs):
    latent, emb, t = small_inputs[0]
    out = tm.forward(model, latent, emb, t)
    assert out.shape == latent.shape
    assert np.all(np.isfinite(out))


def test_forward_rejects_incomplete_config(model, small_inputs):
    latent, emb, t = small_inputs[0]
    cfg = tm.QuantConfig.all_fp(model.layer_order)
    del cfg.weight_bits["enc0.conv_in"]
    with pytest.raises(ConfigError):
        tm.forward(model, latent, emb, t, config=cfg)


def test_forward_rejects_bad_shapes(model):
    with pytest.raises(ShapeError):
        tm.forward(model, np.zeros((1, 2, 2)), np.zeros((8, 16)), 0.5)
    with pytest.raises(ShapeError):
        tm.forward(model, np.zeros((4, 16, 16)), np.zeros((8, 4)), 0.5)


def test_forward_act_quant_requires_calibration(model, small_inputs):
    latent, emb, t = small_inputs[0]
    cfg = tm.QuantConfig.all_fp(model.layer_order)
    cfg.act_bits["enc0.conv_in"] = 8
    with pytest.raises(ConfigError):
        tm.forward(model, latent, emb, t, config=cfg)


def test_first_token_path_takes_only_a_rest_rows_range(model, small_inputs):
    # a range calibrated with the first row (bos_aware=False) would stretch the
    # grid of the remaining rows over the outlier; the kind check refuses it
    latent, emb, t = small_inputs[0]
    cfg = tm.QuantConfig.all_fp(model.layer_order)
    cfg.act_bits["mid.cross.to_k"] = 8
    with_first_row = tm.calibrate_activations(model, small_inputs[:2], bos_aware=False)
    assert with_first_row["mid.cross.to_k"].kind == "tensor"
    with pytest.raises(ConfigError, match="rest_rows"):
        tm.forward(model, latent, emb, t, config=cfg, bos_aware=True, act_ranges=with_first_row)
    rest_rows = tm.calibrate_activations(model, small_inputs[:2], bos_aware=True)
    assert rest_rows["mid.cross.to_k"].kind == "rest_rows"
    assert np.all(np.isfinite(tm.forward(model, latent, emb, t, config=cfg, bos_aware=True, act_ranges=rest_rows)))


@pytest.mark.parametrize("bos", [False, True])
@pytest.mark.parametrize(
    "probe",
    [None, ("weight", "enc0.conv_in"), ("weight", "mid.cross.to_k"),
     ("activation", "dec0.fuse"), ("activation", "mid.cross.to_v"), ("activation", "time.fc1")],
)
def test_forward_batch_matches_single_inputs(model, small_inputs, probe, bos):
    inputs = small_inputs[:5]
    ranges = tm.calibrate_activations(model, inputs, bos_aware=bos)
    cfg = tm.QuantConfig.all_fp(model.layer_order)
    if probe is not None:
        kind, lid = probe
        (cfg.weight_bits if kind == "weight" else cfg.act_bits)[lid] = 4
    singles = np.stack([tm.forward(model, *inp, config=cfg, bos_aware=bos, act_ranges=ranges) for inp in inputs])
    batched = tm.forward(model, *tm.stack_inputs(inputs), config=cfg, bos_aware=bos, act_ranges=ranges)
    assert batched.shape == singles.shape
    assert np.array_equal(batched, singles)


@pytest.mark.parametrize(
    "probe",
    [None, ("weight", "dec0.up_conv"), ("activation", "dec0.up_conv"), ("weight", "dec0.fuse"),
     ("activation", "dec0.fuse"), ("weight", "enc0.res0.conv")],
)
def test_forward_chunk_outputs_equal_single_input_outputs_bitwise(model, two_chunk_inputs, probe):
    inputs = two_chunk_inputs[:tm.FORWARD_CHUNK]
    ranges = tm.calibrate_activations(model, inputs)
    fp = tm.QuantConfig.all_fp(model.layer_order)
    cfg = tm.QuantConfig.all_fp(model.layer_order)
    if probe is not None:
        kind, lid = probe
        (cfg.weight_bits if kind == "weight" else cfg.act_bits)[lid] = 4
    singles = np.stack([tm.forward(model, *inp, config=cfg, act_ranges=ranges) for inp in inputs])
    assert np.array_equal(tm.forward(model, *tm.stack_inputs(inputs), config=cfg, act_ranges=ranges), singles)
    # and through a cache, after an FP run that left the chunk's FP terms and states
    cache = tm.StateCache(model, [fp, cfg])
    tm.forward(model, *tm.stack_inputs(inputs), config=fp, act_ranges=ranges, cache=cache)
    assert np.array_equal(tm.forward(model, *tm.stack_inputs(inputs), config=cfg, act_ranges=ranges, cache=cache), singles)


# The kernels a forward runs, each checked for float32 operands and results by
# the test below; a float64 weight would make a float32 out= buffer compute in
# float64 and cast, unseen at the output.
_ENGINE_KERNELS = ((tm, "_conv3x3"), (tm, "_softmax_rows"), (tm, "_silu"), (tm, "_norm_chw"), (tm, "_norm_rows"),
                   (tm, "_sinusoid"), (quantizer, "fake_quant"), (quantizer, "bos_aware_linear"))


def _float32_only(fn):
    def checked(*args, **kwargs):
        out = fn(*args, **kwargs)
        arrays = [a for a in (*args, out) if isinstance(a, np.ndarray)]
        arrays += [p.scales for p in args if isinstance(p, quantizer.QuantParams)]
        assert all(a.dtype == np.float32 for a in arrays), (fn.__name__, [a.dtype for a in arrays])
        return out

    return checked


@pytest.mark.parametrize("bos_aware", [False, True])
def test_forward_and_its_state_cache_hold_only_float32(model, small_inputs, bos_aware, monkeypatch):
    # A float64 operand anywhere in the graph (a weight, a grid, a conv buffer,
    # a tap or a constant) carries float64 on to the output, into a state or FP
    # term the cache keeps, or into a kernel. The inputs are float64, as stacked.
    inputs = small_inputs[:3]
    for lid in model.layer_order:
        for bits in (2, 4):  # the float64 weight grids, memoized before the kernels are checked
            model.fq_weight(lid, bits)
    for module, name in _ENGINE_KERNELS:
        monkeypatch.setattr(module, name, _float32_only(getattr(module, name)))
    ranges = tm.calibrate_activations(model, inputs, bos_aware=bos_aware)
    ids = model.layer_order
    plan = []
    for w_bits, a_bits in ((None, None), (4, 8), (None, 4)):  # FP, W4A8, W-FP A4
        base = tm.QuantConfig.uniform(ids, w_bits, a_bits)
        late = tm.QuantConfig.uniform(ids, w_bits, a_bits)
        late.weight_bits["out.conv_out"] = 2  # resumes from a state ``base`` keeps at the head segment
        plan += [base, late]
    cache = tm.StateCache(model, plan)
    batch = tm.stack_inputs(inputs)
    assert batch[0].dtype == batch[1].dtype == np.float64
    states = 0
    for cfg in plan:
        options = dict(config=cfg, bos_aware=bos_aware, act_ranges=ranges)
        assert tm.forward(model, *batch, cache=cache, **options).dtype == np.float32
        assert tm.forward(model, *inputs[0], **options).dtype == np.float32
        (path, fp_terms), = cache._chunks.values()
        held = [a for state in path for a in state.arrays.values()] + list(fp_terms.values())
        assert {a.dtype for a in held} <= {np.dtype(np.float32)}
        states += len(path)
    assert states == 3 and len(fp_terms) == 5  # a state after each base config; the K/V and skip terms


def test_forward_batch_broadcasts_scalar_timestep(model, small_inputs):
    latents, embeddings, _ = tm.stack_inputs(small_inputs[:3])
    batched = tm.forward(model, latents, embeddings, 0.25)
    for i in range(3):
        single = tm.forward(model, latents[i], embeddings[i], 0.25)
        np.testing.assert_allclose(batched[i], single, rtol=1e-12, atol=1e-12)


def test_forward_batch_rejects_mismatched_shapes(model, small_inputs):
    latents, embeddings, times = tm.stack_inputs(small_inputs[:3])
    with pytest.raises(ShapeError):
        tm.forward(model, latents[:2], embeddings, times[:2])
    with pytest.raises(ShapeError):
        tm.forward(model, latents, embeddings, times[:2])
    with pytest.raises(ShapeError):
        tm.forward(model, latents[0], embeddings, times[0])
    with pytest.raises(ShapeError):
        tm.stack_inputs([small_inputs[0], (np.zeros((4, 8, 8)), *small_inputs[1][1:])])


def test_forward_inputs_chunks_in_input_order(model, two_chunk_inputs):
    inputs = two_chunk_inputs  # one full chunk and a partial one
    assert [len(c[0]) for c in tm.input_chunks(inputs)] == [tm.FORWARD_CHUNK, len(inputs) - tm.FORWARD_CHUNK]
    outs = helpers.forward_inputs(model, inputs, bos_aware=True)
    assert len(outs) == len(inputs)
    for inp, out in zip(inputs, outs):
        np.testing.assert_allclose(out, tm.forward(model, *inp, bos_aware=True), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("bos", [False, True])
def test_calibrate_activations_batched_equals_per_input(model, two_chunk_inputs, bos):
    inputs = two_chunk_inputs
    batched = tm.calibrate_activations(model, inputs, bos_aware=bos)
    merged = {}
    for inp in inputs:
        for lid, r in tm.calibrate_activations(model, [inp], bos_aware=bos).items():
            prev = merged.get(lid, r)
            merged[lid] = tm.ActRange(
                kind=r.kind,
                lo=tuple(min(a, b) for a, b in zip(prev.lo, r.lo)),
                hi=tuple(max(a, b) for a, b in zip(prev.hi, r.hi)),
            )
    assert batched == merged


def test_trace_counts_are_per_input(model, small_inputs, monkeypatch):
    single = helpers.layer_costs(monkeypatch, model, *small_inputs[0], bos_aware=True)
    batch = helpers.layer_costs(monkeypatch, model, *tm.stack_inputs(small_inputs[:4]), bos_aware=True)
    assert list(batch.items()) == list(single.items())


# Batch sizes below, at and across the conv's sub-chunk of inputs, and whole chunks.
CONV_BATCHES = (1, 3, tm._CONV_INPUTS, tm._CONV_INPUTS + 1, tm.FORWARD_CHUNK)
CONV_COUTS = (1, 4, 8, 16)
CONV_SIZES = ((6, 6), (5, 5), (7, 3), (3, 8))


# Unit roundoff of the engine's dtype. A float32 sum of n products is within
# n * u * (the sum of their magnitudes) of the exact one; the bounds below take
# twice that, ``n * EPS32``.
EPS32 = float(np.finfo(np.float32).eps)


def _normal32(rng, size) -> np.ndarray:
    return rng.normal(size=size).astype(np.float32)


def _assert_float32_sum_close(got, want, magnitudes, n):
    """``got`` (float32) within ``n * EPS32 * magnitudes`` of ``want``, both
    float64 sums over the same float32 operands."""
    assert got.dtype == np.float32 and got.shape == want.shape
    assert np.all(np.abs(got - want) <= n * EPS32 * magnitudes)


def _direct_conv(x: np.ndarray, w: np.ndarray, stride: int) -> np.ndarray:
    """The zero-padded 3x3 conv as one sum of 9C products per output, in float64."""
    x, w = x.astype(np.float64), w.astype(np.float64)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    out = np.zeros((x.shape[0], w.shape[0], -(-x.shape[2] // stride), -(-x.shape[3] // stride)))
    for oy in range(out.shape[2]):
        for ox in range(out.shape[3]):
            patch = xp[:, :, oy * stride:oy * stride + 3, ox * stride:ox * stride + 3]
            out[:, :, oy, ox] = np.einsum("bcij,ocij->bo", patch, w)
    return out


@pytest.mark.parametrize("stride", [1, 2])
def test_conv3x3_matches_direct_sum(stride):
    rng = np.random.Generator(np.random.Philox(5))
    for (h, wd), cout, b in itertools.product(CONV_SIZES, CONV_COUTS, CONV_BATCHES):
        x = _normal32(rng, (b, 3, h, wd))
        w = _normal32(rng, (cout, 3, 3, 3))
        got = tm._conv3x3(x, w, stride)
        _assert_float32_sum_close(got, _direct_conv(x, w, stride), _direct_conv(np.abs(x), np.abs(w), stride), 27)


@pytest.mark.parametrize("stride", [1, 2])
def test_conv3x3_batch_outputs_equal_single_input_outputs_bitwise(stride):
    rng = np.random.Generator(np.random.Philox(6))
    for (h, wd), cout, b in itertools.product(CONV_SIZES + ((16, 16),), CONV_COUTS, CONV_BATCHES):
        x = _normal32(rng, (b, 8, h, wd))
        w = _normal32(rng, (cout, 8, 3, 3))
        batched = tm._conv3x3(x, w, stride)
        for i in range(b):
            assert np.array_equal(batched[i], tm._conv3x3(x[i:i + 1], w, stride)[0]), (h, wd, cout, b, i)


def _model_conv_shapes(monkeypatch, net) -> set:
    """(C, H, W, C_out, stride) of every ``_conv3x3`` call of one forward of ``net``."""
    shapes, real = set(), tm._conv3x3

    def recording(x, w, stride=1):
        shapes.add((*x.shape[1:], w.shape[0], stride))
        return real(x, w, stride)

    with monkeypatch.context() as patched:
        patched.setattr(tm, "_conv3x3", recording)
        tm.forward(net, *tm.make_input_set(0, 1, net)[0])
    return shapes


def test_conv3x3_equals_the_slice_conv_at_the_model_shapes_bitwise(monkeypatch):
    # The pad column changes only the gemm's column count. At the conv shapes of
    # the default, ``--depth 2`` and ``--width 16`` models, OpenBLAS 0.3.31's
    # sgemm sums the 9C products of each output in the same order either way, so
    # the outputs keep the bits of the patch tensor without pad columns.
    shapes = set()
    for options in ({}, {"depth": 2}, {"width": 16}):
        shapes |= _model_conv_shapes(monkeypatch, tm.build_toy_unet(1, **options))
    assert {s[-1] for s in shapes} == {1, 2}
    rng = np.random.Generator(np.random.Philox(12))
    for (c, h, wd, cout, stride), b in itertools.product(sorted(shapes), (1, 5, 16)):
        x = _normal32(rng, (b, c, h, wd))
        w = _normal32(rng, (cout, c, 3, 3))
        assert np.array_equal(tm._conv3x3(x, w, stride), helpers.slice_conv3x3(x, w, stride)), (c, h, wd, cout, stride, b)


@pytest.mark.parametrize("stride", [1, 2])
def test_conv3x3_equals_the_slice_conv_at_small_odd_shapes(stride):
    # At small shapes the extra pad column can move OpenBLAS to other gemm
    # kernels, which sum the 9C products in another order. So these shapes are
    # checked to the float32 bound of two sums of 27 products each, not bit for
    # bit.
    rng = np.random.Generator(np.random.Philox(13))
    for (h, wd), cout, b in itertools.product(CONV_SIZES + ((4, 6),), CONV_COUTS, CONV_BATCHES):
        x = _normal32(rng, (b, 3, h, wd))
        w = _normal32(rng, (cout, 3, 3, 3))
        want = helpers.slice_conv3x3(x, w, stride)
        got = tm._conv3x3(x, w, stride)
        assert got.shape == want.shape and want.dtype == np.float32
        magnitudes = _direct_conv(np.abs(x), np.abs(w), stride)
        assert np.all(np.abs(got.astype(np.float64) - want) <= 2 * 27 * EPS32 * magnitudes), ((h, wd), cout, b)


# (weight, activation) bits of the one quantized layer: FP, each tensor alone, both.
LAYER_BITS = ((None, None), (4, None), (None, 4), (2, 8))


def _one_layer_run(net, lid, w_bits, a_bits, ranges, calib=None):
    cfg = tm.QuantConfig.all_fp(net.layer_order)
    cfg.weight_bits[lid], cfg.act_bits[lid] = w_bits, a_bits
    return tm._Run(net, cfg, ranges, False, calib=calib)


@pytest.mark.parametrize("spatial", [4, 6, 16])
def test_up_conv_equals_the_conv_of_the_upsampled_input(spatial):
    net = tm.build_toy_unet(2, width=4, spatial=spatial, text_tokens=2, text_channels=2, time_dim=2)
    lid = "dec0.up_conv"
    rng = np.random.Generator(np.random.Philox(10))
    x = _normal32(rng, (3, 2 * net.width, spatial // 2, spatial // 2)) * 3
    up = helpers.upsample2(x)
    ranges = {lid: tm.ActRange("tensor", (float(up.min()),), (float(up.max()),))}
    for w_bits, a_bits in LAYER_BITS:
        calib = {}
        got = _one_layer_run(net, lid, w_bits, a_bits, ranges, calib).up_conv(lid, x)
        assert calib == ranges  # calibrated on the low-res input, with the upsampled input's range
        xq = up if a_bits is None else quantizer.fake_quant(up, ranges[lid].grid(a_bits))
        w = net.fq_weight(lid, w_bits)
        # 9C products per output, plus the float32 sums of up to four taps in each phase weight
        n = 9 * x.shape[1] + 3
        _assert_float32_sum_close(got, _direct_conv(xq, w, 1), _direct_conv(np.abs(xq), np.abs(w), 1), n)
        assert net.phase_weight(lid, w_bits) is net.phase_weight(lid, w_bits)  # memoized


def test_fuse_conv_equals_the_conv_of_the_concatenated_halves(model):
    lid = "dec0.fuse"
    rng = np.random.Generator(np.random.Philox(11))
    x = _normal32(rng, (3, model.width, model.spatial, model.spatial))
    skip = _normal32(rng, x.shape) * 4
    ranges = {lid: tm.ActRange("halves", (float(x.min()), float(skip.min())), (float(x.max()), float(skip.max())))}
    for w_bits, a_bits in LAYER_BITS:
        run = _one_layer_run(model, lid, w_bits, a_bits, ranges)
        for fp_terms in (None, {}):  # a run with a chunk's FP terms and one without
            run.fp_terms = fp_terms
            got = run.fuse_conv(lid, x, skip, skip_layers=("enc0.conv_in",))
            halves = [x, skip]
            if a_bits is not None:
                halves = [quantizer.fake_quant(h, ranges[lid].grid(a_bits, slot)) for slot, h in enumerate(halves)]
            w, whole = model.fq_weight(lid, w_bits), np.concatenate(halves, axis=1)
            # 9 * 2C products per output, and one more addition for the split sum
            n = 9 * whole.shape[1] + 1
            _assert_float32_sum_close(got, _direct_conv(whole, w, 1), _direct_conv(np.abs(whole), np.abs(w), 1), n)
            assert fp_terms is None or set(fp_terms) == ({lid} if (w_bits, a_bits) == (None, None) else set())


# Values at the edges of exp and of the float32 range: signed zeros, infinities,
# subnormals, +-89 (where exp(-|x|) is subnormal), +-110 (where it is zero), and
# the largest finite.
SPECIAL_VALUES = np.array(
    [0.0, -0.0, np.inf, -np.inf, 1e-45, -1e-45, 1e-40, -1e-40, 89.0, -89.0, 110.0, -110.0,
     3.4028235e38, -3.4028235e38, 1.0, -1.0, 36.7, -36.7], dtype=np.float32,
)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(f"u{a.itemsize}")


def test_silu_equals_the_select_based_silu_bitwise():
    rng = np.random.Generator(np.random.Philox(8))
    for x in (_normal32(rng, (8, 16, 16, 16)) * 4, _normal32(rng, (3, 16)) * 40, SPECIAL_VALUES):
        with np.errstate(invalid="ignore"):  # -inf / inf
            assert np.array_equal(_bits(tm._silu(x)), _bits(helpers.silu(x)))
    # Between about -103.97 and -88.72, exp(-x) overflows float32 and SiLU is
    # -0.0; the select form x * exp(x) / (1 + exp(x)) gave a tiny nonzero value
    # there (-2.0e-37 at -89). Below about -103.97 both give -0.0.
    edge = tm._silu(np.array([-88.0, -89.0, -103.0, -110.0], dtype=np.float32))
    assert edge.dtype == np.float32
    assert edge[0] < 0 and np.array_equal(_bits(edge[1:]), _bits(np.full(3, -0.0, dtype=np.float32)))


@pytest.mark.parametrize("columns", [2, 8, tm._RUNNING_MAX_COLUMNS, tm._RUNNING_MAX_COLUMNS + 1, 64])
def test_softmax_rows_equals_the_reduce_softmax_bitwise(columns):
    rng = np.random.Generator(np.random.Philox(9))
    x = _normal32(rng, (3, 40, columns)) * 8
    assert tm._softmax_rows(x).dtype == np.float32
    assert np.array_equal(_bits(tm._softmax_rows(x)), _bits(helpers.softmax_rows(x)))
    # every special value in every column position, among ordinary and other special values
    special = np.resize(SPECIAL_VALUES, (len(SPECIAL_VALUES), columns))
    for shift in range(columns):
        rows = np.roll(special, shift, axis=1)
        rows[:, 1::3] = x[0, :len(rows), 1::3]
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, and max - (-max)
            assert np.array_equal(_bits(tm._softmax_rows(rows)), _bits(helpers.softmax_rows(rows)))


def test_softmax_rows_weights_entries_below_the_floor_zero():
    # in float32, exp(-88) is subnormal and exp(-104) is zero; both weights are
    # +0.0, while exp(-87) is still normal and keeps its weight
    x = np.array([[0.0, -80.0, -87.0, -88.0, -95.0, -104.0, -np.inf, -1.0]], dtype=np.float32)
    weights = tm._softmax_rows(x)[0]
    assert tm._SOFTMAX_FLOOR == pytest.approx(-87.337, abs=1e-3)
    assert np.array_equal(_bits(weights[3:7]), _bits(np.zeros(4, dtype=np.float32)))
    assert (weights[[0, 1, 2, 7]] > 0).all()


@pytest.mark.parametrize("columns", [8, 64])
def test_kernels_turn_nan_into_nan(columns):
    x = np.linspace(-3.0, 3.0, 2 * columns, dtype=np.float32).reshape(2, columns)
    x[0, columns // 2] = np.nan
    silu = tm._silu(x)
    assert np.isnan(silu[0, columns // 2]) and np.isfinite(np.delete(silu.ravel(), columns // 2)).all()
    soft = tm._softmax_rows(x)
    assert np.isnan(soft[0]).all() and np.isfinite(soft[1]).all()
    assert np.array_equal(np.isnan(soft), np.isnan(helpers.softmax_rows(x)))


def test_weight_bits_sqnr_trend(model, small_inputs):
    refs = [tm.forward(model, *inp) for inp in small_inputs]

    def mean_sqnr(bits):
        cfg = tm.QuantConfig.uniform(model.layer_order, bits, None)
        vals = [
            helpers.sqnr_db(ref, tm.forward(model, *inp, config=cfg))
            for inp, ref in zip(small_inputs, refs)
        ]
        return float(np.mean(vals))

    s8, s4 = mean_sqnr(8), mean_sqnr(4)
    assert np.isfinite(s8) and np.isfinite(s4)
    assert s8 > s4


def test_bos_aware_improves_kv_activation_quant(model, small_inputs):
    kv = [
        lid
        for lid in model.layer_order
        if model.layers[lid].kind in (tm.LayerKind.CROSS_ATTN_TO_K, tm.LayerKind.CROSS_ATTN_TO_V)
    ]

    def mean_sqnr(bos):
        refs = [tm.forward(model, *inp, bos_aware=bos) for inp in small_inputs]
        ranges = tm.calibrate_activations(model, small_inputs, bos_aware=bos)
        cfg = tm.QuantConfig.all_fp(model.layer_order)
        for lid in kv:
            cfg.act_bits[lid] = 8
        vals = [
            helpers.sqnr_db(ref, tm.forward(model, *inp, config=cfg, bos_aware=bos, act_ranges=ranges))
            for inp, ref in zip(small_inputs, refs)
        ]
        return float(np.mean(vals))

    assert mean_sqnr(True) > mean_sqnr(False)


def test_bos_aware_improves_uniform_w8a8(model, calib_inputs, small_inputs):
    # the evaluate-stage ablation: everything at W8A8, toggling first-token handling
    def mean_sqnr(bos):
        refs = [tm.forward(model, *inp, bos_aware=bos) for inp in small_inputs]
        ranges = tm.calibrate_activations(model, calib_inputs, bos_aware=bos)
        cfg = tm.QuantConfig.uniform(model.layer_order, 8, 8)
        vals = [
            helpers.sqnr_db(ref, tm.forward(model, *inp, config=cfg, bos_aware=bos, act_ranges=ranges))
            for inp, ref in zip(small_inputs, refs)
        ]
        return float(np.mean(vals))

    assert mean_sqnr(True) > mean_sqnr(False)


def test_shortcut_split_never_worse_than_shared_grid(model, small_inputs):
    # two separately calibrated halves vs one grid over the concatenation
    ranges = tm.calibrate_activations(model, small_inputs)
    entry = ranges["dec0.fuse"]
    assert entry.kind == "halves"

    w = model.width
    calib = tm.calibrate_activations(model, [small_inputs[0]])
    fuse = calib["dec0.fuse"]
    for bits in (2, 4, 8):
        lo, hi = min(fuse.lo), max(fuse.hi)
        shared = quantizer.params_from_minmax(lo, hi, bits)
        half0 = quantizer.params_from_minmax(fuse.lo[0], fuse.hi[0], bits)
        half1 = quantizer.params_from_minmax(fuse.lo[1], fuse.hi[1], bits)
        rng = np.random.Generator(np.random.Philox(9))
        sample0 = rng.uniform(fuse.lo[0], fuse.hi[0], size=(w, 64))
        sample1 = rng.uniform(fuse.lo[1], fuse.hi[1], size=(w, 64))
        concat = np.concatenate([sample0, sample1], axis=0)
        split_err = helpers.mse(
            concat,
            np.concatenate(
                [quantizer.fake_quant(sample0, half0), quantizer.fake_quant(sample1, half1)], axis=0
            ),
        )
        shared_err = helpers.mse(concat, quantizer.fake_quant(concat, shared))
        assert split_err <= shared_err


def test_kv_first_token_rows_are_the_fp_product(model, small_inputs):
    inputs = small_inputs[:4]
    emb = tm.stack_inputs(inputs)[1].astype(tm.DTYPE)
    ranges = tm.calibrate_activations(model, inputs, bos_aware=True)
    for lid in ("mid.cross.to_k", "dec0.cross.to_v"):
        w = model.fq_weight(lid, None)
        for w_bits, a_bits in LAYER_BITS:
            cfg = tm.QuantConfig.all_fp(model.layer_order)
            cfg.weight_bits[lid], cfg.act_bits[lid] = w_bits, a_bits
            out = tm._Run(model, cfg, ranges, True, calib=None).kv_linear(lid, emb)
            assert out.shape == (len(inputs), model.text_tokens, w.shape[0])
            for e, rows in zip(emb, out):  # each input's row, at the full-precision weight whatever the bits
                assert np.array_equal(rows[:1], e[:1] @ w.T)


def test_model_json_export_fields(model):
    rows = tm.model_layer_summary(model)
    assert len(rows) == len(model.layer_order)
    for row in rows:
        assert set(row) >= {"id", "kind", "group", "param_count", "act_elem_count", "mac_count"}


def test_save_load_roundtrip(model, small_inputs, tmp_path):
    tm.save_model(model, tmp_path / "model.json", tmp_path / "weights")
    back = helpers.read_model(tmp_path)
    latent, emb, t = small_inputs[0]
    assert np.array_equal(tm.forward(model, latent, emb, t), tm.forward(back, latent, emb, t))


def test_load_model_draws_no_weights(model, tmp_path, monkeypatch):
    tm.save_model(model, tmp_path / "model.json", tmp_path / "weights")
    monkeypatch.setattr(tm, "random_normal", lambda *a: pytest.fail("load_model drew random weights"))
    back = helpers.read_model(tmp_path)
    assert back.layer_order == model.layer_order
    for lid in model.layer_order:
        got, want = back.layers[lid], model.layers[lid]
        assert dataclasses.replace(got, weight=None) == dataclasses.replace(want, weight=None)
        assert got.weight.dtype == np.float64 and np.array_equal(got.weight, want.weight)


def test_load_detects_weight_tamper(model, tmp_path):
    tm.save_model(model, tmp_path / "model.json", tmp_path / "weights")
    target = tmp_path / "weights" / f"{model.layer_order[0]}.bin"
    raw = bytearray(target.read_bytes())
    raw[-1] ^= 0x01
    target.write_bytes(bytes(raw))
    with pytest.raises(ValidationError):
        helpers.read_model(tmp_path)


def test_quantconfig_json_roundtrip(model):
    cfg = tm.QuantConfig.uniform(model.layer_order, 4, 8)
    cfg.act_bits[model.layer_order[0]] = None
    back = tm.QuantConfig.from_json_dict(cfg.to_json_dict())
    assert back.weight_bits == cfg.weight_bits
    assert back.act_bits == cfg.act_bits


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_segments_partition_the_layers_in_run_order(depth, monkeypatch):
    model = tm.build_toy_unet(3, width=2, depth=depth, spatial=4, text_tokens=2, text_channels=2, time_dim=2)
    segments = tm._segment_list(depth)
    assert tm._segment_list(depth) is segments  # built once per depth
    run_order = [lid for segment in segments for lid in segment.layers]
    assert sorted(run_order) == sorted(model.layer_order)
    assert len(set(run_order)) == len(run_order)
    assert list(helpers.layer_costs(monkeypatch, model, *tm.make_input_set(0, 1, model)[0])) == run_order


def _paths(cache) -> list[list]:
    return [path for path, _ in cache._chunks.values()]


def test_resume_from_every_segment_equals_forward(model, two_chunk_inputs):
    inputs = two_chunk_inputs  # a full chunk and a partial one
    ranges = tm.calibrate_activations(model, inputs)
    fp = tm.QuantConfig.all_fp(model.layer_order)
    plan = []
    for segment in tm._segment_list(model.depth):
        cfg = tm.QuantConfig.all_fp(model.layer_order)
        cfg.weight_bits[segment.layers[-1]] = 4
        cfg.act_bits[segment.layers[0]] = 8
        plan += [fp, cfg]  # each probe-like config follows an FP run, so it resumes at its own segment
    plan.append(fp)
    cache = tm.StateCache(model, plan)
    for position, cfg in enumerate(plan):
        index = position // 2
        left = [id(s) for path in _paths(cache) for s in path if s.index == index]
        got = helpers.forward_inputs(model, inputs, config=cfg, act_ranges=ranges, cache=cache)
        want = helpers.forward_inputs(model, inputs, config=cfg, act_ranges=ranges)
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True)), position
        if cfg is not fp and index:
            # it resumed from the state the FP run left at its segment, and keeps only that one
            assert [[s.index for s in path] for path in _paths(cache)] == [[index]] * 2
            assert [id(path[0]) for path in _paths(cache)] == left
            assert all(bits == (None, None) for path in _paths(cache) for bits in path[0].bits)


def _mixed_config(model, seed: int) -> tm.QuantConfig:
    """Weights and activations at random grid bits, a few layers left at FP."""
    rng = np.random.default_rng(seed)
    cfg = tm.QuantConfig.all_fp(model.layer_order)
    for lid in model.layer_order:
        cfg.weight_bits[lid] = [None, 2, 4, 8][rng.integers(4)]
        cfg.act_bits[lid] = [None, 4, 8][rng.integers(3)]
    return cfg


@pytest.mark.parametrize("bos_aware", [False, True])
def test_resume_from_a_quantized_state_equals_forward(model, two_chunk_inputs, bos_aware):
    inputs = two_chunk_inputs
    ranges = tm.calibrate_activations(model, inputs, bos_aware=bos_aware)
    built = _mixed_config(model, 1)
    other = _mixed_config(model, 2)
    plan, seen = [], []
    for segment in tm._segment_list(model.depth):
        # agrees with ``built`` on the layers of the earlier segments, with ``other`` from here on
        cfg = tm.QuantConfig(dict(other.weight_bits), dict(other.act_bits))
        for lid in seen:
            cfg.weight_bits[lid], cfg.act_bits[lid] = built.weight_bits[lid], built.act_bits[lid]
        plan += [built, cfg]
        seen += segment.layers
    plan.append(built)
    cache = tm.StateCache(model, plan)
    built_bits = tm._run_bits(built, tm._segment_list(model.depth))
    for position, cfg in enumerate(plan):
        got = helpers.forward_inputs(model, inputs, config=cfg, bos_aware=bos_aware, act_ranges=ranges, cache=cache)
        want = helpers.forward_inputs(model, inputs, config=cfg, bos_aware=bos_aware, act_ranges=ranges)
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True)), position
        if cfg is not built and position // 2:
            # it kept one state built under ``built``, at its own segment or later
            for path in _paths(cache):
                (state,) = path
                assert state.index >= position // 2 and state.bits == built_bits[:len(state.bits)]


def test_resume_rejects_a_config_that_differs_on_a_passed_layer(model, small_inputs):
    ranges = tm.calibrate_activations(model, small_inputs)
    built = tm.QuantConfig.uniform(model.layer_order, 4, 8)
    late = tm.QuantConfig.uniform(model.layer_order, 4, 8)
    late.weight_bits["mid.cross.to_q"] = 2
    cross = next(i for i, s in enumerate(tm._segment_list(model.depth)) if "mid.cross.to_q" in s.layers)
    for field, bits in (("weight_bits", 8), ("weight_bits", None), ("act_bits", 4), (None, None)):
        cache = tm.StateCache(model, [built, late])
        helpers.forward_inputs(model, small_inputs, config=built, act_ranges=ranges, cache=cache)
        assert [[s.index for s in path] for path in _paths(cache)] == [[cross]]
        cfg = None  # an FP run on the quantized state
        if field is not None:
            cfg = tm.QuantConfig.uniform(model.layer_order, 4, 8)
            getattr(cfg, field)["enc1.down"] = bits
        got = helpers.forward_inputs(model, small_inputs, config=cfg, act_ranges=ranges, cache=cache)
        want = helpers.forward_inputs(model, small_inputs, config=cfg, act_ranges=ranges)
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True)), (field, bits)
        assert _paths(cache) == [[]]  # the state was passed over, then dropped


def test_state_cache_forward_equals_forward_along_any_config_order(model, two_chunk_inputs):
    inputs = two_chunk_inputs  # a full chunk and a partial one
    ranges = tm.calibrate_activations(model, inputs, bos_aware=True)
    segs = tm._segment_list(model.depth)
    base = _mixed_config(model, 3)
    configs = [base]
    for lid in ("dec0.fuse", "mid.ffn.fc2", "out.conv_out", "enc0.conv_in", "mid.self.to_v"):
        cfg = tm.QuantConfig(dict(configs[-1].weight_bits), dict(configs[-1].act_bits))
        cfg.weight_bits[lid] = 2 if cfg.weight_bits[lid] != 2 else 8
        configs.append(cfg)
    configs.append(base)  # a repeat, and a jump back to an earlier prefix
    configs.append(tm.QuantConfig(dict(configs[2].weight_bits), dict(configs[2].act_bits)))
    cache = tm.StateCache(model, configs)
    assert any(cache.keep.values()) and not any(0 in keep for keep in cache.keep.values())
    for cfg in configs:
        got = helpers.forward_inputs(model, inputs, config=cfg, bos_aware=True, act_ranges=ranges, cache=cache)
        want = helpers.forward_inputs(model, inputs, config=cfg, bos_aware=True, act_ranges=ranges)
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
        for path in _paths(cache):
            assert [s.index for s in path] == sorted(s.index for s in path)
            assert {s.index for s in path} <= cache.keep[tm._run_bits(cfg, segs)]


@pytest.mark.parametrize("bos_aware", [False, True])
def test_state_cache_config_outside_the_plan_order_equals_forward(model, two_chunk_inputs, bos_aware):
    inputs = two_chunk_inputs
    ranges = tm.calibrate_activations(model, inputs, bos_aware=bos_aware)
    plan = [_mixed_config(model, seed) for seed in (4, 5, 6)]
    for lid in ("dec0.fuse", "mid.cross.to_k", "enc1.down"):
        cfg = tm.QuantConfig(dict(plan[-1].weight_bits), dict(plan[-1].act_bits))
        cfg.act_bits[lid] = 4 if cfg.act_bits[lid] != 4 else None
        plan.append(cfg)
    stranger = tm.QuantConfig(dict(plan[3].weight_bits), dict(plan[3].act_bits))
    stranger.weight_bits["out.conv_out"] = 2 if stranger.weight_bits["out.conv_out"] != 2 else None
    fp = tm.QuantConfig.all_fp(model.layer_order)
    cache = tm.StateCache(model, plan)
    # the plan backwards, with a config outside it and an FP run between
    for cfg in [*reversed(plan), stranger, fp, *plan, stranger]:
        got = helpers.forward_inputs(model, inputs, config=cfg, bos_aware=bos_aware, act_ranges=ranges, cache=cache)
        want = helpers.forward_inputs(model, inputs, config=cfg, bos_aware=bos_aware, act_ranges=ranges)
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


def test_state_cache_keeps_only_the_resume_segments(model):
    segs = tm._segment_list(model.depth)
    base = tm.QuantConfig.uniform(model.layer_order, 4, 8)
    late = tm.QuantConfig.uniform(model.layer_order, 4, 8)
    late.weight_bits["dec0.fuse"] = 2
    fuse = next(i for i, s in enumerate(segs) if "dec0.fuse" in s.layers)

    def keep(*configs):
        return [tm.StateCache(model, configs).keep[tm._run_bits(c, segs)] for c in configs]

    assert keep(base, late) == [{fuse}, set()]
    assert keep(base) == [set()]
    assert keep(base, base) == [{len(segs) - 1}] * 2  # a repeat resumes at the head
    early = tm.QuantConfig.uniform(model.layer_order, 4, 8)
    early.act_bits["time.fc1"] = 4
    assert keep(early, base, late) == [set(), {fuse}, set()]  # segment 0 is the input itself
    # ``base`` keeps the state ``mid`` resumes from two configs later, ``late`` carries it on
    mid = tm.QuantConfig.uniform(model.layer_order, 4, 8)
    mid.weight_bits["mid.ffn.fc1"] = 2
    ffn = next(i for i, s in enumerate(segs) if "mid.ffn.fc1" in s.layers)
    assert keep(base, late, mid) == [{ffn, fuse}, {ffn}, set()]


def test_state_cache_leaves_caller_arrays_writable_and_checks_its_setup(model, small_inputs):
    latent, emb, t = tm.stack_inputs(small_inputs[:2])
    ranges = tm.calibrate_activations(model, small_inputs)
    a = tm.QuantConfig.uniform(model.layer_order, 4, None)
    b = tm.QuantConfig.uniform(model.layer_order, 4, None)
    b.weight_bits["out.conv_out"] = 8
    cache = tm.StateCache(model, [a, b])
    out = tm.forward(model, latent, emb, t, config=a, cache=cache)
    assert latent.flags.writeable and emb.flags.writeable and out.flags.writeable
    assert np.array_equal(tm.forward(model, latent, emb, t, config=b, cache=cache),
                          tm.forward(model, latent, emb, t, config=b))
    with pytest.raises(ConfigError):
        tm.forward(model, latent, emb, t, config=a, bos_aware=True, cache=cache)
    with pytest.raises(ConfigError):
        tm.forward(model, latent, emb, t, config=a, act_ranges=ranges, cache=cache)


@pytest.mark.parametrize("bos_aware", [True, False])
def test_text_kv_cache_resume_equals_plain_resume(model, two_chunk_inputs, bos_aware):
    inputs = two_chunk_inputs[:tm.FORWARD_CHUNK + 2]
    ranges = tm.calibrate_activations(model, inputs, bos_aware=bos_aware)
    configs = [tm.QuantConfig.all_fp(model.layer_order)]
    for lid in ("mid.cross.to_k", "dec0.cross.to_v", "mid.cross.to_q"):
        for bits_of in ("weight_bits", "act_bits"):
            cfg = tm.QuantConfig.all_fp(model.layer_order)
            getattr(cfg, bits_of)[lid] = 2
            configs.append(cfg)
    cache = tm.StateCache(model, configs)
    for cfg in configs * 2:  # the second pass reads what the first one stored
        plain = helpers.forward_inputs(model, inputs, config=cfg, bos_aware=bos_aware, act_ranges=ranges)
        cached = helpers.forward_inputs(model, inputs, config=cfg, bos_aware=bos_aware, act_ranges=ranges, cache=cache)
        assert all(np.array_equal(a, b) for a, b in zip(plain, cached, strict=True))
    # one kept output per chunk and FP term (each K/V projection, and the fuse
    # conv's skip half), each read-only
    assert len(cache._chunks) == 2
    for _, outputs in cache._chunks.values():
        assert set(outputs) == {f"{p}.{n}" for p in ("mid.cross", "dec0.cross") for n in ("to_k", "to_v")} | {
            "dec0.fuse"
        }
        assert not any(out.flags.writeable for out in outputs.values())


def test_fuse_skip_term_is_reused_only_under_an_fp_prefix(model, two_chunk_inputs):
    inputs = two_chunk_inputs
    ranges = tm.calibrate_activations(model, inputs)

    def probe(lid, bits_of, bits):
        cfg = tm.QuantConfig.all_fp(model.layer_order)
        getattr(cfg, bits_of)[lid] = bits
        return cfg

    fp = tm.QuantConfig.all_fp(model.layer_order)
    # configs that may reuse the FP skip term, each followed by one that quantizes
    # a layer ``skip`` passes through, or the fuse conv itself, and must not
    plan = [
        fp, probe("mid.cross.to_q", "weight_bits", 2), probe("enc0.res0.conv", "weight_bits", 4),
        probe("dec1.res0.conv", "act_bits", 8), probe("dec0.fuse", "act_bits", 4),
        probe("out.conv_out", "weight_bits", 2), probe("dec0.fuse", "weight_bits", 2),
        probe("dec0.up_conv", "act_bits", 2), probe("enc0.res0.conv", "act_bits", 8), fp,
    ]
    cache = tm.StateCache(model, plan)
    terms = []
    for position, cfg in enumerate(plan):
        got = helpers.forward_inputs(model, inputs, config=cfg, act_ranges=ranges, cache=cache)
        want = helpers.forward_inputs(model, inputs, config=cfg, act_ranges=ranges)
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True)), position
        terms.append([fp_terms["dec0.fuse"] for _, fp_terms in cache._chunks.values()])
    # each chunk computed its term once, under the first FP run, and kept it read-only
    assert len(terms[0]) == 2 and not any(t.flags.writeable for t in terms[0])
    assert all(all(a is b for a, b in zip(held, terms[0], strict=True)) for held in terms)


def test_state_cache_text_kv_follows_the_chunk_bytes(model, small_inputs):
    # The K/V projections are keyed by the chunk's bytes, so an embedding the
    # caller changes in place between calls gets its own, fresh projections.
    latent, emb, t = tm.stack_inputs(small_inputs[:2])
    fp = tm.QuantConfig.all_fp(model.layer_order)
    cache = tm.StateCache(model, [fp])
    out = tm.forward(model, latent, emb, t, config=fp, bos_aware=True, cache=cache)
    assert np.array_equal(out, tm.forward(model, latent, emb, t, bos_aware=True))
    emb[:, 1:] *= 0.5
    again = tm.forward(model, latent, emb, t, config=fp, bos_aware=True, cache=cache)
    assert np.array_equal(again, tm.forward(model, latent, emb, t, bos_aware=True))
    assert not np.array_equal(again, out)
    assert len(cache._chunks) == 2


def test_state_cache_gives_chunks_differing_in_one_array_their_own_entries(model, small_inputs):
    latent, emb, t = tm.stack_inputs(small_inputs[:2])
    other_emb = emb.copy()
    other_emb[:, 1:] *= 0.5
    fp = tm.QuantConfig.all_fp(model.layer_order)
    cache = tm.StateCache(model, [fp, fp])
    chunks = [(latent, emb, t), (latent, emb, t + 0.25), (latent, other_emb, t)]  # only t, then only emb differs
    for chunk in chunks * 2:
        out = tm.forward(model, *chunk, config=fp, bos_aware=True, cache=cache)
        assert np.array_equal(out, tm.forward(model, *chunk, bos_aware=True))
    assert len(cache._chunks) == len(chunks)


def test_chunk_key_covers_every_array_with_its_shape(small_inputs):
    latent, emb, t = tm.stack_inputs(small_inputs[:2])
    entry = {"x": latent, "emb": emb, "t": t}
    key = tm._chunk_key(entry)
    assert tm._chunk_key({name: a.copy() for name, a in entry.items()}) == key
    assert tm._chunk_key({**entry, "t": t + 0.25}) != key
    # the same bytes under another shape
    assert tm._chunk_key({**entry, "x": latent.reshape(2, 4, 8, 32)}) != key
    assert tm._chunk_key({**entry, "emb": emb.reshape(2, emb.shape[2], emb.shape[1])}) != key
    assert tm._chunk_key({**entry, "t": t.reshape(2, 1)}) != key
    # a strided view keys like its contiguous copy
    view = latent[:, :, ::-1]
    assert tm._chunk_key({**entry, "x": view}) == tm._chunk_key({**entry, "x": view.copy()}) != key


def test_model_elements_counts_weights_inputs_and_attention_scores():
    for width, depth, spatial, latent, tokens, channels, time_dim in [
        (8, 1, 16, 4, 8, 16, 16), (4, 2, 8, 3, 4, 8, 8), (2, 1, 4, 1, 2, 2, 2), (5, 3, 12, 2, 3, 5, 6),
    ]:
        shape = dict(spatial=spatial, latent_channels=latent, text_tokens=tokens, text_channels=channels, time_dim=time_dim)
        net = tm.build_toy_unet(1, width, depth, **shape)
        tok_mid, tok_full = (spatial // 2) ** 2, spatial * spatial
        counted = sum(layer.param_count + layer.act_elem_count for layer in net.layers.values())
        assert tm.model_elements(width, depth, **shape) == counted + tok_mid**2 + (tok_mid + tok_full) * tokens


def test_model_size_cap_boundary(monkeypatch):
    shape = dict(spatial=8, latent_channels=2, text_tokens=4, text_channels=4, time_dim=4)
    size = tm.model_elements(4, 1, **shape)
    monkeypatch.setattr(tm, "MAX_MODEL_ELEMENTS", size)
    assert tm.build_toy_unet(1, 4, 1, **shape).layer_order
    monkeypatch.setattr(tm, "MAX_MODEL_ELEMENTS", size - 1)
    monkeypatch.setattr(tm, "random_normal", lambda *a: pytest.fail("an array was built before the size check"))
    with pytest.raises(ParameterError, match="cap"):
        tm.build_toy_unet(1, 4, 1, **shape)


def test_model_size_cap_refuses_huge_shapes_at_once():
    with pytest.raises(ParameterError, match="cap"):
        tm.build_toy_unet(1, width=100000, spatial=100000)
    with pytest.raises(ParameterError, match="cap"):
        tm.build_toy_unet(1, depth=10**12)
    assert tm.model_elements(8, 1, spatial=16, latent_channels=4, text_tokens=8, text_channels=16, time_dim=16) <= (
        tm.MAX_MODEL_ELEMENTS
    )


def test_input_set_size_cap(model, monkeypatch):
    monkeypatch.setattr(tm, "MAX_INPUTS", 3)
    assert len(tm.make_input_set(1, 3, model)) == 3
    for n in (0, 4):
        with pytest.raises(ParameterError):
            tm.make_input_set(1, n, model)
