import itertools

import numpy as np
import pytest

from mixprec import metrics, quantizer, toy_model as tm
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


def test_shape_audit_clean(model):
    assert tm.audit_shapes(model) == []


@pytest.mark.parametrize("depth,width,spatial", list(itertools.product((1, 2), (2, 16), (4, 16))))
def test_shape_audit_clean_across_shapes(depth, width, spatial):
    # the phase-split up_conv and the split fuse report the logical convs' counts
    assert tm.audit_shapes(tm.build_toy_unet(3, width=width, depth=depth, spatial=spatial)) == []


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
    outs = tm.forward_inputs(model, inputs, bos_aware=True)
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
                split=r.split,
            )
    assert batched == merged


def test_trace_counts_are_per_input(model, small_inputs):
    single, batch = {}, {}
    tm.forward(model, *small_inputs[0], bos_aware=True, trace=single)
    tm.forward(model, *tm.stack_inputs(small_inputs[:4]), bos_aware=True, trace=batch)
    assert batch == single


# Batch sizes below, at and across the conv's sub-chunk of inputs, and whole chunks.
CONV_BATCHES = (1, 3, tm._CONV_INPUTS, tm._CONV_INPUTS + 1, tm.FORWARD_CHUNK)
CONV_COUTS = (1, 4, 8, 16)
CONV_SIZES = ((6, 6), (5, 5), (7, 3), (3, 8))


@pytest.mark.parametrize("stride", [1, 2])
def test_conv3x3_matches_direct_sum(stride):
    rng = np.random.Generator(np.random.Philox(5))
    for (h, wd), cout, b in itertools.product(CONV_SIZES, CONV_COUTS, CONV_BATCHES):
        x = rng.normal(size=(b, 3, h, wd))
        w = rng.normal(size=(cout, 3, 3, 3))
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        want = np.zeros((b, cout, -(-h // stride), -(-wd // stride)))
        for oy in range(want.shape[2]):
            for ox in range(want.shape[3]):
                patch = xp[:, :, oy * stride:oy * stride + 3, ox * stride:ox * stride + 3]
                want[:, :, oy, ox] = np.einsum("bcij,ocij->bo", patch, w)
        np.testing.assert_allclose(tm._conv3x3(x, w, stride), want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("stride", [1, 2])
def test_conv3x3_batch_outputs_equal_single_input_outputs_bitwise(stride):
    rng = np.random.Generator(np.random.Philox(6))
    for (h, wd), cout, b in itertools.product(CONV_SIZES + ((16, 16),), CONV_COUTS, CONV_BATCHES):
        x = rng.normal(size=(b, 8, h, wd))
        w = rng.normal(size=(cout, 8, 3, 3))
        batched = tm._conv3x3(x, w, stride)
        for i in range(b):
            assert np.array_equal(batched[i], tm._conv3x3(x[i:i + 1], w, stride)[0]), (h, wd, cout, b, i)


# (weight, activation) bits of the one quantized layer: FP, each tensor alone, both.
LAYER_BITS = ((None, None), (4, None), (None, 4), (2, 8))


def _one_layer_run(net, lid, w_bits, a_bits, ranges, calib=None):
    cfg = tm.QuantConfig.all_fp(net.layer_order)
    cfg.weight_bits[lid], cfg.act_bits[lid] = w_bits, a_bits
    return tm._Run(net, cfg, ranges, False, None, calib=calib)


@pytest.mark.parametrize("spatial", [4, 6, 16])
def test_up_conv_equals_the_conv_of_the_upsampled_input(spatial):
    net = tm.build_toy_unet(2, width=4, spatial=spatial, text_tokens=2, text_channels=2, time_dim=2)
    lid = "dec0.up_conv"
    rng = np.random.Generator(np.random.Philox(10))
    x = rng.normal(size=(3, 2 * net.width, spatial // 2, spatial // 2)) * 3
    up = helpers.upsample2(x)
    ranges = {lid: tm.ActRange("tensor", (float(up.min()),), (float(up.max()),))}
    for w_bits, a_bits in LAYER_BITS:
        calib = {}
        got = _one_layer_run(net, lid, w_bits, a_bits, ranges, calib).up_conv(lid, x)
        assert calib == ranges  # calibrated on the low-res input, with the upsampled input's range
        xq = up if a_bits is None else quantizer.fake_quant(up, ranges[lid].grid(a_bits))
        w = net.layers[lid].weight if w_bits is None else net.fq_weight(lid, w_bits)
        np.testing.assert_allclose(got, tm._conv3x3(xq, w), rtol=1e-12, atol=1e-12)
        assert net.phase_weight(lid, w_bits) is net.phase_weight(lid, w_bits)  # memoized


def test_fuse_conv_equals_the_conv_of_the_concatenated_halves(model):
    lid = "dec0.fuse"
    rng = np.random.Generator(np.random.Philox(11))
    x = rng.normal(size=(3, model.width, model.spatial, model.spatial))
    skip = rng.normal(size=x.shape) * 4
    ranges = {lid: tm.ActRange("halves", (float(x.min()), float(skip.min())), (float(x.max()), float(skip.max())),
                               split=model.width)}
    for w_bits, a_bits in LAYER_BITS:
        run = _one_layer_run(model, lid, w_bits, a_bits, ranges)
        for fp_terms in (None, {}):  # a run with a chunk's FP terms and one without
            run.fp_terms = fp_terms
            got = run.fuse_conv(lid, x, skip, skip_layers=("enc0.conv_in",))
            halves = [x, skip]
            if a_bits is not None:
                halves = [quantizer.fake_quant(h, ranges[lid].grid(a_bits, slot)) for slot, h in enumerate(halves)]
            w = model.layers[lid].weight if w_bits is None else model.fq_weight(lid, w_bits)
            np.testing.assert_allclose(got, tm._conv3x3(np.concatenate(halves, axis=1), w), rtol=1e-12, atol=1e-12)
            assert fp_terms is None or set(fp_terms) == ({lid} if (w_bits, a_bits) == (None, None) else set())


# Values at the edges of exp and of the float64 range: signed zeros, infinities,
# subnormals, +-710 (where exp(-|x|) is subnormal), and the largest finite.
SPECIAL_VALUES = np.array(
    [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -1e-310, 710.0, -710.0, 750.0, -750.0,
     1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.0, 36.7, -36.7]
)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def test_silu_equals_the_select_based_silu_bitwise():
    rng = np.random.Generator(np.random.Philox(8))
    for x in (rng.normal(size=(8, 16, 16, 16)) * 4, rng.normal(size=(3, 16)) * 40, SPECIAL_VALUES):
        with np.errstate(invalid="ignore"):  # -inf * exp(-inf)
            assert np.array_equal(_bits(tm._silu(x)), _bits(helpers.where_silu(x)))


@pytest.mark.parametrize("columns", [2, 8, tm._RUNNING_MAX_COLUMNS, tm._RUNNING_MAX_COLUMNS + 1, 64])
def test_softmax_rows_equals_the_reduce_softmax_bitwise(columns):
    rng = np.random.Generator(np.random.Philox(9))
    x = rng.normal(size=(3, 40, columns)) * 8
    assert np.array_equal(_bits(tm._softmax_rows(x)), _bits(helpers.reduce_softmax_rows(x)))
    # every special value in every column position, among ordinary and other special values
    special = np.resize(SPECIAL_VALUES, (len(SPECIAL_VALUES), columns))
    for shift in range(columns):
        rows = np.roll(special, shift, axis=1)
        rows[:, 1::3] = x[0, :len(rows), 1::3]
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, and max - (-max)
            assert np.array_equal(_bits(tm._softmax_rows(rows)), _bits(helpers.reduce_softmax_rows(rows)))


@pytest.mark.parametrize("columns", [8, 64])
def test_kernels_turn_nan_into_nan(columns):
    x = np.linspace(-3.0, 3.0, 2 * columns).reshape(2, columns)
    x[0, columns // 2] = np.nan
    silu = tm._silu(x)
    assert np.isnan(silu[0, columns // 2]) and np.isfinite(np.delete(silu.ravel(), columns // 2)).all()
    soft = tm._softmax_rows(x)
    assert np.isnan(soft[0]).all() and np.isfinite(soft[1]).all()
    assert np.array_equal(np.isnan(soft), np.isnan(helpers.reduce_softmax_rows(x)))


def test_weight_bits_sqnr_trend(model, small_inputs):
    refs = [tm.forward(model, *inp) for inp in small_inputs]

    def mean_sqnr(bits):
        cfg = tm.QuantConfig.uniform(model.layer_order, bits, None)
        vals = [
            metrics.sqnr_db(ref, tm.forward(model, *inp, config=cfg)).value
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
            metrics.sqnr_db(ref, tm.forward(model, *inp, config=cfg, bos_aware=bos, act_ranges=ranges)).value
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
            metrics.sqnr_db(ref, tm.forward(model, *inp, config=cfg, bos_aware=bos, act_ranges=ranges)).value
            for inp, ref in zip(small_inputs, refs)
        ]
        return float(np.mean(vals))

    assert mean_sqnr(True) > mean_sqnr(False)


def test_shortcut_split_never_worse_than_shared_grid(model, small_inputs):
    # two separately calibrated halves vs one grid over the concatenation
    latent, emb, t = small_inputs[0]
    ranges = tm.calibrate_activations(model, small_inputs)
    entry = ranges["dec0.fuse"]
    assert entry.kind == "halves"

    w = model.width
    calib = tm.calibrate_activations(model, [small_inputs[0]])
    fuse = calib["dec0.fuse"]
    # reconstruct the concatenated input of the fuse conv for one forward
    trace = {}
    tm.forward(model, latent, emb, t, trace=trace)
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


def test_bos_cache_stores_out_channels(model, small_inputs):
    _, emb, _ = small_inputs[0]
    row = model.bos_row("mid.cross.to_k", emb)
    assert row.size == model.layers["mid.cross.to_k"].weight.shape[0]
    again = model.bos_row("mid.cross.to_k", emb)
    assert again is row  # cached, write-once


def test_model_json_export_fields(model):
    rows = tm.model_layer_summary(model)
    assert len(rows) == len(model.layer_order)
    for row in rows:
        assert set(row) >= {"id", "kind", "group", "param_count", "act_elem_count", "mac_count"}


def test_save_load_roundtrip(model, small_inputs, tmp_path):
    tm.save_model(model, tmp_path / "model.json", tmp_path / "weights")
    back = tm.load_model(tmp_path / "model.json", tmp_path / "weights")
    latent, emb, t = small_inputs[0]
    assert np.array_equal(tm.forward(model, latent, emb, t), tm.forward(back, latent, emb, t))


def test_load_detects_weight_tamper(model, tmp_path):
    tm.save_model(model, tmp_path / "model.json", tmp_path / "weights")
    target = tmp_path / "weights" / f"{model.layer_order[0]}.bin"
    raw = bytearray(target.read_bytes())
    raw[-1] ^= 0x01
    target.write_bytes(bytes(raw))
    with pytest.raises(ValidationError):
        tm.load_model(tmp_path / "model.json", tmp_path / "weights")


def test_quantconfig_json_roundtrip(model):
    cfg = tm.QuantConfig.uniform(model.layer_order, 4, 8)
    cfg.act_bits[model.layer_order[0]] = None
    back = tm.QuantConfig.from_json_dict(cfg.to_json_dict())
    assert back.weight_bits == cfg.weight_bits
    assert back.act_bits == cfg.act_bits


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_segments_partition_the_layers_in_run_order(depth):
    model = tm.build_toy_unet(3, width=2, depth=depth, spatial=4, text_tokens=2, text_channels=2, time_dim=2)
    segments = tm._segment_list(depth)
    assert tm._segment_list(depth) is segments  # built once per depth
    run_order = [lid for segment in segments for lid in segment.layers]
    assert sorted(run_order) == sorted(model.layer_order)
    assert len(set(run_order)) == len(run_order)
    latent, embedding, t = tm.make_input_set(0, 1, model)[0]
    trace: dict = {}
    tm.forward(model, latent, embedding, t, trace=trace)
    assert list(trace) == run_order


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
        got = tm.forward_inputs(model, inputs, config=cfg, act_ranges=ranges, cache=cache)
        want = tm.forward_inputs(model, inputs, config=cfg, act_ranges=ranges)
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
        got = tm.forward_inputs(model, inputs, config=cfg, bos_aware=bos_aware, act_ranges=ranges, cache=cache)
        want = tm.forward_inputs(model, inputs, config=cfg, bos_aware=bos_aware, act_ranges=ranges)
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
        tm.forward_inputs(model, small_inputs, config=built, act_ranges=ranges, cache=cache)
        assert [[s.index for s in path] for path in _paths(cache)] == [[cross]]
        cfg = None  # an FP run on the quantized state
        if field is not None:
            cfg = tm.QuantConfig.uniform(model.layer_order, 4, 8)
            getattr(cfg, field)["enc1.down"] = bits
        got = tm.forward_inputs(model, small_inputs, config=cfg, act_ranges=ranges, cache=cache)
        want = tm.forward_inputs(model, small_inputs, config=cfg, act_ranges=ranges)
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
        got = tm.forward_inputs(model, inputs, config=cfg, bos_aware=True, act_ranges=ranges, cache=cache)
        want = tm.forward_inputs(model, inputs, config=cfg, bos_aware=True, act_ranges=ranges)
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
        got = tm.forward_inputs(model, inputs, config=cfg, bos_aware=bos_aware, act_ranges=ranges, cache=cache)
        want = tm.forward_inputs(model, inputs, config=cfg, bos_aware=bos_aware, act_ranges=ranges)
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
    with pytest.raises(ParameterError):
        tm.forward(model, latent, emb, t, config=a, trace={}, cache=cache)


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
        plain = tm.forward_inputs(model, inputs, config=cfg, bos_aware=bos_aware, act_ranges=ranges)
        cached = tm.forward_inputs(model, inputs, config=cfg, bos_aware=bos_aware, act_ranges=ranges, cache=cache)
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
        got = tm.forward_inputs(model, inputs, config=cfg, act_ranges=ranges, cache=cache)
        want = tm.forward_inputs(model, inputs, config=cfg, act_ranges=ranges)
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
    assert tm.build_toy_unet(1, 4, 1, **shape).layer_ids()
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
