import numpy as np
import pytest

from mixprec import metrics, quantizer, sensitivity as sv, toy_model as tm
from mixprec.errors import ConfigError, ParameterError, ValidationError

import helpers


def test_table_completeness(model, weight_table):
    weight_table.validate_complete(model.layer_order, (2, 4, 8), "weight")
    assert len(weight_table.entries) == len(model.layer_order) * 3


def test_metric_kind_follows_group(model, weight_table):
    for e in weight_table.entries:
        group = model.layers[e.layer_id].group
        expected = metrics.SSIM if group == tm.CONTENT else metrics.SQNR_DB
        assert e.metric_kind == expected
        assert e.n_inputs == 32


def test_on_grid_weight_scores_perfect(model, small_inputs):
    # craft weights that min-max calibration reproduces exactly at 8 bits
    content_id, quality_id = "mid.ffn.fc1", "enc0.res0.conv"
    saved = {lid: model.layers[lid].weight.copy() for lid in (content_id, quality_id)}
    try:
        step = 2.0**-5
        rng = np.random.Generator(np.random.Philox(3))
        for lid in (content_id, quality_id):
            w = model.layers[lid].weight
            flat = w.reshape(w.shape[0], -1)
            codes = rng.integers(0, 256, size=flat.shape).astype(np.float64)
            codes[:, 0] = 0.0
            codes[:, 1] = 255.0
            flat[...] = codes * step
            model._fq_weights.clear()
        chunks, refs = helpers.probe_inputs(model, small_inputs)
        ssim_score, _ = sv.probe_layer(model, chunks, refs, content_id, "weight", 8)
        _, sqnr_score = sv.probe_layer(model, chunks, refs, quality_id, "weight", 8)
        assert ssim_score == pytest.approx(1.0, abs=1e-12)
        assert sqnr_score == 100.0
    finally:
        for lid, w in saved.items():
            model.layers[lid].weight[...] = w
        model._fq_weights.clear()


def test_analyze_rejects_bad_args(model, small_inputs):
    with pytest.raises(ParameterError):
        sv.analyze(model, [])
    with pytest.raises(ParameterError):
        sv.analyze(model, small_inputs, bit_widths=(3,))
    with pytest.raises(ParameterError):
        sv.analyze(model, small_inputs, tensor_kind="bias")


def test_analyze_deterministic_rerun(model, small_inputs):
    a = sv.analyze(model, small_inputs, bit_widths=(4,), tensor_kind="weight")
    b = sv.analyze(model, small_inputs, bit_widths=(4,), tensor_kind="weight")
    assert a.entries == b.entries


def test_probe_layer_matches_single_input_forwards(model, two_chunk_inputs):
    # every layer and both tensor kinds at 4 bits, over a full chunk and a partial one
    inputs = two_chunk_inputs
    chunks, batches = helpers.probe_inputs(model, inputs, bos_aware=True)
    refs = [ref for batch in batches for ref in batch.values]
    ranges = tm.calibrate_activations(model, inputs, bos_aware=True)
    for ref, inp in zip(refs, inputs, strict=True):
        np.testing.assert_allclose(ref, tm.forward(model, *inp, bos_aware=True), rtol=1e-12, atol=1e-12)
    for kind in sv.TENSOR_KINDS:
        for lid in model.layer_order:
            cfg = tm.QuantConfig.all_fp(model.layer_order)
            (cfg.weight_bits if kind == sv.WEIGHT else cfg.act_bits)[lid] = 4
            outs = [tm.forward(model, *inp, config=cfg, bos_aware=True, act_ranges=ranges) for inp in inputs]
            ssims, sqnrs = helpers.per_input_scores(refs, outs)
            got = sv.probe_layer(model, chunks, batches, lid, kind, 4, bos_aware=True, act_ranges=ranges)
            want = (helpers.mean_in_order(ssims), helpers.mean_in_order(sqnrs))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12), (kind, lid)


def test_fp_reference_reuse_identical(model, small_inputs):
    chunks = list(tm.input_chunks(small_inputs))
    first = sv.fp_references(model, chunks)
    second = sv.fp_references(model, chunks)
    assert len(first) == len(second) == len(chunks)
    for a, b in zip(first, second):
        assert helpers.output_checksum(a.values) == helpers.output_checksum(b.values)
        assert (a.variances, a.weights, a.energies) == (b.variances, b.weights, b.energies)


def test_single_fault_isolation(model, small_inputs):
    # a probe config quantizes exactly one tensor of one layer
    cfg = tm.QuantConfig.all_fp(model.layer_order)
    cfg.weight_bits["enc0.conv_in"] = 4
    quantized = [lid for lid, b in cfg.weight_bits.items() if b is not None]
    quantized += [lid for lid, b in cfg.act_bits.items() if b is not None]
    assert quantized == ["enc0.conv_in"]


def test_rank_long_tail_ordering(weight_table):
    ranked = helpers.rank_long_tail(weight_table)
    scores = [s for _, s in ranked]
    assert scores == sorted(scores)
    again = helpers.rank_long_tail(weight_table)
    assert ranked == again


def test_rank_long_tail_tie_break():
    entries = [
        sv.SensitivityEntry("b", "weight", 2, 0.5, metrics.SSIM, 1),
        sv.SensitivityEntry("a", "weight", 2, 0.5, metrics.SSIM, 1),
        sv.SensitivityEntry("c", "weight", 2, 0.1, metrics.SSIM, 1),
    ]
    ranked = helpers.rank_long_tail(sv.SensitivityTable(entries))
    assert [lid for lid, _ in ranked] == ["c", "a", "b"]


def test_rank_uses_lowest_bit_width(weight_table):
    low = min(e.bit_width for e in weight_table.entries)
    assert low == 2
    ranked = helpers.rank_long_tail(weight_table)
    by_id = {e.layer_id: e.score for e in weight_table.entries if e.bit_width == low}
    assert all(by_id[lid] == score for lid, score in ranked)


def test_jsonl_roundtrip(weight_table):
    text = weight_table.to_jsonl()
    back = sv.SensitivityTable.from_jsonl(text)
    assert back.entries == weight_table.entries


def test_validate_rejects_incomplete(model, weight_table):
    broken = sv.SensitivityTable(weight_table.entries[:-1])
    with pytest.raises(ValidationError):
        broken.validate_complete(model.layer_order, (2, 4, 8), "weight")
    doubled = sv.SensitivityTable(weight_table.entries + weight_table.entries[:1])
    with pytest.raises(ValidationError):
        doubled.validate_complete(model.layer_order, (2, 4, 8), "weight")


def test_content_layers_take_lowest_ssim_end(model, small_inputs):
    # at 2 bits, the most content-destroying layers are cross-attention/ffn
    chunks, refs = helpers.probe_inputs(model, small_inputs)
    ssim_by_layer = {}
    for lid in model.layer_order:
        ssim_score, _ = sv.probe_layer(model, chunks, refs, lid, "weight", 2)
        ssim_by_layer[lid] = ssim_score
    worst = min(ssim_by_layer, key=ssim_by_layer.get)
    assert model.layers[worst].group == tm.CONTENT
    content = [s for lid, s in ssim_by_layer.items() if model.layers[lid].group == tm.CONTENT]
    quality = [s for lid, s in ssim_by_layer.items() if model.layers[lid].group == tm.QUALITY]
    assert np.mean(content) < np.mean(quality)


def test_kv_activation_sensitivity_relaxes_with_bos_handling(model, small_inputs):
    kv = [
        lid
        for lid in model.layer_order
        if model.layers[lid].kind in (tm.LayerKind.CROSS_ATTN_TO_K, tm.LayerKind.CROSS_ATTN_TO_V)
    ]

    def kv_scores(bos):
        chunks, refs = helpers.probe_inputs(model, small_inputs, bos_aware=bos)
        ranges = tm.calibrate_activations(model, small_inputs, bos_aware=bos)
        out = {}
        for lid in kv:
            s, _ = sv.probe_layer(model, chunks, refs, lid, "activation", 8, bos_aware=bos, act_ranges=ranges)
            out[lid] = s
        return out

    off, on = kv_scores(False), kv_scores(True)
    assert all(on[lid] >= off[lid] for lid in kv)
    assert sum(on.values()) > sum(off.values())


@pytest.fixture(scope="module")
def deep_model():
    return tm.build_toy_unet(5, width=4, depth=2, spatial=8, text_tokens=4, text_channels=8, time_dim=8)


@pytest.mark.parametrize("kind", sv.TENSOR_KINDS)
@pytest.mark.parametrize("bos_aware", [True, False])
@pytest.mark.parametrize("which", ["default", "depth2"])
def test_analyze_equals_single_input_oracle(model, deep_model, kind, bos_aware, which):
    # a full chunk and a partial one of 3 inputs; every probe resumes from a cached segment state
    net = model if which == "default" else deep_model
    inputs = tm.make_input_set(202, tm.FORWARD_CHUNK + 3, net)
    bits = (2, 8) if which == "default" else (2, 4, 8)
    got = sv.analyze(net, inputs, bit_widths=bits, tensor_kind=kind, bos_aware=bos_aware)
    want = helpers.per_input_sensitivity_table(net, inputs, bits, kind, bos_aware, single_input_forwards=True)
    assert got.to_jsonl() == want.to_jsonl()


def _probe_cache(model, probes):
    """A state cache planned for ``probes``: (layer, tensor kind, bits) triples."""
    return tm.StateCache(model, [sv._probe_config(model, *probe) for probe in probes])


def test_probe_resumed_from_any_earlier_segment_is_identical(model, two_chunk_inputs):
    inputs, refs = helpers.probe_inputs(model, two_chunk_inputs, bos_aware=True)
    ranges = tm.calibrate_activations(model, two_chunk_inputs, bos_aware=True)
    lid = "dec0.fuse"
    options = dict(bos_aware=True, act_ranges=ranges)
    whole = sv.probe_layer(model, inputs, refs, lid, sv.ACTIVATION, 4, **options)
    seen = 0
    for index, segment in enumerate(tm._segment_list(model.depth)):
        # the probe before it quantizes this segment's first layer, so it resumes here
        probes = [(segment.layers[0], sv.WEIGHT, 2), (lid, sv.ACTIVATION, 4)]
        cache = _probe_cache(model, probes)
        sv.probe_layer(model, inputs, refs, *probes[0], cache=cache, **options)
        if index:  # the state at segment 0 is the input itself
            assert [[s.index for s in path] for path, _ in cache._chunks.values()] == [[index]] * 2
        got = sv.probe_layer(model, inputs, refs, lid, sv.ACTIVATION, 4, cache=cache, **options)
        assert got == whole, segment.layers
        seen += 1
        if lid in segment.layers:
            break
    assert seen == 11


def test_probe_rejects_states_past_its_layer(model, small_inputs):
    chunks, refs = helpers.probe_inputs(model, small_inputs)
    cache = _probe_cache(model, [("mid.cross.to_q", sv.WEIGHT, 4), ("mid.cross.to_k", sv.WEIGHT, 4)])
    sv.probe_layer(model, chunks, refs, "mid.cross.to_q", sv.WEIGHT, 4, cache=cache)
    cross = next(i for i, s in enumerate(tm._segment_list(model.depth)) if "mid.cross.to_q" in s.layers)
    (path, _), = cache._chunks.values()
    assert [s.index for s in path] == [cross]
    # a probe of an earlier layer runs from the input, not from the state past it
    want = sv.probe_layer(model, chunks, refs, "enc0.conv_in", sv.WEIGHT, 4)
    assert sv.probe_layer(model, chunks, refs, "enc0.conv_in", sv.WEIGHT, 4, cache=cache) == want
    _, short_refs = helpers.probe_inputs(model, small_inputs[:-1])
    with pytest.raises(ParameterError):
        sv.probe_layer(model, chunks, short_refs, "mid.cross.to_q", sv.WEIGHT, 4, cache=cache)


def test_cached_segment_states_are_read_only(model, two_chunk_inputs):
    inputs, refs = helpers.probe_inputs(model, two_chunk_inputs, bos_aware=True)
    probes = [(lid, sv.WEIGHT, 4) for lid in ("enc1.down", "mid.cross.to_q", "dec0.fuse", "out.conv_out")]
    cache = _probe_cache(model, probes)
    checked = terms_checked = 0
    for probe in probes:
        sv.probe_layer(model, inputs, refs, *probe, bos_aware=True, cache=cache)
        for path, fp_terms in cache._chunks.values():
            for state in path:
                for array in state.arrays.values():
                    with pytest.raises(ValueError):
                        array[...] = 0.0
                    with pytest.raises(ValueError):
                        array += 1.0
                    checked += 1
                with pytest.raises(TypeError):
                    state.arrays["x"] = np.zeros(1)
            for out in fp_terms.values():
                with pytest.raises(ValueError):
                    out[...] = 0.0
                terms_checked += 1
    assert checked and terms_checked


def test_table_score_lookup():
    entries = [
        sv.SensitivityEntry("a", "weight", 2, 0.5, metrics.SSIM, 1),
        sv.SensitivityEntry("a", "activation", 2, 0.25, metrics.SSIM, 1),
        sv.SensitivityEntry("a", "weight", 2, 0.75, metrics.SSIM, 1),
    ]
    table = sv.SensitivityTable(entries)
    assert table.score("a", 2, "activation") == 0.25
    assert table.score("a", 2, "weight") == 0.5  # the first weight entry
    assert table.score("a", 2.0, "weight") == 0.5
    for key in (("a", 4, "weight"), ("b", 2, "weight"), ("a", 2, "bias")):
        with pytest.raises(KeyError) as exc:
            table.score(*key)
        assert exc.value.args == (key,)
    assert table == sv.SensitivityTable(tuple(entries))


@pytest.mark.parametrize("bos_aware", [True, False])
def test_analyze_both_kinds_equals_per_input_scoring_bit_for_bit(model, bos_aware):
    # FORWARD_CHUNK + 2 inputs: a full chunk and a short one. One analysis of
    # both kinds shares its references, ranges, walk and K/V projections; every
    # score must equal the plain per-input path's under ==, not approximately.
    inputs = tm.make_input_set(303, tm.FORWARD_CHUNK + 2, model)
    bits = (2, 4, 8)
    both = sv.analyze(model, inputs, bit_widths=bits, tensor_kind=sv.TENSOR_KINDS, bos_aware=bos_aware)
    assert [e.tensor_kind for e in both.entries] == [
        kind for kind in sv.TENSOR_KINDS for _ in model.layer_order for _ in bits
    ]
    for kind in sv.TENSOR_KINDS:
        want = helpers.per_input_sensitivity_table(model, inputs, bits, kind, bos_aware)
        assert both.of_kind(kind).entries == want.entries, kind


def test_analyze_one_kind_equals_its_part_of_both(model, small_inputs):
    inputs = small_inputs[:3]
    both = sv.analyze(model, inputs, bit_widths=(4,), tensor_kind=(sv.ACTIVATION, sv.WEIGHT), bos_aware=True)
    for kind in sv.TENSOR_KINDS:
        one = sv.analyze(model, inputs, bit_widths=(4,), tensor_kind=kind, bos_aware=True)
        assert one.entries == both.of_kind(kind).entries
    assert both.entries[0].tensor_kind == sv.ACTIVATION


@pytest.mark.parametrize("kinds", [(), ("weight", "weight"), ("weight", "bias")])
def test_analyze_rejects_bad_kind_tuples(model, small_inputs, kinds):
    with pytest.raises(ParameterError):
        sv.analyze(model, small_inputs[:1], bit_widths=(4,), tensor_kind=kinds)


def test_probe_scores_only_the_metrics_it_is_asked_for(model, two_chunk_inputs):
    inputs, batches = helpers.probe_inputs(model, two_chunk_inputs[:tm.FORWARD_CHUNK + 2], bos_aware=True)
    assert [b.size for b in batches] == [tm.FORWARD_CHUNK, 2]
    both = sv.probe_layer(model, inputs, batches, "mid.ffn.fc1", sv.WEIGHT, 2, bos_aware=True)
    for kinds in ((metrics.SSIM,), (metrics.SQNR_DB,), (metrics.SQNR_DB, metrics.SSIM)):
        got = sv.probe_layer(model, inputs, batches, "mid.ffn.fc1", sv.WEIGHT, 2, bos_aware=True, metric_kinds=kinds)
        assert got == tuple(both[(metrics.SSIM, metrics.SQNR_DB).index(k)] for k in kinds)
    with pytest.raises(ParameterError):
        sv.probe_layer(model, inputs, batches, "mid.ffn.fc1", sv.WEIGHT, 2, metric_kinds=("MSE",))


def test_probe_with_a_shared_text_kv_cache_is_identical(model, two_chunk_inputs):
    inputs, refs = helpers.probe_inputs(model, two_chunk_inputs, bos_aware=True)
    ranges = tm.calibrate_activations(model, two_chunk_inputs, bos_aware=True)
    probes = [
        (lid, kind, 2)
        for lid in ("enc0.conv_in", "mid.cross.to_k", "dec0.cross.to_v", "dec0.cross.to_out")
        for kind in sv.TENSOR_KINDS
    ]
    cache = _probe_cache(model, probes)
    for probe in probes:
        plain = sv.probe_layer(model, inputs, refs, *probe, bos_aware=True, act_ranges=ranges)
        shared = sv.probe_layer(model, inputs, refs, *probe, bos_aware=True, act_ranges=ranges, cache=cache)
        assert shared == plain, probe
    # each chunk computed every FP term once and kept it: the K/V projections and the fuse conv's skip half
    terms = {f"{p}.{n}" for p in ("mid.cross", "dec0.cross") for n in ("to_k", "to_v")} | {"dec0.fuse"}
    assert [set(fp_terms) for _, fp_terms in cache._chunks.values()] == [terms] * 2


def test_two_kind_analyze_holds_at_most_one_state_per_chunk(model, two_chunk_inputs, monkeypatch):
    inputs = two_chunk_inputs  # two chunks
    caches = helpers.record_state_caches(monkeypatch)
    real_forward = tm.forward
    held = []

    def forward(*args, cache=None, **kwargs):
        out = real_forward(*args, cache=cache, **kwargs)
        if cache is not None:
            held.append(max(len(path) for path, _ in cache._chunks.values()))
        return out

    monkeypatch.setattr(tm, "forward", forward)
    sv.analyze(model, inputs, bit_widths=(2, 8), tensor_kind=sv.TENSOR_KINDS, bos_aware=True)
    assert len(caches) == 1
    assert len(held) == 2 * len(model.layer_order) * 2 * 2  # one call per chunk, probe
    assert max(held) == 1


@pytest.mark.parametrize("which", ["default", "depth2"])
def test_analyze_runs_one_fp_walk_plus_each_probe_suffix(model, deep_model, which):
    net = model if which == "default" else deep_model
    inputs = tm.make_input_set(11, tm.FORWARD_CHUNK + 2, net)
    segments = tm._segment_list(net.depth)
    segment_of = {lid: index for index, segment in enumerate(segments) for lid in segment.layers}
    steps = []
    originals = [segment.step for segment in segments]

    def counted(index, step):
        def run(*args):
            steps.append(index)
            return step(*args)

        return run

    try:
        for index, segment in enumerate(segments):
            object.__setattr__(segment, "step", counted(index, segment.step))
        sv.analyze(net, inputs, bit_widths=(2, 8), tensor_kind=sv.TENSOR_KINDS)
    finally:
        for segment, step in zip(segments, originals):
            object.__setattr__(segment, "step", step)
    n, chunks, probes = len(segments), 2, 2 * 2  # two kinds times two widths per layer
    references = n
    calibration = n  # the activation kind calibrates its ranges with one pass over every segment
    fp_walk = n - 1  # the FP states at the entry of segments 1 .. n - 1, once each
    suffixes = probes * sum(n - segment_of[lid] for lid in net.layer_order)
    assert len(steps) == chunks * (references + calibration + fp_walk + suffixes)
