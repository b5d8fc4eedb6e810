"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Thresholds are fixed here; fixture-derived values use the default
model (seed 7) and the default calibration seed.
"""

import itertools
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from mixprec import allocator as al
from mixprec import cli, metrics, quantizer, sensitivity as sv, tensor_core as tc, toy_model as tm
from mixprec.tensor_core import sha256_file

import helpers


@contextmanager
def criterion(n, desc):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {n}: {desc}")
        raise
    print(f"[PASS] criterion {n}: {desc}")


def test_criterion_1_mckp_oracle_equivalence():
    with criterion(1, "MCKP solver matches exhaustive enumeration on 200 random instances in <10s"):
        rng = np.random.Generator(np.random.Philox(2024))
        t0 = time.monotonic()
        for _ in range(200):
            n = int(rng.integers(1, 11))
            sizes = rng.integers(1, 50, size=n)
            scores = rng.normal(0.0, 10.0, size=(n, 3))
            costs = sizes[:, None] * np.array([2, 4, 8])[None, :]
            budget = float(rng.uniform(costs[:, 0].sum(), costs[:, 2].sum()))

            layers = [
                (
                    f"layer{i:02d}",
                    tuple(
                        al.MckpCandidate(bits=b, score=float(scores[i, j]), cost=int(costs[i, j]))
                        for j, b in enumerate((2, 4, 8))
                    ),
                )
                for i in range(n)
            ]
            sol = al.solve_mckp(al.MckpInstance(layers=layers, budget=budget))

            # exhaustive oracle, accumulated in the same layer order
            total_score = np.zeros(1)
            total_cost = np.zeros(1, dtype=np.int64)
            for i in range(n):
                total_score = (total_score[:, None] + scores[i][None, :]).ravel()
                total_cost = (total_cost[:, None] + costs[i][None, :]).ravel()
            feasible = total_cost <= budget
            assert feasible.any()
            assert sol.objective == total_score[feasible].max()
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_roundtrip_bound():
    with criterion(2, "per-element round-trip error <= scale/2 on 100 tensors per bit-width, exact"):
        for bits in (2, 4, 8):
            for i in range(100):
                t = tc.random_normal(
                    [97], float((i % 9) - 4), 0.25 + 0.5 * (i % 6), seed=90_000 + 1000 * bits + i
                )
                params = quantizer.calibrate_minmax(t, bits)
                err = np.abs(t - quantizer.fake_quant(t, params))
                assert np.all(err <= float(params.scales) / 2)


def test_criterion_3_metric_identities():
    with criterion(3, "ssim(x,x)=1 within 1e-12; sqnr joint-scale invariant within 1e-9; cap at 100"):
        xs = np.stack([tc.random_normal([13, 13], 0.1 * i, 1.0 + 0.2 * i, seed=400 + i) for i in range(10)])
        fp = metrics.ReferenceBatch.of(xs)
        assert all(abs(value - 1.0) < 1e-12 for value in metrics.ssim(fp, xs))
        assert metrics.sqnr_db(fp, xs) == [100.0] * 10
        ys = xs + np.stack([tc.random_normal([13, 13], 0.0, 0.05, seed=500 + i) for i in range(10)])
        base = metrics.sqnr_db(fp, ys)
        for a in (3.0, -7.0, 0.015625, 4096.0):
            scaled = metrics.sqnr_db(metrics.ReferenceBatch.of(a * xs), a * ys)
            assert all(abs(got - want) < 1e-9 for got, want in zip(scaled, base, strict=True))


def test_criterion_4_cost_model_table_arithmetic():
    with criterion(4, "uniform cost ratios: W8A8 2x/4x, W4A16 4x/1x, W4A8 4x/8x; 3.66 bits -> 4.37-4.40x"):
        costs = [
            {"id": "a", "param_count": 123, "act_elem_count": 77, "mac_count": 999},
            {"id": "b", "param_count": 457, "act_elem_count": 31, "mac_count": 12345},
        ]
        ids = [r["id"] for r in costs]

        def summary(w, a):
            return al.cost_summary(tm.QuantConfig({i: w for i in ids}, {i: a for i in ids}), costs)

        s = summary(8, 8)
        assert s["storage_opt_ratio"] == 2.0 and s["compute_opt_ratio"] == 4.0
        s = summary(4, None)
        assert s["storage_opt_ratio"] == 4.0 and s["compute_opt_ratio"] == 1.0
        s = summary(4, 8)
        assert s["storage_opt_ratio"] == 4.0 and s["compute_opt_ratio"] == 8.0

        mixed_costs = [
            {"id": "a", "param_count": 11, "act_elem_count": 1, "mac_count": 1},
            {"id": "b", "param_count": 50, "act_elem_count": 1, "mac_count": 1},
            {"id": "c", "param_count": 39, "act_elem_count": 1, "mac_count": 1},
        ]
        cfg = tm.QuantConfig({"a": 8, "b": 4, "c": 2}, {k: None for k in "abc"})
        s = al.cost_summary(cfg, mixed_costs)
        assert s["avg_weight_bits"] == 3.66
        assert 4.37 <= s["storage_opt_ratio"] <= 4.40


def test_criterion_5_bos_aware_effectiveness(model, calib_inputs):
    with criterion(5, "BOS-aware 8-bit activation quant of to_k/to_v gains >= 10 dB output SQNR"):
        kv = [
            lid
            for lid in model.layer_order
            if model.layers[lid].kind in (tm.LayerKind.CROSS_ATTN_TO_K, tm.LayerKind.CROSS_ATTN_TO_V)
        ]
        emb = calib_inputs[0][1]
        assert np.abs(emb[:1]).max() / np.abs(emb[1:]).max() >= 50

        def mean_sqnr(bos):
            chunks = list(tm.input_chunks(calib_inputs))
            refs = sv.fp_references(model, chunks, bos_aware=bos)
            ranges = tm.calibrate_activations(model, calib_inputs, bos_aware=bos)
            cfg = tm.QuantConfig.all_fp(model.layer_order)
            for lid in kv:
                cfg.act_bits[lid] = 8
            vals = [
                value
                for chunk, batch in zip(chunks, refs)
                for value in metrics.sqnr_db(
                    batch, tm.forward(model, *chunk, config=cfg, bos_aware=bos, act_ranges=ranges)
                )
            ]
            return float(np.mean(vals))

        on, off = mean_sqnr(True), mean_sqnr(False)
        print(f"  (measured: bos on {on:.2f} dB, off {off:.2f} dB, gap {on - off:.2f} dB)")
        assert on >= off + 10.0


def test_criterion_6_metric_decoupled_grouping(model, calib_inputs):
    with criterion(6, "mean SSIM at 2-bit: content group strictly below quality group"):
        chunks, refs = helpers.probe_inputs(model, calib_inputs, bos_aware=True)
        ssim_scores = {}
        for lid in model.layer_order:
            s, _ = sv.probe_layer(model, chunks, refs, lid, "weight", 2, bos_aware=True)
            ssim_scores[lid] = s
        content = [s for lid, s in ssim_scores.items() if model.layers[lid].group == tm.CONTENT]
        quality = [s for lid, s in ssim_scores.items() if model.layers[lid].group == tm.QUALITY]
        print(f"  (measured: content mean {np.mean(content):.4f}, quality mean {np.mean(quality):.4f})")
        assert np.mean(content) < np.mean(quality)


def test_criterion_7_allocation_dominance(model, weight_table):
    with criterion(7, "allocate >= naive sorting >= mean of 20 random configs at W{3,4,5} in <2min"):
        t0 = time.monotonic()
        opts = al.AllocOptions(bos_aware=True)
        proxy_inputs, refs = al.proxy_set(model, opts)

        def score(cfg):
            return al.proxy_score(model, cfg, proxy_inputs, refs, bos_aware=True)

        for target in (3.0, 4.0, 5.0):
            res = al.allocate(model, weight_table, target, tensor_kind="weight", options=opts)
            ours = score(res.config.config)
            naive = score(helpers.naive_sorting_config(model, weight_table, target, tensor_kind="weight"))
            randoms = [
                score(helpers.random_config(model, 1000 + i, target, tensor_kind="weight"))
                for i in range(20)
            ]
            rand_mean = float(np.mean(randoms))
            print(f"  (W{target:g}: ours {ours:.2f}, naive {naive:.2f}, random mean {rand_mean:.2f})")
            assert ours >= naive
            assert naive >= rand_mean
        elapsed = time.monotonic() - t0
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_8_pareto_correctness(model, weight_table):
    with criterion(8, "frontier has no dominated point and dominates or contains every sweep cell"):
        res = al.allocate(
            model, weight_table, 4.0, tensor_kind="weight", options=al.AllocOptions(bos_aware=True)
        )
        front = al.pareto_frontier(res.sweep)
        swept = res.sweep
        front_keys = {(p.avg_bits, p.score) for p in front}
        assert front_keys <= {(p.avg_bits, p.score) for p in swept}
        for p, o in itertools.product(front, swept):
            dominated = (
                o.avg_bits <= p.avg_bits
                and o.score >= p.score
                and (o.avg_bits < p.avg_bits or o.score > p.score)
            )
            assert not dominated, f"frontier point {p} dominated by swept {o}"
        for p in swept:
            assert any(o.avg_bits <= p.avg_bits and o.score >= p.score for o in front)


def test_criterion_9_sensitivity_monotonicity(model, weight_table, act_table):
    with criterion(9, ">=95% of (layer, tensor_kind) pairs monotone in bit-width"):
        total = violations = 0
        for kind, table in (("weight", weight_table), ("activation", act_table)):
            for lid in model.layer_order:
                s2, s4, s8 = (table.score(lid, b, kind) for b in (2, 4, 8))
                total += 1
                if not (s8 >= s4 >= s2):
                    violations += 1
        print(f"  (measured: {violations} non-monotone of {total} pairs)")
        assert violations <= 0.05 * total


def test_observation_time_embedding_insensitive(model, weight_table):
    # statistical observation, not a gated criterion: time-conditioning layers
    # sit at the insensitive end of the quality group
    quality = [lid for lid in model.layer_order if model.layers[lid].group == tm.QUALITY]
    time_ids = [lid for lid in quality if model.layers[lid].kind == tm.LayerKind.TIME_EMBED]
    rest = [lid for lid in quality if lid not in time_ids]
    for bits in (2, 4):
        t_mean = float(np.mean([weight_table.score(lid, bits, "weight") for lid in time_ids]))
        r_mean = float(np.mean([weight_table.score(lid, bits, "weight") for lid in rest]))
        print(f"[OBS ] time-embed mean SQNR@{bits} {t_mean:.2f} dB vs other quality {r_mean:.2f} dB")
        assert t_mean > r_mean


def test_criterion_10_end_to_end_determinism(tmp_path):
    with criterion(10, "two full pipeline runs produce byte-identical artifacts in <5min"):
        t0 = time.monotonic()
        flags = ["--seed", "7", "--inputs", "32"]

        def tree(root):
            return {
                str(p.relative_to(root)): sha256_file(p)
                for p in sorted(root.rglob("*"))
                if p.is_file()
            }

        run_a, run_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["pipeline", *flags, "--out-dir", str(run_a)]) == 0
        assert cli.main(["pipeline", *flags, "--out-dir", str(run_b)]) == 0
        sums_a, sums_b = tree(run_a), tree(run_b)
        assert sums_a == sums_b

        # re-running every stage from the same manifest leaves all bytes unchanged
        manifest = str(run_a / "manifest.json")
        assert cli.main(["sensitivity", "--manifest", manifest]) == 0
        assert cli.main(["allocate", "--manifest", manifest]) == 0
        assert cli.main(["evaluate", "--manifest", manifest]) == 0
        assert tree(run_a) == sums_a

        elapsed = time.monotonic() - t0
        print(f"  (measured: {elapsed:.1f}s for two runs plus a stage re-run)")
        assert elapsed < 300.0, f"took {elapsed:.1f}s"
