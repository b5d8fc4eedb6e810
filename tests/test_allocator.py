import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixprec import allocator as al
from mixprec import sensitivity as sv, toy_model as tm
from mixprec.errors import InfeasibleBudgetError, ParameterError, ValidationError

import helpers


def make_instance(sizes, scores, budget, grid=(2, 4, 8)):
    layers = []
    for i, (size, per_layer) in enumerate(zip(sizes, scores)):
        cands = tuple(
            al.MckpCandidate(bits=b, score=s, cost=b * size) for b, s in zip(grid, per_layer)
        )
        layers.append((f"layer{i:02d}", cands))
    return al.MckpInstance(layers=layers, budget=budget)


def brute_force(instance):
    """Independent oracle: enumerate every choice combination."""
    ids = [lid for lid, _ in sorted(instance.layers, key=lambda p: p[0])]
    cands = [c for _, c in sorted(instance.layers, key=lambda p: p[0])]
    best = None
    for combo in itertools.product(*cands):
        cost = sum(c.cost for c in combo)
        if cost > instance.budget:
            continue
        score = 0.0
        for c in combo:
            score += c.score
        key = (score, -cost)
        if best is None or key > best[0]:
            best = (key, {lid: c.bits for lid, c in zip(ids, combo)})
    return best


def test_mckp_two_layer_example():
    # sizes (10, 10); layer0 scores {1,2,3}, layer1 {1,2,10}; budget 120 bits
    inst = make_instance([10, 10], [[1.0, 2.0, 3.0], [1.0, 2.0, 10.0]], 120)
    sol = al.solve_mckp(inst)
    oracle = brute_force(inst)
    assert sol.objective == oracle[0][0] == 12.0
    assert sol.choices == {"layer00": 4, "layer01": 8} == oracle[1]


def test_mckp_unconstrained_budget_all_max():
    inst = make_instance([5, 7, 2], [[1, 2, 3]] * 3, budget=8 * 14)
    sol = al.solve_mckp(inst)
    assert all(bits == 8 for bits in sol.choices.values())


def test_mckp_tight_budget_all_min():
    inst = make_instance([5, 7, 2], [[1, 2, 3]] * 3, budget=2 * 14)
    sol = al.solve_mckp(inst)
    assert all(bits == 2 for bits in sol.choices.values())


def test_mckp_infeasible_budget():
    inst = make_instance([5, 7], [[1, 2, 3]] * 2, budget=23)
    with pytest.raises(InfeasibleBudgetError) as exc:
        al.solve_mckp(inst)
    assert "24" in str(exc.value)  # names the minimum achievable cost


def test_mckp_matches_brute_force_on_random_instances():
    rng = np.random.Generator(np.random.Philox(17))
    for trial in range(40):
        n = int(rng.integers(1, 8))
        sizes = rng.integers(1, 30, size=n).tolist()
        scores = rng.normal(0, 5, size=(n, 3)).tolist()
        total_max = 8 * sum(sizes)
        budget = float(rng.uniform(2 * sum(sizes), total_max))
        inst = make_instance(sizes, scores, budget)
        sol = al.solve_mckp(inst)
        oracle = brute_force(inst)
        assert sol.objective == oracle[0][0]
        assert sol.cost == -oracle[0][1]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_mckp_property_random(seed):
    rng = np.random.Generator(np.random.Philox(seed))
    n = int(rng.integers(1, 6))
    sizes = rng.integers(1, 20, size=n).tolist()
    scores = rng.normal(0, 3, size=(n, 3)).tolist()
    budget = float(rng.uniform(2 * sum(sizes), 8 * sum(sizes)))
    inst = make_instance(sizes, scores, budget)
    sol = al.solve_mckp(inst)
    oracle = brute_force(inst)
    assert sol.objective == oracle[0][0]
    assert sol.cost <= budget


def _half_table(cands):
    """Every (cost, score) of one half's assignments, the score summed in layer order."""
    cost, score = np.zeros(1, dtype=np.int64), np.zeros(1)
    for layer in cands:
        cost = (cost[:, None] + np.array([c.cost for c in layer])[None, :]).ravel()
        score = (score[:, None] + np.array([c.score for c in layer])[None, :]).ravel()
    return cost, score


def meet_in_the_middle(instance):
    """Independent oracle: best left-half score plus the best right half that fits beside it."""
    cands = [c for _, c in sorted(instance.layers, key=lambda p: p[0])]
    half = len(cands) // 2
    left_cost, left_score = _half_table(cands[:half])
    right_cost, right_score = _half_table(cands[half:])
    order = np.argsort(right_cost, kind="stable")
    right_cost, best_right = right_cost[order], np.maximum.accumulate(right_score[order])
    fits = np.searchsorted(right_cost, instance.budget - left_cost, side="right") - 1
    ok = fits >= 0
    return float(np.max(left_score[ok] + best_right[fits[ok]]))


def test_mckp_matches_meet_in_the_middle_beyond_brute_force_scale():
    # 20 layers (3^20 assignments) are out of enumeration reach; two 3^10 halves are not.
    # The oracle adds the two half sums, not the 20 prefix sums, so the objectives agree to rounding.
    rng = np.random.Generator(np.random.Philox(31))
    for _ in range(10):
        sizes = rng.integers(1, 400, size=20).tolist()
        scores = rng.normal(0, 10, size=(20, 3)).tolist()
        budget = float(rng.uniform(2 * sum(sizes), 8 * sum(sizes)))
        inst = make_instance(sizes, scores, budget)
        sol = al.solve_mckp(inst)
        assert sol.objective == pytest.approx(meet_in_the_middle(inst), rel=1e-12)
        chosen = [next(c for c in cands if c.bits == sol.choices[lid]) for lid, cands in inst.layers]
        total = 0.0
        for c in chosen:
            total += c.score
        assert sol.objective == total
        assert sol.cost == sum(c.cost for c in chosen) <= budget


def test_mckp_equal_score_and_cost_picks_lex_smallest_bits():
    # (2, 4) and (4, 2) both score 1.0 at cost 6; (4, 4) scores more but costs 8
    inst = make_instance([1, 1], [[0.0, 1.0, -10.0], [0.0, 1.0, -10.0]], budget=6)
    sol = al.solve_mckp(inst)
    assert sol.choices == {"layer00": 2, "layer01": 4}
    assert (sol.objective, sol.cost) == (1.0, 6)


def test_mckp_tie_heavy_instances_match_brute_force_choices():
    # few sizes and score rows: about half the instances have several optimal bits vectors,
    # and the oracle keeps the first in lexicographic order
    rows = [[0.0, 1.0, 2.0], [0.0, 2.0, 3.0], [-1.0, 1.0, 2.0]]
    rng = np.random.Generator(np.random.Philox(41))
    for _ in range(60):
        n = int(rng.integers(2, 7))
        sizes = rng.integers(1, 3, size=n).tolist()
        scores = [rows[int(j)] for j in rng.integers(0, len(rows), size=n)]
        budget = float(rng.integers(2 * sum(sizes), 8 * sum(sizes) + 1))
        inst = make_instance(sizes, scores, budget)
        sol = al.solve_mckp(inst)
        (score, neg_cost), choices = brute_force(inst)
        assert (sol.objective, sol.cost, sol.choices) == (score, -neg_cost, choices)


def test_mckp_finer_grid_matches_brute_force():
    grid = (2, 3, 4, 5, 6, 8)
    rng = np.random.Generator(np.random.Philox(43))
    for trial in range(30):
        n = int(rng.integers(1, 6))
        sizes = rng.integers(1, 30, size=n).tolist()
        scores = rng.normal(0, 5, size=(n, len(grid)))
        if trial % 2:
            scores = np.round(scores)
        budget = float(rng.uniform(2 * sum(sizes), 8 * sum(sizes)))
        inst = make_instance(sizes, scores.tolist(), budget, grid=grid)
        sol = al.solve_mckp(inst)
        (score, neg_cost), choices = brute_force(inst)
        assert (sol.objective, sol.cost, sol.choices) == (score, -neg_cost, choices)


def test_mckp_table_limit(monkeypatch):
    # costs 2, 3, 8 (gcd 1) on 2 layers: a 3 x 17 = 51-cell table at full capacity
    inst = make_instance([1, 1], [[1.0, 2.0, 3.0]] * 2, budget=float("inf"), grid=(2, 3, 8))
    monkeypatch.setattr(al, "MAX_DP_CELLS", 51)
    assert al.solve_mckp(inst).cost == 16
    monkeypatch.setattr(al, "MAX_DP_CELLS", 50)
    with pytest.raises(ParameterError, match="exceeds the limit"):
        al.solve_mckp(inst)


def test_mckp_table_limit_raises_before_allocating():
    # one cell past the limit would take 128 MiB of float64
    layers = [("a", (al.MckpCandidate(2, 0.0, 1), al.MckpCandidate(8, 1.0, al.MAX_DP_CELLS // 2)))]
    inst = al.MckpInstance(layers=layers, budget=float("inf"))
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError):
            al.solve_mckp(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_mckp_budget_monotonicity():
    rng = np.random.Generator(np.random.Philox(23))
    sizes = rng.integers(1, 20, size=5).tolist()
    scores = rng.normal(0, 3, size=(5, 3)).tolist()
    lo, hi = 2 * sum(sizes), 8 * sum(sizes)
    objectives = []
    for budget in np.linspace(lo, hi, 12):
        objectives.append(al.solve_mckp(make_instance(sizes, scores, float(budget))).objective)
    assert all(a <= b + 1e-12 for a, b in zip(objectives, objectives[1:]))


def test_mckp_tie_breaks_toward_lower_cost():
    inst = make_instance([4, 4], [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]], budget=64)
    sol = al.solve_mckp(inst)
    assert sol.choices == {"layer00": 2, "layer01": 2}
    assert sol.cost == 16


def test_split_budget_examples():
    assert al.split_budget(100, 10, 10, 1.0) == (50.0, 50.0)
    bc, bq = al.split_budget(100, 30, 10, 1.0)
    assert (bc, bq) == (75.0, 25.0)


@given(
    st.floats(1, 1e6),
    st.floats(0.1, 1e4),
    st.floats(0.1, 1e4),
    st.floats(0.01, 100),
)
@settings(max_examples=100)
def test_split_budget_conserves_total(total, mc, mq, k):
    bc, bq = al.split_budget(total, mc, mq, k)
    assert bc + bq == total  # exact: bq is computed as the remainder
    assert bc >= 0 and bq >= 0


def test_split_budget_rejects_bad_ratio():
    with pytest.raises(ParameterError):
        al.split_budget(10, 1, 1, 0.0)
    with pytest.raises(ParameterError):
        al.split_budget(10, 1, 1, -2.0)


def _uniform_summary(model_costs, w, a):
    ids = [r["id"] for r in model_costs]
    cfg = tm.QuantConfig({i: w for i in ids}, {i: a for i in ids})
    return al.cost_summary(cfg, model_costs)


SIMPLE_COSTS = [
    {"id": "a", "param_count": 100, "act_elem_count": 50, "mac_count": 1000},
    {"id": "b", "param_count": 300, "act_elem_count": 150, "mac_count": 3000},
]


def test_cost_summary_uniform_ratios():
    s = _uniform_summary(SIMPLE_COSTS, 8, 8)
    assert s["storage_opt_ratio"] == 2.0
    assert s["compute_opt_ratio"] == 4.0
    s = _uniform_summary(SIMPLE_COSTS, 4, None)  # weight-only: FP16 compute
    assert s["storage_opt_ratio"] == 4.0
    assert s["compute_opt_ratio"] == 1.0
    s = _uniform_summary(SIMPLE_COSTS, 4, 8)
    assert s["storage_opt_ratio"] == 4.0
    assert s["compute_opt_ratio"] == 8.0
    s = _uniform_summary(SIMPLE_COSTS, 8, None)
    assert s["storage_opt_ratio"] == 2.0
    assert s["compute_opt_ratio"] == 1.0


def test_cost_summary_weighted_average():
    costs = [
        {"id": "a", "param_count": 3_000_000, "act_elem_count": 1, "mac_count": 1},
        {"id": "b", "param_count": 1_000_000, "act_elem_count": 1, "mac_count": 1},
    ]
    cfg = tm.QuantConfig({"a": 4, "b": 2}, {"a": None, "b": None})
    assert al.cost_summary(cfg, costs)["avg_weight_bits"] == 3.5


def test_cost_summary_366_bits_band():
    costs = [
        {"id": "a", "param_count": 11, "act_elem_count": 1, "mac_count": 1},
        {"id": "b", "param_count": 50, "act_elem_count": 1, "mac_count": 1},
        {"id": "c", "param_count": 39, "act_elem_count": 1, "mac_count": 1},
    ]
    cfg = tm.QuantConfig({"a": 8, "b": 4, "c": 2}, {k: None for k in "abc"})
    s = al.cost_summary(cfg, costs)
    assert s["avg_weight_bits"] == 3.66
    assert 4.37 <= s["storage_opt_ratio"] <= 4.40


def test_pareto_frontier_example():
    pts = [al.ParetoPoint(3, 0.1), al.ParetoPoint(4, 0.3), al.ParetoPoint(5, 0.25), al.ParetoPoint(6, 0.4)]
    front = al.pareto_frontier(pts)
    assert [(p.avg_bits, p.score) for p in front] == [(3, 0.1), (4, 0.3), (6, 0.4)]


def test_pareto_single_point_and_idempotence():
    pts = [al.ParetoPoint(4, 0.2)]
    assert al.pareto_frontier(pts) == pts
    mixed = [al.ParetoPoint(float(b), s) for b, s in [(3, 1), (3, 2), (4, 2), (5, 0), (6, 3)]]
    front = al.pareto_frontier(mixed)
    assert al.pareto_frontier(front) == front


@given(st.lists(st.tuples(st.floats(2, 8), st.floats(-5, 5)), min_size=1, max_size=40))
@settings(max_examples=100)
def test_pareto_dominance_properties(raw):
    pts = [al.ParetoPoint(b, s) for b, s in raw]
    front = al.pareto_frontier(pts)
    # no dominated point inside the frontier
    for p in front:
        for o in front:
            if o is p:
                continue
            assert not (o.avg_bits <= p.avg_bits and o.score >= p.score
                        and (o.avg_bits < p.avg_bits or o.score > p.score))
    # every input point is dominated by or equal to a frontier point
    for p in pts:
        assert any(o.avg_bits <= p.avg_bits and o.score >= p.score for o in front)
    # sorted by avg_bits
    bits = [p.avg_bits for p in front]
    assert bits == sorted(bits)


def test_allocate_target_eight_uniform(model, weight_table):
    res = al.allocate(model, weight_table, 8.0, tensor_kind="weight",
                      options=al.AllocOptions(bos_aware=True))
    assert all(b == 8 for b in res.config.config.weight_bits.values())
    assert all(b is None for b in res.config.config.act_bits.values())
    assert res.config.summary["avg_weight_bits"] == 8.0
    assert len(res.sweep) == 1  # sweep skipped: budget admits the all-8 assignment


def test_allocate_budget_contract(model, weight_table):
    opts = al.AllocOptions(bos_aware=True)
    for target in (3.0, 4.0, 5.0):
        res = al.allocate(model, weight_table, target, tensor_kind="weight", options=opts)
        avg = res.config.summary["avg_weight_bits"]
        assert avg <= target + 1e-9
        assert avg >= target - opts.delta_avg_bits


def test_allocate_deterministic(model, weight_table):
    opts = al.AllocOptions(bos_aware=True)
    a = al.allocate(model, weight_table, 4.0, tensor_kind="weight", options=opts)
    b = al.allocate(model, weight_table, 4.0, tensor_kind="weight", options=opts)
    assert a.config.config.weight_bits == b.config.config.weight_bits
    assert [(p.avg_bits, p.score) for p in a.sweep] == [(p.avg_bits, p.score) for p in b.sweep]


def test_allocate_exact_minimum_budget_all_min(model, weight_table):
    res = al.allocate(model, weight_table, 2.0, tensor_kind="weight",
                      options=al.AllocOptions(bos_aware=True))
    assert all(b == 2 for b in res.config.config.weight_bits.values())
    assert res.config.summary["avg_weight_bits"] == 2.0


def test_allocate_infeasible_target_names_minimum(model, weight_table):
    # without 2 bits in the grid, no assignment reaches an average of 2
    table = sv.SensitivityTable(e for e in weight_table.entries if e.bit_width in (4, 8))
    opts = al.AllocOptions(bit_widths=(4, 8), bos_aware=True)
    with pytest.raises(InfeasibleBudgetError, match="minimum achievable average is 4.0000 bits") as exc:
        al.allocate(model, table, 2.0, tensor_kind="weight", options=opts)
    assert exc.value.min_achievable_bits == 4.0


def test_allocate_activation_top_width_ships_uniform(model, act_table, act_ranges):
    # every layer is allocated: at the top grid width the budget admits all of them at 8 bits
    res = al.allocate(model, act_table, 8.0, tensor_kind=sv.ACTIVATION, options=al.AllocOptions(bos_aware=True),
                      act_ranges=act_ranges)
    assert all(b == 8 for b in res.config.config.act_bits.values())
    assert res.config.summary["avg_act_bits"] == 8.0
    assert len(res.sweep) == 1


def test_activation_allocation_requires_ranges(model, act_table):
    with pytest.raises(ParameterError, match="act_ranges"):
        al.allocate(model, act_table, 6.0, tensor_kind=sv.ACTIVATION, options=al.AllocOptions(bos_aware=True))


def test_allocate_mixed_merges_kinds(model, weight_table, act_table, act_ranges):
    opts = al.AllocOptions(bos_aware=True)
    config, results = al.allocate_mixed(
        model,
        weight_table=weight_table,
        act_table=act_table,
        weight_target=4.0,
        act_target=8.0,
        options=opts,
        act_ranges=act_ranges,
    )
    assert set(results) == {"weight", "activation"}
    assert config.summary["avg_weight_bits"] <= 4.0 + 1e-9
    assert config.config.weight_bits == results["weight"].config.config.weight_bits
    assert all(b == 8 for b in config.config.act_bits.values())


def test_needs_table_only_below_the_top_width():
    assert not al.needs_table(None, (2, 4, 8))
    assert not al.needs_table(8.0, (2, 4, 8))
    assert not al.needs_table(6.0, (2, 4))  # above the top width admits the all-top assignment too
    assert al.needs_table(4.0, (2, 4, 8))
    assert al.needs_table(float(np.nextafter(8.0, 0.0)), (8, 2, 4))


@pytest.mark.parametrize(
    "kind,target,grid",
    [("weight", 8.0, (2, 4, 8)), ("activation", 8.0, (2, 4, 8)), ("weight", 6.0, (2, 4)), ("activation", 4.0, (4,))],
)
def test_allocate_without_a_table_at_the_top_width_ships_all_top(
    model, weight_table, act_table, act_ranges, kind, target, grid
):
    opts = al.AllocOptions(bit_widths=grid, bos_aware=True)
    res = al.allocate(model, None, target, tensor_kind=kind, options=opts, act_ranges=act_ranges)
    cfg = res.config.config
    bits, other = (cfg.weight_bits, cfg.act_bits) if kind == "weight" else (cfg.act_bits, cfg.weight_bits)
    assert set(bits.values()) == {max(grid)} and set(other.values()) == {None}
    assert len(res.sweep) == 1
    # a table given changes nothing: it is never read
    table = weight_table if kind == "weight" else act_table
    with_table = al.allocate(model, table, target, tensor_kind=kind, options=opts, act_ranges=act_ranges)
    assert with_table.config == res.config
    assert with_table.sweep == res.sweep


@pytest.mark.parametrize("kind", ["weight", "activation"])
def test_allocate_without_a_table_below_the_top_width_raises(model, act_ranges, kind):
    opts = al.AllocOptions(bos_aware=True)
    match = f"^{kind} allocation at 6 bits needs a {kind} sensitivity table; none given$"
    with pytest.raises(ValidationError, match=match):
        al.allocate(model, None, 6.0, tensor_kind=kind, options=opts, act_ranges=act_ranges)
    targets = {"weight_target": 6.0} if kind == "weight" else {"act_target": 6.0}
    with pytest.raises(ValidationError, match=match):
        al.allocate_mixed(model, **targets, options=opts, act_ranges=act_ranges)


def test_allocate_mixed_at_the_top_widths_needs_no_table(model, act_ranges):
    config, results = al.allocate_mixed(model, weight_target=8.0, act_target=8.0,
                                        options=al.AllocOptions(bos_aware=True), act_ranges=act_ranges)
    assert set(results) == {"weight", "activation"}
    assert config.summary["avg_weight_bits"] == config.summary["avg_act_bits"] == 8.0


def test_naive_sorting_budget_and_order(model, weight_table):
    cfg = helpers.naive_sorting_config(model, weight_table, 4.0, tensor_kind="weight")
    elems = {lid: model.layers[lid].param_count for lid in model.layer_order}
    cost = sum((b or 16) * elems[lid] for lid, b in cfg.weight_bits.items())
    assert cost <= 4.0 * sum(elems.values())


def test_random_config_feasible_and_deterministic(model):
    a = helpers.random_config(model, 5, 4.0, tensor_kind="weight")
    b = helpers.random_config(model, 5, 4.0, tensor_kind="weight")
    assert a.weight_bits == b.weight_bits
    elems = {lid: model.layers[lid].param_count for lid in model.layer_order}
    cost = sum(b * elems[lid] for lid, b in a.weight_bits.items())
    assert cost <= 4.0 * sum(elems.values())


@pytest.mark.parametrize("delta", [float("nan"), float("inf"), -0.25, "0.25", True])
def test_alloc_options_reject_bad_delta(delta):
    with pytest.raises(ParameterError):
        al.AllocOptions(delta_avg_bits=delta)


def test_alloc_options_accept_zero_delta():
    assert al.AllocOptions(delta_avg_bits=0).delta_avg_bits == 0


def test_mckp_rejects_nan_budget():
    inst = make_instance([3, 5], [(0.1, 0.5, 0.9), (0.2, 0.4, 0.8)], float("nan"))
    with pytest.raises(ParameterError):
        al.solve_mckp(inst)
    inst = make_instance([3, 5], [(0.1, 0.5, 0.9), (0.2, 0.4, 0.8)], float("inf"))
    assert al.solve_mckp(inst).choices == {"layer00": 8, "layer01": 8}


# Each distinct swept config is proxy-scored once; a repeated cell reuses its score.

SMALL_TARGETS = ((sv.WEIGHT, 6.0), (sv.ACTIVATION, 6.0))


@pytest.fixture(scope="module")
def small_case():
    model = tm.build_toy_unet(3, width=4, spatial=8, text_tokens=4, text_channels=8, time_dim=8)
    calib = tm.make_input_set(101, 4, model)
    tables = {kind: sv.analyze(model, calib, tensor_kind=kind, bos_aware=True) for kind in sv.TENSOR_KINDS}
    return model, tables, tm.calibrate_activations(model, calib, bos_aware=True)


def test_proxy_score_equals_the_per_input_oracle(small_case):
    # two proxy chunks: FORWARD_CHUNK inputs and 2
    model, _, ranges = small_case
    opts = al.AllocOptions(bos_aware=True, proxy_inputs=tm.FORWARD_CHUNK + 2)
    chunks, refs = al.proxy_set(model, opts)
    assert [batch.size for batch in refs] == [tm.FORWARD_CHUNK, 2]
    inputs = tm.make_input_set(opts.proxy_seed, opts.proxy_inputs, model)
    fp = helpers.forward_inputs(model, inputs, bos_aware=True)
    for w, a in ((4, 8), (2, None), (None, 4)):
        cfg = tm.QuantConfig.uniform(model.layer_order, w, a)
        outs = helpers.forward_inputs(model, inputs, config=cfg, bos_aware=True, act_ranges=ranges)
        want = helpers.mean_in_order([helpers.sqnr_db(ref, out) for ref, out in zip(fp, outs, strict=True)])
        assert al.proxy_score(model, cfg, chunks, refs, bos_aware=True, act_ranges=ranges) == want, (w, a)


def _small_allocate(small_case, kind, target):
    model, tables, ranges = small_case
    opts = al.AllocOptions(bos_aware=True, proxy_inputs=2)
    return al.allocate(model, tables[kind], target, tensor_kind=kind, options=opts, act_ranges=ranges), opts


def _config_key(config):
    return json.dumps(config.to_json_dict(), sort_keys=True)


@pytest.mark.parametrize("kind,target", SMALL_TARGETS)
def test_allocate_scores_each_distinct_config_once(small_case, monkeypatch, kind, target):
    scored = []
    real = al.proxy_score

    def counting(model, config, *args, **kwargs):
        scored.append(_config_key(config))
        return real(model, config, *args, **kwargs)

    monkeypatch.setattr(al, "proxy_score", counting)
    res, _ = _small_allocate(small_case, kind, target)
    distinct = {_config_key(cfg) for cfg in res.sweep_configs}
    assert sorted(scored) == sorted(distinct)
    assert len(distinct) < len(res.sweep_configs)  # the sweep does repeat configs


@pytest.mark.parametrize("kind,target", SMALL_TARGETS)
def test_allocate_matches_scoring_every_cell(small_case, kind, target):
    model, tables, ranges = small_case
    res, opts = _small_allocate(small_case, kind, target)
    inputs, refs = al.proxy_set(model, opts)
    scores = [
        al.proxy_score(model, cfg, inputs, refs, bos_aware=True, act_ranges=ranges)
        for cfg in res.sweep_configs
    ]
    assert [p.score for p in res.sweep] == scores
    assert [p.ref for p in res.sweep] == list(range(len(scores)))
    best = max(range(len(scores)), key=lambda i: (scores[i], -res.sweep[i].avg_bits, -i))
    assert res.best_ref == best

    # The emitted config is the best cell topped up against the full budget.
    field = "param_count" if kind == sv.WEIGHT else "act_elem_count"
    elems = {lid: getattr(model.layers[lid], field) for lid in model.layer_order}
    cell = res.sweep_configs[best]
    choices = dict(cell.weight_bits if kind == sv.WEIGHT else cell.act_bits)
    cost = sum(b * elems[lid] for lid, b in choices.items())
    al._greedy_fill(choices, cost, target * sum(elems.values()), elems, tuple(sorted(opts.bit_widths)),
                    lambda lid, b: tables[kind].score(lid, b, kind))
    config = al._kind_config(model, kind, choices)
    want = al.BitWidthConfig(config=config, summary=al.cost_summary(config, tm.model_layer_summary(model)))
    assert res.config.to_json_dict() == want.to_json_dict()


# The cached, prefix-ordered sweep against one that scores every cell from the input.

CACHED_SWEEP_CASES = [(kind, bos) for kind in sv.TENSOR_KINDS for bos in (False, True)]


@pytest.fixture(scope="module")
def small_cases_by_bos():
    model = tm.build_toy_unet(3, width=4, spatial=8, text_tokens=4, text_channels=8, time_dim=8)
    calib = tm.make_input_set(101, 4, model)
    return model, {
        bos: (
            {kind: sv.analyze(model, calib, tensor_kind=kind, bos_aware=bos) for kind in sv.TENSOR_KINDS},
            tm.calibrate_activations(model, calib, bos_aware=bos),
        )
        for bos in (False, True)
    }


def _sweep_json(res):
    return (
        [(p.avg_bits, p.score, p.ref) for p in res.sweep],
        res.best_ref,
        [cfg.to_json_dict() for cfg in res.sweep_configs],
        res.config.to_json_dict(),
    )


@pytest.mark.parametrize("kind,bos", CACHED_SWEEP_CASES)
def test_cached_sweep_matches_scoring_every_cell_from_the_input(small_cases_by_bos, monkeypatch, kind, bos):
    model, by_bos = small_cases_by_bos
    tables, ranges = by_bos[bos]
    # a full chunk and a partial one of proxy inputs
    opts = al.AllocOptions(bos_aware=bos, proxy_inputs=tm.FORWARD_CHUNK + 2, n_budgets=3)
    caches = []
    real_cache, real_score = tm.StateCache, al.proxy_score

    def recording_cache(*args):
        caches.append(real_cache(*args))
        return caches[-1]

    monkeypatch.setattr(tm, "StateCache", recording_cache)
    res = al.allocate(model, tables[kind], 6.0, tensor_kind=kind, options=opts, act_ranges=ranges)
    monkeypatch.undo()
    assert any(keep for cache in caches for keep in cache.keep.values())  # some config resumed past the input

    def from_the_input(model, config, inputs, refs, **kwargs):
        return real_score(model, config, inputs, refs, **{**kwargs, "cache": None})

    monkeypatch.setattr(al, "proxy_score", from_the_input)
    want = al.allocate(model, tables[kind], 6.0, tensor_kind=kind, options=opts, act_ranges=ranges)
    assert _sweep_json(res) == _sweep_json(want)
    inputs, refs = al.proxy_set(model, opts)
    assert [p.score for p in res.sweep] == [
        real_score(model, cfg, inputs, refs, bos_aware=bos, act_ranges=ranges)
        for cfg in res.sweep_configs
    ]


def test_check_sweep_cells_boundary():
    cap = al.MAX_SWEEP_CELLS
    al.check_sweep_cells(cap, 1)
    al.check_sweep_cells(1, cap)
    al.check_sweep_cells(cap // 8, 8)
    for n_budgets, n_ratios in ((cap + 1, 1), (1, cap + 1), (cap // 8 + 1, 8)):
        with pytest.raises(ParameterError, match="cells"):
            al.check_sweep_cells(n_budgets, n_ratios)


def test_allocate_bounds_the_sweep_before_any_solve(small_case, monkeypatch):
    model, tables, _ = small_case

    def no_work(*args, **kwargs):
        raise AssertionError("the sweep ran past its cap")

    cases = [
        (al.AllocOptions(n_budgets=al.MAX_SWEEP_CELLS // 8 + 1, proxy_inputs=1), sv.WEIGHT),
        (al.AllocOptions(n_budgets=2, proxy_inputs=1), sv.ACTIVATION),
    ]
    monkeypatch.setattr(al, "DEFAULT_RATIO_GRID_ACT", (1.0,) * (al.MAX_SWEEP_CELLS // 2 + 1))
    for name in ("solve_mckp", "proxy_set", "proxy_score"):
        monkeypatch.setattr(al, name, no_work)
    for opts, kind in cases:
        with pytest.raises(ParameterError, match="cells"):
            al.allocate(model, tables[kind], 4.0, tensor_kind=kind, options=opts)


def test_allocate_runs_a_sweep_at_the_cap(small_case, monkeypatch):
    model, tables, _ = small_case
    monkeypatch.setattr(al, "MAX_SWEEP_CELLS", 6)
    monkeypatch.setattr(al, "DEFAULT_RATIO_GRID_WEIGHT", (0.8, 1.2))
    at_cap = al.AllocOptions(n_budgets=3, proxy_inputs=1)
    assert len(al.allocate(model, tables[sv.WEIGHT], 4.0, options=at_cap).sweep) == 6
    monkeypatch.setattr(al, "DEFAULT_RATIO_GRID_WEIGHT", (0.8, 1.0, 1.2))
    with pytest.raises(ParameterError, match="cells"):
        al.allocate(model, tables[sv.WEIGHT], 4.0, options=at_cap)


def test_allocate_mixed_builds_one_proxy_set_for_both_kinds(small_case, monkeypatch):
    model, tables, ranges = small_case
    built = []
    real = al.proxy_set

    def counting(model, options):
        built.append(options)
        return real(model, options)

    monkeypatch.setattr(al, "proxy_set", counting)
    opts = al.AllocOptions(bos_aware=True, proxy_inputs=2)
    _, shared = al.allocate_mixed(model, tables[sv.WEIGHT], tables[sv.ACTIVATION], 6.0, 6.0,
                                  options=opts, act_ranges=ranges)
    assert built == [opts]
    monkeypatch.undo()
    for kind, target in ((sv.WEIGHT, 6.0), (sv.ACTIVATION, 6.0)):
        alone = al.allocate(model, tables[kind], target, tensor_kind=kind, options=opts, act_ranges=ranges)
        assert _sweep_json(shared[kind]) == _sweep_json(alone)
