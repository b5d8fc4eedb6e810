"""Bit-width allocation: exact multiple-choice knapsack, budget sweep, cost model.

Each layer picks exactly one candidate bit-width; the chosen bits maximize
the summed sensitivity scores subject to a total bit budget. The solver is
an exact dynamic program over gcd-scaled integer cost units with a
traceback; its table is capped at ``MAX_DP_CELLS`` cells.

The top-level sweep mirrors the deployment flow: scan a handful of budgets
just below the target, split each between the content and quality layer
groups at each ratio of the tensor kind's fixed grid
(``DEFAULT_RATIO_GRID_WEIGHT`` or ``DEFAULT_RATIO_GRID_ACT``), solve the two
knapsacks, and keep the merged configuration whose fast proxy evaluation
(mean output SQNR over a small input set) is best. The sweep runs in two
passes: every cell is solved first, then each distinct config is proxy-scored
once, in lexicographic layer order, resuming from the segment states it
shares with the config before it. Its size is capped at ``MAX_SWEEP_CELLS``
cells. Every layer of the allocated tensor kind gets a width from the grid;
none is held back at full precision. A target at or above the grid's top
width leaves the knapsack no choice: every layer ships at the top width and
the sensitivity table is never read (``needs_table``). Activation allocation
scores its proxy with the activation ranges calibrated on the calibration
inputs, the ranges the sensitivity tables were measured under. Weight and
activation allocation share one ``AllocOptions`` and one proxy set. Summaries
account storage in bits and compute in bit-operations; a layer whose weight or
activation stays full precision (its kind was not allocated) computes at FP16.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import metrics, toy_model
from .errors import InfeasibleBudgetError, ParameterError, ValidationError
from .quantizer import BIT_WIDTHS
from .sensitivity import ACTIVATION, WEIGHT, SensitivityTable, fp_references

FP_BITS = 16

# The knapsack table holds (layers + 1) x (capacity + 1) float64 cells: at most
# 128 MiB. The default model's largest group solve needs 87k cells.
MAX_DP_CELLS = 1 << 24

DEFAULT_RATIO_GRID_WEIGHT = tuple(float(x) for x in np.linspace(0.45, 1.36, 8))
DEFAULT_RATIO_GRID_ACT = tuple(float(x) for x in np.linspace(0.94, 1.09, 8))

# Sweep cells (budgets x ratios) of one allocation. The sweep holds every cell's
# config until it is scored, and each cell costs two knapsack solves and, for a
# new config, one proxy forward: 1024 cells bound both memory (a few MB) and
# time. The default sweep has 40 cells; the `sweep` benchmark workload 80.
MAX_SWEEP_CELLS = 1024


def needs_table(target: float | None, bit_widths) -> bool:
    """Whether allocating a tensor kind at ``target`` average bits reads its
    sensitivity table. An FP target (None) allocates nothing, and a target at or
    above the grid's top width admits only the all-top assignment; only a target
    below it leaves the knapsack a choice."""
    return target is not None and target < max(bit_widths)


def check_sweep_cells(n_budgets: int, n_ratios: int) -> None:
    """A sweep of ``n_budgets`` x ``n_ratios`` cells must fit ``MAX_SWEEP_CELLS``."""
    if n_budgets * n_ratios > MAX_SWEEP_CELLS:
        raise ParameterError(
            f"a sweep of {n_budgets} budgets x {n_ratios} ratios exceeds the limit of "
            f"{MAX_SWEEP_CELLS} cells; use fewer budgets or ratios"
        )


@dataclass(frozen=True)
class MckpCandidate:
    bits: int
    score: float
    cost: int


@dataclass
class MckpInstance:
    """Per-layer candidate lists plus a total budget in cost units (bits)."""

    layers: list[tuple[str, tuple[MckpCandidate, ...]]]
    budget: float

    def validate(self) -> None:
        for lid, cands in self.layers:
            if not cands:
                raise ParameterError(f"layer {lid} has no candidates")
            if any(isinstance(c.cost, bool) or not isinstance(c.cost, numbers.Integral) for c in cands):
                raise ParameterError(f"layer {lid} has a non-integer candidate cost")
            if any(c.cost <= 0 for c in cands):
                raise ParameterError(f"layer {lid} has a non-positive candidate cost")


@dataclass(frozen=True)
class MckpSolution:
    choices: dict[str, int]
    objective: float
    cost: int


def solve_mckp(instance: MckpInstance) -> MckpSolution:
    """Exact optimum: one candidate per layer, total cost within budget.

    ``value[i, w]`` is the best score of layers ``0..i-1`` (in layer-id order)
    at total cost exactly ``w * g``, where ``g`` is the gcd of all costs. Scores
    are summed in layer order from 0.0, and float addition is monotone, so each
    state holds exactly the best prefix-order float sum over its assignments.
    Ties on the objective break toward lower total cost, then toward the
    lexicographically smallest vector of candidates (cheapest first) among the
    assignments whose every prefix is optimal for its cost: the traceback marks
    the states that reach the chosen end state, then walks forward taking the
    cheapest candidate that stays on a marked state.
    """
    instance.validate()
    budget = float(instance.budget)
    if math.isnan(budget):
        raise ParameterError("budget must not be nan")
    layers = sorted(instance.layers, key=lambda p: p[0])
    cands = [sorted(cs, key=lambda c: (c.cost, -c.score, c.bits)) for _, cs in layers]
    min_cost = sum(cs[0].cost for cs in cands)
    if min_cost > budget:
        raise InfeasibleBudgetError(
            f"budget {budget:g} below the minimum achievable cost {min_cost}",
            min_achievable_bits=None,
        )
    g = math.gcd(*(c.cost for cs in cands for c in cs)) or 1
    # An infinite budget solves as unconstrained: no state lies above the all-max cost.
    cap = int(min(sum(cs[-1].cost for cs in cands), budget)) // g
    n = len(cands)
    if (n + 1) * (cap + 1) > MAX_DP_CELLS:
        raise ParameterError(
            f"knapsack table of {n + 1} x {cap + 1} cells exceeds the limit of {MAX_DP_CELLS}; "
            "use fewer layers or coarser costs"
        )

    value = np.full((n + 1, cap + 1), -np.inf)
    value[0, 0] = 0.0
    for i, cs in enumerate(cands):
        for c in cs:
            w = c.cost // g
            if w <= cap:
                np.maximum(value[i + 1, w:], value[i, : cap + 1 - w] + c.score, out=value[i + 1, w:])
    end = int(np.argmax(value[n]))  # the first maximum: the lowest cost among the best

    marked = np.zeros((n + 1, cap + 1), dtype=bool)
    marked[n, end] = True
    for i in range(n - 1, -1, -1):
        for c in cands[i]:
            w = c.cost // g
            if w <= cap:
                tight = value[i, : cap + 1 - w] + c.score == value[i + 1, w:]
                marked[i, : cap + 1 - w] |= marked[i + 1, w:] & tight

    choices: dict[str, int] = {}
    state = 0
    for i, cs in enumerate(cands):
        for c in cs:
            nxt = state + c.cost // g
            if nxt <= cap and marked[i + 1, nxt] and value[i, state] + c.score == value[i + 1, nxt]:
                choices[layers[i][0]] = c.bits
                state = nxt
                break
    return MckpSolution(choices=choices, objective=float(value[n, end]), cost=end * g)


def split_budget(total: float, mass_content: float, mass_quality: float, k: float) -> tuple[float, float]:
    """Split a budget across the two groups, proportional to mass skewed by ``k``.

    The pair is normalized with a double subtraction so conservation holds
    exactly in floating point: b_content + b_quality == total.
    """
    if k <= 0:
        raise ParameterError("ratio k must be > 0")
    denom = k * mass_content + mass_quality
    if denom <= 0:
        raise ParameterError("group masses must not both be zero")
    b_content = total * (k * mass_content) / denom
    b_quality = total - b_content
    b_content = total - b_quality
    b_quality = total - b_content
    return b_content, b_quality


@dataclass(frozen=True)
class ParetoPoint:
    avg_bits: float
    score: float
    ref: object = None


def pareto_frontier(points: list[ParetoPoint]) -> list[ParetoPoint]:
    """Maximal points under (minimize avg_bits, maximize score), sorted by avg_bits."""
    if not points:
        raise ParameterError("pareto_frontier needs at least one point")
    order = sorted(range(len(points)), key=lambda i: (points[i].avg_bits, -points[i].score, i))
    frontier = []
    best = -math.inf
    for i in order:
        if points[i].score > best:
            frontier.append(points[i])
            best = points[i].score
    return frontier


def cost_summary(config: toy_model.QuantConfig, model_costs: list[dict]) -> dict:
    """Storage/compute accounting with exact rational arithmetic.

    Storage counts each weight at its assigned bits (FP16 when unquantized).
    Compute is counted in bit-operations, MAC x weight-bits x act-bits; a
    layer with either operand at full precision runs on FP16 hardware and is
    charged 16 x 16 per MAC.
    """
    total_params = sum(r["param_count"] for r in model_costs)
    total_acts = sum(r["act_elem_count"] for r in model_costs)
    total_macs = sum(r["mac_count"] for r in model_costs)
    storage_bits = 0
    act_bits_total = 0
    bops = 0
    for row in model_costs:
        wb = config.weight_bits[row["id"]]
        ab = config.act_bits[row["id"]]
        storage_bits += (wb if wb is not None else FP_BITS) * row["param_count"]
        act_bits_total += (ab if ab is not None else FP_BITS) * row["act_elem_count"]
        if wb is None or ab is None:
            bops += row["mac_count"] * FP_BITS * FP_BITS
        else:
            bops += row["mac_count"] * wb * ab
    return {
        "avg_weight_bits": float(Fraction(storage_bits, total_params)),
        "avg_act_bits": float(Fraction(act_bits_total, total_acts)),
        "storage_bits": storage_bits,
        "bops": bops,
        "storage_opt_ratio": float(Fraction(FP_BITS * total_params, storage_bits)),
        "compute_opt_ratio": float(Fraction(FP_BITS * FP_BITS * total_macs, bops)),
    }


@dataclass
class BitWidthConfig:
    """Allocation output: per-layer bits and a cost summary."""

    config: toy_model.QuantConfig
    summary: dict

    def to_json_dict(self) -> dict:
        return {"layers": self.config.to_json_dict(), "summary": self.summary}

    @classmethod
    def from_json_dict(cls, d: dict) -> "BitWidthConfig":
        # Other keys are ignored: configs from older versions also list their
        # FP16 layers apart, and ``layers`` already holds None for each of them.
        return cls(
            config=toy_model.QuantConfig.from_json_dict(d["layers"]),
            summary=dict(d.get("summary", {})),
        )


def check_delta_avg_bits(value) -> float:
    """The width of the budget sweep below the target, in average bits: finite and >= 0."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value) or value < 0:
        raise ParameterError(f"delta_avg_bits must be a finite number >= 0, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class AllocOptions:
    bit_widths: tuple[int, ...] = BIT_WIDTHS
    n_budgets: int = 5
    delta_avg_bits: float = 0.25
    proxy_inputs: int = 8
    proxy_seed: int = 12021
    bos_aware: bool = False

    def __post_init__(self):
        check_delta_avg_bits(self.delta_avg_bits)


@dataclass
class AllocationResult:
    config: BitWidthConfig
    sweep: list[ParetoPoint]
    sweep_configs: list[toy_model.QuantConfig] = field(default_factory=list)
    best_ref: object = None


def _kind_config(model, tensor_kind, choices: dict[str, int]) -> toy_model.QuantConfig:
    cfg = toy_model.QuantConfig.all_fp(model.layer_order)
    (cfg.weight_bits if tensor_kind == WEIGHT else cfg.act_bits).update(choices)
    return cfg


def _greedy_fill(choices, spend, budget, elems, bits_grid, score_fn) -> int:
    """Spend leftover budget on the best score-per-cost upgrades that fit.

    The exact group solves can leave slack when only expensive layers remain
    upgradable; this pass saturates the budget so the emitted average bit-width
    stays within one sweep step of the target. Only non-score-decreasing
    upgrades are taken. Returns the new total spend.
    """
    while True:
        best = None
        for lid in sorted(choices):
            idx = bits_grid.index(choices[lid])
            if idx + 1 == len(bits_grid):
                continue
            nb = bits_grid[idx + 1]
            dc = (nb - choices[lid]) * elems[lid]
            if spend + dc > budget:
                continue
            ds = score_fn(lid, nb) - score_fn(lid, choices[lid])
            if ds < 0:
                continue
            key = (ds / dc, -dc, lid)
            if best is None or key > best[0]:
                best = (key, lid, nb, dc)
        if best is None:
            return spend
        _, lid, nb, dc = best
        choices[lid] = nb
        spend += dc


def proxy_score(model, config, inputs, refs, *, bos_aware=False, act_ranges=None, cache=None) -> float:
    """Mean output SQNR of the configured model over a small input set.

    ``inputs`` and ``refs`` are ``proxy_set``'s stacked chunks and their FP
    reference batches; each chunk runs as one ``toy_model.forward`` call.
    ``cache`` is a ``toy_model.StateCache`` shared by the configs of one sweep;
    it changes the work done, never the score.
    """
    total = 0.0
    for chunk, batch in zip(inputs, refs, strict=True):
        out = toy_model.forward(model, *chunk, config=config, bos_aware=bos_aware, act_ranges=act_ranges, cache=cache)
        for value in metrics.sqnr_db(batch, out):
            total += value
    return total / sum(batch.size for batch in refs)


def proxy_set(model: toy_model.ToyModel, options: AllocOptions) -> tuple[list, list]:
    """The proxy inputs an allocation with ``options`` scores on, stacked in
    ``toy_model.input_chunks``, and the FP reference batch of each chunk."""
    inputs = toy_model.make_input_set(options.proxy_seed, options.proxy_inputs, model)
    chunks = list(toy_model.input_chunks(inputs))
    return chunks, fp_references(model, chunks, bos_aware=options.bos_aware)


def allocate(
    model: toy_model.ToyModel,
    table: SensitivityTable | None,
    target_avg_bits: float,
    *,
    tensor_kind: str = WEIGHT,
    options: AllocOptions = AllocOptions(),
    act_ranges=None,
    proxy: tuple[list, list] | None = None,
) -> AllocationResult:
    """Budget-and-ratio sweep returning the proxy-best configuration for one tensor kind.

    ``proxy`` is ``proxy_set(model, options)``, built here when not given.
    ``act_ranges`` are the calibrated activation ranges; activation allocation
    requires them. ``table`` may be None only where ``needs_table`` is false.
    """
    if not 2 <= target_avg_bits <= 8:
        raise ParameterError("target average bits must lie in [2, 8]")
    grid = DEFAULT_RATIO_GRID_WEIGHT if tensor_kind == WEIGHT else DEFAULT_RATIO_GRID_ACT
    check_sweep_cells(options.n_budgets, len(grid))
    if tensor_kind == ACTIVATION and act_ranges is None:
        raise ParameterError("activation allocation needs act_ranges calibrated on the calibration inputs")
    bits_grid = tuple(sorted(options.bit_widths))
    # At or above the top width the budget admits the all-top assignment: the sweep is moot.
    moot = not needs_table(target_avg_bits, bits_grid)
    if not moot:
        if table is None:
            raise ValidationError(
                f"{tensor_kind} allocation at {target_avg_bits:g} bits needs a {tensor_kind} "
                "sensitivity table; none given"
            )
        table.validate_complete(model.layer_order, bits_grid, tensor_kind)

    elem_field = "param_count" if tensor_kind == WEIGHT else "act_elem_count"
    elems = {lid: getattr(model.layers[lid], elem_field) for lid in model.layer_order}
    total_elems = sum(elems.values())

    budget_all = target_avg_bits * total_elems
    min_cost = min(bits_grid) * total_elems
    if min_cost > budget_all:
        raise InfeasibleBudgetError(
            f"target {target_avg_bits:g} bits infeasible; minimum achievable average is "
            f"{min_cost / total_elems:.4f} bits",
            min_achievable_bits=min_cost / total_elems,
        )

    inputs, refs = proxy if proxy is not None else proxy_set(model, options)

    def score_each(configs) -> list[float]:
        """The proxy score of every config. Sweep cells often solve to the same
        config; each distinct one is scored once, in lexicographic layer order
        (FP as -1), so it shares its longest segment prefix with the one before
        it and resumes from that prefix's cached state."""
        keys = [tuple((config.weight_bits[lid], config.act_bits[lid]) for lid in model.layer_order)
                for config in configs]
        distinct = dict(zip(keys, configs))
        order = sorted(distinct, key=lambda key: tuple(-1 if b is None else b for pair in key for b in pair))
        cache = toy_model.StateCache(model, [distinct[key] for key in order])
        scores = {
            key: proxy_score(
                model, distinct[key], inputs, refs,
                bos_aware=options.bos_aware, act_ranges=act_ranges, cache=cache,
            )
            for key in order
        }
        return [scores[key] for key in keys]

    def group_instance(group: str, budget: float) -> MckpInstance:
        lids = [lid for lid in model.layer_order if model.layers[lid].group == group]
        layers = [
            (
                lid,
                tuple(
                    MckpCandidate(bits=b, score=table.score(lid, b, tensor_kind), cost=b * elems[lid])
                    for b in bits_grid
                ),
            )
            for lid in lids
        ]
        return MckpInstance(layers=layers, budget=budget)

    mass = {
        g: sum(elems[lid] for lid in model.layer_order if model.layers[lid].group == g)
        for g in (toy_model.CONTENT, toy_model.QUALITY)
    }

    delta = options.delta_avg_bits * total_elems
    # A moot sweep solves no budget: its one cell is the all-top assignment.
    budgets = [] if moot else [float(b) for b in np.linspace(budget_all - delta, budget_all, options.n_budgets)]

    def table_score(lid, b):
        return table.score(lid, b, tensor_kind)

    # Pass 1: solve every cell. Neither the solver nor the fill reads a proxy score.
    cells: list[tuple[int, dict[str, int], toy_model.QuantConfig]] = []  # (cost, choices, config)
    if moot:
        choices = {lid: max(bits_grid) for lid in model.layer_order}
        cells.append((max(bits_grid) * total_elems, choices, _kind_config(model, tensor_kind, choices)))
    for budget in budgets:
        for k in grid:
            b_content, b_quality = split_budget(budget, mass[toy_model.CONTENT], mass[toy_model.QUALITY], k)
            choices: dict[str, int] = {}
            cost = 0
            try:
                for group, b_group in ((toy_model.CONTENT, b_content), (toy_model.QUALITY, b_quality)):
                    sol = solve_mckp(group_instance(group, b_group))
                    choices.update(sol.choices)
                    cost += sol.cost
            except InfeasibleBudgetError:
                continue
            cost = _greedy_fill(choices, cost, budget, elems, bits_grid, table_score)
            cells.append((cost, choices, _kind_config(model, tensor_kind, choices)))
    if not cells:
        # Every skewed split starved one group, yet the budget itself is
        # feasible: fall back to the cheapest assignment topped up greedily.
        choices = {lid: min(bits_grid) for lid in model.layer_order}
        spend = _greedy_fill(choices, min_cost, budget_all, elems, bits_grid, table_score)
        cells.append((spend, choices, _kind_config(model, tensor_kind, choices)))

    # Pass 2: score the cells' configs, then keep the best cell in sweep order.
    configs = [config for _, _, config in cells]
    points: list[ParetoPoint] = []
    best = None  # (score, -cost, ref_index)
    for ref, ((cost, _, _), score) in enumerate(zip(cells, score_each(configs))):
        points.append(ParetoPoint(avg_bits=cost / total_elems, score=score, ref=ref))
        if best is None or (score, -cost) > best[:2]:
            best = (score, -cost, ref)
    # The winning cell may have been swept at a budget below the target; top it
    # up against the full budget so the emitted average lands on the target. A
    # moot or fallback cell is already full, so its top-up is a no-op.
    best_choices = dict(cells[best[2]][1])
    _greedy_fill(best_choices, -best[1], budget_all, elems, bits_grid, table_score)
    best_config = _kind_config(model, tensor_kind, best_choices)
    bw = BitWidthConfig(config=best_config, summary=cost_summary(best_config, toy_model.model_layer_summary(model)))
    return AllocationResult(config=bw, sweep=points, sweep_configs=configs, best_ref=best[2])


def allocate_mixed(
    model: toy_model.ToyModel,
    weight_table: SensitivityTable | None = None,
    act_table: SensitivityTable | None = None,
    weight_target: float | None = None,
    act_target: float | None = None,
    *,
    options: AllocOptions = AllocOptions(),
    act_ranges=None,
) -> tuple[BitWidthConfig, dict[str, AllocationResult]]:
    """Run weight and activation allocations independently, with the same
    options and on one proxy set, and merge them. A kind's table may be None
    where ``needs_table`` is false for its target."""
    results: dict[str, AllocationResult] = {}
    merged = toy_model.QuantConfig.all_fp(model.layer_order)
    proxy = proxy_set(model, options)
    if weight_target is not None:
        res = allocate(model, weight_table, weight_target, tensor_kind=WEIGHT, options=options, proxy=proxy)
        results[WEIGHT] = res
        merged.weight_bits = dict(res.config.config.weight_bits)
    if act_target is not None:
        res = allocate(
            model, act_table, act_target, tensor_kind=ACTIVATION, options=options, act_ranges=act_ranges, proxy=proxy
        )
        results[ACTIVATION] = res
        merged.act_bits = dict(res.config.config.act_bits)
    summary = cost_summary(merged, toy_model.model_layer_summary(model))
    return BitWidthConfig(config=merged, summary=summary), results

