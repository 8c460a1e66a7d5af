"""Seeded query streams for the end-to-end planning benchmark.

A *stream* is plain JSON data: model specs plus a list of queries against
the public planning and execution API.  Generating it imports nothing
from ``repro``, so the same ``(workload, seed, size)`` always yields
byte-identical inputs, and :func:`digest` fingerprints them.
``queries.prepare`` turns a stream into calls; that is the benchmark's
set-up.

A query's cost is decided by a few of its attributes: the pipeline depth,
the micro-batch multiplier, the model's size relative to the depth and,
for the branch-and-bound oracle, the model's exact block costs.  The
first three form each workload's *design*, a grid of cells that every
stream covers a whole number of times, each cycle in a fresh seeded
order.  Every synthetic query then draws a model of its own, with its
layer count spread over the cell's layer range and its width, sequence
length and head type dealt out in equal shares within each depth.  Any
one model's quirks are thus averaged over hundreds of models per stream,
and two seeds give different inputs with nearly the same cost mix: the
run-to-run spread is about the host, not about which seed drew the one
pathological model.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from typing import Any, Dict, List, Sequence, Tuple

WORKLOADS = ("plan", "oracle", "robust", "execute")

#: Queries per second of reference time (``probe.py``) of each workload,
#: used to size a stream to the requested measurement time.  These are
#: constants rather than measurements so that the stream stays a pure
#: function of its arguments.
NOMINAL_QPS = {"plan": 170.0, "oracle": 29.0, "robust": 120.0, "execute": 39.0}

#: Smallest stream: p95 needs at least ten samples beyond it.
MIN_QUERIES = 200

#: Workloads whose query time goes mostly into numpy sweeps over large
#: candidate arrays (the oracle's kernel), which a slow phase of the host
#: slows less than interpreted code: their host-speed probe sweeps arrays
#: too (see ``probe.py``).
SWEEP_PROBED = ("oracle",)

ZOO = ("gpt2-345m", "gpt2-762m", "gpt2-1.3b", "bert-large")
ZOO_LAYERS = {"gpt2-345m": 24, "gpt2-762m": 36, "gpt2-1.3b": 24, "bert-large": 24}
ZOO_SHARE = 0.3
HIDDEN = (1024, 1280, 1536, 1792, 2048)
SEQ = (512, 1024, 2048)
BERT = (True, True, True, False, False, False, False, False, False, False)
MICRO_BATCH_SIZES = (1, 2, 3, 4)

#: Perturbation draws of every robust objective (the robustness layer's
#: draw-sim count is ``DRAWS`` per scored candidate).
DRAWS = 64
PERTURBATIONS = ("noise", "straggler", "comm")
STATISTICS = ("mean", "p95", "max")

#: Layer-count strata.  The planner's work at a given depth grows as the
#: blocks per stage shrink, so every depth meets every stratum equally.
PLAN_STRATA = ((12, 20), (21, 29), (30, 38), (39, 48))
ORACLE_STRATA = ((12, 20), (21, 28), (29, 36))
ROBUST_ORACLE_STRATA = ((4, 7), (8, 10))
ROBUST_PLAN_STRATA = ((12, 24), (25, 36))

#: The execute mix in slots of ten queries: 70% single runs, 10% each
#: batched, Slicer-count and perturbed evaluations.
EXECUTE_SLOTS = (
    ("single", "1f1b"), ("single", "1f1b"), ("single", "gpipe"),
    ("single", "sliced"), ("single", "sliced"),
    ("single", "interleaved"), ("single", "interleaved"),
    ("batch", "1f1b"), ("slices", "sliced"), ("perturbed", "1f1b"),
)


def _grid(depths, mults, strata) -> List[tuple]:
    return list(itertools.product(depths, mults, range(len(strata))))


def _execute_cells() -> List[tuple]:
    """(depth, multiplier, slot) cells of the execute grid.

    Depth 32 runs only single and perturbed queries at ``m = depth``: a
    batched or Slicer sweep at that depth costs seconds per query and
    would dominate every other cell of the mix.
    """
    cells = list(itertools.product((2, 4, 8, 16), (1, 2, 4), range(len(EXECUTE_SLOTS))))
    cells += [
        (32, 1, slot) for slot, (op, _) in enumerate(EXECUTE_SLOTS)
        if op in ("single", "perturbed")
    ]
    return cells


#: Anchor cells: (depth, multiplier) cells that always run the four zoo
#: models, each at a micro-batch size that steps from cycle to cycle, so
#: they are the same in every stream.  They hold the deepest searches,
#: whose work swings by an order of magnitude between two models of the
#: same size: the planner's master-shift walk at depth 12-16 with m >= 4
#: depth, and the oracle's branch-and-bound at depth 10-11 (at depth 10
#: a synthetic model can admit a million candidates and take 200 MB).
#: Left to seeded models, those few queries would set a stream's tail
#: latency and peak memory on their own.
ANCHORS = {
    "plan": list(itertools.product(range(12, 17), (4, 8))),
    "oracle": list(itertools.product((10, 11), (2, 4))),
}

#: Deep anchors: ``(zoo index, micro-batch size, depth, multiplier)``
#: queries that run once per cycle, with a fixed micro-batch size.  They
#: carry the oracle's heavy tail: at depth 12 branch-and-bound on the zoo
#: models scores 14k-350k candidates and takes 0.03-0.8 s and up to about
#: 380 MB per query on a 2-vCPU x86-64 host.  Five of the six take over
#: 0.25 s, 7% of the oracle stream, so its 95th percentile falls among
#: these fixed queries rather than among seeded ones.  The micro-batch
#: size is not stepped because one step away, gpt2-762m at micro-batch 4
#: takes 3.3 s and 760 MB, more than a whole part's budget.
DEEP = {
    "oracle": [
        (0, 1, 12, 2), (0, 3, 12, 2), (1, 1, 12, 2), (2, 1, 12, 2),
        (3, 1, 12, 2), (3, 2, 12, 2),
    ],
}

#: (depth, micro-batch multiplier, stratum or slot) cells of the seeded
#: part of each design.
CELLS = {
    "plan": [
        c for c in _grid(range(2, 17), (1, 2, 4, 8), PLAN_STRATA)
        if c[:2] not in ANCHORS["plan"]
    ],
    "oracle": 2 * _grid(range(6, 10), (2, 4), ORACLE_STRATA),
    "robust_oracle": _grid(range(2, 5), (1, 2, 4, 8), ROBUST_ORACLE_STRATA),
    "robust_plan": _grid(range(3, 11), (1, 2, 4), ROBUST_PLAN_STRATA),
    "execute": _execute_cells(),
}

CYCLE = {
    "plan": len(CELLS["plan"]) + len(ZOO) * len(ANCHORS["plan"]),
    "oracle": len(CELLS["oracle"]) + len(ZOO) * len(ANCHORS["oracle"])
    + len(DEEP["oracle"]),
    # Robust oracle and robust planner calls alternate, one cycle each.
    "robust": 2 * len(CELLS["robust_plan"]),
    "execute": len(CELLS["execute"]),
}


def stream_size(workload: str, seconds: float, parts: int) -> int:
    """Queries per stream: ``parts`` equal runs of whole design cycles,
    about ``seconds`` of work in all and at least :data:`MIN_QUERIES`."""
    per_part = parts * CYCLE[workload]
    target = NOMINAL_QPS[workload] * seconds
    return per_part * max(math.ceil(MIN_QUERIES / per_part), round(target / per_part))


def part_slice(total: int, part: int, parts: int) -> slice:
    """Contiguous, near-equal slice ``part`` of ``parts`` over ``total``
    queries; with :func:`stream_size` every slice is whole design cycles."""
    return slice(part * total // parts, (part + 1) * total // parts)


def dealt(rng: random.Random, values: Sequence[Any], n: int) -> List[Any]:
    """``n`` values in equal shares (within one), shuffled."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def _members(groups: Sequence[Any]) -> Dict[Any, List[int]]:
    members: Dict[Any, List[int]] = {}
    for i, g in enumerate(groups):
        members.setdefault(g, []).append(i)
    return members


def dealt_within(
    rng: random.Random, groups: Sequence[Any], values: Sequence[Any]
) -> List[Any]:
    """One value per entry of ``groups``, in equal shares within each group."""
    out: List[Any] = [None] * len(groups)
    for idx in _members(groups).values():
        for i, v in zip(idx, dealt(rng, values, len(idx))):
            out[i] = v
    return out


def flags_within(
    rng: random.Random, groups: Sequence[Any], fraction: float
) -> List[bool]:
    """Flags with ``fraction`` of each group set (rounded per group,
    carrying the remainder so that the overall share stays exact)."""
    out = [False] * len(groups)
    carry = 0.0
    members = _members(groups)
    for key in sorted(members, key=repr):
        idx = members[key]
        want = fraction * len(idx) + carry
        k = min(len(idx), int(round(want)))
        carry = want - k
        for i in rng.sample(idx, k):
            out[i] = True
    return out


def spread_within(
    rng: random.Random, groups: Sequence[Any], ranges: Sequence[Tuple[int, int]]
) -> List[int]:
    """One integer per entry, spread over its ``(lo, hi)`` range: the
    entries of a group split the range into equal-width strata and draw
    one value in each."""
    out = [0] * len(groups)
    for idx in _members(groups).values():
        lo, hi = ranges[idx[0]]
        width = (hi - lo + 1) / len(idx)
        values = [lo + int((k + rng.random()) * width) for k in range(len(idx))]
        rng.shuffle(values)
        for i, v in zip(idx, values):
            out[i] = v
    return out


def cycled(rng: random.Random, cells: Sequence[Any], n: int) -> List[Any]:
    """``n`` grid cells: every cell once per cycle, each cycle reshuffled."""
    out: List[Any] = []
    while len(out) < n:
        cycle = list(cells)
        rng.shuffle(cycle)
        out.extend(cycle)
    return out[:n]


def anchored(rng: random.Random, workload: str, n: int) -> List[tuple]:
    """``n`` design entries: per cycle every cell of ``CELLS[workload]``
    once as ``("seeded", cell)``, every anchor cell once per zoo model
    as ``("anchor", (zoo index, micro-batch size, depth, multiplier))``
    and every deep anchor once, each cycle shuffled."""
    out: List[tuple] = []
    turn = 0
    while len(out) < n:
        block = [("seeded", c) for c in CELLS[workload]] + [
            ("anchor", (z, MICRO_BATCH_SIZES[(turn + z) % len(MICRO_BATCH_SIZES)], d, k))
            for z in range(len(ZOO)) for d, k in ANCHORS[workload]
        ] + [("anchor", e) for e in DEEP.get(workload, ())]
        rng.shuffle(block)
        out.extend(block)
        turn += 1
    return out[:n]


def model_layers(spec: Dict[str, Any]) -> int:
    return ZOO_LAYERS[spec["zoo"]] if "zoo" in spec else spec["num_layers"]


class _Models:
    """A stream's model list: the zoo first, then one spec per synthetic
    query.  ``zoo`` cycles through the admissible zoo models."""

    def __init__(self) -> None:
        self.specs: List[Dict[str, Any]] = [{"zoo": z} for z in ZOO]
        self._turn = 0

    def zoo(self, admit) -> int:
        choices = [i for i, z in enumerate(ZOO) if admit(ZOO_LAYERS[z])]
        self._turn += 1
        return choices[self._turn % len(choices)]

    def synthetic(self, layers: int, hidden: int, seq: int, bert: bool) -> int:
        self.specs.append({
            "name": f"syn{len(self.specs) - len(ZOO)}",
            "num_layers": layers,
            "hidden_size": hidden,
            "num_heads": 16,
            "seq_length": seq,
            "is_bert": bert,
            "vocab_size": 30522 if bert else 50257,
        })
        return len(self.specs) - 1


def _assign_models(
    rng: random.Random,
    cells: Sequence[tuple],
    ranges: Sequence[Tuple[int, int]],
    zoo_ok: Sequence[bool],
    zoo_fraction: float,
    models: _Models,
) -> List[int]:
    """A model per query: a zoo model for ``zoo_fraction`` of the queries
    whose cell admits one (``zoo_ok``), else a fresh synthetic model with
    its layer count in ``ranges[i]``.  Zoo picks, layer counts and the
    other dimensions are balanced within each depth."""
    depths = [c[0] for c in cells]
    eligible = [i for i in range(len(cells)) if zoo_ok[i]]
    zoo = [False] * len(cells)
    for i, flag in zip(eligible, flags_within(
        rng, [cells[i] for i in eligible], zoo_fraction
    )):
        zoo[i] = flag
    layers = spread_within(rng, list(zip(cells, ranges)), ranges)
    hidden = dealt_within(rng, depths, HIDDEN)
    seq = dealt_within(rng, depths, SEQ)
    bert = dealt_within(rng, depths, BERT)
    out = []
    for i in range(len(cells)):
        lo, hi = ranges[i]
        if zoo[i]:
            out.append(models.zoo(lambda L, lo=lo, hi=hi: lo <= L <= hi))
        else:
            out.append(models.synthetic(layers[i], hidden[i], seq[i], bert[i]))
    return out


def _zoo_fits(strata: Sequence[Tuple[int, int]], s: int) -> bool:
    lo, hi = strata[s]
    return any(lo <= L <= hi for L in ZOO_LAYERS.values())


def _zoo_fraction(n: int, anchors: int, eligible: int) -> float:
    """Zoo share among the ``eligible`` seeded queries that brings ``n``
    queries to :data:`ZOO_SHARE`, next to ``anchors`` zoo anchor queries."""
    return min(1.0, max(0.0, (ZOO_SHARE * n - anchors) / eligible)) if eligible else 0.0


def _split(entries: Sequence[tuple]) -> Tuple[List[int], List[tuple]]:
    """Positions and cells of the seeded entries of :func:`anchored`."""
    seeded = [i for i, (kind, _) in enumerate(entries) if kind == "seeded"]
    return seeded, [entries[i][1] for i in seeded]


def _plan_stream(rng: random.Random, n: int):
    models = _Models()
    entries = anchored(rng, "plan", n)
    seeded, cells = _split(entries)
    depths = [d for d, _, _ in cells]
    # Layer granularity and edge comm are dealt over the seeded queries at
    # the shares that give the whole stream 10% and 20%.
    layer = flags_within(rng, depths, 0.1 * n / max(1, len(seeded)))
    edges = flags_within(rng, depths, 0.2 * n / max(1, len(seeded)))
    # Layer granularity has one unit per transformer layer.
    ranges = [
        (max(PLAN_STRATA[s][0], d if layer[j] else 0), PLAN_STRATA[s][1])
        for j, (d, _, s) in enumerate(cells)
    ]
    zoo_ok = [_zoo_fits(PLAN_STRATA, s) for _, _, s in cells]
    picks = _assign_models(
        rng, cells, ranges, zoo_ok,
        _zoo_fraction(n, n - len(seeded), sum(zoo_ok)), models,
    )
    mbs = dealt_within(rng, depths, MICRO_BATCH_SIZES)
    queries = [
        {"op": "plan", "model": e[0], "mbs": e[1], "depth": e[2], "m": e[3] * e[2],
         "granularity": "sublayer", "comm": "paper"} if kind == "anchor" else None
        for kind, e in entries
    ]
    for j, (i, (d, k, _)) in enumerate(zip(seeded, cells)):
        queries[i] = {
            "op": "plan", "model": picks[j], "mbs": mbs[j], "depth": d,
            "m": k * d, "granularity": "layer" if layer[j] else "sublayer",
            "comm": "edges" if edges[j] else "paper",
        }
    return models.specs, queries


def _oracle_stream(rng: random.Random, n: int):
    models = _Models()
    entries = anchored(rng, "oracle", n)
    seeded, cells = _split(entries)
    zoo_ok = [_zoo_fits(ORACLE_STRATA, s) for _, _, s in cells]
    picks = _assign_models(
        rng, cells, [ORACLE_STRATA[s] for _, _, s in cells], zoo_ok,
        _zoo_fraction(n, n - len(seeded), sum(zoo_ok)), models,
    )
    mbs = dealt_within(rng, [d for d, _, _ in cells], MICRO_BATCH_SIZES)
    queries = [
        {"op": "oracle", "model": e[0], "mbs": e[1], "depth": e[2], "m": e[3] * e[2]}
        if kind == "anchor" else None
        for kind, e in entries
    ]
    for j, (i, (d, k, _)) in enumerate(zip(seeded, cells)):
        queries[i] = {"op": "oracle", "model": picks[j], "mbs": mbs[j], "depth": d, "m": k * d}
    return models.specs, queries


def _robust_stream(rng: random.Random, n: int):
    """Robust oracle enumerations over spaces of 10 to about 1.5e3
    candidates (4-10 layer models, depth 2-4) alternating with robust
    planner calls on 12-36 layer models."""
    models = _Models()
    n_plan = n // 2
    oracle = cycled(rng, CELLS["robust_oracle"], n - n_plan)
    plan = cycled(rng, CELLS["robust_plan"], n_plan)
    oracle_picks = _assign_models(
        rng, oracle, [ROBUST_ORACLE_STRATA[s] for _, _, s in oracle],
        [False] * len(oracle), 0.0, models,
    )
    zoo_ok = [_zoo_fits(ROBUST_PLAN_STRATA, s) for _, _, s in plan]
    plan_picks = _assign_models(
        rng, plan, [ROBUST_PLAN_STRATA[s] for _, _, s in plan], zoo_ok,
        _zoo_fraction(n_plan, 0, sum(zoo_ok)), models,
    )
    # Alternate the two halves so that any prefix holds both.
    rows = [
        ("robust_oracle", oracle[i // 2], oracle_picks[i // 2]) if i % 2 == 0
        else ("robust_plan", plan[i // 2], plan_picks[i // 2])
        for i in range(n)
    ]
    groups = [(op, cell[0]) for op, cell, _ in rows]
    mbs = dealt_within(rng, groups, MICRO_BATCH_SIZES)
    pert = dealt_within(rng, groups, PERTURBATIONS)
    stat = dealt_within(rng, groups, STATISTICS)
    queries = [
        {
            "op": op, "model": model, "mbs": mbs[i], "depth": d, "m": mult * d,
            "perturbation": pert[i], "statistic": stat[i],
            "draw_seed": rng.randrange(2**31),
        }
        for i, (op, (d, mult, _), model) in enumerate(rows)
    ]
    return models.specs, queries


def _execute_stream(rng: random.Random, n: int):
    models = _Models()
    cells = cycled(rng, CELLS["execute"], n)
    # Interleaving splits the layers into 2 * depth equal virtual stages,
    # so every model of a depth has a multiple of 2 * depth layers: draw
    # a multiple k of 2 * depth with 12 <= k * 2 * depth <= 64.
    steps = [
        (max(1, math.ceil(12 / (2 * d))), 64 // (2 * d)) for d, _, _ in cells
    ]
    multiples = spread_within(rng, [c[0] for c in cells], steps)
    zoo_ok = [any(L % (2 * d) == 0 for L in ZOO_LAYERS.values()) for d, _, _ in cells]
    depths = [d for d, _, _ in cells]
    zoo = [False] * n
    eligible = [i for i in range(n) if zoo_ok[i]]
    for i, flag in zip(eligible, flags_within(
        rng, [depths[i] for i in eligible], _zoo_fraction(n, 0, len(eligible))
    )):
        zoo[i] = flag
    hidden = dealt_within(rng, depths, HIDDEN)
    seq = dealt_within(rng, depths, SEQ)
    bert = dealt_within(rng, depths, BERT)
    mbs = dealt_within(rng, depths, MICRO_BATCH_SIZES)
    queries = []
    for i, (d, mult, slot) in enumerate(cells):
        op, family = EXECUTE_SLOTS[slot]
        if zoo[i]:
            model = models.zoo(lambda L, d=d: L % (2 * d) == 0)
        else:
            model = models.synthetic(multiples[i] * 2 * d, hidden[i], seq[i], bert[i])
        q = {
            "op": op, "family": family, "model": model,
            "mbs": mbs[i], "depth": d, "m": mult * d,
        }
        if op == "batch":
            q["variants"] = rng.randint(4, 8)
            q["variant_seed"] = rng.randrange(2**31)
        elif op == "perturbed":
            q["draws"] = DRAWS
            q["factor_seed"] = rng.randrange(2**31)
        queries.append(q)
    return models.specs, queries


_GENERATORS = {
    "plan": _plan_stream,
    "oracle": _oracle_stream,
    "robust": _robust_stream,
    "execute": _execute_stream,
}


def make_stream(workload: str, seed: int, size: int) -> Dict[str, Any]:
    """The seeded query stream of one workload (plain JSON data)."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r} (choose from {WORKLOADS})")
    if size < 1:
        raise ValueError("a stream needs at least one query")
    rng = random.Random(f"{workload}:{seed}")
    models, queries = _GENERATORS[workload](rng, size)
    return {"workload": workload, "seed": seed, "models": models, "queries": queries}


def digest(stream: Dict[str, Any]) -> str:
    """SHA-256 of the stream's canonical JSON form."""
    blob = json.dumps(stream, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def repeat_shares(queries: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Input properties that cache-dependent gains are attributed through,
    over the queries one process runs.

    ``shape_repeat_share``: queries whose (schedule family, depth, m)
    shape occurred earlier, which is what the simulators' process-wide
    shape and graph-structure caches key on.  ``exact_repeat_share``:
    queries whose whole input (model, micro-batch size and every knob)
    occurred earlier.
    """
    shapes, inputs = set(), set()
    shape_hits = exact_hits = 0
    for q in queries:
        shape = (q.get("family"), q["depth"], q["m"])
        exact = json.dumps(q, sort_keys=True)
        shape_hits += shape in shapes
        exact_hits += exact in inputs
        shapes.add(shape)
        inputs.add(exact)
    n = len(queries)
    return {
        "shape_repeat_share": shape_hits / n,
        "exact_repeat_share": exact_hits / n,
    }
