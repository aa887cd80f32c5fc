"""Which program functions the traced run wraps, and the per-layer metrics
derived from their spans.

Each public function is wrapped under every name its callers look up: the
module global in each importing module, or the class attribute for
``MergeHistory`` methods.  Span names are ``<layer>.<function>``, so the
part before the first dot is the module (``metrics``, ``engine``,
``oracles``, ``forge`` or ``harness``).  ``bounds`` and ``cli`` are not
wrapped: the first is closed-form arithmetic, the second an argparse front
end over the same harness calls.
"""

from __future__ import annotations

import statistics
from collections import Counter
from typing import Callable

from agglolab import engine, forge, harness, metrics, oracles
from agglolab.metrics import L2, Problem

from perfbench.spans import Span, Target, outermost, self_times

LAYERS = ("metrics", "engine", "oracles", "forge", "harness")
SUITES = harness.SUITE_NAMES


def _powered_notes(args, kwargs, result) -> dict:
    inst = args[0] if args else kwargs["inst"]
    return {"bytes": result.size * inst.dim * 8}


def _radius_notes(args, kwargs, result) -> dict:
    return {"approximate": bool(result.approximate)}


def _history_notes(args, kwargs, result) -> dict:
    return {"merges": len(result.steps), "welzl_run": _welzl_run(result)}


def _welzl_run(hist) -> bool:
    """A radius-linkage run whose radius calls go to the l2 ball solver."""
    inst = hist.instance
    return hist.linkage is Problem.RADIUS and inst.norm == L2 and inst.dim > 1


def _suite_notes(args, kwargs, result) -> dict:
    return {"suite": result.suite}


def targets() -> list[Target]:
    spec = [
        ("metrics.powered_matrix", (metrics, engine, oracles), ("powered_matrix",), _powered_notes),
        ("metrics.radius", (metrics, engine, oracles, harness), ("radius",), _radius_notes),
        ("metrics.cluster_cost", (metrics, harness), ("cluster_cost",), None),
        ("engine.agglomerate", (engine, harness), ("agglomerate",), _history_notes),
        ("engine.nn_chain", (engine, harness), ("agglomerate_nn_chain",), None),
        ("engine.tie_margin", (engine, harness), ("greedy_tie_margin",), None),
        ("engine.check_invariants", (engine.MergeHistory,), ("check_invariants",), None),
        ("engine.clusters_at_k", (engine.MergeHistory,), ("clusters_at_k",), None),
        ("oracles.partition_enum", (oracles, harness), ("optimal_by_partition_enum",), None),
        ("oracles.center_enum", (oracles, harness), ("optimal_discrete_kcenter",), None),
        ("oracles.diameter_1d", (oracles, harness), ("optimal_diameter_1d",), None),
        ("oracles.min_pairwise_distance", (oracles,), ("min_pairwise_distance",), None),
        ("oracles.packing", (oracles, harness), ("volume_lemma_check",), None),
        ("forge.gen_random", (forge, harness), ("gen_random",), None),
        ("forge.constructions", (harness,),
         ("gen_line_1d", "gen_linf_2d", "gen_l2_3d", "gen_hypercube_l1",
          "hypercube_reference_clusters"), None),
        ("harness.suite", (harness,), ("verify_suite",), _suite_notes),
        ("harness.evaluate", (harness,), ("evaluate",), None),
        ("harness.grid_search", (harness,), ("grid_search_enclosing_radius",), None),
        ("harness.write_report", (harness,), ("write_json_report", "write_csv"), None),
    ]
    return [
        Target(owner, attr, span, notes)
        for span, owners, attrs, notes in spec
        for owner in owners
        for attr in attrs
    ]


def raw_sums(spans: list[Span]) -> Counter:
    """Additive totals of one group of spans (a set-up or one pass)."""
    sums: Counter = Counter()
    selfs = self_times(spans)
    for i, s in enumerate(spans):
        sums[f"calls:{s.name}"] += 1
        sums[f"self:{s.name}"] += selfs[i]
        sums[f"layer_self:{s.name.split('.', 1)[0]}"] += selfs[i]
    for name in {s.name for s in spans}:
        sums[f"total:{name}"] = sum(spans[i].duration for i in outermost(spans, name))
    for i, s in enumerate(spans):
        if s.name == "metrics.powered_matrix":
            sums["powered_bytes"] += s.notes.get("bytes", 0)
        elif s.name == "metrics.radius":
            sums["radius_failed"] += s.error == "SolverError"
            sums["radius_approximate"] += bool(s.notes.get("approximate"))
            if _in_welzl_run(spans, s.parent):
                sums["welzl_run_radius_calls"] += 1
        elif s.name == "engine.agglomerate" and "merges" in s.notes:
            sums["merges"] += s.notes["merges"]
            if s.notes["welzl_run"]:
                sums["welzl_run_merges"] += s.notes["merges"]
        elif s.name == "harness.suite" and "suite" in s.notes:
            sums[f"suite:{s.notes['suite']}"] += s.duration
    return sums


def _in_welzl_run(spans: list[Span], idx: int) -> bool:
    """Whether the nearest enclosing agglomerate span is a completed l2
    radius-linkage run (a run that raised carries no notes)."""
    while idx >= 0 and spans[idx].name != "engine.agglomerate":
        idx = spans[idx].parent
    return idx >= 0 and spans[idx].notes.get("welzl_run", False)


def combine(setup: Counter, passes: list[Counter]) -> Counter:
    """Set-up totals plus the per-key median over the traced passes."""
    keys = set(setup).union(*passes)
    return Counter({
        k: setup.get(k, 0) + statistics.median(p.get(k, 0) for p in passes) for k in keys
    })


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (name, unit, better, value from combined sums); the order is the order of
# BENCHMARK.json.  Per-layer values are set-up plus one median traced pass.
PER_LAYER: list[tuple[str, str, str, Callable[[Counter], float]]] = [
    ("metrics.powered_matrix.calls", "count", "lower", lambda c: c["calls:metrics.powered_matrix"]),
    ("metrics.powered_matrix.s", "s", "lower", lambda c: c["total:metrics.powered_matrix"]),
    ("metrics.powered_matrix.bytes_computed", "B", "lower", lambda c: c["powered_bytes"]),
    ("metrics.radius.calls", "count", "lower", lambda c: c["calls:metrics.radius"]),
    ("metrics.radius.s", "s", "lower", lambda c: c["total:metrics.radius"]),
    ("metrics.radius.failed", "count", "lower", lambda c: c["radius_failed"]),
    ("metrics.radius.approximate", "count", "lower", lambda c: c["radius_approximate"]),
    ("metrics.cluster_cost.s", "s", "lower", lambda c: c["total:metrics.cluster_cost"]),
    ("engine.agglomerate.calls", "count", "lower", lambda c: c["calls:engine.agglomerate"]),
    ("engine.agglomerate.s", "s", "lower", lambda c: c["total:engine.agglomerate"]),
    ("engine.agglomerate.self_s", "s", "lower", lambda c: c["self:engine.agglomerate"]),
    ("engine.merges", "count", "higher", lambda c: c["merges"]),
    ("engine.radius_calls_per_merge", "calls/merge", "lower",
     lambda c: _ratio(c["welzl_run_radius_calls"], c["welzl_run_merges"])),
    ("engine.nn_chain.s", "s", "lower", lambda c: c["total:engine.nn_chain"]),
    ("engine.nn_chain.self_s", "s", "lower", lambda c: c["self:engine.nn_chain"]),
    ("engine.tie_margin.s", "s", "lower", lambda c: c["total:engine.tie_margin"]),
    ("engine.check_invariants.s", "s", "lower", lambda c: c["total:engine.check_invariants"]),
    ("engine.clusters_at_k.s", "s", "lower", lambda c: c["total:engine.clusters_at_k"]),
    ("oracles.partition_enum.calls", "count", "lower", lambda c: c["calls:oracles.partition_enum"]),
    ("oracles.partition_enum.s", "s", "lower", lambda c: c["total:oracles.partition_enum"]),
    ("oracles.partition_enum.self_s", "s", "lower", lambda c: c["self:oracles.partition_enum"]),
    ("oracles.center_enum.s", "s", "lower", lambda c: c["total:oracles.center_enum"]),
    ("oracles.diameter_1d.s", "s", "lower", lambda c: c["total:oracles.diameter_1d"]),
    ("oracles.min_pairwise_distance.s", "s", "lower",
     lambda c: c["total:oracles.min_pairwise_distance"]),
    ("forge.gen_random.calls", "count", "lower", lambda c: c["calls:forge.gen_random"]),
    ("forge.gen_random.s", "s", "lower", lambda c: c["total:forge.gen_random"]),
    *[(f"harness.suite.{name}.s", "s", "lower", lambda c, name=name: c[f"suite:{name}"])
      for name in SUITES],
    ("harness.evaluate.calls", "count", "lower", lambda c: c["calls:harness.evaluate"]),
    ("harness.evaluate.self_s", "s", "lower", lambda c: c["self:harness.evaluate"]),
    ("harness.grid_search.s", "s", "lower", lambda c: c["total:harness.grid_search"]),
    *[(f"{layer}.self_s", "s", "lower", lambda c, layer=layer: c[f"layer_self:{layer}"])
      for layer in LAYERS],
]


def per_layer(setup: list[Span], passes: list[list[Span]]) -> dict[str, float]:
    combined = combine(raw_sums(setup), [raw_sums(p) for p in passes])
    return {name: float(fn(combined)) for name, _unit, _better, fn in PER_LAYER}


UNITS = {name: unit for name, unit, _better, _fn in PER_LAYER}
