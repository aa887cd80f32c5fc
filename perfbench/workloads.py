"""The benchmark's workloads: instances, timed operations and output checks.

Every instance comes from ``forge.gen_random`` with a seed derived from the
benchmark seed, except the lp slice of ``greedy-scale``, which is pinned to
instance seeds 100-103: it is the regression fixture for the radius runs
that raise ``SolverError`` under lp1.5 and lp3, and re-seeding it would
change which runs fail.

An operation is one timed call into the program.  Its check runs after the
timed loop, on the operation's first successful output; every later output
of the same operation must equal that one (``Op.key`` drops the fields that
legitimately vary between passes, such as measured times in reports).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from agglolab import engine, forge, harness, metrics, oracles
from agglolab.metrics import L2, LINF, Norm, Problem

LP_SEEDS = (100, 101, 102, 103)
LP_NORMS = (Norm(1.0), Norm(1.5), Norm(3.0))
LEVELS = (1, 2, 4, 8, 16)


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass(frozen=True)
class Op:
    """One timed call.

    ``run`` receives the outputs of the operations that ran before it in the
    same pass, keyed by label; ``check`` receives the output and that same
    mapping and raises :class:`CheckFailed`.
    """

    slice: str
    label: str
    run: Callable[[dict[str, Any]], Any]
    check: Callable[[Any, dict[str, Any]], None]
    key: Callable[[Any], Any] = lambda out: out


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    # slices whose times add up to the gated pass time; the others are
    # reported but not gated
    gated: tuple[str, ...]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _uniform(n: int, d: int, norm: Norm, seed: int) -> metrics.Instance:
    return forge.gen_random("uniform_cube", n=n, d=d, norm=norm, seed=seed)


# ---------------------------------------------------------------------------
# checks shared by several operations


def _deep_invariants(hist: engine.MergeHistory) -> None:
    try:
        hist.check_invariants(deep=True)
    except ValueError as exc:
        raise CheckFailed(f"check_invariants(deep=True): {exc}") from None


def _tied(a: float, b: float) -> bool:
    """Equal within the engine's tie band, the program's own notion of equal
    costs (``MergeHistory.check_invariants`` allows a dip of one band)."""
    return abs(a - b) <= max(engine.TIE_REL_TOL * max(abs(a), abs(b)), engine.TIE_ABS_TOL)


def _level_costs(hist: engine.MergeHistory) -> None:
    """cost_at_k equals the recomputed largest cluster cost at the level, up
    to the tie band: the last merge's cost may sit one band below an earlier
    merge's."""
    for k in LEVELS:
        if k > hist.n:
            continue
        recomputed = max(
            metrics.cluster_cost(hist.linkage, c, hist.instance) for c in hist.clusters_at_k(k)
        )
        _require(_tied(hist.cost_at_k(k), recomputed),
                 f"k={k}: cost_at_k {hist.cost_at_k(k)!r} != recomputed {recomputed!r}")


def _history_check(hist: engine.MergeHistory, _prev: dict) -> None:
    _deep_invariants(hist)
    _level_costs(hist)


def _witness(res: oracles.OracleResult, inst: metrics.Instance) -> None:
    """The witness partition is a k-partition that recosts to opt_cost."""
    members = sorted(i for c in res.partition for i in c.members)
    _require(len(res.partition) == res.k and members == list(range(len(inst))),
             f"witness is not a {res.k}-partition of the points")
    recost = max(metrics.cluster_cost(res.problem, c, inst) for c in res.partition)
    # Diameter and discrete radius are maxima and minima of stored distances,
    # so they recost bit for bit.  Partition enumeration reports the radius
    # optimum as the running maximum of radii computed while blocks grew, and
    # the ball solver's rounding can put that an ulp above the final blocks'
    # radii (seed 5, n=14), so radius witnesses compare within the tie band.
    same = _tied(recost, res.opt_cost) if res.problem is Problem.RADIUS else recost == res.opt_cost
    _require(same, f"witness recosts to {recost!r}, opt_cost {res.opt_cost!r}")


# ---------------------------------------------------------------------------
# verify-suites


def _suite_key(res: harness.SuiteResult) -> tuple:
    return (
        res.passed,
        tuple((c.name, c.passed) for c in res.checks),
        tuple(replace(r, ms=0.0) for r in res.reports),
    )


# How much work the suites do depends on the seed (rejection sampling,
# branch and bound), by about 10 % of a pass between seeds; a pass runs them
# at two seeds derived from the benchmark seed so that this shows less in
# the spread between runs at different seeds.
SUITE_SEED_OFFSETS = (0, 10_000)


def verify_suites(seed: int, report_dir: Path) -> Workload:
    def suite_op(name: str, seed: int) -> Op:
        json_path = report_dir / f"{name}-seed{seed}.json"
        csv_path = report_dir / f"{name}-seed{seed}.csv"

        def check(res: harness.SuiteResult, _prev: dict) -> None:
            failing = [c.name for c in res.checks if not c.passed]
            _require(res.passed and not failing, f"suite {name} failed checks {failing}")
            report = json.loads(json_path.read_text())
            _require(report["suite"] == name and report["passed"] is True,
                     f"JSON report of {name} does not record a pass")
            header = csv_path.read_text().splitlines()[0]
            _require(header == harness.CSV_HEADER, f"CSV report of {name} has header {header!r}")

        return Op(
            slice="suites", label=f"{name} seed={seed}",
            run=lambda _prev: harness.verify_suite(
                name, seed, report_json=json_path, report_csv=csv_path),
            check=check, key=_suite_key,
        )

    # warm-up: lazy scipy.optimize import and the evaluate path
    harness.grid_search_enclosing_radius([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], L2)
    tiny = _uniform(6, 2, L2, seed)
    for problem in Problem:
        harness.evaluate(tiny, problem, 2)
    ops = tuple(suite_op(name, seed + offset)
                for offset in SUITE_SEED_OFFSETS for name in harness.SUITE_NAMES)
    return Workload("verify-suites", ops, ("suites",))


# ---------------------------------------------------------------------------
# greedy-scale


def greedy_scale(seed: int) -> Workload:
    base = 100 * seed
    i512 = _uniform(512, 2, L2, base + 1)
    i2048 = _uniform(2048, 2, L2, base + 2)
    i128 = _uniform(128, 2, L2, base + 3)
    i64 = _uniform(64, 2, L2, base + 4)
    i128inf = _uniform(128, 2, LINF, base + 5)
    free_label = "diameter n=512"

    def check_free(hist, _prev):
        _deep_invariants(hist)
        chain = engine.agglomerate_nn_chain(i512)
        _require(hist.steps == chain.steps, "naive diameter steps differ from the NN-chain steps")

    def replay(prev):
        script = engine.MergeScript(tuple((s.id_a, s.id_b) for s in prev[free_label].steps))
        return engine.agglomerate(i512, Problem.DIAMETER, script=script)

    def check_replay(hist, prev):
        _deep_invariants(hist)
        _require(hist.steps == prev[free_label].steps, "scripted replay differs from the free run")

    def check_chain(hist, _prev):
        from scipy.cluster.hierarchy import linkage
        from scipy.spatial.distance import squareform

        _deep_invariants(hist)
        condensed = squareform(metrics.powered_matrix(i2048), checks=False)
        heights = np.sqrt(linkage(condensed, method="complete")[:, 2])
        _require(sorted(s.cost for s in hist.steps) == sorted(heights.tolist()),
                 "NN-chain merge costs differ from scipy complete linkage")

    ops = [
        Op("greedy.diameter", free_label,
           lambda _prev: engine.agglomerate(i512, Problem.DIAMETER), check_free),
        Op("greedy.scripted", "diameter n=512 replayed as its script", replay, check_replay),
        Op("greedy.nn-chain", "nn-chain n=2048",
           lambda _prev: engine.agglomerate_nn_chain(i2048), check_chain),
        Op("greedy.discrete-radius", "discrete-radius n=128",
           lambda _prev: engine.agglomerate(i128, Problem.DISCRETE_RADIUS), _history_check),
        Op("greedy.radius", "radius l2 n=64",
           lambda _prev: engine.agglomerate(i64, Problem.RADIUS), _history_check),
        Op("greedy.radius-linf", "radius linf n=128",
           lambda _prev: engine.agglomerate(i128inf, Problem.RADIUS), _history_check),
    ]
    for norm in LP_NORMS:
        for s in LP_SEEDS:
            inst = _uniform(12, 2, norm, s)
            ops.append(Op("greedy.radius-lp", f"radius {norm.label} n=12 seed={s}",
                          lambda _prev, inst=inst: engine.agglomerate(inst, Problem.RADIUS),
                          _history_check))

    # warm-up: every linkage once, and the lazy scipy.optimize import of the
    # general-p ball solver
    tiny = _uniform(6, 2, L2, base)
    for problem in Problem:
        engine.agglomerate(tiny, problem)
    engine.agglomerate_nn_chain(tiny)
    tri = metrics.Instance.from_points("warm-up", [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], Norm(1.5))
    metrics.radius(range(3), tri)
    gated = ("greedy.diameter", "greedy.scripted", "greedy.nn-chain",
             "greedy.discrete-radius", "greedy.radius", "greedy.radius-linf")
    return Workload("greedy-scale", tuple(ops), gated)


# ---------------------------------------------------------------------------
# oracle-grid


def oracle_grid(seed: int) -> Workload:
    base = 100 * seed
    i12 = _uniform(12, 2, L2, base + 11)
    i14 = _uniform(14, 2, L2, base + 12)
    i60 = _uniform(60, 2, L2, base + 13)
    i800 = _uniform(800, 1, L2, base + 14)
    line12 = _uniform(12, 1, L2, base + 15)
    sample = forge.gen_random("coverable", n=2000, d=2, norm=L2, seed=base + 16, k=4, r=1.0)
    k = 4

    def enum_op(inst: metrics.Instance, problem: Problem) -> Op:
        return Op("oracle.partition-enum", f"partition-enum {problem.value} n={len(inst)} k={k}",
                  lambda _prev: oracles.optimal_by_partition_enum(inst, k, problem),
                  lambda res, _prev: _witness(res, inst))

    def check_chain_and_centers(res, prev):
        _witness(res, i12)
        rad, diam = (prev[f"partition-enum {p.value} n=12 k={k}"].opt_cost
                     for p in (Problem.RADIUS, Problem.DIAMETER))
        drad = res.opt_cost
        slack = 1e-9 * max(diam, 1.0)  # the optimum-cost-chain tolerance of oracle-crosscheck
        _require(rad <= drad + slack and drad <= diam + slack and diam <= 2.0 * rad + slack,
                 f"rad={rad!r} drad={drad!r} diam={diam!r} break rad <= drad <= diam <= 2 rad")
        centers = oracles.optimal_discrete_kcenter(i12, k).opt_cost
        _require(centers == drad, f"center enumeration {centers!r} != partition enumeration {drad!r}")

    def check_dp(res, _prev):
        _witness(res, i800)
        dp = oracles.optimal_diameter_1d(line12, k).opt_cost
        enum = oracles.optimal_by_partition_enum(line12, k, Problem.DIAMETER).opt_cost
        _require(dp == enum, f"1-d DP {dp!r} != partition enumeration {enum!r} at n=12")

    def check_packing(res, _prev):
        _require(res.holds, f"packing bound fails: {res.min_pair_dist!r} > {res.bound!r}")

    ops = (
        enum_op(i12, Problem.DIAMETER),
        enum_op(i12, Problem.RADIUS),
        replace(enum_op(i12, Problem.DISCRETE_RADIUS), check=check_chain_and_centers),
        enum_op(i14, Problem.DIAMETER),
        enum_op(i14, Problem.RADIUS),
        Op("oracle.center-enum", f"center-enum n=60 k={k}",
           lambda _prev: oracles.optimal_discrete_kcenter(i60, k),
           lambda res, _prev: _witness(res, i60)),
        Op("oracle.diameter-1d", "diameter-1d n=800 k=8",
           lambda _prev: oracles.optimal_diameter_1d(i800, 8), check_dp),
        Op("oracle.packing", "packing m=2000 d=2 k=4 r=1",
           lambda _prev: oracles.volume_lemma_check(sample, 2), check_packing),
    )

    # warm-up: each oracle once on a tiny input
    tiny = _uniform(6, 2, L2, base)
    for problem in Problem:
        oracles.optimal_by_partition_enum(tiny, 2, problem)
    oracles.optimal_discrete_kcenter(tiny, 2)
    oracles.optimal_diameter_1d(_uniform(6, 1, L2, base), 2)
    oracles.volume_lemma_check(
        forge.gen_random("coverable", n=10, d=2, norm=L2, seed=base, k=2, r=1.0), 2)
    # branch-and-bound time depends mostly on the instance (discrete radius
    # at (12, 4) takes 0.3-2.8 s over seeds 1-10), so partition enumeration
    # is reported but kept out of the gated pass time
    gated = ("oracle.center-enum", "oracle.diameter-1d", "oracle.packing")
    return Workload("oracle-grid", ops, gated)


def build(name: str, seed: int, report_dir: Path) -> Workload:
    """Generate the inputs of workload ``name`` and run its warm-up calls."""
    if name == "verify-suites":
        return verify_suites(seed, report_dir)
    if name == "greedy-scale":
        return greedy_scale(seed)
    if name == "oracle-grid":
        return oracle_grid(seed)
    raise ValueError(f"unknown workload {name!r}")
