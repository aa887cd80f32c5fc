"""Run algorithms against oracles, evaluate guarantee formulas, emit reports.

``evaluate`` composes one (instance, problem, k) run: greedy algorithm,
best applicable exact oracle (or a supplied optimum upper bound), ratio and
guarantee check, all folded into a :class:`RatioReport` row.

``verify_suite`` runs one of the named acceptance blocks:

* ``paper-lower-bounds``  -- the four adversarial constructions reproduce
                             their claimed costs, optima and ratios.
* ``upper-bound-sweep``   -- random instances stay within the guarantee
                             factors against exact optima; one-dimensional
                             complete-linkage ratios stay below 3.
* ``volume-lemma``        -- the packing bound holds on 200 coverable draws.
* ``oracle-crosscheck``   -- independent oracles agree with each other.
* ``engine-equivalence``  -- the nearest-neighbor-chain fast path replays
                             the naive greedy loop exactly.

A suite returns only its checks and report rows; ``verify_suite`` names them
in a :class:`SuiteResult`, whose verdict ``passed`` holds when every check does.

Report rows are sorted by (name, k, problem) before emission, so files are
stable for fixed inputs and seeds (the runtime column is measured wall time
and is the one field that varies between runs).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .bounds import bound_value, render_bound
from .engine import (
    MergeHistory,
    MergeScript,
    _greedy,
    agglomerate,
    agglomerate_nn_chain,
    greedy_tie_margin,  # not called here; perfbench traces it under this module name
    tie_width,
)
from .forge import (
    GeneratedCase,
    gen_hypercube_l1,
    gen_l2_3d,
    gen_line_1d,
    gen_linf_2d,
    gen_random,
    hypercube_reference_clusters,
)
from .metrics import (
    Instance,
    L2,
    LINF,
    Norm,
    Problem,
    _epigraph_center,
    _has_infinite_pair,
    cluster_cost,
    diameter,
    distance,
    radius,
)
from .oracles import (
    best_oracle,
    optimal_by_partition_enum,
    optimal_diameter_1d,
    optimal_discrete_kcenter,
    volume_lemma_check,
)

__all__ = [
    "RatioReport", "CheckResult", "SuiteResult",
    "evaluate", "evaluate_case", "verify_suite",
    "grid_search_enclosing_radius",
    "write_csv", "write_json_report",
    "SUITE_NAMES",
]

CSV_HEADER = "name,problem,norm,n,d,k,algo_cost,opt_cost,opt_kind,ratio,bound,passed,ms"


@dataclass(frozen=True)
class RatioReport:
    name: str
    problem: Problem
    norm: str
    n: int
    d: int
    k: int
    algo_cost: float
    opt_cost: float
    opt_kind: str  # "exact" | "upper-bound"
    ratio: float
    bound: float
    bound_satisfied: bool
    ms: float

    def csv_row(self) -> str:
        return ",".join([
            self.name,
            self.problem.value,
            self.norm,
            str(self.n),
            str(self.d),
            str(self.k),
            f"{self.algo_cost:.12g}",
            f"{self.opt_cost:.12g}",
            self.opt_kind,
            f"{self.ratio:.12g}",
            render_bound(self.bound),
            "true" if self.bound_satisfied else "false",
            f"{self.ms:.3f}",
        ])


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    checks: tuple[CheckResult, ...]
    reports: tuple[RatioReport, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def evaluate(
    inst: Instance,
    problem: Problem,
    k: int,
    script: MergeScript | None = None,
    opt_hint: float | None = None,
) -> RatioReport:
    """Run the greedy algorithm at level k and compare with the optimum.

    The optimum comes from the best applicable exact oracle, and only then is
    the row's ``opt_kind`` "exact".  Failing that, ``opt_hint`` stands in as
    an upper bound on the optimum, so the reported ratio is a certified lower
    bound on the true ratio.  With neither oracle nor hint the algorithm's own
    cost stands in as a (vacuous) optimum upper bound.
    """
    t0 = time.perf_counter()
    hist = agglomerate(inst, problem, script=script, stop_at_k=k)
    hist.check_invariants()
    algo = hist.cost_at_k(k)
    oracle = best_oracle(inst, problem, k, upper_bound=algo)
    if oracle is not None:
        opt, kind = oracle.opt_cost, "exact"
    elif opt_hint is not None:
        opt, kind = float(opt_hint), "upper-bound"
    else:
        opt, kind = algo, "upper-bound"
    if algo == opt:  # 0 / 0 and inf / inf included
        ratio = 1.0
    elif opt == 0.0:
        ratio = math.inf
    else:
        ratio = algo / opt
    bound = bound_value(problem, k, inst.dim, "at-k")
    ms = (time.perf_counter() - t0) * 1000.0
    return RatioReport(
        name=inst.name,
        problem=problem,
        norm=inst.norm.label,
        n=len(inst.points),
        d=inst.dim,
        k=k,
        algo_cost=algo,
        opt_cost=opt,
        opt_kind=kind,
        ratio=ratio,
        bound=bound,
        bound_satisfied=bool(ratio <= bound),
        ms=ms,
    )


def evaluate_case(case: GeneratedCase) -> RatioReport:
    """Evaluate a generated case with its script, its optimum as the hint."""
    if case.expected is None:
        raise ValueError("case carries no expected outcome; call evaluate() directly")
    exp = case.expected
    return evaluate(
        case.instance,
        exp.problem,
        exp.k,
        script=case.script,
        opt_hint=exp.opt_cost,
    )


# ---------------------------------------------------------------------------
# independent enclosing-ball oracle (grid refinement)


_GRID_TOL = 1e-7  # the value error the lattice rounds push below


@np.errstate(over="ignore")
def grid_search_enclosing_radius(points: Sequence[Sequence[float]], norm: Norm = L2) -> float:
    """Enclosing-ball radius by iteratively refined center grid search.

    Independent of the incremental/analytic solvers: evaluates
    ``max_x ||x - c||`` on a lattice of candidate centers and shrinks the
    search box to the lattice points within one Lipschitz slack of the best
    value seen.  Because the objective is convex and 1-Lipschitz in its own
    norm, that sublevel box always contains the true center, even along
    nearly flat valley directions (two-point support balls), where the box
    shrinks only like the square root of the slack; later rounds raise the
    per-axis resolution to push the value error below ``_GRID_TOL``.  For
    1 <= p < inf the general-p ball's SLSQP step
    (:func:`~agglolab.metrics._epigraph_center`), from the best lattice
    center in coordinates scaled by its value, polishes that center, and its
    value is taken when it is lower; under l-inf the box midpoint is an
    exact center.  Every value is recomputed as a largest distance from some
    center, so the result never lies below the true radius.

    The lattice is the product of d ``linspace`` axes, so a lattice point's
    j-th powered term depends only on its j-th axis value: each round
    tabulates the terms once per axis, a (points x axis values) table.  The
    lattice is then evaluated one point at a time: a point's d terms are
    added left to right (under l-inf, their maximum is taken), each partial
    result broadcast over one more axis, a running maximum is kept over the
    points, and the p-th root is taken once, after the maximum.  So the
    memory is a few arrays of one value per lattice point, plus the tables,
    whatever the number of points; nothing holds one value per point and
    lattice point.  The result is infinite, at once, when some pairwise
    distance overflows (as :func:`~agglolab.metrics.powered_distance` gives
    it), except in one dimension, where every lp distance is ``|x - y|``:
    there such an overflow switches the lattice to l-inf, and the result is
    infinite only when the span overflows, as in
    :func:`~agglolab.metrics.radius`.
    """
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    bad = ~np.isfinite(arr).all(axis=1)
    if bad.any():
        raise ValueError(f"point {int(bad.argmax())} has a non-finite coordinate")
    d = arr.shape[1]
    if _has_infinite_pair(arr, norm):
        # in one dimension every lp distance is |x - y|: the value is
        # infinite only when the span is
        if d > 1 or _has_infinite_pair(arr, LINF):
            return math.inf
        norm = LINF
    lo = arr.min(axis=0).astype(float)
    hi = arr.max(axis=0).astype(float)
    p = norm.p

    def terms(c: np.ndarray, x) -> np.ndarray:
        # |c - x|^p elementwise (|c - x| for p = 1, inf)
        t = c - x
        if p == 2.0:
            return np.multiply(t, t, out=t)
        np.abs(t, out=t)
        return np.power(t, p, out=t) if 1.0 < p < math.inf else t

    def root(powered: np.ndarray) -> np.ndarray:
        # numpy's array ``**`` (its 0.5 is ``sqrt``), also for one value:
        # numpy's scalar ``**`` is the C library's ``pow``, and the two
        # differ in the last bit on about 5 % of inputs
        return powered ** (1.0 / p) if 1.0 < p < math.inf else powered

    combine = np.maximum if math.isinf(p) else np.add

    def worst(tables: list[np.ndarray]) -> np.ndarray:
        # largest distance from each lattice point, given the per-axis term
        # tables: a point's terms are combined left to right, each partial
        # result broadcast over one more axis of the lattice
        shape = tuple(t.shape[1] for t in tables)
        bufs = [np.empty(shape[:j + 1]) for j in range(1, d)]
        top = np.full(shape, -math.inf)
        for i in range(len(arr)):
            acc = tables[0][i]
            for t, buf in zip(tables[1:], bufs):
                acc = combine(acc[..., None], t[i], out=buf)
            np.maximum(top, acc, out=top)
        return root(top)

    def worst_at(center: np.ndarray) -> float:
        # the same value at one center: the row sums add fewer than eight
        # terms left to right, as the grid does
        t = terms(arr, center)
        if math.isinf(p):
            return float(t.max())
        return float(root(t.sum(axis=1).max(keepdims=True))[0])

    mid = (lo + hi) / 2.0
    best = worst_at(mid)
    best_center = mid.copy()
    zero = (0.0,) * d
    for resolution in [14] * 8 + [40] * 4:
        width = hi - lo
        # a subnormal width can divide to 0
        ref = float(width.max()) / resolution
        if ref <= 0.0:
            break
        counts = [int(min(81, max(4, math.ceil(w / ref)))) + 1 for w in width]
        axes = [np.linspace(lo[i], hi[i], counts[i]) for i in range(d)]
        # a lattice point's j-th term depends only on its j-th axis value
        vals = worst([terms(axis[None, :], arr[:, j, None]) for j, axis in enumerate(axes)])
        idx = np.unravel_index(int(vals.argmin()), vals.shape)
        if float(vals[idx]) < best:
            best = float(vals[idx])
            best_center = np.array([axis[i] for axis, i in zip(axes, idx)])
        cell = np.array([axes[i][1] - axes[i][0] if counts[i] > 1 else 0.0 for i in range(d)])
        slack = distance(tuple(cell / 2.0), zero, norm)
        # tiny inflation keeps boundary-equal grid values selected despite
        # rounding; a larger selection stays certified
        keep = vals <= best + slack * (1.0 + 1e-9) + 1e-15
        keep[idx] = True  # the only one kept when an earlier round did better
        kept = [axis[keep.any(axis=tuple(a for a in range(d) if a != j))]
                for j, axis in enumerate(axes)]
        lo = np.maximum(lo, np.array([k.min() for k in kept]) - cell)
        hi = np.minimum(hi, np.array([k.max() for k in kept]) + cell)
        if slack <= _GRID_TOL / 2.0:
            break

    # The box shrink stalls along nearly flat valley directions (balls
    # supported by few points), so polish the best grid center, in
    # coordinates centred on it and scaled by its value (under l1 the
    # gradient is the sign; under l-inf the box midpoint, evaluated first,
    # is exact).  A lower recomputed value is always safe to take: it is the
    # largest distance from some center, so it never lies below the radius.
    if p < math.inf and best > 0.0:
        step = _epigraph_center((arr - best_center) / best, p, np.zeros(d), 1e-15)
        polished = worst_at(best_center + best * step)
        if polished < best:  # False for a nan
            best = polished
    return best


# ---------------------------------------------------------------------------
# suites


_SuiteRun = tuple[list[CheckResult], list[RatioReport]]  # a suite's checks and rows


def _check(checks: list[CheckResult], name: str, passed: bool, detail: str) -> None:
    checks.append(CheckResult(name=name, passed=bool(passed), detail=detail))


def _recomputed_level_cost(hist: MergeHistory, level: int) -> float:
    """Recompute the level cost from scratch: max cluster cost at the level."""
    clusters = hist.clusters_at_k(level)
    return max(cluster_cost(hist.linkage, c, hist.instance) for c in clusters)


def _suite_paper_lower_bounds(seed: int) -> _SuiteRun:
    checks: list[CheckResult] = []
    reports: list[RatioReport] = []

    # four collinear groups, swept over the size parameter
    ratios = []
    for n_param in (2, 3, 4, 5):
        t0 = time.perf_counter()
        case = gen_line_1d(n_param)
        exp = case.expected
        hist = agglomerate(case.instance, Problem.DIAMETER, script=case.script, stop_at_k=4)
        hist.check_invariants(deep=True)
        algo = hist.cost_at_k(4)
        rep = evaluate_case(case)  # its optimum comes from best_oracle
        opt = rep.opt_cost
        elapsed = time.perf_counter() - t0
        ok = (algo == exp.algo_cost and opt == exp.opt_cost and elapsed < 1.0)
        _check(checks, f"line1d-n{n_param}", ok,
               f"algo={algo:g} (want {exp.algo_cost:g}) opt={opt:g} "
               f"(want {exp.opt_cost:g}) in {elapsed * 1000:.0f} ms")
        ratios.append(algo / opt)
        reports.append(rep)
    monotone = all(a < b for a, b in zip(ratios, ratios[1:]))
    below = all(r < 2.5 for r in ratios)
    _check(checks, "line1d-ratios", monotone and below,
           "ratios " + ", ".join(f"{r:.6f}" for r in ratios) + " increase toward 2.5")

    t0 = time.perf_counter()
    case = gen_linf_2d()
    rep = evaluate_case(case)
    elapsed = time.perf_counter() - t0
    ok = rep.algo_cost == 3.0 and rep.opt_cost == 1.0 and rep.opt_kind == "exact" and elapsed < 0.1
    _check(checks, "linf2d", ok,
           f"algo={rep.algo_cost:g} opt={rep.opt_cost:g} ratio={rep.ratio:g} "
           f"in {elapsed * 1000:.1f} ms")
    reports.append(rep)

    t0 = time.perf_counter()
    case = gen_l2_3d(1.56)
    rep = evaluate_case(case)
    quad = diameter((0, 1, 2, 3), case.instance)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(rep.algo_cost - 5.12) <= 1e-9
        and abs(rep.opt_cost - 2.0) <= 1e-9
        and rep.opt_kind == "exact"
        and abs(rep.ratio - 2.56) <= 1e-9
        and abs(quad - 2.0 * math.sqrt(3.56)) <= 1e-9
        and elapsed < 1.0
    )
    _check(checks, "l2-3d-x1.56", ok,
           f"algo={rep.algo_cost:.10g} opt={rep.opt_cost:.10g} ratio={rep.ratio:.10g} "
           f"quad-diam={quad:.10g} in {elapsed * 1000:.0f} ms")
    reports.append(rep)

    t0 = time.perf_counter()
    case = gen_hypercube_l1(8)
    inst = case.instance
    hist_diam = agglomerate(inst, Problem.DIAMETER, script=case.script, stop_at_k=8)
    hist_diam.check_invariants(deep=True)
    hist_drad = agglomerate(inst, Problem.DISCRETE_RADIUS, script=case.script, stop_at_k=8)
    hist_drad.check_invariants(deep=True)
    levels_equal = all(
        hist_diam.cost_at_k(k) == hist_drad.cost_at_k(k)
        for k in range(8, len(inst.points) + 1)
    )
    ref_cost = max(diameter(c, inst) for c in hypercube_reference_clusters(8))
    sqrt_inst = replace(inst, name=inst.name + "-p2", norm=L2)
    hist_p2 = agglomerate(sqrt_inst, Problem.DIAMETER, script=case.script, stop_at_k=8)
    elapsed = time.perf_counter() - t0
    rep = evaluate_case(case)
    ok = (
        hist_diam.cost_at_k(8) == 3.0
        and hist_drad.cost_at_k(8) == 3.0
        and levels_equal
        and ref_cost == 2.0
        and rep.ratio >= 1.5
        and abs(hist_p2.cost_at_k(8) - math.sqrt(3.0)) <= 1e-9
        and elapsed < 5.0
    )
    _check(checks, "hypercube-l1-k8", ok,
           f"diam@8={hist_diam.cost_at_k(8):g} drad@8={hist_drad.cost_at_k(8):g} "
           f"levels-equal={levels_equal} ref={ref_cost:g} ratio>={rep.ratio:g} "
           f"sqrt-run@8={hist_p2.cost_at_k(8):.10g} in {elapsed * 1000:.0f} ms")
    reports.append(rep)

    return checks, reports


def _suite_upper_bound_sweep(seed: int) -> _SuiteRun:
    checks: list[CheckResult] = []
    reports: list[RatioReport] = []
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    violations = []
    max_ratio = 0.0
    max_ratio_1d_diam = 0.0
    count_1d_diam = 0
    for i in range(100):
        n = int(rng.integers(5, 13))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(2, 5))
        norm = L2 if i % 2 == 0 else LINF
        family = "uniform_cube" if i % 3 else "gaussian_blobs"
        inst = gen_random(family, n=n, d=d, norm=norm, seed=seed + i)
        for problem in (Problem.DIAMETER, Problem.DISCRETE_RADIUS, Problem.RADIUS):
            rep = evaluate(inst, problem, k)
            reports.append(rep)
            if rep.opt_kind != "exact":
                violations.append(f"{rep.name}/{problem.value}: no exact oracle")
                continue
            if rep.algo_cost < rep.opt_cost - tie_width(rep.opt_cost):
                violations.append(f"{rep.name}/{problem.value}: algo {rep.algo_cost!r} "
                                  f"below opt {rep.opt_cost!r}")
            if not rep.bound_satisfied:
                violations.append(f"{rep.name}/{problem.value}: ratio {rep.ratio:g} "
                                  f"exceeds bound {rep.bound:g}")
            max_ratio = max(max_ratio, rep.ratio)
            if d == 1 and problem is Problem.DIAMETER:
                count_1d_diam += 1
                max_ratio_1d_diam = max(max_ratio_1d_diam, rep.ratio)
    elapsed = time.perf_counter() - t0
    _check(checks, "sweep-bounds", not violations,
           f"300 evaluations, max ratio {max_ratio:.6f}; " +
           ("; ".join(violations[:5]) if violations else "all within guarantees"))
    _check(checks, "sweep-1d-diameter-below-3",
           count_1d_diam > 0 and max_ratio_1d_diam < 3.0,
           f"{count_1d_diam} one-dimensional complete-linkage runs, "
           f"max ratio {max_ratio_1d_diam:.6f}")
    _check(checks, "sweep-runtime", elapsed < 60.0, f"{elapsed:.1f} s (budget 60 s)")
    return checks, reports


def _suite_volume_lemma(seed: int) -> _SuiteRun:
    checks: list[CheckResult] = []
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    norms = (L2, LINF, Norm(1.0))
    held = 0
    total = 200
    failures = []
    for i in range(total):
        k = (1, 2, 5)[i % 3]
        d = (1, 2, 3)[(i // 3) % 3]
        norm = norms[i % len(norms)]
        m = int(rng.integers(k + 1, 201))
        r = float(rng.uniform(0.3, 3.0))
        sample = gen_random("coverable", n=m, d=d, norm=norm, seed=seed + 1000 + i, k=k, r=r)
        res = volume_lemma_check(sample, d)
        if res.holds:
            held += 1
        else:
            failures.append(
                f"draw {i}: delta={res.min_pair_dist:.6g} > bound={res.bound:.6g} "
                f"(k={k}, d={d}, |P|={m}, r={r:.3g})"
            )
    elapsed = time.perf_counter() - t0
    _check(checks, "volume-lemma-200", held == total,
           f"{held}/{total} draws satisfied the packing bound" +
           (f"; first failure: {failures[0]}" if failures else ""))
    _check(checks, "volume-lemma-runtime", elapsed < 5.0, f"{elapsed:.2f} s (budget 5 s)")
    return checks, []


def _suite_oracle_crosscheck(seed: int) -> _SuiteRun:
    checks: list[CheckResult] = []
    rng = np.random.default_rng(seed)

    mismatches = []
    for i in range(20):
        n = int(rng.integers(4, 13))
        k = int(rng.integers(2, min(5, n)))
        inst = gen_random("uniform_cube", n=n, d=1, norm=L2, seed=seed + 50 + i)
        dp = optimal_diameter_1d(inst, k)
        enum = optimal_by_partition_enum(inst, k, Problem.DIAMETER)
        if abs(dp.opt_cost - enum.opt_cost) > 1e-12:
            mismatches.append(f"{inst.name}: dp={dp.opt_cost!r} enum={enum.opt_cost!r}")
        witness_cost = max(diameter(c, inst) for c in dp.partition)
        if witness_cost != dp.opt_cost:
            mismatches.append(f"{inst.name}: witness recost {witness_cost!r}")
    _check(checks, "one-dim-dp-vs-enum", not mismatches,
           "20 instances agree" if not mismatches else "; ".join(mismatches[:3]))

    ball_gaps = []
    for i in range(20):
        n = int(rng.integers(3, 9))
        d = int(rng.integers(2, 4))
        inst = gen_random("uniform_cube", n=n, d=d, norm=L2, seed=seed + 150 + i)
        exact = radius(range(n), inst).radius
        grid = grid_search_enclosing_radius(inst.points, L2)
        ball_gaps.append(abs(exact - grid))
    worst_gap = max(ball_gaps)
    _check(checks, "enclosing-ball-vs-grid", worst_gap <= 1e-6,
           f"20 point sets, worst |incremental - grid| = {worst_gap:.3g}")

    chain_violations = []
    for i in range(15):
        n = int(rng.integers(4, 11))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(2, 4))
        norm = L2 if i % 2 == 0 else LINF
        inst = gen_random("uniform_cube", n=n, d=d, norm=norm, seed=seed + 300 + i)
        opt_rad = optimal_by_partition_enum(inst, k, Problem.RADIUS).opt_cost
        opt_drad = optimal_discrete_kcenter(inst, k).opt_cost
        opt_diam = optimal_by_partition_enum(inst, k, Problem.DIAMETER).opt_cost
        slack = 1e-9 * max(opt_diam, 1.0)
        if not (opt_rad <= opt_drad + slack
                and opt_drad <= opt_diam + slack
                and opt_diam <= 2.0 * opt_rad + slack):
            chain_violations.append(
                f"{inst.name} k={k}: rad={opt_rad:.6g} drad={opt_drad:.6g} diam={opt_diam:.6g}"
            )
    _check(checks, "optimum-cost-chain", not chain_violations,
           "rad <= drad <= diam <= 2 rad on 15 instances"
           if not chain_violations else "; ".join(chain_violations[:3]))

    return checks, []


def _suite_engine_equivalence(seed: int) -> _SuiteRun:
    checks: list[CheckResult] = []
    rng = np.random.default_rng(seed)
    qualified = 0
    skipped = 0
    mismatches = []
    attempts = 0
    while qualified < 50 and attempts < 500:
        attempts += 1
        n = int(rng.integers(8, 65))
        d = int(rng.integers(1, 4))
        inst = gen_random("uniform_cube", n=n, d=d, norm=L2, seed=seed + 7000 + attempts)
        # one naive run gives both the tie margin and the history
        margins: list[float] = []
        steps = _greedy(inst, Problem.DIAMETER, None, None, margins=margins)
        if min(margins, default=math.inf) <= 1e-7:
            skipped += 1
            continue
        qualified += 1
        naive = MergeHistory(instance=inst, linkage=Problem.DIAMETER, steps=tuple(steps))
        naive.check_invariants(deep=True)
        chain = agglomerate_nn_chain(inst)
        if naive.steps != chain.steps:
            diff = next(
                (t for t, (a, b) in enumerate(zip(naive.steps, chain.steps)) if a != b),
                min(len(naive.steps), len(chain.steps)),
            )
            mismatches.append(f"{inst.name}: first divergence at step {diff}")
    _check(checks, "nn-chain-vs-naive", qualified == 50 and not mismatches,
           f"{qualified} tie-free instances identical ({skipped} tied draws skipped)"
           if not mismatches else "; ".join(mismatches[:3]))

    # level-cost identity: the recorded level cost equals a fresh recomputation
    # of the most expensive cluster at that level
    ident_violations = []
    for i in range(10):
        n = int(rng.integers(5, 12))
        inst = gen_random("uniform_cube", n=n, d=2, norm=L2, seed=seed + 9000 + i)
        for problem in (Problem.DIAMETER, Problem.DISCRETE_RADIUS, Problem.RADIUS):
            hist = agglomerate(inst, problem)
            for k in range(1, n + 1):
                gap = abs(hist.cost_at_k(k) - _recomputed_level_cost(hist, k))
                if gap > 1e-12:
                    ident_violations.append(f"{inst.name}/{problem.value} k={k}: gap {gap:.3g}")
    _check(checks, "level-cost-identity", not ident_violations,
           "cost_at_k equals recomputed max cluster cost on 30 runs"
           if not ident_violations else "; ".join(ident_violations[:3]))

    return checks, []


_SUITES: dict[str, Callable[[int], _SuiteRun]] = {
    "paper-lower-bounds": _suite_paper_lower_bounds,
    "upper-bound-sweep": _suite_upper_bound_sweep,
    "volume-lemma": _suite_volume_lemma,
    "oracle-crosscheck": _suite_oracle_crosscheck,
    "engine-equivalence": _suite_engine_equivalence,
}

SUITE_NAMES = tuple(_SUITES)


def _sorted_reports(reports: Sequence[RatioReport]) -> list[RatioReport]:
    return sorted(reports, key=lambda r: (r.name, r.k, r.problem.value))


def verify_suite(
    suite: str,
    seed: int = 2026,
    report_json: str | Path | None = None,
    report_csv: str | Path | None = None,
) -> SuiteResult:
    """Run one named acceptance block; optionally write JSON/CSV reports."""
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITE_NAMES}")
    checks, reports = _SUITES[suite](seed)
    result = SuiteResult(suite, tuple(checks), tuple(_sorted_reports(reports)))
    if report_json is not None:
        write_json_report(result, report_json)
    if report_csv is not None:
        write_csv(result.reports, report_csv)
    return result


def write_csv(reports: Sequence[RatioReport], path: str | Path) -> None:
    lines = [CSV_HEADER]
    lines.extend(r.csv_row() for r in _sorted_reports(reports))
    Path(path).write_text("\n".join(lines) + "\n")


def write_json_report(result: SuiteResult, path: str | Path) -> None:
    data = {
        "suite": result.suite,
        "passed": result.passed,
        # every field, without the per-value deep copy of dataclasses.asdict
        "checks": [vars(c) for c in result.checks],
        "rows": [
            {**vars(r), "problem": r.problem.value,
             "bound": "astronomical" if math.isinf(r.bound) else r.bound}
            for r in _sorted_reports(result.reports)
        ],
    }
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
