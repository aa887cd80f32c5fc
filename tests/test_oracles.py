import gc
import math
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agglolab import (
    BallCover,
    CoverableSample,
    Instance,
    L1,
    L2,
    LINF,
    Problem,
    Norm,
    SizeLimitError,
    best_oracle,
    cluster_cost,
    diameter,
    discrete_radius,
    distance,
    min_pairwise_distance,
    optimal_by_partition_enum,
    optimal_diameter_1d,
    optimal_discrete_kcenter,
    radius,
    volume_lemma_check,
)
from agglolab.forge import gen_hypercube_l1, gen_l2_3d, gen_linf_2d, gen_line_1d, gen_random
from agglolab import oracles
from agglolab.harness import verify_suite
from agglolab.engine import tie_width
from agglolab.metrics import powered_matrix, powered_row_blocks, unpower, unpower_array


def _line(name, values):
    return Instance.from_points(name, [(float(v),) for v in values], L2)


def test_partition_enum_three_points():
    # all three 2-partitions of {0, 1, 10}: costs 1, 9, 10
    inst = _line("tiny", [0, 1, 10])
    res = optimal_by_partition_enum(inst, 2, Problem.DIAMETER)
    assert res.opt_cost == 1.0
    assert [c.members for c in res.partition] == [(0, 1), (2,)]
    assert res.method == "partition-enum"


def test_partition_enum_linf_instance():
    case = gen_linf_2d()
    res = optimal_by_partition_enum(case.instance, 4, Problem.DIAMETER)
    assert res.opt_cost == 1.0
    assert [c.members for c in res.partition] == [(0, 4), (1, 5), (2, 6), (3, 7)]


def test_partition_enum_euclidean_instance():
    case = gen_l2_3d(1.56)
    res = optimal_by_partition_enum(case.instance, 4, Problem.DIAMETER)
    assert res.opt_cost == pytest.approx(2.0, abs=1e-9)


def test_partition_enum_size_guard():
    inst = gen_random("uniform_cube", n=15, d=1, norm=L2, seed=1)
    with pytest.raises(SizeLimitError):
        optimal_by_partition_enum(inst, 3, Problem.DIAMETER)


def test_partition_enum_k_validation():
    inst = _line("abc", [0, 1, 2])
    with pytest.raises(ValueError):
        optimal_by_partition_enum(inst, 0, Problem.DIAMETER)
    with pytest.raises(ValueError):
        optimal_by_partition_enum(inst, 4, Problem.DIAMETER)


def test_partition_enum_upper_bound_hint_keeps_exactness():
    inst = gen_random("uniform_cube", n=9, d=2, norm=L2, seed=11)
    plain = optimal_by_partition_enum(inst, 3, Problem.DIAMETER)
    hinted = optimal_by_partition_enum(inst, 3, Problem.DIAMETER,
                                       upper_bound=plain.opt_cost)
    assert hinted.opt_cost == plain.opt_cost
    assert hinted.partition is not None


def test_partition_enum_over_tight_hint_returns_the_hint_free_optimum():
    # discrete radius prunes on a lower bound and costs exactly at leaves, so
    # leaves above an over-tight hint are reached; none may be the answer
    inst = gen_random("uniform_cube", n=9, d=2, norm=LINF, seed=3)
    for problem in Problem:
        plain = optimal_by_partition_enum(inst, 2, problem)
        for factor in (0.3, 0.7, 0.95):
            hinted = optimal_by_partition_enum(inst, 2, problem,
                                               upper_bound=factor * plain.opt_cost)
            assert hinted.opt_cost == plain.opt_cost
            assert hinted.partition == plain.partition


def test_partition_enum_and_ball_leave_no_reference_cycle():
    # with the cyclic collector off, an oracle call must free its memo on
    # return, and an l2 ball call its support list
    inst = gen_random("uniform_cube", n=10, d=2, norm=L2, seed=1)
    radius(range(6), inst)
    gc.collect()
    gc.disable()
    try:
        for problem in Problem:
            optimal_by_partition_enum(inst, 3, problem)
            assert gc.collect() == 0
        radius(range(6), inst)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _k_partitions(items, k):
    # every partition of items into exactly k non-empty blocks
    if len(items) == k:
        yield [[x] for x in items]
        return
    if k == 1:
        yield [list(items)]
        return
    first, rest = items[0], items[1:]
    for part in _k_partitions(rest, k - 1):
        yield [[first]] + part
    for part in _k_partitions(rest, k):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def test_partition_enum_radius_reuses_balls_and_matches_brute_force(monkeypatch):
    # a point inside the exact ball of its block reuses that ball; the
    # optimum still equals the best k-partition costed block by block, and
    # the witness, a partition of all the points, recosts to it.  Integer
    # grids have duplicates, which always fall inside a ball, and once made
    # the farthest-first order repeat a point and drop others
    calls = []
    monkeypatch.setattr(oracles, "radius", lambda ids, inst: calls.append(ids) or radius(ids, inst))
    rng = np.random.default_rng(8)
    for norm in (L2, LINF, L1):
        for _ in range(4):
            for pts in (rng.uniform(-1.0, 1.0, (8, 2)), rng.integers(0, 3, (8, 2)).astype(float)):
                inst = Instance.from_points("enum", pts.tolist(), norm)
                cost = {b: radius(b, inst).radius
                        for size in range(1, 8) for b in combinations(range(8), size)}
                for k in (2, 3):
                    best = min(max(cost[tuple(sorted(b))] for b in part)
                               for part in _k_partitions(list(range(8)), k))
                    del calls[:]
                    res = optimal_by_partition_enum(inst, k, Problem.RADIUS)
                    assert len(set(calls)) == len(calls)
                    assert abs(res.opt_cost - best) <= tie_width(best)
                    assert sorted(m for c in res.partition for m in c.members) == list(range(8))
                    recost = max(cost[c.members] for c in res.partition)
                    assert abs(recost - res.opt_cost) <= tie_width(recost)


def test_partition_enum_witness_recosts_to_optimum():
    for problem in Problem:
        inst = gen_random("uniform_cube", n=8, d=2, norm=L2, seed=21)
        res = optimal_by_partition_enum(inst, 3, problem)
        recost = max(cluster_cost(problem, c, inst) for c in res.partition)
        assert recost == res.opt_cost


def test_discrete_kcenter_trivial_levels():
    inst = gen_random("uniform_cube", n=7, d=2, norm=L2, seed=3)
    assert optimal_discrete_kcenter(inst, 7).opt_cost == 0.0
    whole = optimal_discrete_kcenter(inst, 1)
    assert whole.opt_cost == discrete_radius(range(7), inst)[0]
    assert whole.method == "center-cover-search"


def test_discrete_kcenter_hypercube_k4():
    # tag-group clustering shows cost <= 2; integer distances force >= 2
    case = gen_hypercube_l1(4)
    res = optimal_discrete_kcenter(case.instance, 4)
    assert res.opt_cost == 2.0


def test_discrete_kcenter_budget_guard(monkeypatch):
    # C(64, 32) is about 1.8e18 center subsets, but the search takes one
    # step: 64 distinct points at integer distances cost at least 1, and the
    # packing bound refutes cost 0 at the root
    cube = gen_hypercube_l1(8).instance
    assert optimal_discrete_kcenter(cube, 32).opt_cost == 1.0
    monkeypatch.setattr(oracles, "CENTER_SEARCH_NODES", 0)
    with pytest.raises(SizeLimitError, match="node budget"):
        optimal_discrete_kcenter(cube, 32)


def test_discrete_kcenter_node_budget_spans_every_threshold(monkeypatch):
    inst = gen_random("uniform_cube", n=40, d=2, norm=L2, seed=113)
    want = optimal_discrete_kcenter(inst, 4)
    counts = []  # the steps of each threshold's search
    search = oracles._cover_centers

    def counted(covers, k, steps):
        counts.append(0)

        def tally():
            for step in steps:
                counts[-1] += 1
                yield step
        return search(covers, k, tally())

    monkeypatch.setattr(oracles, "_cover_centers", counted)
    assert optimal_discrete_kcenter(inst, 4) == want
    total = sum(counts)
    assert len(counts) > 1 and total > max(counts)
    monkeypatch.setattr(oracles, "CENTER_SEARCH_NODES", total)
    assert optimal_discrete_kcenter(inst, 4) == want
    monkeypatch.setattr(oracles, "CENTER_SEARCH_NODES", total - 1)
    with pytest.raises(SizeLimitError, match=f"{total - 1:,}-node budget"):
        optimal_discrete_kcenter(inst, 4)


def test_discrete_kcenter_witness_partition():
    inst = gen_random("uniform_cube", n=9, d=2, norm=L2, seed=13)
    res = optimal_discrete_kcenter(inst, 3)
    members = sorted(m for c in res.partition for m in c.members)
    assert members == list(range(9))
    assert all(len(c) >= 1 for c in res.partition)
    recost = max(discrete_radius(c, inst)[0] for c in res.partition)
    assert recost == res.opt_cost


# under l2 the first two points are an infinite distance from every other
_OVERFLOW = [(1e200, 0.0), (-1e200, 0.0), (0.0, 1.0), (3.0, 1.0)]


def _reference_discrete_kcenter(inst, k):
    """Center enumeration: the least, over all k-subsets of the points as
    centers, of the largest distance from a point to its nearest center."""
    dist = unpower_array(powered_matrix(inst), inst.norm)
    return min(float(dist[:, list(centers)].min(axis=1).max())
               for centers in combinations(range(len(inst)), k))


def _kcenter_corpus():
    rng = np.random.default_rng(43)
    norms = (L1, L2, LINF, Norm(1.5))
    for t in range(24):
        n = int(rng.integers(5, 10))
        d = 1 + t % 3
        norm = norms[t % 4]
        kind = (t // 4) % 3
        if kind == 0:
            pts = rng.uniform(-1.0, 1.0, (n, d))
        elif kind == 1:  # exact ties
            pts = rng.integers(0, 3, (n, d)).astype(float)
        else:  # duplicate points
            pts = rng.uniform(-1.0, 1.0, (n, d))
            pts[n // 2:] = pts[:n - n // 2]
        yield Instance.from_points(f"kc{t}", [tuple(p) for p in pts.tolist()], norm)
    # five points in three places: the optimum 0 needs only three centers at
    # k = 4 and 5, so the witness is padded
    yield Instance.from_points("pairs", [(0.0, 0.0), (0.0, 0.0), (2.0, 1.0), (2.0, 1.0),
                                         (5.0, 0.0)], L2)
    yield Instance.from_points("grid4", [(float(x), float(y)) for x in range(4)
                                         for y in range(4)], L1)
    yield Instance.from_points("overflow", _OVERFLOW, L2)


def test_discrete_kcenter_matches_center_enumeration():
    checked = 0
    for inst in _kcenter_corpus():
        n = len(inst)
        for k in range(1, n + 1):
            res = optimal_discrete_kcenter(inst, k)
            ref = _reference_discrete_kcenter(inst, k)
            assert repr(res.opt_cost) == repr(ref), (inst.name, k)
            assert len(res.partition) == k
            assert sorted(m for c in res.partition for m in c.members) == list(range(n))
            assert max(discrete_radius(c, inst)[0] for c in res.partition) == res.opt_cost
            checked += 1
    assert checked == 207


def _unpruned_cover_centers(covers, k):
    """The cover search without the packing bound or a node budget: a
    depth-first search over cover bitmasks that branches on the centers
    covering the lowest uncovered point, with a memo of failed sets."""
    n = covers.shape[0]
    bits = np.packbits(covers.T, axis=1, bitorder="little")
    masks = {}
    coverers = {}

    def branches_at(uncovered):
        low = (uncovered & -uncovered).bit_length() - 1
        if low not in coverers:
            coverers[low] = np.flatnonzero(covers[low]).tolist()
        return iter(coverers[low])

    failed = {}
    chosen = []
    path = [(1 << n) - 1]
    branches = [branches_at(path[0])]
    while branches:
        c = next(branches[-1], None)
        if c is None:
            failed[path.pop()] = k - len(chosen)
            branches.pop()
            if chosen:
                chosen.pop()
            continue
        if c not in masks:
            masks[c] = int.from_bytes(bits[c].tobytes(), "little")
        rest = path[-1] & ~masks[c]
        if not rest:
            chosen.append(c)
            return chosen
        budget = k - len(chosen) - 1
        if failed.get(rest, 0) >= budget:
            continue
        chosen.append(c)
        path.append(rest)
        branches.append(branches_at(rest))
    return None


def test_discrete_kcenter_pruning_keeps_the_unpruned_result(monkeypatch):
    # the packing bound drops only sets that no centers left can cover, so
    # the search meets the same first cover: equal costs and witnesses
    norms = (L1, L2, LINF, Norm(1.5))
    cases = []
    for t, n in enumerate(range(20, 61, 4)):
        family = ("uniform_cube", "gaussian_blobs")[t % 2]
        cases.append(gen_random(family, n=n, d=1 + t % 3, norm=norms[t % 4], seed=900 + t))
    grid = np.random.default_rng(7).integers(0, 4, (30, 2)).astype(float)
    cases.append(Instance.from_points("grid", [tuple(p) for p in grid.tolist()], L1))
    cases.append(gen_random("uniform_cube", n=60, d=2, norm=L2, seed=113))
    pruned = [optimal_discrete_kcenter(inst, k) for inst in cases for k in (2, 3, 4, 5)]
    monkeypatch.setattr(oracles, "_cover_centers",
                        lambda covers, k, steps: _unpruned_cover_centers(covers, k))
    unpruned = [optimal_discrete_kcenter(inst, k) for inst in cases for k in (2, 3, 4, 5)]
    assert pruned == unpruned
    assert all(res.method == "center-cover-search" for res in pruned)


def _bisected_discrete_kcenter(inst, k):
    """The threshold search as a plain bisection: the distinct powered
    distances up to the farthest-first cost, each threshold decided by the
    cover search on the rows the descent orders, fewest coverers first.
    The reference that the descent's cost must equal."""
    dpow = powered_matrix(inst)
    vals = np.unique(dpow)
    centers = oracles._farthest_first(dpow, k)
    lo, hi = 0, int(np.searchsorted(vals, dpow[:, centers].min(axis=1).max()))
    steps = oracles._search_steps()
    while lo < hi:
        mid = (lo + hi) // 2
        covers = oracles._fewest_coverers_first(dpow <= vals[mid])
        if oracles._cover_centers(covers, k, steps) is None:
            lo = mid + 1
        else:
            hi = mid
    return unpower(float(vals[hi]), inst.norm)


def test_discrete_kcenter_descent_takes_few_steps_and_decisions(monkeypatch):
    # the plain bisection takes 124,880 search steps and 11 decisions on
    # uniform (100, 6), and 10 decisions on the benchmark's (60, 4); a
    # descent that did not re-centre its covers would take 17 and 10
    decided = []
    search = oracles._cover_centers
    monkeypatch.setattr(oracles, "_cover_centers",
                        lambda covers, k, steps: decided.append(k) or search(covers, k, steps))
    for n, k, seed in ((100, 6, 1), (60, 4, 113)):
        inst = gen_random("uniform_cube", n=n, d=2, norm=L2, seed=seed)
        want = _bisected_discrete_kcenter(inst, k)
        del decided[:]
        with monkeypatch.context() as m:
            m.setattr(oracles, "CENTER_SEARCH_NODES", 124_880 // 2 - 1)
            assert repr(optimal_discrete_kcenter(inst, k).opt_cost) == repr(want)
        assert len(decided) <= 4


def _bisected_diameter_1d(inst, k):
    """The 1-d interval cover with a plain bisection over the bit patterns
    of the non-negative doubles, about 62 decisions: the reference that the
    snapped bisection's cost and witness must equal."""
    n = len(inst.points)
    order = sorted(range(n), key=lambda i: inst.points[i][0])
    vals = [inst.points[i][0] for i in order]

    def cuts(span):
        starts = [0]
        while len(starts) <= k:
            first = vals[starts[-1]]
            end = bisect_right(vals, span, lo=starts[-1], key=lambda v: v - first)
            end = min(end, n - k + len(starts))
            if end == n:
                return starts
            starts.append(end)
        return None

    def double(bits):
        return float(np.int64(bits).view(np.float64))

    top = int(np.float64(vals[-1] - vals[0]).view(np.int64))
    span = double(bisect_left(range(top + 1), True, key=lambda b: cuts(double(b)) is not None))
    starts = cuts(span)
    runs = list(zip(starts, starts[1:] + [n]))
    return oracles.OracleResult(
        problem=Problem.DIAMETER,
        k=k,
        opt_cost=max(distance((vals[a],), (vals[b - 1],), inst.norm) for a, b in runs),
        partition=oracles._sorted_clusters([order[a:b] for a, b in runs]),
        method="one-dim-dp",
    )


def _threshold_corpus():
    """24 instances at n = 20-130, d = 1-3, four norms: uniform, blobs, and
    integer grids with exact ties and duplicates; each with the levels k =
    2-6."""
    norms = (L1, L2, LINF, Norm(1.5))
    for t in range(24):
        n, d, norm = 20 + 110 * t // 23, 1 + t % 3, norms[t % 4]
        kind = t // 3 % 3
        if kind == 2:
            grid = np.random.default_rng(500 + t).integers(0, 4, (n, d)).astype(float)
            inst = Instance.from_points(f"grid{t}", [tuple(p) for p in grid.tolist()], norm)
        else:
            inst = gen_random(("uniform_cube", "gaussian_blobs")[kind], n=n, d=d, norm=norm,
                              seed=500 + t)
        yield inst, range(2, 7)


def test_threshold_oracles_match_their_bisections(monkeypatch):
    # the descent refutes at most one threshold per call, and both oracles
    # land where a plain bisection does; the 1-d witness is the same too
    refuted = []  # per call, the thresholds that the cover search refuted
    search = oracles._cover_centers

    def counted(covers, k, steps):
        found = search(covers, k, steps)
        refuted[-1] += found is None
        return found

    checked = 0
    for inst, levels in _threshold_corpus():
        for k in levels:
            monkeypatch.setattr(oracles, "_cover_centers", counted)
            refuted.append(0)
            res = optimal_discrete_kcenter(inst, k)
            monkeypatch.undo()
            assert repr(res.opt_cost) == repr(_bisected_discrete_kcenter(inst, k)), (inst.name, k)
            assert max(discrete_radius(c, inst)[0] for c in res.partition) == res.opt_cost
            if inst.dim == 1:
                assert optimal_diameter_1d(inst, k) == _bisected_diameter_1d(inst, k)
            checked += 1
    assert checked == 120
    assert max(refuted) == 1


def test_discrete_kcenter_reaches_past_the_lowest_id_search():
    # branching on the lowest uncovered id, the search took 952,311 steps
    # here at k = 5 and was refused at k = 6 after 10**6
    inst = gen_random("uniform_cube", n=115, d=3, norm=L1, seed=720)
    for k in (5, 6):
        res = optimal_discrete_kcenter(inst, k)
        assert repr(res.opt_cost) == repr(_bisected_discrete_kcenter(inst, k)), k
        assert max(discrete_radius(c, inst)[0] for c in res.partition) == res.opt_cost


def test_discrete_kcenter_uniform_200_6_fits_a_tenth_of_the_budget(monkeypatch):
    # refused after 10**6 steps when the search branched on the lowest
    # uncovered id from an unswapped start; now about 21,000 steps
    inst = gen_random("uniform_cube", n=200, d=2, norm=L2, seed=1)
    want = _bisected_discrete_kcenter(inst, 6)
    monkeypatch.setattr(oracles, "CENTER_SEARCH_NODES", 100_000)
    res = optimal_discrete_kcenter(inst, 6)
    assert repr(res.opt_cost) == repr(want)
    assert max(discrete_radius(c, inst)[0] for c in res.partition) == res.opt_cost


@st.composite
def _coverage(draw):
    """A boolean coverage matrix in which every point covers itself, and a
    number of centers k <= 4."""
    n = draw(st.integers(1, 10))
    cells = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    covers = np.array(cells, dtype=bool).reshape(n, n)
    np.fill_diagonal(covers, True)
    return covers, draw(st.integers(1, min(4, n)))


@settings(max_examples=300, deadline=None)
@given(_coverage())
def test_cover_search_on_reordered_rows_decides_exactly(case):
    # off the metric case: any coverage with a true diagonal, decided on
    # the rows reordered fewest coverers first, against every k columns
    covers, k = case
    found = oracles._cover_centers(oracles._fewest_coverers_first(covers), k,
                                   oracles._search_steps())
    exists = any(covers[:, list(cols)].any(axis=1).all()
                 for cols in combinations(range(len(covers)), k))
    assert (found is not None) == exists
    if found is not None:
        assert len(found) <= k and covers[:, found].any(axis=1).all()


def _crosscheck_corpus():
    """200 small instances: n = 4-10 with a few at 11 and 12, d = 1-3, four
    norms, and every fifth an integer grid with exact ties and duplicates."""
    rng = np.random.default_rng(2026)
    norms = (L1, L2, LINF, Norm(1.5))
    for t in range(200):
        n = 11 + t // 50 % 2 if t % 50 == 49 else 4 + t % 7
        d = 1 + t // 7 % 3
        if t % 5 == 4:
            pts = rng.integers(0, 3, (n, d)).astype(float)
        elif t % 5 in (1, 3):  # clumps
            pts = rng.normal(0.0, 1.0, (n, d)) + rng.integers(0, 3, (n, 1)) * 4.0
        else:
            pts = rng.uniform(-1.0, 1.0, (n, d))
        yield Instance.from_points(f"x{t}", [tuple(p) for p in pts.tolist()], norms[t % 4])


def test_discrete_kcenter_matches_partition_enumeration():
    # the hint only speeds enumeration up: past an over-tight hint it
    # reruns without one, so its result is the optimum either way
    checked = 0
    for inst in _crosscheck_corpus():
        n = len(inst)
        for k in range(1, n + 1):
            res = optimal_discrete_kcenter(inst, k)
            ref = optimal_by_partition_enum(inst, k, Problem.DISCRETE_RADIUS,
                                            upper_bound=res.opt_cost)
            assert repr(res.opt_cost) == repr(ref.opt_cost), (inst.name, k)
            assert max(discrete_radius(c, inst)[0] for c in res.partition) == res.opt_cost
            checked += 1
    assert checked == 1418


def test_discrete_kcenter_overflow_is_infinite():
    # a center set that leaves out either far point costs inf
    inst = Instance.from_points("overflow", _OVERFLOW, L2)
    for k in (1, 2):
        res = optimal_discrete_kcenter(inst, k)
        assert res.opt_cost == math.inf
        assert len(res.partition) == k
        assert sorted(m for c in res.partition for m in c.members) == [0, 1, 2, 3]
        assert optimal_discrete_kcenter(inst, 3).opt_cost == 3.0


_ALL_INF = Instance.from_points("all-inf", _OVERFLOW[:3], L2)  # every pair is inf apart


@pytest.mark.parametrize("problem", list(Problem))
@pytest.mark.parametrize("k", [1, 2])
def test_partition_enum_when_every_k_partition_costs_inf(problem, k):
    for hint in (None, math.inf):
        res = optimal_by_partition_enum(_ALL_INF, k, problem, upper_bound=hint)
        assert res.opt_cost == math.inf
        assert len(res.partition) == k
        assert sorted(m for c in res.partition for m in c.members) == [0, 1, 2]
    if problem is not Problem.DISCRETE_RADIUS:  # routed to the center search
        assert best_oracle(_ALL_INF, problem, k).opt_cost == math.inf


def test_partition_enum_radius_in_one_dimension_past_an_overflowed_square():
    # the squared span overflows, but the 1-d ball is the midrange, as the
    # greedy run costs it: 5e199 at k = 2 and 1e200 at k = 1
    inst = _line("wide", [1e200, -1e200, 0.0])
    for k, want in ((2, 5e199), (1, 1e200)):
        assert optimal_by_partition_enum(inst, k, Problem.RADIUS).opt_cost == want
        assert best_oracle(inst, Problem.RADIUS, k).opt_cost == want


def test_partition_enum_discrete_radius_past_an_overflowed_diameter():
    # the diameter's square overflows, the middle point's distances do not
    inst = _line("wide", [1.2e154, -1.2e154, 0.0])
    assert discrete_radius(range(3), inst) == (1.2e154, 2)
    assert optimal_by_partition_enum(inst, 1, Problem.DISCRETE_RADIUS).opt_cost == 1.2e154


def test_partition_enum_radius_near_the_largest_float_raises_no_warning():
    points = [(1.5e308, 1.0), (1.6e308, 0.0), (1.55e308, 2.0), (1.52e308, 3.0)]
    inst = Instance.from_points("far", points, LINF)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = optimal_by_partition_enum(inst, 2, Problem.RADIUS)
    assert res.opt_cost == max(radius(c, inst).radius for c in res.partition)


def test_every_oracle_reports_a_python_float():
    line = gen_random("uniform_cube", n=7, d=1, norm=L2, seed=7).points
    for norm in (L1, L2, LINF, Norm(1.5)):
        inst = gen_random("uniform_cube", n=7, d=2, norm=norm, seed=7)
        for problem in Problem:
            assert type(optimal_by_partition_enum(inst, 3, problem).opt_cost) is float
        assert type(optimal_discrete_kcenter(inst, 3).opt_cost) is float
        res = optimal_diameter_1d(Instance.from_points("line", line, norm), 3)
        assert type(res.opt_cost) is float


def test_diameter_1d_line_instances():
    for n_param in (2, 3):
        case = gen_line_1d(n_param)
        res = optimal_diameter_1d(case.instance, 4)
        assert res.opt_cost == float(2 ** (n_param + 1) - 1)
        assert res.method == "one-dim-dp"


def test_diameter_1d_trivial_and_small():
    inst = _line("tiny", [0, 1, 10])
    assert optimal_diameter_1d(inst, 2).opt_cost == 1.0
    assert optimal_diameter_1d(inst, 3).opt_cost == 0.0


def test_diameter_1d_requires_dim_one():
    inst = Instance.from_points("flat", [(0.0, 0.0), (1.0, 1.0)], L2)
    with pytest.raises(ValueError):
        optimal_diameter_1d(inst, 1)


def test_diameter_1d_matches_enum():
    rng = np.random.default_rng(17)
    for i in range(10):
        n = int(rng.integers(4, 13))
        k = int(rng.integers(2, 5))
        inst = gen_random("uniform_cube", n=n, d=1, norm=L2, seed=900 + i)
        dp = optimal_diameter_1d(inst, k)
        enum = optimal_by_partition_enum(inst, k, Problem.DIAMETER)
        assert dp.opt_cost == enum.opt_cost


def _reference_diameter_1d(inst, k):
    """Segment DP over the sorted values: the least largest span of a split
    into k contiguous runs, as the float difference of a run's end values."""
    n = len(inst)
    vals = sorted(p[0] for p in inst.points)
    # best[m][j]: least largest span splitting vals[0..j] into m+1 runs
    best = [[math.inf] * n for _ in range(k)]
    for j in range(n):
        best[0][j] = vals[j] - vals[0]
    for m in range(1, k):
        for j in range(m, n):
            for i in range(m - 1, j):
                cand = max(best[m - 1][i], vals[j] - vals[i + 1])
                if cand < best[m][j]:
                    best[m][j] = cand
    return best[k - 1][n - 1]


def test_diameter_1d_matches_reference_dp():
    rng = np.random.default_rng(41)
    scales = [
        lambda n: rng.uniform(-10.0, 10.0, n),
        lambda n: rng.integers(-5, 6, n).astype(float),  # exact ties
        lambda n: rng.integers(-1000, 1000, n) * 1e-160,
        lambda n: rng.uniform(-1.0, 1.0, n) * 1e6,
    ]
    checked = 0
    for t in range(60):
        n = int(rng.integers(1, 61))
        norm = (L1, L2, LINF, Norm(1.5), Norm(3.0))[t % 5]
        values = scales[t % 4](n)
        inst = Instance.from_points(f"line{t}", [(float(v),) for v in values], norm)
        for k in sorted({1, n, *(int(k) for k in rng.integers(1, n + 1, size=3))}):
            res = optimal_diameter_1d(inst, k)
            # the reference span as a distance, which l2 squares of spans
            # near 1e-160 and lp powers round
            span = _reference_diameter_1d(inst, k)
            assert repr(res.opt_cost) == repr(distance((0.0,), (span,), norm))
            assert len(res.partition) == k
            assert sorted(m for c in res.partition for m in c.members) == list(range(n))
            runs = [sorted(inst.points[m][0] for m in c.members) for c in res.partition]
            runs.sort()
            assert all(a[-1] <= b[0] for a, b in zip(runs, runs[1:]))  # contiguous
            assert max(r[-1] - r[0] for r in runs) == span
            assert max(diameter(c, inst) for c in res.partition) == res.opt_cost
            checked += 1
    assert checked >= 200
    one = optimal_diameter_1d(_line("one", [5.0]), 1)
    assert one.opt_cost == 0.0 and [c.members for c in one.partition] == [(0,)]
    for n_param in (2, 3, 4, 5):
        inst = gen_line_1d(n_param).instance
        for k in (1, 4, 8):
            assert repr(optimal_diameter_1d(inst, k).opt_cost) == repr(_reference_diameter_1d(inst, k))
    # the l2 span 8e-160 squares below the normal range: the oracle reports
    # what its witness recosts to, as partition enumeration does
    tiny = _line("tiny", [v * 1e-160 for v in (0, 3, 7, 8, 20)])
    res = optimal_diameter_1d(tiny, 2)
    assert res.opt_cost == optimal_by_partition_enum(tiny, 2, Problem.DIAMETER).opt_cost
    assert res.opt_cost == max(diameter(c, tiny) for c in res.partition) != 8e-160
    # a span of -0.0 - 0.0 is -0.0 in the DP; the bisection reports +0.0,
    # which is what the witness recosts to
    zeros = _line("zeros", [0.0, -0.0])
    assert repr(_reference_diameter_1d(zeros, 1)) == "-0.0"
    res = optimal_diameter_1d(zeros, 1)
    assert repr(res.opt_cost) == repr(diameter(res.partition[0], zeros)) == "0.0"


def _edge_lines():
    """Lines whose spans overflow, signed zeros, and subnormal steps."""
    tiny = 5e-324
    return {
        "overflow-1e308": [-1e308, -5e307, 0.0, 3.0, 1e308, 2e307],
        "overflow-1.7e308": [-1.7e308, -1e308, 1.0, 1e308, 1.7e308, 1.6e308, -1.7e308],
        "signed-zeros": [0.0, -0.0, -0.0, 0.0, 1.0, -1.0, -0.0],
        "subnormal-steps": [m * tiny for m in (0, 1, 2, 5, -1, 3, 1, -0.0)],
    }


@pytest.mark.parametrize("norm", [L1, L2, Norm(1.5)], ids=lambda norm: norm.label)
@pytest.mark.parametrize("name", sorted(_edge_lines()))
def test_one_dimensional_routes_match_partition_enumeration_on_edge_lines(name, norm):
    # the snapped bisection lands where the plain one does, and both 1-d
    # routes agree with enumeration, which costs radius blocks as half
    # their l_inf span
    inst = Instance.from_points(name, [(v,) for v in _edge_lines()[name]], norm)
    for k in range(1, len(inst) + 1):
        res = optimal_diameter_1d(inst, k)
        assert res == _bisected_diameter_1d(inst, k)
        enum = optimal_by_partition_enum(inst, k, Problem.DIAMETER)
        assert repr(res.opt_cost) == repr(enum.opt_cost), k
        res = best_oracle(inst, Problem.RADIUS, k)
        assert (res.problem, res.method) == (Problem.RADIUS, "one-dim-dp")
        enum = optimal_by_partition_enum(inst, k, Problem.RADIUS)
        assert repr(res.opt_cost) == repr(enum.opt_cost), k
        assert max(radius(c, inst).radius for c in res.partition) == res.opt_cost


def test_diameter_1d_decides_few_spans(monkeypatch):
    # the plain bisection decides about 62 spans on the benchmark's line;
    # the snapped one at most 20, counting the witness's own cover
    spans = []
    runs = oracles._greedy_runs
    monkeypatch.setattr(oracles, "_greedy_runs",
                        lambda vals, k, span: spans.append(span) or runs(vals, k, span))
    for seed in (114, 214, 314):
        inst = gen_random("uniform_cube", n=800, d=1, norm=L2, seed=seed)
        del spans[:]
        res = optimal_diameter_1d(inst, 8)
        assert len(spans) <= 20
        assert res == _bisected_diameter_1d(inst, 8)


def test_opt_nonincreasing_in_k():
    inst = gen_random("uniform_cube", n=10, d=2, norm=L2, seed=23)
    costs = [optimal_by_partition_enum(inst, k, Problem.DIAMETER).opt_cost
             for k in range(1, 11)]
    assert all(a >= b for a, b in zip(costs, costs[1:]))
    assert costs[-1] == 0.0


def test_min_pairwise_distance():
    assert min_pairwise_distance([(0.0,), (3.0,), (7.0,)], L2) == 3.0
    assert min_pairwise_distance([(1.0, 2.0), (1.0, 2.0), (5.0, 5.0)], L2) == 0.0
    with pytest.raises(ValueError):
        min_pairwise_distance([(0.0,)], L2)


def test_min_pairwise_matches_sorted_sweep():
    rng = np.random.default_rng(29)
    vals = rng.uniform(0.0, 10.0, size=100)
    pts = [(float(v),) for v in vals]
    brute = min_pairwise_distance(pts, L2)
    s = np.sort(vals)
    sweep = float(np.diff(s).min())
    # sqrt(fl(x * x)) == |x| in binary64 barring under- and overflow
    assert brute == sweep


@pytest.mark.parametrize("norm", [L1, L2, LINF, Norm(1.5)], ids=lambda norm: norm.label)
def test_min_pairwise_distance_matches_pair_loop(norm):
    # 400 points span several row blocks; the closest pair is planted in
    # different blocks, away from the diagonal
    rng = np.random.default_rng(31)
    pts = [tuple(p) for p in rng.uniform(0.0, 100.0, size=(400, 2)).tolist()]
    pts[390] = (pts[3][0] + 1e-6, pts[3][1])
    loop = min(distance(a, b, norm) for i, a in enumerate(pts) for b in pts[i + 1:])
    assert min_pairwise_distance(pts, norm) == loop


def _reference_min_pairwise_distance(points, norm):
    """The former brute force: every powered distance, both triangles, in
    row blocks, with each point's distance to itself masked out."""
    best = math.inf
    for start, block in powered_row_blocks(np.asarray(points, dtype=float), norm):
        rows = np.arange(len(block))
        block[rows, start + rows] = math.inf  # a point paired with itself
        best = min(best, float(block.min()))
    return unpower(best, norm)


_FIVE_NORMS = [L1, L2, LINF, Norm(1.5), Norm(3.0)]


def _cloud(dim):
    ints = st.integers(-6, 6).map(float)
    floats = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
    point = st.tuples(*([st.one_of(ints, floats)] * dim))
    return st.tuples(st.lists(point, min_size=2, max_size=40),
                     st.sampled_from([1.0, 1e-150, 1e-3, 1e3, 1e150]))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(_cloud), st.sampled_from(_FIVE_NORMS))
def test_min_pairwise_distance_matches_reference_scan(cloud, norm):
    # integer coordinates give ties, small and large scales give under- and
    # overflowing terms
    pts, scale = cloud
    pts = [tuple(c * scale for c in p) for p in pts]
    assert repr(min_pairwise_distance(pts, norm)) == repr(
        _reference_min_pairwise_distance(pts, norm))


def _adversarial_sets():
    rng = np.random.default_rng(37)
    flat = rng.uniform(0.0, 1.0, size=(60, 3))
    flat[:, 1] *= 100.0
    # one outlier gives x the largest spread, and every other point shares
    # its x: the sweep's worst case, where every pair is costed
    flat[:, 0] = 5.0
    flat[0, 0] = 1e3
    clusters = np.concatenate([  # two far clusters, each flat along x
        np.column_stack([np.zeros(30), rng.uniform(0.0, 1.0, size=30)]),
        np.column_stack([np.full(30, 1e3), rng.uniform(0.0, 1.0, size=30)]),
    ])
    tiny = rng.uniform(0.0, 1.0, size=(40, 2)) * 1e-160
    return {
        "shared-sort-coordinate": flat.tolist(),
        "two-flat-clusters": clusters.tolist(),
        "all-duplicates": [(0.25, -3.0)] * 7,
        "l2-overflow": [(1e200, 0.0), (-1e200, 0.0), (0.0, 1.0)],
        "scaled-1e-160": tiny.tolist(),
        "two-points": [(1.0, 2.0), (-0.5, 7.0)],
    }


@pytest.mark.parametrize("norm", _FIVE_NORMS, ids=lambda norm: norm.label)
@pytest.mark.parametrize("name", sorted(_adversarial_sets()))
def test_min_pairwise_distance_adversarial_sets(name, norm):
    pts = [tuple(p) for p in _adversarial_sets()[name]]
    got = min_pairwise_distance(pts, norm)
    assert repr(got) == repr(_reference_min_pairwise_distance(pts, norm))
    if name == "l2-overflow" and norm == L2:
        assert got == math.inf
    if name == "all-duplicates":
        assert repr(got) == "0.0"


def test_min_pairwise_distance_costs_few_pairs(monkeypatch):
    # the packing check's own draw: the sweep costs about n pairs where the
    # full scan costs n^2; pairs are counted as the entries of the d = 2
    # difference columns the sweep hands to the term kernel (its gap tests
    # pass one column)
    sample = gen_random("coverable", n=2000, d=2, norm=L2, seed=116, k=4, r=1.0)
    ref = _reference_min_pairwise_distance(sample.points, L2)
    costed = 0
    kernel = oracles._powered_norms

    def counting(cols, norm):
        nonlocal costed
        cols = list(cols)
        if len(cols) == 2:
            costed += len(cols[0])
        return kernel(cols, norm)

    monkeypatch.setattr(oracles, "_powered_norms", counting)
    assert repr(min_pairwise_distance(sample.points, L2)) == repr(ref)
    assert 0 < costed <= 4 * len(sample.points)


def test_best_oracle_routes_to_the_cheapest_exact_oracle(monkeypatch):
    line = gen_random("uniform_cube", n=20, d=1, norm=L2, seed=3)
    assert best_oracle(line, Problem.DIAMETER, 3).method == "one-dim-dp"
    # 1-d radius is half the l_inf diameter optimum, past enumeration's cap
    # too, and equal to enumeration below it
    half = optimal_diameter_1d(replace(line, norm=LINF), 3)
    res = best_oracle(line, Problem.RADIUS, 3)
    assert res == replace(half, problem=Problem.RADIUS, opt_cost=half.opt_cost / 2.0)
    short = gen_random("uniform_cube", n=9, d=1, norm=Norm(1.5), seed=3)
    for k in (1, 3, 5):
        res = best_oracle(short, Problem.RADIUS, k)
        assert (res.problem, res.method) == (Problem.RADIUS, "one-dim-dp")
        assert res.opt_cost == optimal_by_partition_enum(short, k, Problem.RADIUS).opt_cost
    plane = gen_random("uniform_cube", n=20, d=2, norm=L2, seed=3)
    assert best_oracle(plane, Problem.DISCRETE_RADIUS, 3).method == "center-cover-search"
    assert best_oracle(plane, Problem.DIAMETER, 3) is None
    small = gen_random("uniform_cube", n=8, d=2, norm=L2, seed=3)
    res = best_oracle(small, Problem.RADIUS, 3)
    assert res.method == "partition-enum"
    assert res.opt_cost == optimal_by_partition_enum(small, 3, Problem.RADIUS).opt_cost
    # the hypercubes are far past partition enumeration, and the cover
    # search answers them in milliseconds
    cube = gen_hypercube_l1(8).instance
    for k, want in ((8, 2.0), (16, 1.0), (32, 1.0)):
        res = best_oracle(cube, Problem.DISCRETE_RADIUS, k)
        assert (res.opt_cost, res.method) == (want, "center-cover-search")
    res = best_oracle(gen_hypercube_l1(16).instance, Problem.DISCRETE_RADIUS, 16)
    assert (res.opt_cost, res.method) == (2.0, "center-cover-search")

    # each limit lives in its own oracle: past the cover search's budget,
    # discrete radius falls through to partition enumeration, and past
    # enumeration's cap too, no oracle applies
    with monkeypatch.context() as m:
        m.setattr(oracles, "CENTER_SEARCH_NODES", 0)
        res = best_oracle(small, Problem.DISCRETE_RADIUS, 3)
        assert res.method == "partition-enum"
        assert res.opt_cost == optimal_by_partition_enum(
            small, 3, Problem.DISCRETE_RADIUS).opt_cost
        assert best_oracle(plane, Problem.DISCRETE_RADIUS, 3) is None
    with monkeypatch.context() as m:
        m.setattr(oracles, "PARTITION_ENUM_MAX_N", 5)
        assert best_oracle(small, Problem.RADIUS, 3) is None
        assert best_oracle(small, Problem.DISCRETE_RADIUS, 3).method == "center-cover-search"
        assert best_oracle(short, Problem.RADIUS, 3).method == "one-dim-dp"

    # a bad k is an error on every route, also where no oracle would apply
    routes = [(line, Problem.DIAMETER), (line, Problem.RADIUS),
              (plane, Problem.DISCRETE_RADIUS), (plane, Problem.DIAMETER),
              (small, Problem.RADIUS)]
    for budget in (oracles.CENTER_SEARCH_NODES, 0):
        monkeypatch.setattr(oracles, "CENTER_SEARCH_NODES", budget)
        for inst, problem in routes:
            for k in (0, len(inst.points) + 1):
                with pytest.raises(ValueError) as exc:
                    best_oracle(inst, problem, k)
                assert not isinstance(exc.value, SizeLimitError)


def test_volume_lemma_single_ball_bound():
    # one unit ball, one hundred points: bound evaluates to 4 * sqrt(1/100)
    sample = gen_random("coverable", n=100, d=2, norm=L2, seed=5, k=1, r=1.0)
    res = volume_lemma_check(sample, 2)
    assert res.bound == pytest.approx(0.4, abs=1e-12)
    assert res.holds


def test_volume_lemma_coincident_points():
    cover = BallCover(radius=1.0, centers=((0.0, 0.0),))
    sample = CoverableSample(points=((0.5, 0.0), (0.5, 0.0)), cover=cover, norm=L2)
    res = volume_lemma_check(sample, 2)
    assert res.min_pair_dist == 0.0
    assert res.holds


def test_volume_lemma_three_ball_cover():
    sample = gen_random("coverable", n=50, d=3, norm=L2, seed=6, k=3, r=2.0)
    res = volume_lemma_check(sample, 3)
    assert res.bound == pytest.approx(8.0 * (3.0 / 50.0) ** (1.0 / 3.0), abs=1e-12)
    assert res.holds


def test_volume_lemma_precondition():
    cover = BallCover(radius=1.0, centers=((0.0,), (5.0,)))
    sample = CoverableSample(points=((0.1,), (5.2,)), cover=cover, norm=L2)
    with pytest.raises(ValueError):
        volume_lemma_check(sample, 1)
    with pytest.raises(ValueError):
        volume_lemma_check(
            CoverableSample(points=((0.1,), (0.2,), (5.2,)), cover=cover, norm=L2),
            dim=3,
        )


@pytest.mark.parametrize("radius, centers, message", [
    (math.nan, ((0.0, 0.0),), "cover radius must be finite"),
    (math.inf, ((0.0, 0.0),), "cover radius must be finite"),
    (1.0, ((0.0, 0.0), (math.nan, 0.0)), "center 1 has a non-finite coordinate"),
    (1.0, ((0.0, -math.inf),), "center 0 has a non-finite coordinate"),
])
def test_ball_cover_rejects_a_non_finite_radius_or_center(radius, centers, message):
    with pytest.raises(ValueError, match=message):
        BallCover(radius=radius, centers=centers)


@pytest.mark.parametrize("bad", [(math.nan, 0.0), (math.inf, 0.0), (0.0, -math.inf)])
def test_coverable_sample_rejects_a_non_finite_point(bad):
    # with a nan point the packing check would report that the bound holds
    cover = BallCover(radius=1.0, centers=((0.0, 0.0),))
    with pytest.raises(ValueError, match="point 1 has a non-finite coordinate"):
        CoverableSample(points=((0.5, 0.0), bad, (0.0, 0.5)), cover=cover, norm=L2)


def test_coverable_sample_rejects_a_point_outside_every_ball():
    cover = BallCover(radius=0.1, centers=((0.0, 0.0),))
    for norm in (L1, L2, LINF, Norm(1.5)):
        with pytest.raises(ValueError, match="point 0 lies outside every cover ball"):
            CoverableSample(points=((5.0, 5.0), (-5.0, -5.0)), cover=cover, norm=norm)
        with pytest.raises(ValueError, match="point 1 lies outside every cover ball"):
            CoverableSample(points=((0.1, 0.0), (0.0, 0.1 * (1 + 1e-6))), cover=cover, norm=norm)
        # a point drawn as center + offset may round past the radius: the
        # tie band forgives that
        CoverableSample(points=((0.1, 0.0), (0.0, 0.1 * (1 + 1e-12))), cover=cover, norm=norm)


def test_ball_cover_rejects_zero_dimensional_centers():
    with pytest.raises(ValueError, match="dimension 0"):
        BallCover(radius=1.0, centers=((),))


def test_every_coverable_draw_of_the_suites_and_benchmark_constructs():
    # the volume-lemma suite draws 200 samples per seed; the benchmark runs
    # it at seeds 1 and 10001, and its oracle grid packs a 2000-point draw
    for seed in (1, 10001):
        result = verify_suite("volume-lemma", seed)
        assert result.passed, result.checks
    for kwargs in (dict(n=2000, seed=116, k=4), dict(n=10, seed=100, k=2)):
        sample = gen_random("coverable", d=2, norm=L2, r=1.0, **kwargs)
        res = volume_lemma_check(sample, 2)
        assert res.holds
        assert repr(res.min_pair_dist) == repr(min_pairwise_distance(sample.points, L2))


def test_discrete_kcenter_two_oracle_routes_agree():
    # partition enumeration and the center cover search are independent
    # routes to the same optimum
    for seed in (61, 62, 63):
        inst = gen_random("uniform_cube", n=9, d=2, norm=L2, seed=seed)
        for k in (2, 3):
            by_partition = optimal_by_partition_enum(inst, k, Problem.DISCRETE_RADIUS)
            by_centers = optimal_discrete_kcenter(inst, k)
            assert by_partition.opt_cost == by_centers.opt_cost


def test_optimum_cost_chain_small():
    for seed in (31, 32, 33):
        inst = gen_random("uniform_cube", n=8, d=2, norm=L2, seed=seed)
        rad = optimal_by_partition_enum(inst, 3, Problem.RADIUS).opt_cost
        drad = optimal_discrete_kcenter(inst, 3).opt_cost
        diam = optimal_by_partition_enum(inst, 3, Problem.DIAMETER).opt_cost
        tol = 1e-9 * max(diam, 1.0)
        assert rad <= drad + tol <= diam + 2 * tol
        assert diam <= 2.0 * rad + tol
