import gc
import math
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
    # return, and an l2 ball call its shuffled points
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


def test_discrete_kcenter_budget_guard():
    case = gen_hypercube_l1(8)
    with pytest.raises(SizeLimitError):
        optimal_discrete_kcenter(case.instance, 32)


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


def test_discrete_kcenter_overflow_is_infinite():
    # a center set that leaves out either far point costs inf
    inst = Instance.from_points("overflow", _OVERFLOW, L2)
    for k in (1, 2):
        res = optimal_discrete_kcenter(inst, k)
        assert res.opt_cost == math.inf
        assert len(res.partition) == k
        assert sorted(m for c in res.partition for m in c.members) == [0, 1, 2, 3]
        assert optimal_discrete_kcenter(inst, 3).opt_cost == 3.0


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


def test_best_oracle_routes_to_the_cheapest_exact_oracle():
    line = gen_random("uniform_cube", n=20, d=1, norm=L2, seed=3)
    assert best_oracle(line, Problem.DIAMETER, 3).method == "one-dim-dp"
    plane = gen_random("uniform_cube", n=20, d=2, norm=L2, seed=3)
    assert best_oracle(plane, Problem.DISCRETE_RADIUS, 3).method == "center-cover-search"
    assert best_oracle(plane, Problem.DIAMETER, 3) is None
    for k in (0, len(plane.points) + 1):
        with pytest.raises(ValueError):
            best_oracle(plane, Problem.DIAMETER, k)
    small = gen_random("uniform_cube", n=8, d=2, norm=L2, seed=3)
    res = best_oracle(small, Problem.RADIUS, 3)
    assert res.method == "partition-enum"
    assert res.opt_cost == optimal_by_partition_enum(small, 3, Problem.RADIUS).opt_cost
    cube = gen_hypercube_l1(8).instance
    assert best_oracle(cube, Problem.DISCRETE_RADIUS, len(cube) // 2) is None


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
