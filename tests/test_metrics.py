import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import OptimizeResult, minimize

from agglolab import (
    Cluster,
    Instance,
    L1,
    L2,
    LINF,
    Norm,
    Problem,
    agglomerate,
    agglomerate_nn_chain,
    cluster_cost,
    diameter,
    discrete_radius,
    distance,
    radius,
)
from agglolab.forge import gen_line_1d, gen_hypercube_l1
from agglolab import harness, metrics
from agglolab.engine import tie_width
from agglolab.harness import grid_search_enclosing_radius
from agglolab.metrics import powered_distance, powered_matrix, unpower, unpower_array
from agglolab.oracles import min_pairwise_distance


def test_norm_validation():
    assert Norm(1.5).p == 1.5
    assert LINF.is_infinity
    with pytest.raises(ValueError):
        Norm(0.5)
    with pytest.raises(ValueError):
        Norm(float("nan"))


def test_norm_labels():
    assert L1.label == "l1"
    assert L2.label == "l2"
    assert LINF.label == "linf"
    assert Norm(2.5).label == "lp2.5"
    assert repr(LINF) == "Norm(inf)"
    assert repr(L2) == "Norm(2)"
    assert repr(Norm(1.5)) == "Norm(1.5)"


def test_distance_identity_any_norm():
    x = (3.25, -1.5, 0.0)
    for norm in (L1, L2, LINF, Norm(3.0)):
        assert distance(x, x, norm) == 0.0


def test_distance_linf_diamond_pair():
    # the outer point sits at max-norm distance 1 from its inner partner
    assert distance((0.0, 1.0), (-1.0, 2.0), LINF) == 1.0


def test_distance_l1_tagged_unit_vectors():
    # distinct unit-vector blocks contribute 2, tags contribute their
    # Hamming distance
    case = gen_hypercube_l1(4)
    pts = case.instance.points
    # point id = i*4 + b for group i and tag b
    assert distance(pts[0 * 4 + 0], pts[1 * 4 + 3], L1) == 2.0 + 2.0
    assert distance(pts[0 * 4 + 1], pts[2 * 4 + 1], L1) == 2.0
    assert distance(pts[0 * 4 + 0], pts[0 * 4 + 2], L1) == 1.0


def test_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        distance((0.0, 1.0), (1.0,), L2)


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance(name="bad", dim=2, norm=L2, points=((0.0,),))
    with pytest.raises(ValueError):
        Instance(name="bad", dim=1, norm=L2, points=())
    with pytest.raises(ValueError):
        Instance(name="bad", dim=1, norm=L2, points=((math.inf,),))


def test_cluster_sorts_members():
    c = Cluster((3, 1, 2))
    assert c.members == (1, 2, 3)
    assert c.min_member == 1
    with pytest.raises(ValueError):
        Cluster(())


def test_diameter_singleton_zero():
    inst = Instance.from_points("p", [(0.0, 0.0)], L2)
    assert diameter((0,), inst) == 0.0


def test_diameter_of_line_groups():
    # dense run spans 2^n - 1, full group spans 2^(n+1) - 1
    case = gen_line_1d(3)
    inst = case.instance
    group = 2 ** 3 + 2
    dense = tuple(range(1, 1 + 2 ** 3))
    assert diameter(dense, inst) == 7.0
    assert diameter(tuple(range(group)), inst) == 15.0


def test_discrete_radius_singleton_and_pair():
    inst = Instance.from_points("pq", [(0.0, 0.0), (3.0, 4.0)], L2)
    assert discrete_radius((0,), inst) == (0.0, 0)
    val, center = discrete_radius((0, 1), inst)
    assert val == 5.0
    assert center == 0  # smallest id on ties


def test_discrete_radius_final_hypercube_cluster_equals_diameter():
    case = gen_hypercube_l1(8)
    inst = case.instance
    group = tuple(range(8))  # all tags of unit-vector group 0
    val, _ = discrete_radius(group, inst)
    assert val == 3.0 == diameter(group, inst)


def test_radius_two_points_l2():
    inst = Instance.from_points("pq", [(0.0, 0.0), (3.0, 4.0)], L2)
    ball = radius((0, 1), inst)
    assert ball.radius == 2.5
    assert ball.center == (1.5, 2.0)
    assert not ball.approximate


def test_radius_unit_square_linf():
    inst = Instance.from_points(
        "sq", [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)], LINF
    )
    ball = radius(range(4), inst)
    assert ball.radius == 0.5
    assert not ball.approximate


def test_radius_equilateral_triangle():
    # value frozen from the iteratively refined grid search (1/sqrt(3))
    tri = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)]
    inst = Instance.from_points("tri", tri, L2)
    ball = radius(range(3), inst)
    assert ball.radius == pytest.approx(0.5773502691896258, abs=1e-7)


def test_radius_general_p_flagged_approximate():
    inst = Instance.from_points(
        "l1ball", [(0.0, 0.0), (2.0, 0.0), (1.0, 1.0), (1.0, -1.0)], L1
    )
    ball = radius(range(4), inst)
    assert ball.approximate
    # center (1, 0) encloses everything at l1 distance 1
    assert ball.radius == pytest.approx(1.0, abs=1e-5)


def test_radius_l1_triangle_is_a_float_flagged_approximate():
    inst = Instance.from_points("tri", [(0.0, 0.0), (2.0, 0.0), (1.0, 1.0)], L1)
    ball = radius(range(3), inst)
    assert ball.approximate
    assert type(ball.radius) is float
    assert abs(ball.radius - 1.0) <= tie_width(1.0)


def _ball_family(rng):
    # uniform, nearly collinear, integer with duplicates and two clumps
    for n in (3, 5, 8, 12):
        for d in (2, 3):
            yield rng.uniform(-1.0, 1.0, (n, d))
            line = rng.uniform(-1.0, 1.0, (n, 1)) * rng.normal(size=d)
            yield line + rng.uniform(-1.0, 1.0, d) + 1e-6 * rng.normal(size=(n, d))
            grid = rng.integers(0, 4, (n, d)).astype(float)
            yield np.vstack([grid, grid[:1]])
            yield 0.01 * rng.normal(size=(n, d)) + 3.0 * (np.arange(n) % 2)[:, None]


def _l1_radius_lp(pts):
    # minimize r over (c, r) subject to s . (x - c) <= r for every point x and
    # every sign vector s, which together say ||x - c||_1 <= r
    from scipy.optimize import linprog

    n, d = pts.shape
    signs = np.array(np.meshgrid(*[(-1.0, 1.0)] * d)).reshape(d, -1).T
    a_ub = np.hstack([np.tile(-signs, (n, 1)), -np.ones((n * len(signs), 1))])
    b_ub = -(pts @ signs.T).ravel()
    res = linprog(np.eye(d + 1)[-1], A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * (d + 1),
                  method="highs")
    assert res.status == 0
    return res.fun


def test_radius_general_p_against_independent_references():
    # l1: the exact LP, within 1e-9 relative either way; lp1.5 and lp3: at
    # most the grid oracle's upper bound, and at least half the diameter
    for pts in _ball_family(np.random.default_rng(13)):
        members = range(len(pts))
        ball = radius(members, Instance.from_points("l1", pts.tolist(), L1))
        ref = _l1_radius_lp(pts)
        assert abs(ball.radius - ref) <= 1e-9 * ref
        for norm in (Norm(1.5), Norm(3.0)):
            inst = Instance.from_points("lp", pts.tolist(), norm)
            ball = radius(members, inst)
            assert ball.radius <= grid_search_enclosing_radius(pts, norm) * (1.0 + 1e-9)
            half = diameter(members, inst) / 2.0
            assert ball.radius >= half - tie_width(half)


def test_radius_general_p_is_scale_free_and_reports_floats():
    rng = np.random.default_rng(17)
    sets = [rng.uniform(-1.0, 1.0, (int(rng.integers(3, 9)), int(rng.integers(2, 4))))
            for _ in range(8)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pts in sets:
            for norm in (L1, Norm(1.5), Norm(3.0)):
                base = radius(range(len(pts)), Instance.from_points("p", pts.tolist(), norm))
                for s in (1e-100, 1e-3, 1e3, 1e100):
                    inst = Instance.from_points("sp", (s * pts).tolist(), norm)
                    ball = radius(range(len(pts)), inst)
                    assert abs(ball.radius / s - base.radius) <= 1e-9 * base.radius
                    assert type(ball.radius) is float
                    assert all(type(x) is float for x in ball.center)


def test_radius_two_distinct_points_is_their_midpoint_under_every_p():
    rng = np.random.default_rng(11)
    for norm in (L1, Norm(1.5), Norm(3.0)):
        for d in (2, 3):
            for _ in range(5):
                a, b = (tuple(rng.uniform(-10.0, 10.0, d).tolist()) for _ in range(2))
                ball = radius(range(3), Instance.from_points("pair", [a, b, a], norm))
                assert not ball.approximate
                assert ball.center == tuple(x / 2 + y / 2 for x, y in zip(a, b))
                half = distance(a, b, norm) / 2
                assert abs(ball.radius - half) <= tie_width(half)
    # halving each end first keeps the center finite where (a + b) / 2
    # would overflow
    a, b = (1.7e308, 1.0), (1.6e308, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ball = radius((0, 1), Instance.from_points("top", [a, b], L1))
    assert ball.center == (a[0] / 2 + b[0] / 2, 1.5)
    assert abs(ball.radius - distance(a, b, L1) / 2) <= tie_width(ball.radius)


def test_radius_one_dimensional_is_midrange_for_any_norm():
    inst = Instance.from_points("line", [(0.0,), (1.0,), (10.0,)], Norm(3.0))
    ball = radius(range(3), inst)
    assert ball.radius == 5.0
    assert ball.center == (5.0,)
    assert not ball.approximate


def test_cluster_cost_dispatch():
    inst = Instance.from_points("pq", [(0.0, 0.0), (3.0, 4.0)], L2)
    singleton = Instance.from_points("s", [(7.0,)], L2)
    assert cluster_cost(Problem.DIAMETER, (0,), singleton) == 0.0
    assert cluster_cost(Problem.DISCRETE_RADIUS, (0, 1), inst) == 5.0
    assert cluster_cost(Problem.RADIUS, (0, 1), inst) == 2.5


def test_powered_matrix_matches_scalar_path():
    inst = Instance.from_points(
        "m", [(0.25, 1.5, -2.0), (1.0, 0.0, 4.0), (-3.5, 2.25, 0.5)], L2
    )
    mat = powered_matrix(inst)
    for i in range(3):
        for j in range(3):
            assert mat[i, j] == powered_distance(inst.points[i], inst.points[j], L2)
    # 520 points span five row blocks of the distance kernel whatever d is;
    # at 1e-160 the terms underflow, at 1e200 they overflow to inf
    n = 520
    assert -(-n // (metrics._BLOCK_ELEMENTS // n)) >= 4
    rng = np.random.default_rng(11)
    for d in (1, 2, 3, 4):
        unit = rng.uniform(-5.0, 5.0, size=(n, d))
        for scale in (1e-160, 1.0, 1e200):
            pts = (unit * scale).tolist()
            for norm in (L1, L2, LINF, Norm(1.5), Norm(3.0)):
                inst = Instance.from_points("blocks", pts, norm)
                mat = powered_matrix(inst)
                for i in range(0, n, 29):
                    for j in range(n):
                        assert mat[i, j] == powered_distance(inst.points[i], inst.points[j], norm)
    # at d >= 8 a summed axis is added pairwise, the scalar path left to right
    pts = rng.uniform(0.0, 1.0, size=(40, 8)).tolist()
    for norm in (L1, L2):
        inst = Instance.from_points("d8", pts, norm)
        mat = powered_matrix(inst)
        for i in range(40):
            for j in range(40):
                assert mat[i, j] == powered_distance(inst.points[i], inst.points[j], norm)


def test_overflowing_powers_are_infinite_on_every_path():
    # Python's float ** raises OverflowError where np.float_power gives inf
    norm = Norm(1.5)
    inst = Instance.from_points("huge", [(0.0, 0.0), (1e300, 0.0)], norm)
    assert powered_distance(inst.points[0], inst.points[1], norm) == math.inf
    assert powered_matrix(inst)[0, 1] == math.inf
    assert diameter((0, 1), inst) == math.inf
    # l2 and lp3: the powered extent overflows, so the ball is infinite like
    # the diameter, every linkage ties every pair at inf, and the NN-chain,
    # which scipy would refuse, makes the naive loop's merges; under l1 and
    # lp1.5 no power overflows.  None of it warns.
    huge = [(1e200, 0.0), (-1e200, 0.0), (0.0, 1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for norm in (L2, Norm(3.0)):
            wide = Instance.from_points("wide", huge, norm)
            assert radius(range(3), wide).radius == math.inf
            for problem in Problem:
                steps = agglomerate(wide, problem).steps
                assert [(s.id_a, s.id_b, s.cost) for s in steps] == [
                    (0, 1, math.inf), (2, 3, math.inf)]
            assert agglomerate_nn_chain(wide).steps == steps
        for norm in (L1, Norm(1.5)):
            wide = Instance.from_points("wide", huge, norm)
            assert radius(range(3), wide).radius < math.inf
            assert agglomerate(wide, Problem.RADIUS).steps[-1].cost < math.inf
        # here the coordinate difference itself overflows
        ends = [(1.7e308, 0.0), (-1.7e308, 0.0)]
        for norm in (L1, LINF):
            assert powered_matrix(Instance.from_points("ends", ends, norm))[0, 1] == math.inf
            assert min_pairwise_distance(ends, norm) == math.inf
    # the bounding box's diagonal overflows here, but no squared distance does
    a = 1e154
    tilted = Instance.from_points("tilted", [(0.0, 0.0), (a, a / 2), (a / 2, a)], L2)
    diam = diameter(range(3), tilted)
    assert diam / 2 <= radius(range(3), tilted).radius < diam


@pytest.mark.parametrize("points, norm", [
    ([(1.5e308,), (1.6e308,), (1.55e308,)], L2),
    ([(1.5e308, 1.0), (1.6e308, 0.0), (1.55e308, 2.0), (1.52e308, 3.0)], LINF),
])
def test_midrange_ball_near_the_largest_float(points, norm):
    # lo + hi overflows here; lo / 2 + hi / 2 is the correctly rounded
    # midpoint, so it covers every point to the last bit of its coordinates,
    # and the radius stays half the largest span
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ball = radius(range(len(points)), Instance.from_points("far", points, norm))
    assert all(math.isfinite(c) for c in ball.center)
    for p in points:
        for x, c in zip(p, ball.center):
            assert abs(x - c) <= ball.radius + math.ulp(c) / 2
    assert ball.radius == max(max(col) - min(col) for col in zip(*points)) / 2


@pytest.mark.parametrize("norm", [Norm(1.5), Norm(3.0)])
@pytest.mark.parametrize("points", [
    [(0.0, 0.0), (5e-324, 0.0), (0.0, 5e-324)],
    [(0.0, 5e-324), (5e-324, 5e-324), (5e-324, 0.0)],
])
def test_general_p_ball_of_a_subnormal_box(points, norm):
    # half of each span rounds to 0, so the solve scales by the whole span
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ball = radius(range(3), Instance.from_points("tiny", points, norm))
    assert ball.approximate
    assert math.isfinite(ball.radius)
    assert ball.radius == max(distance(p, ball.center, norm) for p in points)


def test_unpower_array_matches_scalar_root():
    rng = np.random.default_rng(12)
    values = np.concatenate([rng.uniform(0.0, 50.0, 20000), [0.0, 1.0, 1e-300]])
    for norm in (L1, L2, LINF, Norm(1.5), Norm(3.0)):
        roots = unpower_array(values, norm)
        assert [float(r) for r in roots] == [unpower(float(v), norm) for v in values]


# ---------------------------------------------------------------------------
# property tests

_int_coords = st.integers(min_value=-50, max_value=50)
_float_coords = st.floats(min_value=-100.0, max_value=100.0,
                          allow_nan=False, allow_infinity=False)


def _point(coords, dim):
    return st.tuples(*([coords] * dim))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    _point(_int_coords, d), _point(_int_coords, d), _point(_int_coords, d))),
    st.sampled_from([L1, LINF]))
def test_metric_axioms_exact_on_integers(triple, norm):
    a, b, c = [tuple(float(x) for x in p) for p in triple]
    assert distance(a, b, norm) == distance(b, a, norm)
    assert distance(a, b, norm) >= 0.0
    assert (distance(a, b, norm) == 0.0) == (a == b)
    assert distance(a, c, norm) <= distance(a, b, norm) + distance(b, c, norm)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    _point(_float_coords, d), _point(_float_coords, d), _point(_float_coords, d))),
    st.sampled_from([L2, Norm(3.0)]))
def test_metric_axioms_with_tolerance(triple, norm):
    a, b, c = triple
    assert distance(a, b, norm) == distance(b, a, norm)
    assert distance(a, c, norm) <= distance(a, b, norm) + distance(b, c, norm) + 1e-12


_small_cloud = st.integers(2, 3).flatmap(
    lambda d: st.lists(_point(_float_coords, d), min_size=2, max_size=8)
)


@settings(max_examples=40, deadline=None)
@given(_small_cloud, st.sampled_from([L2, LINF]))
def test_cost_chain_radius_drad_diameter(points, norm):
    inst = Instance.from_points("chain", points, norm)
    ids = range(len(points))
    rad = radius(ids, inst).radius
    drad, _ = discrete_radius(ids, inst)
    diam = diameter(ids, inst)
    tol = 1e-9 * max(diam, 1.0)
    assert rad <= drad + tol
    assert drad <= diam + tol
    assert diam <= 2.0 * rad + tol


@settings(max_examples=40, deadline=None)
@given(_small_cloud, _small_cloud.filter(lambda pts: len(pts[0]) == 2),
       st.sampled_from([L2, L1, LINF]))
def test_union_diameter_decomposition(pts_a, pts_b, norm):
    # diam(A u B) = max(diam A, diam B, largest cross-pair distance), exactly
    dim = len(pts_a[0])
    pts_b = [p[:dim] + (0.0,) * (dim - len(p)) for p in pts_b]
    all_pts = list(pts_a) + list(pts_b)
    inst = Instance.from_points("u", all_pts, norm)
    na = len(pts_a)
    ids_a = tuple(range(na))
    ids_b = tuple(range(na, len(all_pts)))
    cross = max(distance(a, b, norm) for a in pts_a for b in pts_b)
    expected = max(diameter(ids_a, inst), diameter(ids_b, inst), cross)
    assert diameter(ids_a + ids_b, inst) == expected


@settings(max_examples=40, deadline=None)
@given(_small_cloud, st.sampled_from([L2, LINF]))
def test_union_monotonicity(points, norm):
    # diameter and enclosing radius never shrink under union; the
    # member-centered radius can shrink (a new point may be a better
    # center), but never below half the old value
    inst = Instance.from_points("mono", points, norm)
    n = len(points)
    half = max(1, n // 2)
    part, whole = tuple(range(half)), tuple(range(n))
    assert diameter(whole, inst) >= diameter(part, inst)
    assert radius(whole, inst).radius >= radius(part, inst).radius - 1e-12
    assert discrete_radius(whole, inst)[0] >= discrete_radius(part, inst)[0] / 2.0 - 1e-12


@settings(max_examples=25, deadline=None)
@given(_small_cloud)
# the grid oracle's simplex polish used to stall 1.4e-6 above the exact radius
@example([(27.63572053293484, 72.97744785256691, -88.7749114458729),
          (97.7904236336511, 0.0, -1e-05),
          (-86.31327800959369, 0.0, -52.511033924864925)])
# and 1.46e-6 above it here, at a kink of four support points
@example([(0.0, 0.0, 0.0), (24.0, 42.39958821170626, 72.53314013668114),
          (10.6875, -88.85120613303816, 0.0), (88.921875, 0.0, 0.0),
          (0.30078125, 0.0, -41.8203125)])
def test_enclosing_ball_membership_and_grid_agreement(points):
    inst = Instance.from_points("ball", points, L2)
    ball = radius(range(len(points)), inst)
    for p in points:
        assert distance(p, ball.center, L2) <= ball.radius + 1e-9
    grid = grid_search_enclosing_radius(points, L2)
    assert abs(ball.radius - grid) <= 1e-6



@pytest.mark.parametrize("scale", [1e-8, 1e-15, 1e-16, 1e-20, 1e-100, 1e-150])
def test_euclidean_ball_is_exact_at_small_scales(scale):
    # a 3-4-5 right triangle (circumradius 2.5) and a point inside its
    # circumcircle; an absolute floor in the covering test once let the
    # incremental solver keep a ball missing the triangle's third vertex
    pts = [(0.0, 0.0), (3 * scale, 0.0), (0.0, 4 * scale), (1.5 * scale, 4.4 * scale)]
    ball = radius(range(4), Instance.from_points("small", pts, L2))
    assert not ball.approximate
    assert ball.radius == pytest.approx(2.5 * scale, rel=1e-12, abs=0.0)


def _brute_force_l2_radius(pts):
    # the smallest circumball, over all subsets of at most d + 1 points, that
    # covers every point: each subset's circumcenter is scored by its largest
    # distance to any point, which is its circumradius when it covers them
    # and more otherwise, so no covering tolerance is needed
    n, d = pts.shape
    best = math.inf
    for size in range(1, min(n, d + 1) + 1):
        for sub in itertools.combinations(range(n), size):
            base, rows = pts[sub[0]], pts[list(sub[1:])] - pts[sub[0]]
            try:
                lam = np.linalg.solve(rows @ rows.T, (rows * rows).sum(axis=1) / 2.0)
            except np.linalg.LinAlgError:
                continue
            center = base + lam @ rows
            best = min(best, math.sqrt(float(((pts - center) ** 2).sum(axis=1).max())))
    return best


@st.composite
def _l2_ball_sets(draw):
    # uniform, integer grids with a duplicate, regular polygons in a random
    # plane (cocircular), points on a sphere (cospherical) and near-collinear
    # sets, at unit scale
    d, n = draw(st.integers(2, 5)), draw(st.integers(2, 12))
    kind = draw(st.sampled_from(["uniform", "grid", "polygon", "sphere", "line"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "uniform":
        return rng.uniform(-1.0, 1.0, (n, d))
    if kind == "grid":
        pts = rng.integers(0, 3, (n, d)).astype(float)
        pts[-1] = pts[0]
        return pts
    if kind == "polygon":
        plane, _ = np.linalg.qr(rng.normal(size=(d, 2)))
        angles = 2.0 * math.pi * np.arange(n) / n
        return np.column_stack([np.cos(angles), np.sin(angles)]) @ plane.T
    if kind == "sphere":
        pts = rng.normal(size=(n, d))
        return pts / np.linalg.norm(pts, axis=1, keepdims=True)
    line = rng.uniform(-1.0, 1.0, (n, 1)) * rng.normal(size=d)
    return line + 1e-6 * rng.normal(size=(n, d))


@settings(max_examples=80, deadline=None)
@given(_l2_ball_sets(), st.sampled_from([1e-150, 1.0, 1e150]))
def test_euclidean_ball_matches_brute_force_reference(pts, scale):
    ref = scale * _brute_force_l2_radius(pts)
    points = (scale * pts).tolist()
    ball = radius(range(len(points)), Instance.from_points("ball", points, L2))
    assert abs(ball.radius - ref) <= 1e-12 * ref
    assert ball.radius == max(distance(p, ball.center, L2) for p in points)
    assert ball.approximate is False


def test_euclidean_ball_makes_few_pivot_passes_and_solves(monkeypatch):
    # a regression guard on the work, counted, not timed: 8 kernel calls (7
    # pivot passes and the final radius) and 28 boundary solves here, where
    # the recursive Welzl it replaced made 3664 solves
    kernel, solves = [], []

    def counted(real, calls):
        def wrapper(*args):
            calls.append(1)
            return real(*args)
        return wrapper

    monkeypatch.setattr(metrics, "_powered_norms", counted(metrics._powered_norms, kernel))
    monkeypatch.setattr(metrics, "_circumcenter", counted(metrics._circumcenter, solves))
    pts = np.random.default_rng(1).uniform(-1.0, 1.0, (4096, 3))
    ball = radius(range(4096), Instance.from_points("big", pts.tolist(), L2))
    assert len(kernel) <= 16
    assert len(solves) <= 64
    assert not ball.approximate


# ---------------------------------------------------------------------------
# the grid enclosing-ball oracle against its reference


def _reference_grid_search(
    points,
    norm=L2,
    tol=1e-7,
):
    """The grid oracle as it was before its column kernel: every candidate's
    distances to every point in one (candidates, n, d) array, rooted before
    the maximum over the points.  Kept as the slow reference for
    :func:`grid_search_enclosing_radius`, which must equal it bit for bit."""
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    lo = arr.min(axis=0).astype(float)
    hi = arr.max(axis=0).astype(float)
    d = arr.shape[1]
    p = norm.p

    def worst(cands: np.ndarray) -> np.ndarray:
        out = np.empty(len(cands))
        for s in range(0, len(cands), 131072):
            diff = np.abs(cands[s:s + 131072, None, :] - arr[None, :, :])
            if math.isinf(p):
                dist = diff.max(axis=-1)
            elif p == 1.0:
                dist = diff.sum(axis=-1)
            else:
                dist = (diff ** p).sum(axis=-1) ** (1.0 / p)
            out[s:s + 131072] = dist.max(axis=1)
        return out

    mid = (lo + hi) / 2.0
    best = float(worst(mid[None, :])[0])
    best_center = mid.copy()
    zero = (0.0,) * d
    for resolution in [14] * 8 + [40] * 4:
        width = hi - lo
        wmax = float(width.max())
        if wmax <= 0.0:
            break
        ref = wmax / resolution
        counts = [int(min(81, max(4, math.ceil(w / ref)))) + 1 for w in width]
        axes = [np.linspace(lo[i], hi[i], counts[i]) for i in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        cands = np.stack([m.ravel() for m in mesh], axis=1)
        vals = worst(cands)
        idx = int(vals.argmin())
        if float(vals[idx]) < best:
            best = float(vals[idx])
            best_center = cands[idx].copy()
        cell = np.array([axes[i][1] - axes[i][0] if counts[i] > 1 else 0.0 for i in range(d)])
        slack = distance(tuple(cell / 2.0), zero, norm)
        # tiny inflation keeps boundary-equal grid values selected despite
        # rounding; a larger selection stays certified
        sel = cands[vals <= best + slack * (1.0 + 1e-9) + 1e-15]
        if len(sel) == 0:
            sel = cands[idx][None, :]
        lo = np.maximum(lo, sel.min(axis=0) - cell)
        hi = np.minimum(hi, sel.max(axis=0) + cell)
        if slack <= tol / 2.0:
            break

    # one SQP step on the epigraph form for 1 <= p < inf, in coordinates
    # centred on the grid's point and scaled by its value; its value is
    # taken whenever it is lower
    if p < math.inf and best > 0.0:
        from scipy.optimize import minimize

        rel = (arr - best_center) / best

        def spare(z):
            return z[-1] - (np.abs(rel - z[:-1]) ** p).sum(axis=1)

        def spare_jac(z):
            diff = rel - z[:-1]
            return np.hstack([p * np.sign(diff) * np.abs(diff) ** (p - 1.0),
                              np.ones((len(rel), 1))])

        res = minimize(
            lambda z: z[-1],
            np.append(np.zeros(d), float((np.abs(rel) ** p).sum(axis=1).max())),
            jac=lambda z: np.eye(d + 1)[-1],
            method="SLSQP",
            constraints=[{"type": "ineq", "fun": spare, "jac": spare_jac}],
            options={"maxiter": 100, "ftol": 1e-15},
        )
        polished = float(worst((best_center + best * res.x[:d])[None, :])[0])
        if polished < best:
            best = polished
    return best



@pytest.mark.parametrize("seed", [1, 2026, 10001, 12026])
def test_grid_search_matches_reference_on_crosscheck_draws(seed, monkeypatch):
    calls = []

    def record(points, norm=L2):
        value = grid_search_enclosing_radius(points, norm)
        calls.append((points, norm, value))
        return value

    monkeypatch.setattr(harness, "grid_search_enclosing_radius", record)
    assert harness.verify_suite("oracle-crosscheck", seed).passed
    assert len(calls) == 20
    for points, norm, value in calls:
        assert value.hex() == _reference_grid_search(points, norm).hex()


@settings(max_examples=30, deadline=None)
@given(_small_cloud, st.sampled_from([L1, L2, LINF]))
def test_grid_search_matches_reference_bit_for_bit(points, norm):
    got = grid_search_enclosing_radius(points, norm)
    assert got.hex() == _reference_grid_search(points, norm).hex()


def test_grid_rounds_match_reference_bit_for_bit():
    # the polish mostly rounds a grid value's last bits away, so switch it
    # off: both oracles then return their grid's least value.  The clouds'
    # sums are not exact, so the order of the terms shows.
    rng = np.random.default_rng(12)
    with mock.patch("scipy.optimize.minimize",
                    lambda fun, x0, **_: OptimizeResult(x=np.asarray(x0, dtype=float))):
        for _ in range(20):
            n, d = int(rng.integers(2, 9)), int(rng.integers(2, 4))
            points = rng.uniform(-1.0, 1.0, size=(n, d)).tolist()
            for norm in (L1, L2, LINF):
                got = grid_search_enclosing_radius(points, norm)
                assert got.hex() == _reference_grid_search(points, norm).hex()


@pytest.mark.parametrize("norm", [Norm(1.5), Norm(3.0)])
def test_grid_search_lp_within_four_ulps_of_reference(norm):
    # the root is taken after the maximum, not before it; numpy's pow need not
    # be monotone in the last bit
    rng = np.random.default_rng(11)
    for _ in range(6):
        n, d = int(rng.integers(2, 9)), int(rng.integers(1, 4))
        points = rng.uniform(-1.0, 1.0, size=(n, d)).tolist()
        got = grid_search_enclosing_radius(points, norm)
        ref = _reference_grid_search(points, norm)
        assert abs(got - ref) <= 4 * math.ulp(ref)


@pytest.mark.parametrize("norm", [L1, L2, LINF, Norm(1.5)])
@pytest.mark.parametrize("points", [
    [0.3, -1.2, 4.0, 2.5],                    # 1-d as a flat list
    [(0.3,), (-1.2,), (4.0,), (2.5,)],         # and as 1-tuples
    [(1.0, -2.0)],                             # a single point
    [(1.0, -2.0, 0.5)] * 4,                    # all duplicates
])
def test_grid_search_edge_inputs_match_reference(points, norm):
    got = grid_search_enclosing_radius(points, norm)
    assert got.hex() == _reference_grid_search(points, norm).hex()


@pytest.mark.parametrize("norm", [L1, L2, LINF, Norm(1.5), Norm(3.0)])
@pytest.mark.parametrize("pair", [
    [(0.2, -0.7), (0.9, 0.4)],
    [(0.2, -0.7, 1.1), (0.9, 0.4, -0.3)],
])
def test_grid_search_two_points_give_half_their_distance(pair, norm):
    half = distance(pair[0], pair[1], norm) / 2.0
    assert abs(grid_search_enclosing_radius(pair, norm) - half) <= 1e-7


def test_grid_search_closed_forms_for_linf_and_one_dimension():
    rng = np.random.default_rng(4)
    cloud = rng.uniform(-1.0, 1.0, size=(7, 3))
    spread = float((cloud.max(axis=0) - cloud.min(axis=0)).max())
    assert abs(grid_search_enclosing_radius(cloud.tolist(), LINF) - spread / 2.0) <= 1e-7
    line = rng.uniform(-1.0, 1.0, size=6)
    span = float(line.max() - line.min())
    for norm in (L1, L2, LINF, Norm(1.5), Norm(3.0)):
        assert abs(grid_search_enclosing_radius(line.tolist(), norm) - span / 2.0) <= 1e-7


def test_grid_search_overflow_is_infinite_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert grid_search_enclosing_radius([(1e200, 0.0), (-1e200, 0.0), (0.0, 1.0)], L2) == math.inf
        assert grid_search_enclosing_radius([(1e308, 0.0), (-1e308, 1.0)], LINF) == math.inf
        assert grid_search_enclosing_radius([(1e308, 0.0), (-1e308, 1.0)], L1) == math.inf
        assert grid_search_enclosing_radius([(1e103, 0.0), (-1e103, 1.0)], Norm(3.0)) == math.inf
        # every pairwise distance is finite here, though some grid values are not
        finite = [(0.0, 0.0), (1e154, 5e153), (5e153, 1e154)]
        assert grid_search_enclosing_radius(finite, L2) == 5.892556509887897e153


def test_grid_search_stops_on_a_subnormal_box():
    # a width of 5e-324 divides to a lattice step of 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert 0.0 <= grid_search_enclosing_radius([(0.0, 0.0), (0.0, 5e-324)], L2) <= 5e-324


@pytest.mark.parametrize("norm", [L2, Norm(3.0)])
@pytest.mark.parametrize("points", [[1.5e308, 1.6e308, 1.55e308], [-1e200, 1e200, 0.0]])
def test_grid_search_one_dimension_past_an_overflowed_power(points, norm):
    # a powered distance overflows, but in one dimension the value is half
    # the span, which is finite, as radius() gives it
    want = radius(range(3), Instance.from_points("line", [(x,) for x in points], norm)).radius
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = grid_search_enclosing_radius(points, norm)
        assert grid_search_enclosing_radius([-1e308, 1e308, 0.0], norm) == math.inf
    assert want == (max(points) - min(points)) / 2.0
    assert want * (1.0 - 1e-15) <= got <= want * (1.0 + 1e-7)


def test_grid_search_memory_stays_near_one_lattice():
    # the lattice is evaluated one point at a time from per-axis term
    # tables; the largest lattice here has 41 x 41 x 17 points, and one
    # array of every point's value at every lattice point would take 46 MB
    import tracemalloc

    points = np.random.default_rng(3).uniform(-1.0, 1.0, (200, 3)).tolist()
    grid_search_enclosing_radius(points[:3], L2)  # imports the polish's solver untraced
    tracemalloc.start()
    try:
        grid_search_enclosing_radius(points, L2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def _l1_enclosing_radius(points):
    # min t s.t. sigma . (x_i - c) <= t for every point i and sign vector
    # sigma, an LP whose optimum is the exact l1 radius
    from itertools import product
    from scipy.optimize import linprog

    arr = np.asarray(points, dtype=float)
    d = arr.shape[1]
    signs = np.array(list(product((-1.0, 1.0), repeat=d)))
    rows = np.hstack([np.repeat(-signs, len(arr), axis=0),
                      -np.ones((len(signs) * len(arr), 1))])
    rhs = -(signs @ arr.T).ravel()
    res = linprog(np.eye(d + 1)[-1], A_ub=rows, b_ub=rhs, bounds=[(None, None)] * (d + 1))
    assert res.status == 0
    return float(res.fun)


@pytest.mark.parametrize("scale", [1e-12, 1e-9, 1.0, 1e100, 1e154])
def test_grid_search_is_relative_at_every_scale(scale):
    # an absolute tolerance once left the oracle 1.9 % above Welzl's radius
    # at 1e-9 and spent 0.9 s at 1e154; the unit clouds lie in [0, 0.5]^d,
    # so no squared distance overflows at 1e154
    rng = np.random.default_rng(21)
    for _ in range(6):
        n, d = int(rng.integers(3, 9)), int(rng.integers(2, 4))
        unit = rng.uniform(0.0, 0.5, size=(n, d))
        points = (unit * scale).tolist()
        inst = Instance.from_points("scaled", points, L2)
        exact = {
            L2: radius(range(n), inst).radius,
            LINF: float((unit.max(axis=0) - unit.min(axis=0)).max()) / 2.0 * scale,
            L1: _l1_enclosing_radius(unit) * scale,
        }
        for norm, want in exact.items():
            got = grid_search_enclosing_radius(points, norm)
            assert abs(got - want) <= 1e-9 * want, (norm, got, want)


def test_grid_search_polishes_with_one_sqp_call():
    s = 1e154
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("method"))
        return minimize(*args, **kwargs)

    with mock.patch("scipy.optimize.minimize", counted):
        got = grid_search_enclosing_radius([(0.0, 0.0), (s, 0.5 * s), (0.5 * s, s)], L2)
    assert calls == ["SLSQP"]
    assert got == pytest.approx(5.892556509887897e153, rel=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_grid_search_rejects_non_finite_coordinates(bad):
    with pytest.raises(ValueError, match="point 1 has a non-finite coordinate"):
        grid_search_enclosing_radius([(0.0, 1.0), (2.0, bad), (1.0, 0.0)], L2)
    with pytest.raises(ValueError, match="point 2 has a non-finite coordinate"):
        grid_search_enclosing_radius([0.0, 1.0, bad], L1)


def test_cached_cluster_values_are_exact_copies():
    # the cost each step records is the one a fresh recomputation gives for
    # the cluster it makes, bit for bit
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.0, 1.0, size=(12, 2))
    pts8 = rng.uniform(0.0, 1.0, size=(40, 8))

    def drad(c, inst):
        return discrete_radius(c, inst)[0]

    for norm, coords in ((L2, pts), (Norm(1.5), pts), (Norm(3.0), pts), (L2, pts8)):
        inst = Instance.from_points("cache", coords.tolist(), norm)
        for problem, cost in ((Problem.DIAMETER, diameter), (Problem.DISCRETE_RADIUS, drad)):
            members = {i: (i,) for i in range(len(inst))}
            for s in agglomerate(inst, problem).steps:
                members[s.new_id] = members.pop(s.id_a) + members.pop(s.id_b)
                assert s.cost == cost(Cluster(members[s.new_id]), inst)


def test_unpower_round_trip():
    for norm in (L1, L2, LINF, Norm(3.0)):
        v = powered_distance((0.0, 2.0), (1.5, -1.0), norm)
        assert unpower(v, norm) == pytest.approx(distance((0.0, 2.0), (1.5, -1.0), norm), rel=1e-15)
