import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agglolab import (
    CoverableSample,
    Norm,
    L1,
    L2,
    LINF,
    ParseError,
    Problem,
    agglomerate,
    diameter,
    distance,
    gen_hypercube_l1,
    gen_l2_3d,
    gen_line_1d,
    gen_linf_2d,
    gen_random,
    hypercube_reference_clusters,
    read_case,
    read_instance,
    write_case,
    write_instance,
)
from agglolab.forge import ExpectedOutcome
from agglolab.metrics import BallCover


def test_line_generator_shape_and_gap():
    for n_param in (2, 3, 4):
        case = gen_line_1d(n_param)
        inst = case.instance
        group = 2 ** n_param + 2
        assert len(inst.points) == 4 * group
        half = 2 ** (n_param - 1)
        for g in range(3):
            right = inst.points[(g + 1) * group - 1]
            left = inst.points[(g + 1) * group]
            assert distance(right, left, L2) == float(3 * half - 1)


def test_line_generator_script_is_a_valid_run():
    case = gen_line_1d(2)
    h = agglomerate(case.instance, Problem.DIAMETER, script=case.script, stop_at_k=4)
    exp = case.expected
    assert h.cost_at_k(exp.k) == exp.algo_cost == 17.0
    assert exp.opt_cost == 7.0
    assert exp.ratio == 17.0 / 7.0


def test_line_generator_precondition():
    with pytest.raises(ValueError):
        gen_line_1d(1)


def test_linf_generator():
    case = gen_linf_2d()
    assert len(case.instance.points) == 8
    h = agglomerate(case.instance, Problem.DIAMETER, script=case.script, stop_at_k=4)
    # third scripted merge joins the two inner pairs at max-norm diameter 2
    assert h.steps[2].cost == 2.0
    assert h.cost_at_k(4) == 3.0
    assert case.expected.ratio == 3.0


def test_euclidean_generator_geometry():
    for x in (0.5, 1.0, 1.56):
        case = gen_l2_3d(x)
        pts = case.instance.points
        assert distance(pts[0], pts[4], L2) == pytest.approx(2.0, abs=1e-12)
        assert diameter((0, 1, 2, 3), case.instance) == pytest.approx(
            2.0 * math.sqrt(2.0 + x), abs=1e-12
        )
    case = gen_l2_3d(1.56)
    assert case.expected.algo_cost == pytest.approx(5.12, abs=1e-12)
    assert case.expected.ratio == pytest.approx(2.56, abs=1e-12)


def test_euclidean_generator_script_valid_across_parameters():
    # the scripted run exists for x above the golden-ratio threshold, where
    # the central quadruple merge is no more expensive than the outer pair
    for x in (0.7, 1.0, 1.56):
        case = gen_l2_3d(x)
        h = agglomerate(case.instance, Problem.DIAMETER,
                        script=case.script, stop_at_k=4)
        assert h.cost_at_k(4) == pytest.approx(2.0 * (1.0 + x), abs=1e-12)


def test_euclidean_generator_script_rejected_for_small_x():
    # below x = (sqrt(5)-1)/2 the outer pair at 2(1+x) undercuts the
    # quadruple at 2 sqrt(2+x), so no greedy run follows the script
    from agglolab import ScriptViolationError

    case = gen_l2_3d(0.5)
    with pytest.raises(ScriptViolationError):
        agglomerate(case.instance, Problem.DIAMETER,
                    script=case.script, stop_at_k=4)


def test_euclidean_generator_range():
    for bad in (0.0, 2.0, -1.0, 2.5):
        with pytest.raises(ValueError):
            gen_l2_3d(bad)


def test_hypercube_distances():
    case = gen_hypercube_l1(8)
    pts = case.instance.points
    # cross-group distances are 2 plus the tag Hamming distance
    assert distance(pts[0 * 8 + 0], pts[1 * 8 + 0], L1) == 2.0
    assert distance(pts[0 * 8 + 0], pts[1 * 8 + 7], L1) == 2.0 + 3.0
    assert distance(pts[0 * 8 + 5], pts[0 * 8 + 2], L1) == 3.0  # tags 101 vs 010


def test_hypercube_smallest_case():
    case = gen_hypercube_l1(2)
    assert len(case.instance.points) == 4
    assert case.instance.dim == 3
    h = agglomerate(case.instance, Problem.DIAMETER, script=case.script, stop_at_k=2)
    assert h.cost_at_k(2) == 1.0
    ref = max(diameter(c, case.instance) for c in hypercube_reference_clusters(2))
    assert ref == 2.0
    assert case.expected.ratio == 0.5


def test_hypercube_linkages_agree_per_level():
    case = gen_hypercube_l1(4)
    inst = case.instance
    hd = agglomerate(inst, Problem.DIAMETER, script=case.script, stop_at_k=4)
    hr = agglomerate(inst, Problem.DISCRETE_RADIUS, script=case.script, stop_at_k=4)
    for k in range(4, 17):
        assert hd.cost_at_k(k) == hr.cost_at_k(k)


def test_hypercube_under_general_p_norm():
    # 0/1 coordinates make the p-th power of any lp distance equal the l1
    # distance, so the same script is valid and costs scale as a p-th root
    from dataclasses import replace

    case = gen_hypercube_l1(8)
    for p in (2.0, 3.0):
        inst = replace(case.instance, norm=Norm(p))
        h = agglomerate(inst, Problem.DIAMETER, script=case.script, stop_at_k=8)
        assert h.cost_at_k(8) == pytest.approx(3.0 ** (1.0 / p), abs=1e-9)


def test_hypercube_validation():
    for bad in (1, 3, 6, 0):
        with pytest.raises(ValueError):
            gen_hypercube_l1(bad)


def test_random_families_deterministic():
    a = gen_random("uniform_cube", n=64, d=2, norm=L2, seed=7)
    b = gen_random("uniform_cube", n=64, d=2, norm=L2, seed=7)
    assert a.points == b.points
    g1 = gen_random("gaussian_blobs", n=20, d=3, norm=LINF, seed=8)
    g2 = gen_random("gaussian_blobs", n=20, d=3, norm=LINF, seed=8)
    assert g1.points == g2.points


def test_random_coverable_certificate():
    sample = gen_random("coverable", n=50, d=3, norm=L2, seed=9, k=3, r=2.0)
    assert isinstance(sample, CoverableSample)
    for p in sample.points:
        assert min(distance(p, c, L2) for c in sample.cover.centers) <= 2.0
    inst = sample.to_instance("cov")
    assert inst.dim == 3 and len(inst.points) == 50


def test_random_validation():
    with pytest.raises(ValueError):
        gen_random("gaussian_blobs", n=0, d=2, norm=L2, seed=1)
    with pytest.raises(ValueError):
        gen_random("coverable", n=5, d=2, norm=L2, seed=1)  # needs k and r
    with pytest.raises(ValueError):
        gen_random("no-such-family", n=5, d=2, norm=L2, seed=1)
    # a radius that is not finite, or whose center box 10 r max(1, k^(1/d))
    # overflows, is refused before any draw
    for r, k, d in ((math.nan, 2, 2), (math.inf, 2, 2), (-1.0, 2, 2),
                    (1e308, 1, 1), (1e306, 100, 1)):
        with pytest.raises(ValueError):
            gen_random("coverable", n=5, d=d, norm=L2, seed=1, k=k, r=r)


def _reference_coverable(n, d, norm, seed, k, r):
    """The former sampler: one size-d candidate per rejection step, tested
    by the scalar ``distance``."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 10.0 * r * max(1.0, k ** (1.0 / d)), size=(k, d))
    pts = []
    which = rng.integers(0, k, size=n)
    origin = (0.0,) * d
    for i in range(n):
        while True:  # rejection-sample the norm ball of radius r
            offset = rng.uniform(-r, r, size=d)
            if distance(tuple(offset), origin, norm) <= r:
                break
        pts.append(tuple(float(v) for v in centers[which[i]] + offset))
    cover = BallCover(radius=float(r), centers=tuple(tuple(float(c) for c in row) for row in centers))
    return CoverableSample(points=tuple(pts), cover=cover, norm=norm)


_FIVE_NORMS = [L1, L2, LINF, Norm(1.5), Norm(3.0)]


@pytest.mark.parametrize("norm", _FIVE_NORMS, ids=lambda norm: norm.label)
def test_coverable_matches_reference_sampler(norm):
    case = 0
    for d in (1, 2, 3, 4):
        for k in (1, 2, 5):
            for r in (0.0, 0.3, 3.0, 1e6):
                n = 1 + (case * 37) % 150
                seed = 500 + case
                case += 1
                got = gen_random("coverable", n=n, d=d, norm=norm, seed=seed, k=k, r=r)
                ref = _reference_coverable(n, d, norm, seed, k, r)
                assert got == ref and repr(got) == repr(ref), (d, k, r, n)


@pytest.mark.parametrize("args", [
    (2000, 2, L2, 116, 4, 1.0),  # the packing draw of the benchmark, seeds 1 and 7
    (2000, 2, L2, 716, 4, 1.0),
    (2000, 4, L1, 3, 5, 0.3),  # about one candidate in 24 is kept
    (1, 3, Norm(1.5), 4, 2, 3.0),
])
def test_coverable_matches_reference_sampler_at_size(args):
    got = gen_random("coverable", *args[:4], k=args[4], r=args[5])
    ref = _reference_coverable(*args)
    assert got == ref and repr(got) == repr(ref)


def test_instance_file_round_trip(tmp_path):
    inst = gen_random("uniform_cube", n=10, d=3, norm=L2, seed=12)
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    back = read_instance(path)
    assert back.points == inst.points  # bit-exact for finite doubles
    assert back.norm == inst.norm
    assert back.name == inst.name


def test_case_file_round_trip(tmp_path):
    case = gen_l2_3d(1.56)
    path = tmp_path / "case.json"
    write_case(case, path)
    back = read_case(path)
    assert back.instance.points == case.instance.points
    assert back.script.steps == case.script.steps
    assert back.expected == case.expected


def test_norm_encodings(tmp_path):
    for norm, encoded in ((L1, "l1"), (L2, "l2"), (LINF, "linf")):
        inst = gen_random("uniform_cube", n=3, d=1, norm=norm, seed=1)
        path = tmp_path / f"{encoded}.json"
        write_instance(inst, path)
        assert json.loads(path.read_text())["norm"] == encoded
        assert read_instance(path).norm == norm
    frac = gen_random("uniform_cube", n=3, d=1, norm=Norm(2.5), seed=1)
    path = tmp_path / "lp.json"
    write_instance(frac, path)
    assert json.loads(path.read_text())["norm"] == {"lp": 2.5}
    assert read_instance(path).norm == Norm(2.5)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(_finite, _finite), min_size=1, max_size=12))
def test_file_round_trip_bit_exact_for_finite_doubles(tmp_path_factory, coords):
    from agglolab import Instance

    inst = Instance(name="rt", dim=2, norm=L2, points=tuple(coords))
    path = tmp_path_factory.mktemp("rt") / "inst.json"
    write_instance(inst, path)
    back = read_instance(path)
    assert back.points == inst.points  # exact, including subnormals and extremes


def test_parse_error_missing_field(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x", "norm": "l2", "points": [[0.0]]}')
    with pytest.raises(ParseError, match="dim"):
        read_instance(path)


def test_parse_error_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x",')
    with pytest.raises(ParseError, match="line"):
        read_instance(path)


def test_parse_error_unknown_norm(tmp_path):
    path = tmp_path / "norm.json"
    path.write_text('{"name": "x", "dim": 1, "norm": "l7", "points": [[0.0]]}')
    with pytest.raises(ParseError, match="norm"):
        read_instance(path)


def test_case_reproduces_expected_costs():
    # integer-coordinate constructions reproduce exactly; the Euclidean one
    # within 1e-9
    for case in (gen_line_1d(2), gen_line_1d(3), gen_linf_2d(), gen_hypercube_l1(4)):
        exp = case.expected
        h = agglomerate(case.instance, exp.problem, script=case.script, stop_at_k=exp.k)
        assert h.cost_at_k(exp.k) == exp.algo_cost
    case = gen_l2_3d(1.56)
    h = agglomerate(case.instance, Problem.DIAMETER, script=case.script, stop_at_k=4)
    assert h.cost_at_k(4) == pytest.approx(case.expected.algo_cost, abs=1e-9)


def test_expected_outcome_ratio_consistency():
    for case in (gen_line_1d(3), gen_linf_2d(), gen_l2_3d(1.0), gen_hypercube_l1(8)):
        exp = case.expected
        assert exp.ratio == pytest.approx(exp.algo_cost / exp.opt_cost, rel=1e-15)
