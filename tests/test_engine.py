import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import agglolab.engine as engine
from agglolab import (
    Instance,
    L1,
    L2,
    LINF,
    MergeScript,
    MergeStep,
    Norm,
    Problem,
    ScriptViolationError,
    agglomerate,
    agglomerate_nn_chain,
    cluster_cost,
    diameter,
    distance,
    greedy_tie_margin,
    radius,
)
from agglolab.engine import TIE_ABS_TOL, TIE_REL_TOL, tie_width
from agglolab.forge import gen_line_1d, gen_linf_2d, gen_random
from agglolab.metrics import powered_matrix, unpower
from agglolab.oracles import optimal_by_partition_enum, optimal_diameter_1d


def test_single_point_empty_history():
    inst = Instance.from_points("one", [(0.0,)], L2)
    h = agglomerate(inst, Problem.DIAMETER)
    assert h.steps == ()
    assert h.cost_at_k(1) == 0.0
    assert [c.members for c in h.clusters_at_k(1)] == [(0,)]


def test_two_points_single_merge():
    inst = Instance.from_points("two", [(0.0, 0.0), (3.0, 4.0)], L2)
    for problem in Problem:
        h = agglomerate(inst, problem)
        assert len(h.steps) == 1
        step = h.steps[0]
        assert (step.id_a, step.id_b, step.new_id, step.size) == (0, 1, 2, 2)
    assert agglomerate(inst, Problem.DIAMETER).steps[0].cost == 5.0
    assert agglomerate(inst, Problem.RADIUS).steps[0].cost == 2.5


def test_duplicate_points_merge_first_at_zero_cost():
    inst = Instance.from_points("dups", [(0.0, 0.0), (1.0, 1.0), (0.0, 0.0)], L2)
    h = agglomerate(inst, Problem.DIAMETER)
    assert h.steps[0].cost == 0.0
    assert set(h.steps[0][:2]) == {0, 2}


def test_lexicographic_tie_break():
    # three collinear unit gaps: (0,1) and (1,2) tie at cost 1; the pair
    # with the smaller member ids wins
    inst = Instance.from_points("lex", [(0.0,), (1.0,), (2.0,)], L2)
    h = agglomerate(inst, Problem.DIAMETER)
    assert (h.steps[0].id_a, h.steps[0].id_b) == (0, 1)


def test_merge_costs_nondecreasing_and_invariants():
    inst = gen_random("uniform_cube", n=24, d=2, norm=L2, seed=9)
    for problem in Problem:
        h = agglomerate(inst, problem)
        costs = [s.cost for s in h.steps]
        assert costs == sorted(costs)
        h.check_invariants(deep=True)


_coord = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 2).flatmap(
    lambda d: st.lists(st.tuples(*([_coord] * d)), min_size=1, max_size=10)),
    st.sampled_from(list(Problem)))
def test_merge_costs_nondecreasing_property(points, problem):
    # arbitrary float coordinates can put two pairs inside the tie band with
    # costs an ulp apart, so monotonicity here is up to that band; the exact
    # form is asserted on integer-coordinate instances below
    inst = Instance.from_points("prop", points, L2)
    h = agglomerate(inst, problem)
    h.check_invariants(deep=True)
    prev = 0.0
    for s in h.steps:
        assert s.cost >= prev - max(1e-9 * prev, 1e-12)
        prev = max(prev, s.cost)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 2).flatmap(lambda d: st.lists(
    st.tuples(*([st.integers(-30, 30)] * d)), min_size=1, max_size=10)),
    st.sampled_from([Problem.DIAMETER, Problem.DISCRETE_RADIUS]))
def test_merge_costs_nondecreasing_exact_on_integers(points, problem):
    # squared-distance internals make ties on integer coordinates exact, so
    # recorded costs are nondecreasing with no tolerance at all
    inst = Instance.from_points("int", [tuple(float(c) for c in p) for p in points], L2)
    h = agglomerate(inst, problem)
    costs = [s.cost for s in h.steps]
    assert costs == sorted(costs)


def test_tie_band_dip_regression():
    # two pairs one ulp apart tie within the band; lexicographic order can
    # record the larger first, and the invariant check must accept that
    inst = Instance.from_points("dip", [(1.0,), (1.1,), (0.0,), (0.1,)], L2)
    h = agglomerate(inst, Problem.DIAMETER)
    h.check_invariants(deep=True)
    assert h.steps[0].cost == pytest.approx(h.steps[1].cost, rel=1e-12)


def test_infinite_costs_tie_and_merge():
    # squared l2 distances overflow to inf; every pair then ties at inf and
    # the run merges lexicographically instead of picking a dead id
    inst = Instance.from_points("huge", [(1e200,), (-1e200,), (0.0,)], L2)
    for problem in (Problem.DIAMETER, Problem.DISCRETE_RADIUS):
        h = agglomerate(inst, problem)
        h.check_invariants(deep=True)
        assert [(s.id_a, s.id_b, s.cost) for s in h.steps] == [(0, 1, math.inf), (2, 3, math.inf)]


def test_cost_at_k_boundaries():
    inst = gen_random("uniform_cube", n=6, d=1, norm=L2, seed=2)
    h = agglomerate(inst, Problem.DIAMETER)
    assert h.cost_at_k(6) == 0.0
    assert h.cost_at_k(5) == h.steps[0].cost
    assert h.cost_at_k(1) == h.steps[-1].cost
    with pytest.raises(ValueError):
        h.cost_at_k(0)
    with pytest.raises(ValueError):
        h.cost_at_k(7)


def test_clusters_at_k_extremes():
    inst = gen_random("uniform_cube", n=5, d=2, norm=L2, seed=4)
    h = agglomerate(inst, Problem.DIAMETER)
    singletons = h.clusters_at_k(5)
    assert [c.members for c in singletons] == [(i,) for i in range(5)]
    whole = h.clusters_at_k(1)
    assert len(whole) == 1 and whole[0].members == tuple(range(5))


def test_levels_nest():
    inst = gen_random("uniform_cube", n=12, d=2, norm=L2, seed=5)
    h = agglomerate(inst, Problem.DIAMETER)
    for i in range(1, 12):
        coarse = h.clusters_at_k(i)
        fine = h.clusters_at_k(i + 1)
        for c in coarse:
            parts = [f for f in fine if set(f.members) <= set(c.members)]
            assert sum(len(p) for p in parts) == len(c)


def test_truncation_stop_at_k():
    inst = gen_random("uniform_cube", n=10, d=2, norm=L2, seed=6)
    h = agglomerate(inst, Problem.DIAMETER, stop_at_k=4)
    assert h.final_level == 4
    assert len(h.steps) == 6
    assert h.cost_at_k(4) == h.steps[-1].cost
    with pytest.raises(ValueError):
        h.cost_at_k(3)
    with pytest.raises(ValueError):
        h.clusters_at_k(2)


def test_scripted_run_line_groups():
    case = gen_line_1d(3)
    h = agglomerate(case.instance, Problem.DIAMETER, script=case.script, stop_at_k=4)
    assert h.cost_at_k(4) == 37.0
    # level 12: per group, the left outlier, the merged dense run, and the
    # right outlier survive separately
    sizes = [len(c) for c in h.clusters_at_k(12)]
    assert sizes == [1, 8, 1] * 4
    group = 2 ** 3 + 2
    clusters = h.clusters_at_k(12)
    for g in range(4):
        assert clusters[3 * g].members == (g * group,)
        assert clusters[3 * g + 1].members == tuple(range(g * group + 1, g * group + 9))
        assert clusters[3 * g + 2].members == (g * group + 9,)


def test_scripted_prefix_then_lexicographic():
    case = gen_linf_2d()
    h = agglomerate(case.instance, Problem.DIAMETER, script=case.script, stop_at_k=4)
    assert [s.cost for s in h.steps] == [1.0, 1.0, 2.0, 3.0]
    assert h.cost_at_k(4) == 3.0


def test_script_violation_not_minimal():
    case = gen_linf_2d()
    bad = MergeScript(((0, 2),))  # max-norm distance 2 while pairs at 1 exist
    with pytest.raises(ScriptViolationError) as err:
        agglomerate(case.instance, Problem.DIAMETER, script=bad, stop_at_k=4)
    assert err.value.step_index == 0
    assert err.value.scripted_cost == 2.0
    assert err.value.true_minimum == 1.0


def test_script_violation_dead_cluster_id():
    case = gen_linf_2d()
    bad = MergeScript(((0, 1), (0, 2)))  # id 0 was consumed by the first merge
    with pytest.raises(ScriptViolationError) as err:
        agglomerate(case.instance, Problem.DIAMETER, script=bad, stop_at_k=4)
    assert err.value.step_index == 1


def test_script_self_merge_rejected():
    with pytest.raises(ValueError):
        MergeScript(((3, 3),))


def test_script_longer_than_run_rejected():
    inst = Instance.from_points("abc", [(0.0,), (1.0,), (5.0,)], L2)
    script = MergeScript(((0, 1), (2, 3)))
    with pytest.raises(ValueError):
        agglomerate(inst, Problem.DIAMETER, script=script, stop_at_k=2)


def test_algorithm_never_beats_oracle():
    for seed in range(5):
        inst = gen_random("uniform_cube", n=9, d=2, norm=L2, seed=40 + seed)
        for problem in Problem:
            h = agglomerate(inst, problem)
            for k in (2, 3, 4):
                opt = optimal_by_partition_enum(inst, k, problem).opt_cost
                assert h.cost_at_k(k) >= opt - 1e-12


def test_nn_chain_trivial_cases():
    one = Instance.from_points("one", [(0.0,)], L2)
    assert agglomerate_nn_chain(one).steps == ()
    two = Instance.from_points("two", [(0.0,), (2.0,)], L2)
    h = agglomerate_nn_chain(two)
    assert len(h.steps) == 1 and h.steps[0].cost == 2.0


def test_nn_chain_matches_naive_on_64_points():
    # seed chosen for a comfortable tie margin
    inst = gen_random("uniform_cube", n=64, d=2, norm=L2, seed=125)
    assert greedy_tie_margin(inst, Problem.DIAMETER) > 1e-7
    naive = agglomerate(inst, Problem.DIAMETER)
    chain = agglomerate_nn_chain(inst)
    assert naive.steps == chain.steps


def test_nn_chain_matches_naive_small_sweep():
    checked = 0
    for seed in range(30):
        n = 8 + (seed * 5) % 40
        inst = gen_random("uniform_cube", n=n, d=1 + seed % 3, norm=L2, seed=600 + seed)
        if greedy_tie_margin(inst, Problem.DIAMETER) <= 1e-7:
            continue
        assert agglomerate(inst, Problem.DIAMETER).steps == agglomerate_nn_chain(inst).steps
        checked += 1
    assert checked >= 20


@pytest.mark.parametrize("problem", list(Problem))
def test_one_pass_with_margins_gives_the_history_and_the_tie_margin(problem):
    # the engine-equivalence suite takes both from one naive pass
    cases = [gen_random("uniform_cube", n=8 + 3 * s, d=1 + s % 3, norm=L2, seed=70 + s)
             for s in range(6)]
    grid = [(float(x), float(y)) for x in range(4) for y in range(3)]
    ints = np.random.default_rng(5).integers(0, 3, size=(12, 2)).astype(float).tolist()
    cases += [Instance.from_points(name, pts, norm)
              for name, pts in (("grid", grid), ("ints", ints)) for norm in (L1, L2, LINF)]
    for inst in cases:
        margins = []
        steps = engine._greedy(inst, problem, None, None, margins=margins)
        assert tuple(steps) == agglomerate(inst, problem).steps
        assert min(margins, default=math.inf) == greedy_tie_margin(inst, problem)


def test_nn_chain_fills_scipys_condensed_vector_row_block_by_row_block(monkeypatch):
    # n = 520 spans at least four row blocks of the condensed fill: the
    # vector handed to scipy equals the full powered matrix's condensed form
    # bit for bit under every norm, the costs equal scipy's linkage on it,
    # and on a tie-free draw the steps equal the naive loop's
    import scipy.cluster.hierarchy
    from scipy.spatial.distance import squareform

    n = 520
    assert -(-(n - 1) // (engine._BLOCK_ELEMENTS // n)) >= 4
    linkage = scipy.cluster.hierarchy.linkage
    handed = []

    def capture(y, *args, **kwargs):
        handed.append(y.copy())
        return linkage(y, *args, **kwargs)

    monkeypatch.setattr(scipy.cluster.hierarchy, "linkage", capture)
    for norm in (L1, L2, LINF, Norm(1.5), Norm(3.0)):
        inst = gen_random("uniform_cube", n=n, d=2, norm=norm, seed=8)
        chain = agglomerate_nn_chain(inst)
        condensed = squareform(powered_matrix(inst), checks=False)
        assert handed.pop().tobytes() == condensed.tobytes()
        z = linkage(condensed, method="complete")
        assert sorted(s.cost for s in chain.steps) == sorted(
            unpower(h, norm) for h in z[:, 2].tolist())
        if norm == L2:
            assert greedy_tie_margin(inst, Problem.DIAMETER) > 1e-6
            assert chain.steps == agglomerate(inst, Problem.DIAMETER).steps


def test_nn_chain_on_exact_ties_is_a_valid_greedy_run():
    # integer coordinates tie exactly; whichever hierarchy scipy builds, the
    # replay must respect readiness and record nondecreasing costs
    for seed in range(30):
        rng = np.random.default_rng(900 + seed)
        pts = rng.integers(0, 6, size=(12 + seed % 20, 1 + seed % 3)).astype(float)
        for norm in (L2, LINF):
            inst = Instance.from_points("ties", pts.tolist(), norm)
            hist = agglomerate_nn_chain(inst)
            hist.check_invariants(deep=True)
            costs = [s.cost for s in hist.steps]
            assert costs == sorted(costs)
            assert len(costs) == len(inst) - 1


def test_pair_table_invariants_hold_after_every_merge(monkeypatch):
    # after every merge of every backend the table is symmetric, holds inf
    # on the diagonal and at dead slots, keeps each row's minimum, and marks
    # live exactly the slots of the level's clusters: their member minima.
    # Integer grids tie across many rows, duplicates tie at 0, and points
    # 1e200 apart overflow, so every entry of an infinite band is inf
    merge = engine._PairTable.merge
    live_after, backends = [], set()

    def checked(table, lo, hi):
        assert lo < hi and table.live[lo] and table.live[hi]
        merge(table, lo, hi)
        m, live = table.m, table.live
        assert np.array_equal(m, m.T)
        assert (np.diag(m) == math.inf).all()
        assert (m[~live] == math.inf).all() and (m[:, ~live] == math.inf).all()
        assert np.array_equal(table.rowmin, m.min(axis=1))
        live_after.append(np.flatnonzero(live).tolist())
        backends.add(type(table))

    def assert_levels(hist):
        n = len(hist.instance)
        assert live_after == [[c.min_member for c in hist.clusters_at_k(n - 1 - t)]
                              for t in range(len(live_after))]
        del live_after[:]

    monkeypatch.setattr(engine._PairTable, "merge", checked)
    grid = [(float(x), float(y)) for x in range(4) for y in range(3)]
    cases = [
        ("grid", grid),
        ("ties", np.random.default_rng(11).integers(0, 3, size=(10, 2)).astype(float).tolist()),
        ("dups", [(0.5, 0.25)] * 4 + [(1.0, 2.0), (1.0, 2.0), (-1.0, 0.0)]),
        ("huge", [(1e200, 0.0), (-1e200, 0.0), (0.0, 1.0)]),
        ("allinf", [(1e200, 0.0), (-1e200, 0.0), (0.0, 1e200), (0.0, -1e200), (3e200, 1e200)]),
    ]
    for name, pts in cases:
        for norm in (L2, LINF, Norm(1.5)):
            inst = Instance.from_points(name, pts, norm)
            n = len(inst)
            for problem in Problem:
                free = agglomerate(inst, problem)
                assert_levels(free)
                greedy_tie_margin(inst, problem)
                assert_levels(free)
                # a replayed prefix, then the last two live ids where they
                # tie, which moves later clusters off the lexicographic slots
                j = n // 2
                prefix = tuple((s.id_a, s.id_b) for s in free.steps[:j])
                live = sorted(set(range(n + j)) - {i for s in free.steps[:j] for i in s[:2]})
                for script, stop_at_k in ((prefix, 2), (prefix + (tuple(live[-2:]),), 1)):
                    try:
                        hist = agglomerate(inst, problem, script=MergeScript(script),
                                           stop_at_k=stop_at_k)
                    except ScriptViolationError:
                        del live_after[:]
                        continue
                    assert_levels(hist)
    assert backends == {engine._DiameterCosts, engine._EccentricityCosts, engine._RadiusCosts}


def _reference_greedy(inst, problem):
    """Brute-force greedy run: each step costs every live pair with the
    scalar ``cluster_cost``, lists the pairs within the tie band and merges
    the lexicographically smallest by member minima.  Returns the steps and
    the tie margin."""
    n = len(inst)
    members = {i: (i,) for i in range(n)}
    steps, margins = [], []
    for t in range(n - 1):
        ids = sorted(members)
        costs = {(a, b): cluster_cost(problem, members[a] + members[b], inst)
                 for i, a in enumerate(ids) for b in ids[i + 1:]}
        best = min(costs.values())
        band = best + max(TIE_REL_TOL * abs(best), TIE_ABS_TOL)
        above = [c for c in costs.values() if c > band]
        margins.append(min(above) - best if above else math.inf)
        tied = [ab for ab, c in costs.items() if c <= band]
        a, b = min(tied, key=lambda ab: sorted((members[ab[0]][0], members[ab[1]][0])))
        union = tuple(sorted(members.pop(a) + members.pop(b)))
        members[n + t] = union
        steps.append(MergeStep(a, b, costs[a, b], n + t, len(union)))
    return tuple(steps), min(margins, default=math.inf)


class _RecomputeCosts(engine._PairTable):
    """Eager radius backend, the reference for the engine's lazy one: every
    pair of live clusters is costed once, on its union, when the table is
    built (singleton pairs in row-major slot order) or when a merge makes
    its row (the other live clusters in slot order).  The ball solver is
    looked up on the engine module, so a test that patches ``engine.radius``
    sees this backend's calls too."""

    def __init__(self, inst, members):
        n = len(inst.points)
        self.inst = inst
        self.members = members
        pairs = np.zeros((n, n))
        for a in range(n):
            for b in range(a + 1, n):
                pairs[a, b] = pairs[b, a] = self._cost(a, b)
        super().__init__(pairs)

    def _cost(self, a, b):
        return engine.radius(sorted(self.members[a] + self.members[b]), self.inst).radius

    def _row(self, lo, hi):
        row = np.full(len(self.live), math.inf)
        for c in np.flatnonzero(self.live).tolist():
            row[c] = self._cost(c, lo)
        return row


_lazy_backend = engine._make_backend


def _eager_backend(inst, linkage, members):
    if linkage is Problem.RADIUS and not (inst.norm.is_infinity or inst.dim == 1):
        return _RecomputeCosts(inst, members)
    return _lazy_backend(inst, linkage, members)


def _eager(run, *args, **kwargs):
    """``run(*args, **kwargs)`` with the eager radius backend in the engine."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_make_backend", _eager_backend)
        return run(*args, **kwargs)


def _outcome(run, *args, **kwargs):
    """The steps of an ``agglomerate`` run, or the fields of the script
    violation it raised."""
    try:
        return run(*args, **kwargs).steps
    except ScriptViolationError as err:
        return (err.step_index, err.scripted_cost, err.true_minimum, str(err))


def _assert_radius_matches_eager(inst, script=None, stop_at_k=None):
    """Lazy and eager radius linkage agree step for step, with bit-equal
    costs, on a free run, its tie margin, and a scripted run."""
    free = agglomerate(inst, Problem.RADIUS)
    assert free.steps == _eager(agglomerate, inst, Problem.RADIUS).steps
    assert (greedy_tie_margin(inst, Problem.RADIUS)
            == _eager(greedy_tie_margin, inst, Problem.RADIUS))
    if script is None:
        replayed = free.steps[:len(inst) - (stop_at_k or 1)]
        script = MergeScript(tuple((s.id_a, s.id_b) for s in replayed))
    lazy = _outcome(agglomerate, inst, Problem.RADIUS, script=script, stop_at_k=stop_at_k)
    assert lazy == _eager(_outcome, agglomerate, inst, Problem.RADIUS,
                          script=script, stop_at_k=stop_at_k)


def _count_engine_radius_calls(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(tuple(args[0]))
        return radius(*args, **kwargs)

    monkeypatch.setattr(engine, "radius", counting)
    return calls


def test_radius_linkage_costs_each_live_pair_once(monkeypatch):
    # under l2 a pair is costed only once its lower bound reaches the tie
    # band of a step: 8 balls, where an eager table costs all 115 pairs
    # (66 singleton pairs, then each new cluster against the live others)
    calls = _count_engine_radius_calls(monkeypatch)
    inst = gen_random("uniform_cube", n=12, d=2, norm=L2, seed=5)
    hist = agglomerate(inst, Problem.RADIUS, stop_at_k=4)
    assert len(calls) == 8
    assert len(set(calls)) == len(calls)
    assert hist.final_level == 4
    del calls[:]
    assert _eager(agglomerate, inst, Problem.RADIUS, stop_at_k=4).steps == hist.steps
    assert len(calls) == 115


def test_engine_matches_brute_force_reference(monkeypatch):
    # uniform draws and integer coordinates with exact ties; radius linkage
    # runs where the ball solver is exact (l2, l_inf, and any norm in 1-d),
    # and under l2 in d > 1 also matches the eager radius backend
    calls = _count_engine_radius_calls(monkeypatch)
    checked = 0
    # a 4 x 4 grid: ties span many rows, and merged clusters sit at slots
    # other than their ids
    grid = [(float(x), float(y)) for x in range(4) for y in range(4)]
    for norm in (L1, L2, LINF):
        inst = Instance.from_points("grid", grid, norm)
        for problem in (Problem.DIAMETER, Problem.DISCRETE_RADIUS):
            steps, margin = _reference_greedy(inst, problem)
            assert agglomerate(inst, problem).steps == steps
            assert greedy_tie_margin(inst, problem) == margin
            checked += 1
    for d in (1, 2, 3):
        for norm in (L1, L2, LINF):
            for seed in range(2):
                rng = np.random.default_rng(40 * d + seed)
                ties = rng.integers(0, 4, size=(9, d)).astype(float).tolist()
                for inst in (Instance.from_points("ties", ties, norm),
                             gen_random("uniform_cube", n=9, d=d, norm=norm, seed=700 + 10 * d + seed)):
                    for problem in Problem:
                        if problem is Problem.RADIUS and norm is L1 and d > 1:
                            continue
                        steps, margin = _reference_greedy(inst, problem)
                        assert agglomerate(inst, problem).steps == steps
                        assert greedy_tie_margin(inst, problem) == margin
                        if problem is Problem.RADIUS and norm is L2 and d > 1:
                            _assert_radius_matches_eager(inst, stop_at_k=3)
                        checked += 1
    assert checked == 106
    # only l2 radius runs in d > 1 call the ball solver
    assert calls


@st.composite
def _l2_cloud(draw):
    """Small l2 instances in d = 2, 3 rich in ties: integer coordinates,
    optionally a duplicate point, a near-collinear triple, or a scale far
    from 1."""
    d = draw(st.integers(2, 3))
    pts = draw(st.lists(st.tuples(*([st.integers(0, 4).map(float)] * d)),
                        min_size=2, max_size=10))
    if draw(st.booleans()):
        a, b = pts[0], pts[-1]
        t = draw(st.sampled_from([0.25, 0.5, 1.0 / 3.0]))
        eps = draw(st.sampled_from([0.0, 1e-13, 1e-10, 1e-7]))
        pts.append(tuple(x + t * (y - x) + (eps if j == 0 else 0.0)
                         for j, (x, y) in enumerate(zip(a, b))))
    if draw(st.booleans()):
        pts.append(draw(st.sampled_from(pts)))
    scale = draw(st.sampled_from([1.0, 1e-3, 1e-150, 1e3, 1e150]))
    return Instance.from_points("lazy", [tuple(scale * x for x in p) for p in pts], L2)


@settings(max_examples=60, deadline=None)
@given(_l2_cloud(), st.data())
def test_lazy_radius_linkage_matches_eager_property(inst, data):
    # a script replays a prefix of the free run and may then take any pair
    # of live ids, which the engine must accept or refuse as the eager
    # backend does
    free = agglomerate(inst, Problem.RADIUS)
    n = len(inst)
    j = data.draw(st.integers(0, n - 2))
    live = sorted(set(range(n + j)) - {i for s in free.steps[:j] for i in s[:2]})
    extra = tuple(data.draw(st.lists(st.sampled_from(live), min_size=2, max_size=2, unique=True)))
    script = MergeScript(tuple((s.id_a, s.id_b) for s in free.steps[:j]) + (extra,))
    stop_at_k = data.draw(st.integers(1, n - j - 1))
    _assert_radius_matches_eager(inst, script, stop_at_k)


def test_lazy_radius_linkage_matches_eager_on_the_benchmark_instance(monkeypatch):
    # the greedy-scale radius run: 65 balls, against (n - 1)^2 = 3969
    calls = _count_engine_radius_calls(monkeypatch)
    inst = gen_random("uniform_cube", n=64, d=2, norm=L2, seed=104)
    hist = agglomerate(inst, Problem.RADIUS)
    assert len(calls) == 65
    del calls[:]
    assert _eager(agglomerate, inst, Problem.RADIUS).steps == hist.steps
    assert len(calls) == 63 ** 2


def test_lazy_radius_linkage_edge_cases_without_warnings():
    # powered distances that overflow give infinite bounds and balls, and
    # an infinite bound deflates to inf, not to inf - inf; on duplicates
    # every bound is 0 and every pair is costed, and under general p a
    # union of at most two distinct points is their midpoint's ball
    huge = [(1e200, 0.0), (-1e200, 0.0), (0.0, 1.0)]
    dups = [(0.5, 0.25)] * 6
    cases = [("huge", huge, norm) for norm in (L2, L1, Norm(1.5), Norm(3.0))]
    for norm in (L1, Norm(1.5), Norm(3.0)):
        cases += [("pair", [(0.5, 0.25)] * 3 + [(-1.0, 2.0)], norm), ("dups", dups, norm)]
    cases.append(("dups", dups, L2))
    for name, pts, norm in cases:
        inst = Instance.from_points(name, pts, norm)
        steps = _eager(agglomerate, inst, Problem.RADIUS).steps
        margin = _eager(greedy_tie_margin, inst, Problem.RADIUS)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert agglomerate(inst, Problem.RADIUS).steps == steps
            assert greedy_tie_margin(inst, Problem.RADIUS) == margin
    assert [(s.id_a, s.id_b, s.cost) for s in steps] == [
        (0, 1, 0.0), (2, 6, 0.0), (3, 7, 0.0), (4, 8, 0.0), (5, 9, 0.0)]


def test_lazy_radius_linkage_deflates_bounds_at_the_band_edge():
    # the ball of points 0 and 1, centred on their midpoint, is one ulp
    # below half their distance, its bound, and the ball of points 2 and 3
    # puts the end of its tie band on that ball exactly: the pairs tie, and
    # (0, 1) goes first only if its bound is deflated enough to be costed
    a, b = (0.781, 0.228), (0.175, 0.571)
    inst = Instance.from_points("edge", [a, b, (0.0, 5.0), (0.6963368430797195, 5.0)], L2)
    ball = radius((0, 1), inst).radius
    assert ball < distance(a, b, L2) / 2.0
    assert radius((2, 3), inst).radius + tie_width(radius((2, 3), inst).radius) == ball
    steps = agglomerate(inst, Problem.RADIUS).steps
    assert steps == _eager(agglomerate, inst, Problem.RADIUS).steps
    assert steps[0][:3] == (0, 1, ball)


def test_general_p_radius_linkage_is_lazy_and_matches_eager(monkeypatch):
    # half the diameter bounds the radius under every norm, so an lp-slice
    # run costs n - 1 balls, not the eager table's (n - 1)^2; the history
    # equals the eager table's.  Balls are memoized, as the eager runs
    # repeat them
    calls, memo = [], {}

    def memoized(members, inst):
        calls.append(tuple(members))
        key = (inst, tuple(members))
        if key not in memo:
            memo[key] = radius(members, inst)
        return memo[key]

    monkeypatch.setattr(engine, "radius", memoized)
    for p in (1.0, 1.5, 3.0):
        for seed in range(100, 104):
            inst = gen_random("uniform_cube", n=12, d=2, norm=Norm(p), seed=seed)
            del calls[:]
            agglomerate(inst, Problem.RADIUS)
            assert len(calls) == 11
            _assert_radius_matches_eager(inst)


def test_radius_linkage_l1_integer_draw_finishes():
    # small integer grids: duplicates and collinear unions, where the ball
    # of the d = 2 union [(3, 0), (0, 0), (0, 0), (1, 0)] once stopped the run
    for d in (2, 3):
        pts = np.random.default_rng(3).integers(0, 4, size=(9, d))
        inst = Instance.from_points("int", pts.tolist(), L1)
        agglomerate(inst, Problem.RADIUS).check_invariants(deep=True)
        if d == 2:
            assert [inst.points[i] for i in (0, 1, 4, 7)] == [(3, 0), (0, 0), (0, 0), (1, 0)]
            assert abs(radius((0, 1, 4, 7), inst).radius - 1.5) <= tie_width(1.5)


def test_radius_linkage_scale_pin(monkeypatch):
    # about n balls, not n^2, at n = 256 under l2 and at n = 64 under other
    # p; the recorded level costs are the radii of the levels' clusters
    calls = _count_engine_radius_calls(monkeypatch)
    for n, norm in ((256, L2), (64, L1), (64, Norm(1.5)), (64, Norm(3.0))):
        del calls[:]
        inst = gen_random("uniform_cube", n=n, d=2, norm=norm, seed=1)
        hist = agglomerate(inst, Problem.RADIUS)
        assert len(calls) <= 4 * n
        hist.check_invariants(deep=True)
        for k in (1, 2, 4, 8, 16):
            level = max(radius(c, inst).radius for c in hist.clusters_at_k(k))
            assert abs(hist.cost_at_k(k) - level) <= tie_width(level)


def test_radius_linkage_by_spans_matches_ball_solver(monkeypatch):
    # under l_inf and in 1-d the radius is half the largest coordinate span,
    # so the engine costs pairs without the ball solver; the reference costs
    # them with it, and the two agree bit for bit, also on points 1e-160
    # apart, where the root of a squared l2 distance underflows
    calls = _count_engine_radius_calls(monkeypatch)
    tiny = Instance.from_points("tiny", [(i * 1e-160,) for i in (3, 0, 7, 1, 9, 4, 2)], L2)
    lp = gen_random("uniform_cube", n=10, d=1, norm=Norm(1.5), seed=18)
    cube = gen_random("uniform_cube", n=10, d=3, norm=LINF, seed=19)
    for inst in (tiny, lp, cube):
        steps, margin = _reference_greedy(inst, Problem.RADIUS)
        assert agglomerate(inst, Problem.RADIUS).steps == steps
        assert greedy_tie_margin(inst, Problem.RADIUS) == margin
    assert calls == []


def test_dendrogram_text_format():
    inst = Instance.from_points("abc", [(0.0,), (1.0,), (5.0,)], L2)
    h = agglomerate(inst, Problem.DIAMETER)
    lines = h.to_text().splitlines()
    assert lines == ["0,1,1,3,2", "2,3,5,4,3"]
    # costs carry 12 significant digits
    inst2 = Instance.from_points("frac", [(0.0,), (1.0 / 3.0,)], L2)
    text = agglomerate(inst2, Problem.DIAMETER).to_text()
    assert text == "0,1,0.333333333333,2,2"


def test_stop_at_k_validation():
    inst = Instance.from_points("ab", [(0.0,), (1.0,)], L2)
    with pytest.raises(ValueError):
        agglomerate(inst, Problem.DIAMETER, stop_at_k=0)
    with pytest.raises(ValueError):
        agglomerate(inst, Problem.DIAMETER, stop_at_k=3)


def test_own_history_replays_as_script():
    # every merge a lexicographic run makes is cost-minimal at its step, so
    # feeding the run back as a script must reproduce it exactly
    for problem in Problem:
        inst = gen_random("uniform_cube", n=14, d=2, norm=L2, seed=81)
        ref = agglomerate(inst, problem)
        script = MergeScript(tuple((s.id_a, s.id_b) for s in ref.steps))
        replay = agglomerate(inst, problem, script=script)
        assert replay.steps == ref.steps


def test_scripted_run_from_file_round_trip(tmp_path):
    from agglolab import read_case, write_case
    from agglolab.forge import gen_hypercube_l1

    case = gen_hypercube_l1(4)
    path = tmp_path / "cube.json"
    write_case(case, path)
    back = read_case(path)
    direct = agglomerate(case.instance, Problem.DIAMETER,
                         script=case.script, stop_at_k=4)
    via_file = agglomerate(back.instance, Problem.DIAMETER,
                           script=back.script, stop_at_k=4)
    assert direct.steps == via_file.steps


def test_one_dimensional_ratio_stays_below_three():
    # empirical check of the d=1 guarantee on a mid-size instance
    inst = gen_random("uniform_cube", n=40, d=1, norm=L2, seed=77)
    h = agglomerate(inst, Problem.DIAMETER)
    for k in (2, 3, 5, 8):
        opt = optimal_diameter_1d(inst, k).opt_cost
        assert h.cost_at_k(k) < 3.0 * opt
