import heapq
import math
import warnings
from dataclasses import replace

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
from agglolab.metrics import powered_matrix, unpower_array
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


@pytest.mark.parametrize("costs", [(5.0, 1.0), (math.inf, 1.0), (math.nan, 1.0)])
def test_check_invariants_rejects_a_cost_drop_after_inf_and_a_nan_cost(costs):
    # a drop after inf and a nan cost fail like a finite drop; an all-inf run passes
    inst = Instance.from_points("three", [(0.0,), (1.0,), (2.0,)], L2)
    steps = (MergeStep(0, 1, costs[0], 3, 2), MergeStep(3, 2, costs[1], 4, 3))
    hist = engine.MergeHistory(instance=inst, linkage=Problem.DIAMETER, steps=steps)
    with pytest.raises(ValueError, match="tie tolerance"):
        hist.check_invariants(deep=True)
    steps = (MergeStep(0, 1, math.inf, 3, 2), MergeStep(3, 2, math.inf, 4, 3))
    replace(hist, steps=steps).check_invariants(deep=True)


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


def test_nn_chain_hands_scipy_the_rooted_distances_and_reports_its_heights(monkeypatch):
    # the vector handed to scipy equals the rooted powered matrix's
    # condensed form bit for bit under every norm, the costs are the
    # heights of scipy's linkage on it, and on a tie-free draw the steps
    # equal the naive loop's
    import scipy.cluster.hierarchy
    from scipy.spatial.distance import squareform

    linkage = scipy.cluster.hierarchy.linkage
    handed = []

    def capture(y, *args, **kwargs):
        handed.append(y.copy())
        return linkage(y, *args, **kwargs)

    monkeypatch.setattr(scipy.cluster.hierarchy, "linkage", capture)
    for norm in (L1, L2, LINF, Norm(1.5), Norm(3.0)):
        inst = gen_random("uniform_cube", n=520, d=2, norm=norm, seed=8)
        chain = agglomerate_nn_chain(inst)
        condensed = squareform(unpower_array(powered_matrix(inst), norm), checks=False)
        assert handed.pop().tobytes() == condensed.tobytes()
        z = linkage(condensed, method="complete")
        assert sorted(s.cost for s in chain.steps) == sorted(z[:, 2].tolist())
        if norm == L2:
            assert greedy_tie_margin(inst, Problem.DIAMETER) > 1e-6
            assert chain.steps == agglomerate(inst, Problem.DIAMETER).steps


@pytest.mark.parametrize("norm", [L1, Norm(1.5), L2, Norm(3.0), Norm(7.0), LINF])
def test_pdist_minkowski_equals_the_rooted_powered_matrix_bit_for_bit(norm):
    # the NN chain's distances come from scipy's minkowski kernel; the
    # naive loop's from powered_matrix and unpower_array.  They agree bit
    # for bit from subnormal to overflowing scales, on integer ties and in
    # d = 1..11, and an overflow is inf without a warning on both sides
    from scipy.spatial.distance import pdist, squareform

    rng = np.random.default_rng(31)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in range(1, 12):
            for scale in (1e-320, 1e-200, 1e-100, 1.0, 1e100, 1e200, 1e300):
                for pts in (rng.random((24, d)), rng.integers(-3, 4, size=(24, d)).astype(float)):
                    inst = Instance.from_points("scaled", (pts * scale).tolist(), norm)
                    rooted = squareform(unpower_array(powered_matrix(inst), norm), checks=False)
                    kernel = pdist(inst.coords(), "minkowski", p=norm.p)
                    assert kernel.tobytes() == rooted.tobytes()


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


def _reference_replay(z, inst):
    """Replay scipy's linkage matrix ``z`` in greedy order with a heap of
    ready merges, each ready once both of its operands are made: the
    reference for ``agglomerate_nn_chain``'s replay."""
    n = len(inst)
    pairs = z[:, :2].astype(int).tolist()
    costs = z[:, 2].tolist()
    mins = list(range(n)) + [0] * (n - 1)
    consumer = {}
    for i, (a, b) in enumerate(pairs):
        mins[n + i] = min(mins[a], mins[b])
        consumer[a] = consumer[b] = i

    def entry(i):
        a, b = pairs[i]
        return (costs[i], min(mins[a], mins[b]), max(mins[a], mins[b]), i)

    final_id = list(range(n)) + [None] * (n - 1)
    ready = [entry(i) for i, (a, b) in enumerate(pairs) if a < n and b < n]
    heapq.heapify(ready)
    steps = []
    while ready:
        cost, _, _, i = heapq.heappop(ready)
        fa, fb = (final_id[c] for c in pairs[i])
        new_id = n + len(steps)
        final_id[n + i] = new_id
        steps.append(MergeStep(min(fa, fb), max(fa, fb), cost, new_id, int(z[i, 3])))
        j = consumer.get(n + i)
        if j is not None and all(final_id[c] is not None for c in pairs[j]):
            heapq.heappush(ready, entry(j))
    return tuple(steps)


def test_nn_chain_replay_matches_the_reference_replay(monkeypatch):
    # the replay order is pinned step for step, costs bit for bit, on the
    # linkage matrix scipy built for the run: on integer grids, where costs
    # tie exactly and the heap order falls to the member minima, and on
    # uniform draws under l2 and lp1.5
    import scipy.cluster.hierarchy

    linkage = scipy.cluster.hierarchy.linkage
    built = []

    def capture(*args, **kwargs):
        built.append(linkage(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(scipy.cluster.hierarchy, "linkage", capture)
    grid = [(float(x), float(y)) for x in range(20) for y in range(20)]
    cases = [Instance.from_points("grid", grid, norm) for norm in (L1, L2, LINF)]
    for seed in range(6):
        d = 1 + seed % 3
        ints = np.random.default_rng(950 + seed).integers(0, 5, size=(30 + 20 * seed, d))
        cases.append(Instance.from_points("ints", ints.astype(float).tolist(), (L2, LINF)[seed % 2]))
        for norm in (L2, Norm(1.5)):
            cases.append(gen_random("uniform_cube", n=40 + 50 * seed, d=d, norm=norm, seed=960 + seed))
    for inst in cases:
        steps = agglomerate_nn_chain(inst).steps
        assert len(steps) == len(inst) - 1
        assert repr(steps) == repr(_reference_replay(built.pop(), inst))


def test_pair_table_invariants_hold_after_every_merge(monkeypatch):
    # after every merge of every backend the table is symmetric, holds inf
    # on the diagonal and at dead slots, keeps each row's minimum, and marks
    # live exactly the slots of the level's clusters: their member minima.
    # The lazy radius table also keeps each row's least bound after every
    # merge, settle and scripted exact cost; a settle leaves no entry due,
    # and one that reports no change changed nothing and costed no ball.
    # Integer grids tie across many rows, duplicates tie at 0, and points
    # 1e200 apart overflow, so every entry of an infinite band is inf
    merge = engine._PairTable.merge
    radius_merge = engine._RadiusCosts.merge
    settle_to = engine._RadiusCosts.settle_to
    exact_cost = engine._RadiusCosts.exact_cost
    balls = _count_engine_radius_calls(monkeypatch)
    live_after, backends = [], set()
    settles = {True: 0, False: 0}

    def assert_least_bounds(table):
        assert np.array_equal(table.rowmin, table.m.min(axis=1))
        bounds = np.where(table.exact, math.inf, table.m)
        assert np.array_equal(table.pend, bounds.min(axis=1))

    def checked_radius_merge(table, lo, hi):
        radius_merge(table, lo, hi)
        assert_least_bounds(table)

    def checked_settle(table, limit):
        before = [a.copy() for a in (table.m, table.exact, table.rowmin, table.pend)]
        calls = len(balls)
        changed = settle_to(table, limit)
        settles[changed] += 1
        if not changed:
            after = (table.m, table.exact, table.rowmin, table.pend)
            assert all(np.array_equal(a, b) for a, b in zip(before, after))
            assert len(balls) == calls
        assert not (~table.exact & (engine._deflate(table.m) <= limit)).any()
        assert_least_bounds(table)
        return changed

    def checked_exact_cost(table, lo, hi):
        cost = exact_cost(table, lo, hi)
        assert table.exact[lo, hi] and table.exact[hi, lo]
        assert_least_bounds(table)
        return cost

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
    monkeypatch.setattr(engine._RadiusCosts, "merge", checked_radius_merge)
    monkeypatch.setattr(engine._RadiusCosts, "settle_to", checked_settle)
    monkeypatch.setattr(engine._RadiusCosts, "exact_cost", checked_exact_cost)
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
    assert settles[True] and settles[False] and balls


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


class _FullEccentricityCosts(engine._PairTable):
    """Discrete-radius backend that costs a merged row over all n points,
    the reference for the engine's, which costs it over the members of the
    merged cluster: e_L against the eccentricity vector of every live
    cluster, masked to the union's members by an n x n membership matrix,
    in one (live x n) pass."""

    def __init__(self, inst):
        dpow = powered_matrix(inst)
        self.norm = inst.norm
        self.ecc = dpow.T.copy()
        self.member = np.eye(len(dpow), dtype=bool)
        super().__init__(unpower_array(dpow, inst.norm))

    def _row(self, lo, hi):
        ecc, member, live = self.ecc, self.member, self.live
        np.maximum(ecc[lo], ecc[hi], out=ecc[lo])
        member[lo] |= member[hi]
        others = live.nonzero()[0]
        union = np.maximum(ecc[others], ecc[lo])
        np.copyto(union, math.inf, where=~(member[others] | member[lo]))
        row = np.full(len(live), math.inf)
        row[others] = unpower_array(union.min(axis=1), self.norm)
        return row


_engine_backend = engine._make_backend


def _eager_backend(inst, linkage, members):
    if linkage is Problem.DISCRETE_RADIUS:
        return _FullEccentricityCosts(inst)
    if linkage is Problem.RADIUS and not (inst.norm.is_infinity or inst.dim == 1):
        return _RecomputeCosts(inst, members)
    return _engine_backend(inst, linkage, members)


def _eager(run, *args, **kwargs):
    """``run(*args, **kwargs)`` with the reference backends in the engine:
    the eager radius table and the full-width discrete-radius rows."""
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


def _assert_matches_eager(inst, problem, script=None, stop_at_k=None):
    """The engine's backend and the reference backend agree step for step,
    with bit-equal costs, on a free run, its tie margin, and a scripted
    run.  ``repr`` round-trips every float, so equal reprs are equal bits."""
    free = agglomerate(inst, problem)
    assert repr(free.steps) == repr(_eager(agglomerate, inst, problem).steps)
    assert repr(greedy_tie_margin(inst, problem)) == repr(_eager(greedy_tie_margin, inst, problem))
    if script is None:
        replayed = free.steps[:len(inst) - (stop_at_k or 1)]
        script = MergeScript(tuple((s.id_a, s.id_b) for s in replayed))
    engine_run = _outcome(agglomerate, inst, problem, script=script, stop_at_k=stop_at_k)
    assert repr(engine_run) == repr(_eager(_outcome, agglomerate, inst, problem,
                                           script=script, stop_at_k=stop_at_k))


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
                            _assert_matches_eager(inst, Problem.RADIUS, stop_at_k=3)
                        checked += 1
    assert checked == 106
    # only l2 radius runs in d > 1 call the ball solver
    assert calls


def _reference_band_scan(inst, problem):
    """The free greedy loop on the engine's backends, with the pick and the
    tie margin that scan every in-band row in full: lo is the first in-band
    row and hi its first in-band column, and the margin is the least of the
    row minima above the band and of every entry above the band in an
    in-band row, settled like the band.  The reference for the engine's
    reading of the band as the set R of in-band rows.  Returns the steps,
    the per-step margins and the number of steps at which R held more than
    two rows."""
    n = len(inst)
    members = [(i,) for i in range(n)]
    slot_id = list(range(n))
    table = engine._make_backend(inst, problem, members)
    m, rowmin, live = table.m, table.rowmin, table.live
    steps, margins, wide = [], [], 0
    for t in range(n - 1):
        while True:
            best = float(rowmin[rowmin.argmin()])
            band = best + tie_width(best)
            if not table.settle_to(band):
                break
        rows = rowmin <= band
        wide += int(rows.sum()) > 2
        if band < math.inf:
            lo = int(rows.argmax())
            hi = lo + 1 + int((m[lo, lo + 1:] <= band).argmax())
        else:
            lo, hi = np.flatnonzero(live)[:2].tolist()
        cost = float(m[lo, hi])
        while True:
            sub = m[rows]
            above = min(np.minimum.reduce(rowmin, initial=math.inf, where=rowmin > band),
                        np.minimum.reduce(sub, axis=None, initial=math.inf, where=sub > band))
            if above == math.inf or not table.settle_to(float(above)):
                break
        margins.append(float(above) - best if above < math.inf else math.inf)
        a, b = sorted((slot_id[lo], slot_id[hi]))
        members[lo] += members[hi]
        steps.append(MergeStep(a, b, cost, n + t, len(members[lo])))
        slot_id[lo] = n + t
        if t + 1 < n - 1:
            table.merge(lo, hi)
    return tuple(steps), margins, wide


def test_band_rows_pick_and_margin_match_the_full_scan_reference():
    # steps and per-step margins equal the full scan's bit for bit: on
    # integer grids and draws, where R often holds more than two rows; on
    # uniform draws under l1, l2 and l_inf for every linkage, which take
    # the lazy radius backend under l1 and l2 in d > 1; on lp1.5 radius
    # runs; and where every entry is inf, so the band is infinite
    grid = [(float(x), float(y)) for x in range(4) for y in range(4)]
    cases = [Instance.from_points("grid", grid, norm) for norm in (L1, L2, LINF)]
    for d in (1, 2, 3):
        for seed in range(3):
            ints = np.random.default_rng(70 * d + seed).integers(0, 4, size=(12, d))
            for norm in (L1, L2, LINF):
                cases.append(Instance.from_points("ints", ints.astype(float).tolist(), norm))
                cases.append(gen_random("uniform_cube", n=8 + 4 * seed, d=d, norm=norm,
                                        seed=730 + 10 * d + seed))
    cases.append(Instance.from_points(
        "allinf", [(1e200, 0.0), (-1e200, 0.0), (0.0, 1e200), (0.0, -1e200), (3e200, 1e200)], L2))
    runs = [(inst, problem) for inst in cases for problem in Problem]
    runs += [(gen_random("uniform_cube", n=10, d=2, norm=Norm(1.5), seed=760 + seed), Problem.RADIUS)
             for seed in range(3)]
    wide = 0
    for inst, problem in runs:
        margins = []
        steps = engine._greedy(inst, problem, None, None, margins=margins)
        ref_steps, ref_margins, ref_wide = _reference_band_scan(inst, problem)
        assert repr(tuple(steps)) == repr(ref_steps)
        assert repr(margins) == repr(ref_margins)
        wide += ref_wide
    assert len(runs) == 177
    assert wide > 500
    # every squared distance of the last case overflows
    margins = []
    steps = engine._greedy(cases[-1], Problem.DIAMETER, None, None, margins=margins)
    assert {s.cost for s in steps} == set(margins) == {math.inf}


def test_tie_margin_decided_by_the_in_band_block():
    # 0, 1, 3, 4 on a line: both best pairs are in band, so every row is in
    # R and the first margin, d(1, 3) - 1, comes from the R x R block alone
    inst = Instance.from_points("pairs", [(0.0,), (1.0,), (3.0,), (4.0,)], L2)
    margins = []
    engine._greedy(inst, Problem.DIAMETER, None, None, margins=margins)
    assert margins == [1.0, 2.0, math.inf]
    assert _reference_band_scan(inst, Problem.DIAMETER)[1:] == (margins, 1)
    assert greedy_tie_margin(inst, Problem.DIAMETER) == 1.0


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
    _assert_matches_eager(inst, Problem.RADIUS, script, stop_at_k)


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


def test_radius_settle_costs_bounds_within_a_tie_width_of_the_limit(monkeypatch):
    # a bound above the limit by less than its tie width may hide a ball at
    # the limit, so the least bound is deflated before a settle skips its
    # work; a bound further above is left alone and costs no ball
    calls = _count_engine_radius_calls(monkeypatch)
    inst = gen_random("uniform_cube", n=6, d=2, norm=L2, seed=3)
    table = engine._RadiusCosts(inst, [(i,) for i in range(6)])
    least = float(table.pend.min())
    assert np.count_nonzero(table.pend == least) == 2
    assert not table.settle_to(least * (1.0 - 2 * TIE_REL_TOL))
    assert calls == []
    assert table.settle_to(least * (1.0 - TIE_REL_TOL / 2))
    assert len(calls) == 1
    assert float(table.pend.min()) > least


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
            _assert_matches_eager(inst, Problem.RADIUS)


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
    # about n balls, not n^2, at n = 256 and 64 under l2 and at n = 64 under
    # other p; the recorded level costs are the radii of the levels' clusters.
    # The l2 ball is closed-form arithmetic, so its counts are exact; the
    # other balls come from SLSQP, whose steps vary with the scipy version
    calls = _count_engine_radius_calls(monkeypatch)
    l2_calls = {256: 257, 64: 63}
    for n, norm in ((256, L2), (64, L2), (64, L1), (64, Norm(1.5)), (64, Norm(3.0))):
        del calls[:]
        inst = gen_random("uniform_cube", n=n, d=2, norm=norm, seed=1)
        hist = agglomerate(inst, Problem.RADIUS)
        if norm == L2:
            assert len(calls) == l2_calls[n]
        else:
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


def _discrete_radius_cases():
    """Uniform draws, integer grids with duplicates, and draws scaled by
    1e200, whose powered distances overflow to inf for p > 1, under five
    norms in d = 1-3, at n = 2-64."""
    sizes = (2, 3, 5, 8, 13, 21, 34, 64)
    cases = []
    for d in (1, 2, 3):
        for j, norm in enumerate((L1, L2, LINF, Norm(1.5), Norm(3.0))):
            seed = 10 * d + j
            uniform = gen_random("uniform_cube", n=sizes[seed % 8], d=d, norm=norm, seed=1300 + seed)
            ints = np.random.default_rng(seed).integers(0, 3, size=(sizes[(seed + 3) % 8], d))
            huge = gen_random("uniform_cube", n=sizes[(seed + 5) % 8], d=d, norm=norm, seed=1400 + seed)
            cases += [
                uniform,
                Instance.from_points("ints", ints.astype(float).tolist(), norm),
                Instance.from_points("huge", [tuple(1e200 * x for x in p) for p in huge.points], norm),
            ]
    return cases


def test_discrete_radius_rows_over_members_match_the_full_width_reference(monkeypatch):
    # the engine costs a merged row from the merged cluster's members and
    # each point's eccentricity to its own cluster; the reference takes the
    # max/min over all n points.  Free runs, tie margins, runs stopped at
    # k = 3 and scripted prefixes, then the last two live ids, which may be
    # refused, agree bit for bit.  After every row, ``label`` maps each
    # member of a live slot or of the merged one to its slot, and ``own``
    # holds each point's entry in its own slot's eccentricity vector
    row = engine._EccentricityCosts._row
    rows = []

    def checked_row(table, lo, hi):
        out = row(table, lo, hi)
        for slot in np.flatnonzero(table.live).tolist() + [lo]:
            assert (table.label[list(table.members[slot])] == slot).all()
        n = len(table.own)
        assert np.array_equal(table.own, table.ecc[table.label, np.arange(n)])
        rows.append(lo)
        return out

    monkeypatch.setattr(engine._EccentricityCosts, "_row", checked_row)
    problem = Problem.DISCRETE_RADIUS
    cases = _discrete_radius_cases()
    cases.append(gen_random("uniform_cube", n=128, d=2, norm=L2, seed=103))
    assert len(cases) == 46 and {len(inst) for inst in cases} >= {2, 64, 128}
    for inst in cases:
        n = len(inst)
        _assert_matches_eager(inst, problem)
        if n > 3:
            _assert_matches_eager(inst, problem, stop_at_k=3)
        free = agglomerate(inst, problem)
        j = n // 2
        prefix = tuple((s.id_a, s.id_b) for s in free.steps[:j])
        live = sorted(set(range(n + j)) - {i for s in free.steps[:j] for i in s[:2]})
        for script in (prefix, prefix + (tuple(live[-2:]),)):
            if len(script) < n:
                _assert_matches_eager(inst, problem, MergeScript(script))
    assert rows


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
