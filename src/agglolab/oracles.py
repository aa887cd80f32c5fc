"""Exact optimal k-clustering costs at desk scale, plus the packing check.

Three independent routes to an optimum:

* ``optimal_by_partition_enum``  -- exhaustive search over set partitions in
  restricted-growth-string order with branch-and-bound pruning (n <= 14);
  works for all three cost functions.
* ``optimal_discrete_kcenter``   -- the least pairwise distance within
  which k of the points cover all of them, by a descent from the cost of
  the farthest-first centers, re-centred and improved by single swaps:
  each cover found, re-centred, sets the next threshold, and the first
  threshold refuted ends the search.  Each threshold is decided by an
  exact search over cover bitmasks that branches on the uncovered point
  with the fewest coverers and that a packing bound prunes, within a
  budget of search nodes; exact for the member-centered radius cost.
* ``optimal_diameter_1d``        -- sort + greedy interval cover with an
  exact bisection over candidate spans, whose ends snap to spans that a
  cover certifies; exact for the diameter cost in dimension 1, where
  optimal clusters are intervals, and for the radius cost there as half
  the l_inf diameter.

``best_oracle`` routes one (problem, k) request to the cheapest of them that
applies; every caller that wants an optimum goes through it.

``volume_lemma_check`` evaluates the packing bound on a coverable sample:
if a finite set P sits inside k balls of radius r and |P| > k, then some
two of its points are within 4 r (k/|P|)^(1/d) of each other.  Its least
pairwise distance comes from ``min_pairwise_distance``, an exact sweep over
the points sorted along one coordinate, which costs about n pairs on such a
sample and equals the minimum over all pairs bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from contextlib import suppress
from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import chain, repeat
from operator import or_
from typing import Iterator, Sequence

import numpy as np

from .engine import tie_width
from .metrics import (
    BallCover,
    Cluster,
    EnclosingBall,
    Instance,
    Norm,
    L2,
    LINF,
    Problem,
    _powered_norms,
    distance,
    powered_matrix,
    radius,
    unpower,
    unpower_array,
)

__all__ = [
    "OracleResult", "CoverableSample", "VolumeCheck", "SizeLimitError",
    "optimal_by_partition_enum", "optimal_discrete_kcenter", "optimal_diameter_1d",
    "best_oracle", "volume_lemma_check", "min_pairwise_distance",
    "PARTITION_ENUM_MAX_N", "CENTER_SEARCH_NODES",
]

PARTITION_ENUM_MAX_N = 14
# search steps of one optimal_discrete_kcenter call, summed over its
# thresholds; a step takes 1.1-1.7 us on a 2-vCPU Xeon VM, so a refused call
# stops after 1-2 s
CENTER_SEARCH_NODES = 1_000_000


class SizeLimitError(ValueError):
    """The instance exceeds an oracle's combinatorial budget."""


@dataclass(frozen=True)
class OracleResult:
    """Exact optimal cost (with witness partition) for one (problem, k)."""

    problem: Problem
    k: int
    opt_cost: float
    partition: tuple[Cluster, ...] | None
    method: str


@dataclass(frozen=True)
class CoverableSample:
    """Points drawn from a union of k balls, with the cover as certificate.

    Construction checks the certificate: every point must lie within the
    cover radius, up to the tie band, of some center.
    """

    points: tuple[tuple[float, ...], ...]
    cover: BallCover
    norm: Norm = L2
    # the points as a read-only (m, d) array, built once by the check below
    _coords: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cover = self.cover
        d = cover.dim
        if set(map(len, self.points)) - {d}:
            i = next(i for i, p in enumerate(self.points) if len(p) != d)
            raise ValueError(f"point {i} has dimension {len(self.points[i])}, cover has {d}")
        # one pass over the (centers x points) table of distances: a point
        # with a non-finite coordinate is nan or inf from every center; a
        # point drawn as center + offset lies up to a rounding outside its
        # ball, so the radius stretches by the tie band
        pts = np.fromiter(chain.from_iterable(self.points), float, len(self.points) * d).reshape(-1, d)
        pts.flags.writeable = False
        object.__setattr__(self, "_coords", pts)
        centers = np.array(cover.centers)
        near = unpower_array(_powered_norms(
            (centers[:, j, None] - pts[:, j] for j in range(d)), self.norm).min(axis=0), self.norm)
        bad = np.flatnonzero(~(near <= cover.radius + tie_width(cover.radius)))
        if bad.size:
            i = int(bad[0])
            if not all(map(math.isfinite, self.points[i])):
                raise ValueError(f"point {i} has a non-finite coordinate")
            raise ValueError(f"point {i} lies outside every cover ball: {float(near[i])!r} from "
                             f"the nearest center, radius {cover.radius!r}")

    def to_instance(self, name: str) -> Instance:
        return Instance(name=name, dim=self.cover.dim, norm=self.norm, points=self.points)


@dataclass(frozen=True)
class VolumeCheck:
    min_pair_dist: float
    bound: float
    holds: bool


def _validate_k(n: int, k: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")


def _sorted_clusters(blocks: Sequence[Sequence[int]]) -> tuple[Cluster, ...]:
    clusters = [Cluster(tuple(b)) for b in blocks]
    clusters.sort(key=lambda c: c.min_member)
    return tuple(clusters)


def _farthest_first(dpow: np.ndarray, count: int) -> list[int]:
    """The first ``count`` farthest-first picks from point 0 (Gonzalez 1985).
    The picks are distinct: once every point lies on a pick, the next is the
    first point not picked yet."""
    order = [0]
    nearest = dpow[0].copy()  # -1 marks a pick: below every distance, so it stays
    nearest[0] = -1.0
    for _ in range(count - 1):
        order.append(int(nearest.argmax()))
        np.minimum(nearest, dpow[order[-1]], out=nearest)
        nearest[order[-1]] = -1.0
    return order


def optimal_by_partition_enum(
    inst: Instance,
    k: int,
    problem: Problem,
    upper_bound: float | None = None,
) -> OracleResult:
    """Exact minimum over all partitions of the points into k non-empty parts.

    Enumerates restricted growth strings (blocks in first-use order, at most
    k of them) depth-first, pruning any prefix whose running maximum part
    cost already reaches the best complete partition seen.  ``upper_bound``,
    when given, must be a cost achieved by some k-partition; it tightens the
    initial pruning threshold without affecting exactness.
    """
    n = len(inst.points)
    _validate_k(n, k)
    if n > PARTITION_ENUM_MAX_N:
        raise SizeLimitError(
            f"partition enumeration capped at n <= {PARTITION_ENUM_MAX_N}, got {n}"
        )

    midrange = problem is Problem.RADIUS and (inst.norm.is_infinity or inst.dim == 1)
    if midrange:
        # the ball is the midrange box, whose radius is exactly half the
        # block's l_inf diameter, as the greedy engine costs it; no finite
        # span overflows there, while a 1-d square can
        inst = replace(inst, norm=LINF)
    dpow = powered_matrix(inst)
    norm = inst.norm
    order = _farthest_first(dpow, n)  # spread-out prefixes prune early

    # Per-block state: member ids (original numbering) and powered diameter.
    blocks: list[list[int]] = []
    block_diam_pow: list[float] = []

    # exact discrete radius of a block, and the enclosing ball of a block
    # under RADIUS, by its sorted member ids
    memo: dict[tuple[int, ...], float] = {}
    balls: dict[tuple[int, ...], EnclosingBall] = {}

    def exact_cost(ids: tuple[int, ...]) -> float:
        val = memo.get(ids)
        if val is None:
            sub = dpow[np.ix_(ids, ids)]
            val = memo[ids] = unpower(float(sub.max(axis=1).min()), norm)
        return val

    def ball_radius(block: list[int], p: int) -> float:
        ids = tuple(sorted(block + [p]))
        ball = balls.get(ids)
        if ball is None:
            # a point inside the exact ball of a block leaves it the
            # smallest ball of the union; an approximate ball may not be
            ball = balls.get(tuple(sorted(block)))
            if (ball is None or ball.approximate
                    or distance(inst.points[p], ball.center, norm) > ball.radius):
                ball = radius(ids, inst)
            balls[ids] = ball
        return ball.radius

    incumbent = math.inf if upper_bound is None else upper_bound + tie_width(upper_bound)
    best_blocks: list[tuple[int, ...]] | None = None

    def assign_cost(bi: int, p: int) -> tuple[float, float]:
        """(new powered diameter, new reported cost) if p joins block bi."""
        new_diam = block_diam_pow[bi]
        for q in blocks[bi]:
            v = dpow[p, q]
            if v > new_diam:
                new_diam = v
        if problem is Problem.DIAMETER:
            return new_diam, unpower(new_diam, norm)
        if problem is Problem.RADIUS:
            half = unpower(new_diam, norm) / 2.0
            # the midrange radius itself, or else a cheap monotone bound
            # that skips the solver
            if midrange or half >= incumbent:
                return new_diam, half
            return new_diam, ball_radius(blocks[bi], p)
        # discrete radius: not monotone under insertion, so prune on the
        # half-diameter lower bound and evaluate exactly at leaves only; an
        # overflowed diameter bounds nothing, as the radius can be finite
        return new_diam, unpower(new_diam, norm) / 2.0 if new_diam < math.inf else 0.0

    def dfs(i: int, running: float) -> None:
        nonlocal incumbent, best_blocks
        if i == n:
            if len(blocks) != k:
                return
            if problem is Problem.DISCRETE_RADIUS:
                total = max(exact_cost(tuple(sorted(b))) for b in blocks)
            else:
                total = running
            # only a leaf that beats the incumbent is kept: under an
            # over-tight hint none does, and the search reruns without it
            if total < incumbent:
                incumbent = total
                best_blocks = [tuple(sorted(b)) for b in blocks]
            return
        # remaining points must be able to open the still-missing blocks
        if k - len(blocks) > n - i:
            return
        p = order[i]
        for bi in range(len(blocks)):
            new_diam, new_cost = assign_cost(bi, p)
            new_running = max(running, new_cost)
            if new_running >= incumbent:
                continue
            old_diam = block_diam_pow[bi]
            blocks[bi].append(p)
            block_diam_pow[bi] = new_diam
            dfs(i + 1, new_running)
            blocks[bi].pop()
            block_diam_pow[bi] = old_diam
        if len(blocks) < k:
            blocks.append([p])
            block_diam_pow.append(0.0)
            dfs(i + 1, running)
            blocks.pop()
            block_diam_pow.pop()

    dfs(0, 0.0)
    # the recursive closure refers to itself: drop it, so that the memo goes
    # now and not at the next cyclic collection
    dfs = None
    if best_blocks is None:
        if upper_bound is not None:
            # over-tight hint: every k-partition costs more
            return optimal_by_partition_enum(inst, k, problem)
        # every k-partition costs inf, so any one is a witness
        best_blocks = [tuple(range(n - k + 1))] + [(i,) for i in range(n - k + 1, n)]
    return OracleResult(
        problem=problem,
        k=k,
        opt_cost=float(incumbent),
        partition=_sorted_clusters(best_blocks),
        method="partition-enum",
    )


def _search_steps() -> Iterator[None]:
    """The steps that one :func:`optimal_discrete_kcenter` call may take over
    all its thresholds; the step past ``CENTER_SEARCH_NODES`` raises
    :class:`SizeLimitError`."""
    yield from repeat(None, CENTER_SEARCH_NODES)
    raise SizeLimitError(f"cover search past the {CENTER_SEARCH_NODES:,}-node budget")


def _cover_centers(covers: np.ndarray, k: int, steps: Iterator[None]) -> list[int] | None:
    """At most k centers that together cover every point, where each row
    of ``covers`` is a point and ``covers[r, c]`` says that center c covers
    the point of row r; None if none do.  The columns are the center ids,
    and the rows may come in any order: :func:`optimal_discrete_kcenter`
    puts the points with the fewest coverers first.

    A depth-first search over cover bitmasks: some center covers the lowest
    uncovered point, the one in the lowest row, so branching on the centers
    that cover it misses no cover.  ``failed`` maps each uncovered set
    searched in vain to the largest number of centers it failed with.  A
    packing bound prunes a set before it is searched, and the full set
    before the first branch: uncovered points no two of which share a
    coverer need a center each, and a greedy walk from the lowest
    uncovered point, dropping the points
    that share a coverer with each point taken, finds such points.  The
    bound only drops sets that no centers left can cover, so the search
    meets the same first cover as without it.  Branch lists and each
    point's reach (the points that share a coverer with it) are built as
    the search first needs them.  The root and each branch tried or
    exhausted take one item of ``steps``.
    """
    n = covers.shape[0]
    width = (n + 7) // 8
    raw = np.packbits(covers.T, axis=1, bitorder="little").tobytes()
    masks = [int.from_bytes(raw[c * width:(c + 1) * width], "little") for c in range(n)]
    coverers: dict[int, list[int]] = {}
    reach: dict[int, int] = {}

    def centers_of(p: int) -> list[int]:
        if p not in coverers:
            coverers[p] = covers[p].nonzero()[0].tolist()
        return coverers[p]

    def branches_at(uncovered: int):
        return iter(centers_of((uncovered & -uncovered).bit_length() - 1))

    def needs_more(uncovered: int, budget: int) -> bool:
        """Whether the points of ``uncovered`` need more than ``budget`` centers."""
        while uncovered:
            if not budget:
                return True
            budget -= 1
            low = (uncovered & -uncovered).bit_length() - 1
            near = reach.get(low)
            if near is None:
                near = reach[low] = reduce(or_, [masks[c] for c in centers_of(low)])
            uncovered &= ~near
        return False

    failed: dict[int, int] = {}
    chosen: list[int] = []
    path = [(1 << n) - 1]  # the uncovered set before each chosen center
    next(steps)
    if needs_more(path[0], k):
        return None
    branches = [branches_at(path[0])]
    while branches:
        next(steps)
        c = next(branches[-1], None)
        if c is None:
            failed[path.pop()] = k - len(chosen)
            branches.pop()
            if chosen:
                chosen.pop()
            continue
        rest = path[-1] & ~masks[c]
        if not rest:
            chosen.append(c)
            return chosen
        budget = k - len(chosen) - 1
        if failed.get(rest, 0) >= budget:  # no center left, or failed with as many
            continue
        if needs_more(rest, budget):
            failed[rest] = budget
            continue
        chosen.append(c)
        path.append(rest)
        branches.append(branches_at(rest))
    return None


def _recentred(dpow: np.ndarray, centers: Sequence[int]) -> tuple[np.ndarray, float]:
    """A cover's centers moved to the best member of their blocks, and the
    powered cost of the result.

    Each point joins its nearest center, and each center claims itself
    (duplicates); each block then moves its center to its member of least
    within-block eccentricity, the lowest id among equals.  A block's old
    center is one of its members, so no block's eccentricity grows, and
    the cost, the largest distance from a point to its nearest new center,
    is at most the old cover's.
    """
    centers = np.asarray(centers)
    slot = dpow[:, centers].argmin(axis=1)
    slot[centers] = np.arange(len(centers))
    ecc = np.where(slot[:, None] == slot, dpow, 0.0).max(axis=1)
    order = np.lexsort((ecc, slot))  # by block, then eccentricity, then id
    moved = order[np.searchsorted(slot[order], np.arange(len(centers)))]
    return moved, float(dpow[:, moved].min(axis=1).max())


def _swapped(dpow: np.ndarray, centers: np.ndarray, cost: float) -> tuple[np.ndarray, float]:
    """A cover of powered cost ``cost`` improved by single swaps, and the
    powered cost of the result.

    The center slots are visited in turn, round and round: the point that
    lowers the cover's cost the most (the lowest id among equals) replaces
    a slot's center if it lowers the cost strictly, and the search stops
    once every slot has been tried since the last swap.  A point that is
    already a center never lowers the cost, so the centers stay distinct.
    """
    centers = centers.copy()
    near = dpow[:, centers]  # column j: each point's distance to center j
    idle, slot = 0, 0  # the slots tried since the last swap, the next slot
    while idle < len(centers) and cost > 0:  # a cover of cost 0 cannot improve
        near[:, slot] = np.inf
        costs = np.minimum(dpow, near.min(axis=1, keepdims=True)).max(axis=0)  # per candidate
        best = int(costs.argmin())
        if costs[best] < cost:
            centers[slot], cost, idle = best, float(costs[best]), 0
        near[:, slot] = dpow[:, centers[slot]]
        idle += 1
        slot = (slot + 1) % len(centers)
    return centers, cost


def _fewest_coverers_first(covers: np.ndarray) -> np.ndarray:
    """``covers`` with its rows (points) reordered by their number of
    coverers, fewest first and by id among equals; the columns (center ids)
    stay as they are."""
    return covers[np.argsort(covers.sum(axis=1), kind="stable")]


def optimal_discrete_kcenter(inst: Instance, k: int) -> OracleResult:
    """Exact optimum of the member-centered radius cost by a threshold search.

    The optimum is a pairwise distance (Hochbaum & Shmoys 1985).  The
    search descends the distinct powered distances from the cost of the k
    farthest-first centers (Gonzalez 1985), re-centred and then improved
    by single swaps: it decides only the value just below the best cover's
    cost, by a depth-first search over cover bitmasks with a packing bound,
    and each cover found, re-centred on its blocks' best members, sets the
    next value.  So the first refuted value ends the search, and a call
    refutes at most once.  Each decision orders the points fewest coverers
    first, so the search branches on the uncovered point with the fewest
    options (Knuth's Dancing Links, 2000); every point has a coverer, so
    branching on any one of them misses no cover.  The searches of all
    thresholds share ``CENTER_SEARCH_NODES`` steps, and the call raises
    :class:`SizeLimitError` past them.  The witness assigns each point to
    its nearest center, padded with the smallest other ids to k centers;
    every center claims itself, so all k blocks are non-empty.
    """
    n = len(inst.points)
    _validate_k(n, k)
    dpow = powered_matrix(inst)
    # the distinct values, 0 from the diagonal and inf where a power
    # overflows (np.unique would import numpy.ma on first use, 6 ms)
    vals = np.sort(dpow, axis=None)
    vals = vals[np.concatenate(([True], vals[1:] != vals[:-1]))]
    centers, cost = _swapped(dpow, *_recentred(dpow, _farthest_first(dpow, k)))
    hi = int(np.searchsorted(vals, cost))  # a cover's cost is one of the values
    steps = _search_steps()  # shared by every threshold
    while hi:
        found = _cover_centers(_fewest_coverers_first(dpow <= vals[hi - 1]), k, steps)
        if found is None:
            break
        centers, cost = _recentred(dpow, found)
        hi = int(np.searchsorted(vals, cost))
    chosen = set(centers.tolist())  # a cover may need fewer than k centers
    centers = sorted(chosen.union([p for p in range(n) if p not in chosen][:k - len(chosen)]))
    assignment = dpow[:, centers].argmin(axis=1)
    for slot, c in enumerate(centers):
        assignment[c] = slot  # a center always claims itself (duplicates)
    blocks = [[] for _ in centers]
    for p, slot in enumerate(assignment.tolist()):
        blocks[slot].append(p)
    return OracleResult(
        problem=Problem.DISCRETE_RADIUS,
        k=k,
        opt_cost=unpower(float(vals[hi]), inst.norm),
        partition=_sorted_clusters(blocks),
        method="center-cover-search",
    )


def _greedy_runs(vals: list[float], k: int, span: float) -> list[int]:
    """The k + 1 bounds of a greedy cover of the sorted ``vals`` by k runs
    of span at most ``span``: each run takes the points within the span of
    its first, cut short to leave a point for every later run.  The last
    bound is len(vals) when the runs cover every point; otherwise no run
    was cut short, and the first point past each run lies beyond the span.
    """
    n = len(vals)
    bounds = [0]
    while len(bounds) <= k and bounds[-1] < n:
        first = vals[bounds[-1]]
        end = bisect_right(vals, span, lo=bounds[-1], key=lambda v: v - first)
        bounds.append(min(end, n - k + len(bounds)))
    return bounds


def _bits(span: float) -> int:
    """The bit pattern of a non-negative double; the patterns sort as the
    doubles do, and -0.0 counts as 0.0."""
    return int(np.float64(abs(span)).view(np.int64))


def _double(bits: int) -> float:
    return float(np.int64(bits).view(np.float64))


def optimal_diameter_1d(inst: Instance, k: int) -> OracleResult:
    """Exact optimal diameter cost in dimension 1 by a greedy interval cover.

    Some optimal partition splits the sorted values into runs, and a run's
    span (the float difference of its ends) is monotone in both ends, so a
    greedy cover needs the fewest runs for its span.  The least span that k
    runs cover is found exactly by a bisection over the bit patterns of the
    non-negative doubles, whose ends snap to certified spans: a span the
    runs cover lowers the upper end to their widest run; a span they do not
    raises the lower end to the least one-point extension of the k runs,
    below which the greedy cover keeps the same runs and so fails too.  A
    run's diameter is the distance between its ends, monotone in the span,
    so the cost is the largest such distance over the cover's runs, as
    ``diameter`` gives it.
    """
    if inst.dim != 1:
        raise ValueError(f"one-dimensional oracle got dim={inst.dim}")
    n = len(inst.points)
    _validate_k(n, k)
    order = sorted(range(n), key=lambda i: inst.points[i][0])
    vals = [inst.points[i][0] for i in order]
    lo, hi = 0, _bits(vals[-1] - vals[0])
    while lo < hi:
        mid = (lo + hi) // 2
        bounds = _greedy_runs(vals, k, _double(mid))
        runs = zip(bounds, bounds[1:])
        if bounds[-1] == n:
            hi = _bits(max(vals[b - 1] - vals[a] for a, b in runs))
        else:
            lo = _bits(min(vals[b] - vals[a] for a, b in runs))
    bounds = _greedy_runs(vals, k, _double(hi))
    runs = list(zip(bounds, bounds[1:]))
    return OracleResult(
        problem=Problem.DIAMETER,
        k=k,
        opt_cost=max(distance((vals[a],), (vals[b - 1],), inst.norm) for a, b in runs),
        partition=_sorted_clusters([order[a:b] for a, b in runs]),
        method="one-dim-dp",
    )


def best_oracle(
    inst: Instance,
    problem: Problem,
    k: int,
    upper_bound: float | None = None,
) -> OracleResult | None:
    """Exact optimum from the cheapest oracle that applies, or None when the
    instance is past the size limit of every one.

    The routes are tried in order: one-dimensional diameter goes to the
    interval cover; one-dimensional radius too, as half the l_inf diameter
    optimum, since a 1-d ball is the midrange and its radius half the
    block's span; discrete radius to the center cover search, then to
    partition enumeration; anything else to partition enumeration, which
    ``upper_bound`` (a cost some k-partition achieves) helps prune.  Each
    oracle states its own limit and raises :class:`SizeLimitError` past it,
    and the router then moves on; any other error, as for a bad k, is raised.
    """
    if problem is Problem.DIAMETER and inst.dim == 1:
        return optimal_diameter_1d(inst, k)
    if problem is Problem.RADIUS and inst.dim == 1:
        res = optimal_diameter_1d(replace(inst, norm=LINF), k)
        return replace(res, problem=problem, opt_cost=res.opt_cost / 2.0)
    if problem is Problem.DISCRETE_RADIUS:
        with suppress(SizeLimitError):
            return optimal_discrete_kcenter(inst, k)
    with suppress(SizeLimitError):
        return optimal_by_partition_enum(inst, k, problem, upper_bound=upper_bound)
    return None


def min_pairwise_distance(points: Sequence[Sequence[float]], norm: Norm) -> float:
    """Exact minimum distance over all pairs of (finite) points, by a sweep
    over the points sorted along the coordinate of largest spread (Shamos &
    Hoey 1975).

    For s = 1, 2, ... the pairs s places apart in sorted order are costed
    when their powered gap on the sort axis is at most the least powered
    distance found so far.  The pruning is exact: a pair's powered distance
    is a left-to-right sum of non-negative terms, one of which is that
    powered gap, and such a sum never rounds below any of its terms; a gap
    only grows with s, so a pair that fails the test rules out every wider
    pair from the same start, and the sweep stops when none is left or the
    least distance is 0.  Each pair is costed as ``powered_distance`` costs
    it (|a - b| = |b - a| exactly), so the result equals the minimum over
    all pairs bit for bit, inf included where a power overflows.  The worst
    case, as when every point shares the sort coordinate, costs all n(n-1)/2
    pairs in n - 1 passes; memory is O(n d).
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n < 2:
        raise ValueError("need at least two points")
    # half spreads: a full spread can overflow
    axis = int(np.argmax(pts.max(axis=0) / 2 - pts.min(axis=0) / 2))
    cols = np.ascontiguousarray(pts[np.argsort(pts[:, axis])].T)
    key = cols[axis:axis + 1]
    best = math.inf
    live = np.arange(n - 1)  # starts i whose pair (i, i + s) may still beat best
    for s in range(1, n):
        live = live[live < n - s]
        gaps = _powered_norms((c[live + s] - c[live] for c in key), norm)
        live = live[gaps <= best]
        if not live.size:
            break
        ends = live + s
        best = min(best, float(_powered_norms((c[ends] - c[live] for c in cols), norm).min()))
        if best == 0.0:
            break
    return unpower(best, norm)


def volume_lemma_check(sample: CoverableSample, dim: int) -> VolumeCheck:
    """Evaluate the packing bound on a coverable sample.

    Computes the minimum pairwise distance delta and the bound
    u = 4 r (k/|P|)^(1/d); ``holds`` is delta <= u.  A False on a certified
    sample indicates a bug, not a counterexample.
    """
    if dim != sample.cover.dim:
        raise ValueError(f"dim={dim} but cover has dimension {sample.cover.dim}")
    k = sample.cover.k
    m = len(sample.points)
    if m <= k:
        raise ValueError(f"need more points than cover balls: |P|={m}, k={k}")
    delta = min_pairwise_distance(sample._coords, sample.norm)
    bound = 4.0 * sample.cover.radius * (k / m) ** (1.0 / dim)
    return VolumeCheck(min_pair_dist=delta, bound=bound, holds=delta <= bound)
