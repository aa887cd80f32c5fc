"""Exact optimal k-clustering costs at desk scale, plus the packing check.

Three independent routes to an optimum:

* ``optimal_by_partition_enum``  -- exhaustive search over set partitions in
  restricted-growth-string order with branch-and-bound pruning (n <= 14);
  works for all three cost functions.
* ``optimal_discrete_kcenter``   -- bisection over the pairwise distances
  for the least one within which k of the points cover all of them, each
  threshold decided by an exact search over cover bitmasks; exact for the
  member-centered radius cost.
* ``optimal_diameter_1d``        -- sort + greedy interval cover with an
  exact bisection over candidate spans; exact for the diameter cost in
  dimension 1, where optimal clusters are intervals.

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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import tie_width
from .metrics import (
    BallCover,
    Cluster,
    Instance,
    Norm,
    L2,
    Problem,
    _powered_norms,
    distance,
    powered_matrix,
    radius,
    unpower,
)

__all__ = [
    "OracleResult", "CoverableSample", "VolumeCheck", "SizeLimitError",
    "optimal_by_partition_enum", "optimal_discrete_kcenter", "optimal_diameter_1d",
    "best_oracle", "volume_lemma_check", "min_pairwise_distance",
    "PARTITION_ENUM_MAX_N", "CENTER_ENUM_BUDGET",
]

PARTITION_ENUM_MAX_N = 14
CENTER_ENUM_BUDGET = 10_000_000


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
    """Points drawn from a union of k balls, with the cover as certificate."""

    points: tuple[tuple[float, ...], ...]
    cover: BallCover
    norm: Norm = L2

    def __post_init__(self):
        d = self.cover.dim
        for i, p in enumerate(self.points):
            if len(p) != d:
                raise ValueError(f"point {i} has dimension {len(p)}, cover has {d}")

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


def _farthest_first(dpow: np.ndarray, count: int) -> tuple[list[int], np.ndarray]:
    """The first ``count`` farthest-first picks from point 0 (Gonzalez 1985),
    and each point's powered distance to its nearest pick."""
    order = [0]
    nearest = dpow[0].copy()
    for _ in range(count - 1):
        order.append(int(nearest.argmax()))
        nearest = np.minimum(nearest, dpow[order[-1]])
    return order, nearest


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

    dpow = powered_matrix(inst)
    norm = inst.norm
    order, _ = _farthest_first(dpow, n)  # spread-out prefixes prune early

    # Per-block state: member ids (original numbering) and powered diameter.
    blocks: list[list[int]] = []
    block_diam_pow: list[float] = []

    # exact radius or discrete radius of a block, by its sorted member ids
    memo: dict[tuple[int, ...], float] = {}

    def exact_cost(ids: tuple[int, ...]) -> float:
        val = memo.get(ids)
        if val is None:
            if problem is Problem.RADIUS:
                val = radius(ids, inst).radius
            else:
                sub = dpow[np.ix_(ids, ids)]
                val = unpower(float(sub.max(axis=1).min()), norm)
            memo[ids] = val
        return val

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
            if half >= incumbent:  # cheap monotone bound, skip the solver
                return new_diam, half
            return new_diam, exact_cost(tuple(sorted(blocks[bi] + [p])))
        # discrete radius: not monotone under insertion, so prune on the
        # half-diameter lower bound and evaluate exactly at leaves only
        return new_diam, unpower(new_diam, norm) / 2.0

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
        # over-tight hint: every k-partition costs more
        return optimal_by_partition_enum(inst, k, problem, upper_bound=None)
    return OracleResult(
        problem=problem,
        k=k,
        opt_cost=float(incumbent),
        partition=_sorted_clusters(best_blocks),
        method="partition-enum",
    )


def _cover_centers(covers: np.ndarray, k: int) -> list[int] | None:
    """At most k centers that together cover every point, where
    ``covers[p, c]`` says that center c covers point p; None if none do.

    A depth-first search over cover bitmasks: some center covers the lowest
    uncovered point, so branching on the centers that cover it misses no
    cover.  ``failed`` maps each uncovered set searched in vain to the
    largest number of centers it failed with.  Masks and branch lists are
    built as the search first needs them.
    """
    n = covers.shape[0]
    bits = np.packbits(covers.T, axis=1, bitorder="little")
    masks: dict[int, int] = {}
    coverers: dict[int, list[int]] = {}

    def branches_at(uncovered: int):
        low = (uncovered & -uncovered).bit_length() - 1
        if low not in coverers:
            coverers[low] = np.flatnonzero(covers[low]).tolist()
        return iter(coverers[low])

    failed: dict[int, int] = {}
    chosen: list[int] = []
    path = [(1 << n) - 1]  # the uncovered set before each chosen center
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
        if failed.get(rest, 0) >= budget:  # no center left, or failed with as many
            continue
        chosen.append(c)
        path.append(rest)
        branches.append(branches_at(rest))
    return None


def optimal_discrete_kcenter(inst: Instance, k: int) -> OracleResult:
    """Exact optimum of the member-centered radius cost by a threshold search.

    The optimum is a pairwise distance (Hochbaum & Shmoys 1985), so the
    distinct powered distances are bisected for the least t at which at
    most k points cover every point within t, each t decided exactly by a
    depth-first search over cover bitmasks.  The witness assigns each point
    to its nearest center, padded with the smallest other ids to k centers;
    every center claims itself, so all k blocks are non-empty.
    """
    n = len(inst.points)
    _validate_k(n, k)
    # the budget decides which instances best_oracle routes here
    if math.comb(n, k) > CENTER_ENUM_BUDGET:
        raise SizeLimitError(
            f"C({n},{k}) center subsets exceed the {CENTER_ENUM_BUDGET:,} budget"
        )
    dpow = powered_matrix(inst)
    # the distinct values, 0 from the diagonal and inf where a power
    # overflows (np.unique would import numpy.ma on first use, 6 ms)
    vals = np.sort(dpow, axis=None)
    vals = vals[np.concatenate(([True], vals[1:] != vals[:-1]))]
    # k farthest-first centers, whose cost bounds the bisection from above
    centers, nearest = _farthest_first(dpow, k)
    lo, hi = 0, int(np.searchsorted(vals, nearest.max()))
    while lo < hi:
        mid = (lo + hi) // 2
        found = _cover_centers(dpow <= vals[mid], k)
        if found is None:
            lo = mid + 1
        else:
            hi, centers = mid, found
    chosen = set(centers)  # the traversal repeats a point once every point is covered
    centers = sorted(chosen.union([p for p in range(n) if p not in chosen][:k - len(chosen)]))
    assignment = dpow[:, centers].argmin(axis=1)
    for slot, c in enumerate(centers):
        assignment[c] = slot  # a center always claims itself (duplicates)
    blocks = [[] for _ in centers]
    for p, slot in enumerate(assignment):
        blocks[slot].append(p)
    return OracleResult(
        problem=Problem.DISCRETE_RADIUS,
        k=k,
        opt_cost=unpower(float(vals[hi]), inst.norm),
        partition=_sorted_clusters(blocks),
        method="center-cover-search",
    )


def optimal_diameter_1d(inst: Instance, k: int) -> OracleResult:
    """Exact optimal diameter cost in dimension 1 by a greedy interval cover.

    Some optimal partition splits the sorted values into runs, and a run's
    span (the float difference of its ends) is monotone in both ends, so a
    greedy cover needs the fewest runs for its span; the least span that k
    runs cover is found exactly by bisecting over the bit patterns of the
    non-negative doubles, which sort as the doubles do.  A run's diameter is
    the distance between its ends, monotone in the span, so the cost is the
    largest such distance over the cover's runs, as ``diameter`` gives it.
    """
    if inst.dim != 1:
        raise ValueError(f"one-dimensional oracle got dim={inst.dim}")
    n = len(inst.points)
    _validate_k(n, k)
    order = sorted(range(n), key=lambda i: inst.points[i][0])
    vals = [inst.points[i][0] for i in order]

    def cuts(span: float) -> list[int] | None:
        """Starts of the greedy cover's runs, each cut short to leave a point
        for every later run: exactly k runs, or None if k fall short."""
        starts = [0]
        while len(starts) <= k:
            first = vals[starts[-1]]
            end = bisect_right(vals, span, lo=starts[-1], key=lambda v: v - first)
            end = min(end, n - k + len(starts))
            if end == n:
                return starts
            starts.append(end)
        return None

    def double(bits: int) -> float:
        return float(np.int64(bits).view(np.float64))

    top = int(np.float64(vals[-1] - vals[0]).view(np.int64))
    span = double(bisect_left(range(top + 1), True, key=lambda b: cuts(double(b)) is not None))
    starts = cuts(span)
    runs = list(zip(starts, starts[1:] + [n]))
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
    instance is past every oracle's budget.

    One-dimensional diameter goes to the interval cover, discrete radius to
    the center cover search while C(n, k) fits its budget, and anything else with
    n <= ``PARTITION_ENUM_MAX_N`` to partition enumeration, which
    ``upper_bound`` (a cost some k-partition achieves) helps prune.
    """
    n = len(inst.points)
    _validate_k(n, k)
    if problem is Problem.DIAMETER and inst.dim == 1:
        return optimal_diameter_1d(inst, k)
    if problem is Problem.DISCRETE_RADIUS and math.comb(n, k) <= CENTER_ENUM_BUDGET:
        return optimal_discrete_kcenter(inst, k)
    if n <= PARTITION_ENUM_MAX_N:
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
    delta = min_pairwise_distance(sample.points, sample.norm)
    bound = 4.0 * sample.cover.radius * (k / m) ** (1.0 / dim)
    return VolumeCheck(min_pair_dist=delta, bound=bound, holds=delta <= bound)
