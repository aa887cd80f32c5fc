"""Greedy merge loop for the three linkages, merge scripts, and dendrograms.

Starting from singletons, each step merges the pair of clusters whose union
has minimum cost under the chosen linkage (one of the three cost functions
in :mod:`agglolab.metrics`).  Pairs whose costs agree within a relative
tolerance of 1e-9 (absolute floor 1e-12) count as tied; ties are resolved
either lexicographically or by a prescribed merge script.

Cluster id numbering is fixed: the n input points are clusters 0..n-1 and
the cluster created by step t (t = 0, 1, ...) gets id n + t.  Scripts use
this numbering and every scripted merge must itself be cost-minimal at its
step, otherwise the run aborts with :class:`ScriptViolationError`.

The loop keeps a table of the merge cost of every pair of live clusters.
Radius linkage under l2 and general p fills it lazily: an entry holds half
the diameter of its union, a lower bound under every norm, until a step's
tie band can reach it, and each step first settles the table, costing
exactly every entry that the pick, the tie order, a script or the tie
margin could see.  Every recorded cost is the cost function's value on the
union, never a bound.

Costs along a run never decrease: the cost of each level equals the cost of
the cluster created last, and the cost of any available union bounds the
next step from above.  ``MergeHistory.check_invariants`` verifies this.

A single run is sequential and deterministic; runs over distinct instances
can proceed in parallel, and a returned ``MergeHistory`` is immutable.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .metrics import (
    LINF,
    Cluster,
    Instance,
    Problem,
    _BLOCK_ELEMENTS,
    _powered_norms,
    powered_matrix,
    radius,
    unpower,
    unpower_array,
)

__all__ = [
    "MergeScript", "MergeStep", "MergeHistory",
    "ScriptViolationError",
    "agglomerate", "agglomerate_nn_chain", "greedy_tie_margin",
    "TIE_REL_TOL", "TIE_ABS_TOL", "tie_width",
]

TIE_REL_TOL = 1e-9
TIE_ABS_TOL = 1e-12


def tie_width(cost: float) -> float:
    """How far from ``cost`` another cost may lie and still count as tied."""
    return max(TIE_REL_TOL * abs(cost), TIE_ABS_TOL)


class ScriptViolationError(ValueError):
    """A scripted merge was not cost-minimal (or referenced a dead cluster)."""

    def __init__(self, step_index: int, scripted_cost: float | None, true_minimum: float | None, message: str):
        super().__init__(message)
        self.step_index = step_index
        self.scripted_cost = scripted_cost
        self.true_minimum = true_minimum


@dataclass(frozen=True)
class MergeScript:
    """Prescribed merge order: a list of (id_a, id_b) cluster-id pairs.

    May cover all n-1 merges or just a prefix; after the prefix the run
    continues with lexicographic tie-breaking.
    """

    steps: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "steps", tuple((int(a), int(b)) for a, b in self.steps)
        )
        for t, (a, b) in enumerate(self.steps):
            if a == b:
                raise ValueError(f"script step {t} merges id {a} with itself")

    def __len__(self) -> int:
        return len(self.steps)


class MergeStep(NamedTuple):
    id_a: int
    id_b: int
    cost: float
    new_id: int
    size: int


@dataclass(frozen=True)
class MergeHistory:
    """Full or truncated dendrogram: the ordered merges with their costs."""

    instance: Instance
    linkage: Problem
    steps: tuple[MergeStep, ...]

    @property
    def n(self) -> int:
        return len(self.instance.points)

    @property
    def final_level(self) -> int:
        """Number of clusters remaining after the recorded merges."""
        return self.n - len(self.steps)

    def cost_at_k(self, k: int) -> float:
        """Cost of the level with k clusters: 0 at k = n, otherwise the cost
        of the merge that produced that level."""
        n = self.n
        if not 1 <= k <= n:
            raise ValueError(f"k must be in [1, {n}], got {k}")
        if k == n:
            return 0.0
        if k < self.final_level:
            raise ValueError(f"history truncated at level {self.final_level}; k={k} unavailable")
        return self.steps[n - k - 1].cost

    def clusters_at_k(self, k: int) -> list[Cluster]:
        """The partition at level k, sorted by smallest member id."""
        n = self.n
        if not 1 <= k <= n:
            raise ValueError(f"k must be in [1, {n}], got {k}")
        if k < self.final_level:
            raise ValueError(f"history truncated at level {self.final_level}; k={k} unavailable")
        members: dict[int, tuple[int, ...]] = {i: (i,) for i in range(n)}
        for step in self.steps[: n - k]:
            members[step.new_id] = members.pop(step.id_a) + members.pop(step.id_b)
        return sorted((Cluster(c) for c in members.values()), key=lambda c: c.min_member)

    def check_invariants(self, deep: bool = False) -> None:
        """Raise ValueError if the recorded run is internally inconsistent.

        Always checks id numbering, sizes and nondecreasing costs; with
        ``deep`` also replays the merges to verify that every level is a
        partition and that levels nest.

        Cost monotonicity is checked up to the tie tolerance: pairs whose
        costs agree within the band are merged in lexicographic order, so a
        run may record a dip of at most one band width (exactly equal tied
        costs, as on integer coordinates, record no dip at all).  A larger
        decrease is an error.
        """
        n = self.n
        prev_cost = 0.0
        for t, step in enumerate(self.steps):
            if step.new_id != n + t:
                raise ValueError(f"step {t}: new cluster id {step.new_id}, expected {n + t}")
            if step.cost < prev_cost - tie_width(prev_cost):
                raise ValueError(
                    f"step {t}: cost {step.cost!r} decreased below previous {prev_cost!r} "
                    f"beyond the tie tolerance"
                )
            prev_cost = max(prev_cost, step.cost)
        if deep:
            members: dict[int, frozenset[int]] = {i: frozenset((i,)) for i in range(n)}
            for t, step in enumerate(self.steps):
                if step.id_a not in members or step.id_b not in members:
                    raise ValueError(f"step {t} references a merged or unknown cluster id")
                union = members.pop(step.id_a) | members.pop(step.id_b)
                if len(union) != step.size:
                    raise ValueError(f"step {t}: recorded size {step.size} != {len(union)}")
                members[step.new_id] = union
            covered: set[int] = set()
            for group in members.values():
                if covered & group:
                    raise ValueError("final level is not a partition")
                covered |= group
            if covered != set(range(n)):
                raise ValueError("final level does not cover all points")

    def to_text(self) -> str:
        """One merge per line: ``id_a,id_b,cost,new_id,size`` (cost at 12
        significant digits)."""
        return "\n".join(
            f"{s.id_a},{s.id_b},{s.cost:.12g},{s.new_id},{s.size}" for s in self.steps
        )


# ---------------------------------------------------------------------------
# cost backends


class _PairTable:
    """Reported merge cost of every pair of live clusters, and the minimum
    of each row.  An entry of a lazy backend may be a lower bound instead;
    ``settle_to`` and ``exact_cost`` make entries exact before a pick reads
    them.

    A live cluster sits at the slot of its smallest member, so ``m`` is an
    n x n table and a slot pair (lo, hi) with lo < hi is the pair of member
    minima that ties break by: the array order is the tie order.  The table
    is the backend's singleton pair matrix, taken over in place; a merge
    keeps the lower slot, costs it against every other live slot and fills
    the upper slot with inf.  Dead slots and the diagonal hold inf, so
    ``rowmin[i] == m[i].min()`` for every slot and a step's best cost is
    ``rowmin.min()``.

    Subclasses cost a merged cluster's row in ``_row(lo, hi)``, called with
    both slots already dead: a full length-n row, with inf at every dead
    slot, at ``lo`` and at ``hi``.  A merge is then a few whole-row passes
    with no index lists, as inf never changes a minimum and never passes a
    finite tie band.
    """

    def __init__(self, pair_costs: np.ndarray):
        self.m = pair_costs
        np.fill_diagonal(self.m, math.inf)
        self.rowmin = self.m.min(axis=1)
        self.live = np.ones(len(pair_costs), dtype=bool)

    def settle_to(self, limit: float) -> bool:
        """Cost exactly every entry that may be at most ``limit``; return
        whether any entry changed.  Every entry of an exact backend is a
        cost already."""
        return False

    def exact_cost(self, lo: int, hi: int) -> float:
        """The cost of slot pair (lo, hi), costed exactly if need be."""
        return float(self.m[lo, hi])

    def merge(self, lo: int, hi: int) -> None:
        """Merge slot ``hi`` into slot ``lo`` and cost ``lo`` against every
        other live slot."""
        m, rowmin, live = self.m, self.rowmin, self.live
        live[lo] = live[hi] = False
        # a row whose minimum was its entry to lo or hi is rescanned (the
        # table is symmetric, so column lo is row lo); any other row keeps
        # its minimum unless the new entry is smaller
        stale = (np.minimum(m[lo], m[hi]) == rowmin) & live
        row = self._row(lo, hi)
        m[hi] = m[:, hi] = math.inf
        rowmin[hi] = math.inf
        m[lo] = m[:, lo] = row
        np.minimum(rowmin, row, out=rowmin)
        rowmin[lo] = row.min()
        if stale.any():
            rowmin[stale] = m[stale].min(axis=1)
        live[lo] = True


class _DiameterCosts(_PairTable):
    """Complete linkage, and radius linkage under l_inf or in one dimension.

    diam(A u B u C) = max(diam(A u C), diam(B u C), diam(A u B)), so the row
    for a merged cluster is an elementwise max; no union is ever re-scanned.
    The max commutes with the monotone root, so entries can be roots from
    the start.  Under l_inf and in one dimension the enclosing radius is half
    the largest coordinate span, and spans decompose over unions the same
    way: there the entries are half the l_inf powered distances, equal to
    ``radius()`` bit for bit because rounding and halving are monotone.
    (Halving a root instead would not be: in 1-d l2, ``sqrt(x * x)``
    underflows for x below about 1e-154.)
    """

    def _row(self, lo: int, hi: int) -> np.ndarray:
        # dead slots and the diagonal hold inf, and so does their max
        m = self.m
        row = np.maximum(m[lo], m[hi])
        return np.maximum(row, m[lo, hi], out=row)


class _EccentricityCosts(_PairTable):
    """Discrete-radius linkage through eccentricity vectors.

    e_A[c] is the largest powered distance from point c to a member of A, so
    e_{A u B} = max(e_A, e_B), and drad(A u B) is the root of the minimum of
    e_{A u B} over the members of A u B.  Max and min are exact, so the
    costs equal ``discrete_radius()`` bit for bit.
    """

    def __init__(self, inst: Instance):
        dpow = powered_matrix(inst)
        self.norm = inst.norm
        # a copy: under l1 and l_inf unpower_array returns dpow itself,
        # whose diagonal the table sets to inf
        self.ecc = dpow.T.copy()
        self.member = np.eye(len(dpow), dtype=bool)
        super().__init__(unpower_array(dpow, inst.norm))

    def _row(self, lo: int, hi: int) -> np.ndarray:
        self.ecc[lo] = np.maximum(self.ecc[lo], self.ecc[hi])
        self.member[lo] |= self.member[hi]
        others = np.flatnonzero(self.live)
        ecc = np.maximum(self.ecc[others], self.ecc[lo])
        ecc[~(self.member[others] | self.member[lo])] = math.inf
        row = np.full(len(self.live), math.inf)
        row[others] = unpower_array(ecc.min(axis=1), self.norm)
        return row


def _deflate(bounds: np.ndarray) -> np.ndarray:
    """Each bound less its tie width: ``b - tie_width(b)`` for b >= 0, written
    so that an infinite bound stays infinite instead of becoming nan."""
    return np.minimum(bounds * (1.0 - TIE_REL_TOL), bounds - TIE_ABS_TOL)


class _RadiusCosts(_PairTable):
    """Radius linkage under l2 and general p, costed lazily (the lazy form
    of Muellner's generic algorithm, arXiv:1109.2378).

    No exact union decomposition exists for these costs, so an entry starts
    as a lower bound and is costed exactly, on its union, only once a pick
    can see it: ``exact`` marks the entries that hold ``radius()`` of the
    union (the diagonal and dead slots count as exact, as nothing costs
    them).  ``members`` lists the members of the cluster at each slot, in
    no particular order.

    Under every norm the radius of a union is at least half its diameter,
    and every ball ``radius()`` reports is the largest distance from some
    center, so it is never below that either: the l2 solver's covering
    slack (1e-12 of the squared radius, relative because the pivoting
    solver works in coordinates scaled to the points' bounding box) can
    only move a center off the optimum.  Rounding can put a ball a few ulps
    below its bound, so ``settle_to`` compares bounds deflated by a tie
    width (``_deflate``).  The entry for a merged cluster A u B against C
    is bounded by diam(A u B u C) / 2, with the diameters from the
    elementwise max of ``_DiameterCosts``.
    """

    def __init__(self, inst: Instance, members: list[tuple[int, ...]]):
        self.inst = inst
        self.members = members
        self.exact = np.eye(len(inst.points), dtype=bool)
        # an overflowing powered distance is inf, and so is its ball
        self.diam = unpower_array(powered_matrix(inst), inst.norm)
        super().__init__(self.diam / 2.0)

    def _cost(self, a: int, b: int) -> None:
        value = radius(sorted(self.members[a] + self.members[b]), self.inst).radius
        self.m[a, b] = self.m[b, a] = value
        self.exact[a, b] = self.exact[b, a] = True

    def settle_to(self, limit: float) -> bool:
        # a row holds an entry whose deflated bound is at most limit exactly
        # when its minimum does
        m, rowmin = self.m, self.rowmin
        rows = np.flatnonzero(_deflate(rowmin) <= limit)
        due = ~self.exact[rows] & (_deflate(m[rows]) <= limit)
        due &= np.arange(len(m)) > rows[:, None]
        r, c = np.nonzero(due)
        if not r.size:
            return False
        for a, b in zip(rows[r].tolist(), c.tolist()):
            self._cost(a, b)
        touched = np.union1d(rows[r], c)
        rowmin[touched] = m[touched].min(axis=1)
        return True

    def exact_cost(self, lo: int, hi: int) -> float:
        if not self.exact[lo, hi]:
            self._cost(lo, hi)
            self.rowmin[[lo, hi]] = self.m[[lo, hi]].min(axis=1)
        return float(self.m[lo, hi])

    def _row(self, lo: int, hi: int) -> np.ndarray:
        # diam is read only at live pairs, so its dead slots may hold anything
        live, d = self.live, self.diam
        self.exact[hi] = self.exact[:, hi] = True
        self.exact[lo] = self.exact[:, lo] = ~live
        diam = np.maximum(d[lo], d[hi])
        np.maximum(diam, d[lo, hi], out=diam)
        d[lo] = d[:, lo] = diam
        return np.where(live, diam / 2.0, math.inf)


def _make_backend(inst: Instance, linkage: Problem, members: list[tuple[int, ...]]) -> _PairTable:
    if linkage is Problem.DIAMETER:
        return _DiameterCosts(unpower_array(powered_matrix(inst), inst.norm))
    if linkage is Problem.DISCRETE_RADIUS:
        return _EccentricityCosts(inst)
    if inst.norm.is_infinity or inst.dim == 1:
        return _DiameterCosts(powered_matrix(replace(inst, norm=LINF)) / 2.0)
    return _RadiusCosts(inst, members)


# ---------------------------------------------------------------------------
# greedy loop


def _greedy(
    inst: Instance,
    linkage: Problem,
    script: MergeScript | None,
    stop_at_k: int | None,
    margins: list[float] | None = None,
) -> list[MergeStep]:
    n = len(inst.points)
    target_level = 1 if stop_at_k is None else stop_at_k
    if not 1 <= target_level <= n:
        raise ValueError(f"stop_at_k must be in [1, {n}], got {stop_at_k}")
    total_steps = n - target_level

    scripted = script.steps if script is not None else ()
    if len(scripted) > total_steps:
        raise ValueError(
            f"script has {len(scripted)} steps but the run stops after {total_steps}"
        )

    steps: list[MergeStep] = []
    if total_steps == 0:
        return steps
    # a cluster's id is n + t for the step t that made it; ids live only at
    # the edges: in the steps and in scripts
    members = [(i,) for i in range(n)]
    slot_id = list(range(n))
    id_slot = {i: i for i in range(n)}
    table = _make_backend(inst, linkage, members)
    m, rowmin, live = table.m, table.rowmin, table.live

    for t in range(total_steps):
        # settle: until the least entry and every entry in its tie band are
        # costs, not bounds
        while True:
            best = float(rowmin.min())
            band = best + tie_width(best)
            if not table.settle_to(band):
                break

        if t < len(scripted):
            sa, sb = scripted[t]
            if sa not in id_slot or sb not in id_slot:
                raise ScriptViolationError(
                    t, None, best,
                    f"script step {t} references cluster ids ({sa}, {sb}) that do not "
                    f"both exist at that step",
                )
            lo, hi = sorted((id_slot[sa], id_slot[sb]))
            cost = table.exact_cost(lo, hi)
            if cost > band:
                raise ScriptViolationError(
                    t, cost, best,
                    f"script step {t} merges ({sa}, {sb}) at cost {cost:.12g} but the "
                    f"minimum merge cost is {best:.12g}",
                )
        else:
            # the least tied slot pair (lo, hi) in row-major order: the
            # table is symmetric, so a row's tied partners are in-band rows
            # too, and lo is the first in-band row and hi its first in-band
            # column.  The inf entries of dead slots pass only an infinite
            # band, and there every pair passes: the pick is the first two
            # live slots, and no entry lies above the band
            rows = rowmin <= band
            if band < math.inf:
                lo = int(np.argmax(rows))
                hi = lo + 1 + int(np.argmax(m[lo, lo + 1:] <= band))
            else:
                lo, hi = np.flatnonzero(live)[:2].tolist()
            cost = float(m[lo, hi])
            if margins is not None:
                # the smallest entry above the band is a row minimum, or an
                # entry of a row whose minimum is in the band; it is settled
                # like the band, and costing entries above the band leaves
                # the band's rows as they are
                while True:
                    sub = m[rows]
                    above = min(rowmin[rowmin > band].min(initial=math.inf),
                                sub[sub > band].min(initial=math.inf))
                    if above == math.inf or not table.settle_to(float(above)):
                        break
                margins.append(float(above) - best if above < math.inf else math.inf)

        a, b = sorted((slot_id[lo], slot_id[hi]))
        new_id = n + t
        members[lo] += members[hi]
        steps.append(MergeStep(a, b, cost, new_id, len(members[lo])))
        slot_id[lo] = new_id
        del id_slot[a], id_slot[b]
        id_slot[new_id] = lo
        # the last cluster's row would never be scanned; for radius linkage
        # it would cost one enclosing ball per remaining cluster
        if t + 1 < total_steps:
            table.merge(lo, hi)

    return steps


def agglomerate(
    inst: Instance,
    linkage: Problem,
    script: MergeScript | None = None,
    stop_at_k: int | None = None,
) -> MergeHistory:
    """Run the greedy merge loop; returns the dendrogram.

    With ``script`` the prescribed pairs are taken (each must be cost-minimal
    within tolerance); without it, ties break lexicographically by the pair
    of smallest member ids.  ``stop_at_k`` truncates the run at that level.
    """
    steps = _greedy(inst, linkage, script, stop_at_k)
    return MergeHistory(instance=inst, linkage=linkage, steps=tuple(steps))


def greedy_tie_margin(inst: Instance, linkage: Problem = Problem.DIAMETER) -> float:
    """Smallest gap, over all steps of a lexicographic run, between the best
    merge cost and the best strictly-worse one.  Zero or tiny values mean the
    instance has ties; used to certify tie-free test instances."""
    margins: list[float] = []
    _greedy(inst, linkage, None, None, margins=margins)
    return min(margins) if margins else math.inf


# ---------------------------------------------------------------------------
# complete-linkage fast path


def agglomerate_nn_chain(inst: Instance) -> MergeHistory:
    """Complete-linkage dendrogram from scipy's nearest-neighbor chain.

    ``scipy.cluster.hierarchy.linkage(method="complete")`` builds the merge
    set (Muellner, arXiv:1109.2378); the merges are then replayed in greedy
    order: among merges whose two operands exist, the one with the smallest
    (cost, lexicographic pair of member minima) goes first.  On tie-free
    instances this matches ``agglomerate(inst, Problem.DIAMETER)`` step for
    step.  On exactly tied costs scipy may build another hierarchy than the
    naive loop's lexicographic one; its replay still has nested levels and
    nondecreasing costs.

    The distances go to scipy as its condensed vector, which is filled a
    block of rows at a time with no n x n matrix: each block costs only the
    pairs after its first row's diagonal, column by column through the one
    term kernel of :mod:`agglolab.metrics`, so every entry equals
    ``powered_distance`` bit for bit.  Where some powered distance overflows
    to inf, which scipy rejects, the run is the naive loop's.
    """
    # imported here: scipy.cluster adds about 24 MB to any process that loads it
    from scipy.cluster.hierarchy import linkage

    n = len(inst.points)
    if n <= 1:
        return MergeHistory(instance=inst, linkage=Problem.DIAMETER, steps=())
    # scipy's condensed vector: row i's entries after the diagonal, row after
    # row.  Rows start..stop-1 against columns start+1.. form one block; the
    # entries on or above its diagonal are the rows' condensed segment, in
    # row-major order
    condensed = np.empty(n * (n - 1) // 2)
    cols = np.ascontiguousarray(inst.coords().T)
    rows = max(1, _BLOCK_ELEMENTS // n)
    upper = np.arange(n - 1) >= np.arange(rows)[:, None]
    for start in range(0, n - 1, rows):
        stop = min(start + rows, n - 1)
        block = _powered_norms((c[start:stop, None] - c[start + 1:] for c in cols), inst.norm)
        segment = condensed[start * (2 * n - start - 1) // 2:stop * (2 * n - stop - 1) // 2]
        segment[:] = block[upper[:stop - start, :n - start - 1]]
        if segment.max() == math.inf:
            # scipy rejects an infinite distance; pairs whose distance
            # overflows all tie at inf, and the naive loop breaks such ties
            return agglomerate(inst, Problem.DIAMETER)
    z = linkage(condensed, method="complete")
    pairs = z[:, :2].astype(int).tolist()
    sizes = z[:, 3].astype(int).tolist()
    costs = [unpower(h, inst.norm) for h in z[:, 2].tolist()]

    # scipy numbers the cluster made by row i as n + i, and its rows are in
    # an order where operands come first, so member minima fill in one pass
    mins = list(range(n)) + [0] * (n - 1)
    consumer = {}  # the row that merges a cluster away
    for i, (a, b) in enumerate(pairs):
        mins[n + i] = min(mins[a], mins[b])
        consumer[a] = consumer[b] = i

    def entry(i: int) -> tuple[float, int, int, int]:
        a, b = pairs[i]
        return (costs[i], min(mins[a], mins[b]), max(mins[a], mins[b]), i)

    final_id: list[int | None] = list(range(n)) + [None] * (n - 1)
    ready = [entry(i) for i, (a, b) in enumerate(pairs) if a < n and b < n]
    heapq.heapify(ready)
    steps: list[MergeStep] = []
    while ready:
        cost, _, _, i = heapq.heappop(ready)
        fa, fb = (final_id[c] for c in pairs[i])
        new_id = n + len(steps)
        final_id[n + i] = new_id
        steps.append(MergeStep(min(fa, fb), max(fa, fb), cost, new_id, sizes[i]))
        # each cluster is an operand of one merge, which becomes ready when
        # its second operand is made
        j = consumer.get(n + i)
        if j is not None and all(final_id[c] is not None for c in pairs[j]):
            heapq.heappush(ready, entry(j))

    return MergeHistory(instance=inst, linkage=Problem.DIAMETER, steps=tuple(steps))
