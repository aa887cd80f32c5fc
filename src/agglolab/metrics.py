"""Points, lp metrics, and the three cluster cost functions.

A clustering instance is a finite list of points in R^d together with an
lp norm (1 <= p <= infinity).  Three cost functions are defined on any
non-empty subset of an instance:

* ``diameter``        -- largest pairwise distance,
* ``discrete_radius`` -- smallest enclosing ball radius with the center
                         restricted to the subset's own points,
* ``radius``          -- smallest enclosing ball radius with a free center.

Under every norm a set of at most two distinct points has its midpoint as
the exact center; for l_infinity and in dimension 1 the ball is the
per-coordinate midrange.  For the l2 norm the exact enclosing ball is
Gaertner's pivoting move-to-front miniball, whose covering test allows
1e-12 of the squared radius: relative, because it works in coordinates
scaled to the points' bounding box.  For other finite p one scale-free
SLSQP solve gives the center, the result is flagged approximate, and no
solver raises.  The l2, general-p and two-point radii are the largest
distance from the returned center; the midrange radius is half the largest
span, as the greedy engine's l_infinity table gives it, and the largest
distance from the midrange center can differ from it in the last bit.

Distance comparisons for l2 (and general finite p) are done on p-th powers
internally, so ties between integer-coordinate point sets are exact; the
root is taken only when a cost is reported.

Everything here is a pure function of immutable inputs (the dataclasses are
frozen), so concurrent calls are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Norm", "L1", "L2", "LINF",
    "Problem",
    "Instance", "Cluster", "BallCover", "EnclosingBall",
    "SolverError",
    "distance", "powered_distance", "unpower", "powered_matrix",
    "diameter", "discrete_radius", "radius", "cluster_cost",
]

class SolverError(RuntimeError):
    """An enclosing-ball search that failed; ``best`` holds the best ball
    it found.  No solver in the package raises it any more."""

    def __init__(self, message: str, best: "EnclosingBall | None" = None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class Norm:
    """An lp norm; ``p`` is a real >= 1 or ``math.inf`` for the max norm."""

    p: float

    def __post_init__(self):
        if not (self.p >= 1.0):  # also rejects NaN
            raise ValueError(f"lp norm requires p >= 1, got {self.p!r}")

    @property
    def is_infinity(self) -> bool:
        return math.isinf(self.p)

    @property
    def label(self) -> str:
        if self.is_infinity:
            return "linf"
        if self.p == int(self.p):
            return f"l{int(self.p)}"
        return f"lp{_p_text(self.p)}"

    def __repr__(self) -> str:
        return f"Norm({_p_text(self.p)})"


def _p_text(p: float) -> str:
    """``p`` at ``:g`` when that reads back as ``p``, else its full repr, so
    that labels name one norm each."""
    short = f"{p:g}"
    return short if float(short) == p else repr(float(p))


L1 = Norm(1.0)
L2 = Norm(2.0)
LINF = Norm(math.inf)


class Problem(str, Enum):
    """Which cluster cost function an algorithm or oracle minimizes."""

    DIAMETER = "diameter"
    RADIUS = "radius"
    DISCRETE_RADIUS = "discrete-radius"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Instance:
    """A named finite point set in R^d with a norm choice.

    Point ids are 0..n-1 in list order.  Coordinates must be finite and
    every point must have exactly ``dim`` entries.
    """

    name: str
    dim: int
    norm: Norm
    points: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if len(self.points) < 1:
            raise ValueError("instance needs at least one point")
        pts = tuple(tuple(map(float, p)) for p in self.points)
        for i, p in enumerate(pts):
            if len(p) != self.dim:
                raise ValueError(f"point {i} has {len(p)} coordinates, expected {self.dim}")
            if not all(map(math.isfinite, p)):
                raise ValueError(f"point {i} has a non-finite coordinate")
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_points(cls, name: str, points: Iterable[Sequence[float]], norm: Norm) -> "Instance":
        # the rows pass through: __post_init__ converts and checks them, and
        # rejects an empty list whatever dim says
        pts = tuple(points)
        return cls(name=name, dim=len(pts[0]) if pts else 1, norm=norm, points=pts)

    def __len__(self) -> int:
        return len(self.points)

    def coords(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)


@dataclass(frozen=True)
class Cluster:
    """A set of point ids into an owning instance."""

    members: tuple[int, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("cluster must be non-empty")
        object.__setattr__(self, "members", tuple(sorted(self.members)))

    def __len__(self) -> int:
        return len(self.members)

    @property
    def min_member(self) -> int:
        return self.members[0]


@dataclass(frozen=True)
class BallCover:
    """k balls of a common radius; witnesses that a point set is coverable."""

    radius: float
    centers: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if not 0.0 <= self.radius < math.inf:
            raise ValueError(f"cover radius must be finite and >= 0, got {self.radius!r}")
        if not self.centers:
            raise ValueError("cover needs at least one center")
        dims = {len(c) for c in self.centers}
        if len(dims) != 1:
            raise ValueError("cover centers must share one dimension")
        if not self.dim:
            raise ValueError("cover centers have dimension 0, need at least 1")
        for i, c in enumerate(self.centers):
            if not all(map(math.isfinite, c)):
                raise ValueError(f"center {i} has a non-finite coordinate")

    @property
    def k(self) -> int:
        return len(self.centers)

    @property
    def dim(self) -> int:
        return len(self.centers[0])


@dataclass(frozen=True)
class EnclosingBall:
    """Result of an enclosing-ball computation.

    ``approximate`` is True when the ball came from the general-p SLSQP
    solve rather than an exact method: its radius is the largest distance
    from the returned center, an upper bound on the true radius that the
    tests check within 1e-9 relative of an exact LP (l1) or grid oracle.
    """

    radius: float
    center: tuple[float, ...]
    approximate: bool = False


# ---------------------------------------------------------------------------
# distances


def powered_distance(a: Sequence[float], b: Sequence[float], norm: Norm) -> float:
    """Distance raised to the p-th power (plain max-difference for linf).

    Monotone in the true distance, so maxima/minima and exact tie checks can
    be done in this domain without taking roots.

    Powers of small coordinate gaps underflow.  A distance reads 0 when
    every gap is below about 1.6e-162 under l2, 1.4e-108 under lp3 and
    1.8e-216 under lp1.5: ``distance((0, 0), (1e-110, 0), Norm(3.0))`` is
    0.0.  A gap's power turns subnormal, and loses precision, below about
    1.5e-154, 2.8e-103 and 7.9e-206.  l1 and l_inf take no powers.
    """
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    p = norm.p
    if math.isinf(p):
        return max((abs(x - y) for x, y in zip(a, b)), default=0.0)
    # plain left-to-right accumulation, matching the vectorized matrix path
    total = 0.0
    if p == 2.0:
        for x, y in zip(a, b):
            total += (x - y) * (x - y)
    elif p == 1.0:
        for x, y in zip(a, b):
            total += abs(x - y)
    else:
        try:
            for x, y in zip(a, b):
                total += abs(x - y) ** p
        except OverflowError:  # float ** raises where np.float_power gives inf
            return math.inf
    return total


def unpower(value: float, norm: Norm) -> float:
    """Invert :func:`powered_distance`: take the p-th root of ``value``."""
    p = norm.p
    if math.isinf(p) or p == 1.0:
        return value
    if p == 2.0:
        return math.sqrt(value)
    return value ** (1.0 / p)


def distance(a: Sequence[float], b: Sequence[float], norm: Norm) -> float:
    """lp (or l_infinity) distance between two coordinate vectors."""
    return unpower(powered_distance(a, b, norm), norm)


_BLOCK_ELEMENTS = 1 << 16  # cap on the entries (rows x columns) of one block


@np.errstate(over="ignore")
def _powered_norms(cols: Iterable[np.ndarray], norm: Norm) -> np.ndarray:
    """Powered norms of difference vectors given as their d coordinate
    columns: the j-th column holds the j-th coordinate difference of every
    vector, and all columns share one shape.  The columns are overwritten
    by their terms.

    Each elementwise pass runs over a whole column, one coordinate at a
    time.  The terms are the squared differences under l2, and otherwise
    the absolute differences, raised by ``np.float_power`` for general p,
    which calls the C library's ``pow`` as Python's float ``**`` does
    (numpy's ``**`` has its own SIMD routine, which differs from ``pow`` in
    the last bit on about 5 % of inputs); they are added left to right, or
    under l_inf their running maximum is kept.  So every value equals
    :func:`powered_distance` bit for bit.  A difference, power or sum that
    overflows is inf, silently, as there: the columns are read inside the
    kernel's ``errstate``, so a caller passes a generator that subtracts
    each column as it is read.
    """
    p = norm.p
    inf = math.isinf(p)
    total = None
    for col in cols:
        if p == 2.0:
            term = np.multiply(col, col, out=col)
        else:
            term = np.abs(col, out=col)
            if p != 1.0 and not inf:
                np.float_power(term, p, out=term)
        if total is None:
            total = term
        elif inf:
            np.maximum(total, term, out=total)
        else:
            total += term
    return total


def powered_row_blocks(pts: np.ndarray, norm: Norm) -> Iterator[tuple[int, np.ndarray]]:
    """Pairwise powered distances of the rows of an (n, d) array, a few rows
    at a time: yields ``(start, block)`` with ``block[i, j]`` the powered
    distance between rows ``start + i`` and ``j``.

    A block is at most ``_BLOCK_ELEMENTS`` entries, and it is built from
    the d column differences ``c[start:stop, None] - c``, one per coordinate
    column ``c``, by :func:`_powered_norms`.  Each entry is computed alone,
    so the values do not depend on the block size and equal
    :func:`powered_distance` bit for bit.
    """
    n = len(pts)
    cols = np.ascontiguousarray(pts.T)
    rows = max(1, _BLOCK_ELEMENTS // max(n, 1))
    for start in range(0, n, rows):
        yield start, _powered_norms((c[start:start + rows, None] - c for c in cols), norm)


def powered_matrix(inst: Instance) -> np.ndarray:
    """(n, n) matrix of pairwise powered distances for an instance."""
    n = len(inst.points)
    out = np.empty((n, n))
    for start, block in powered_row_blocks(inst.coords(), inst.norm):
        out[start:start + len(block)] = block
    return out


def unpower_array(values: np.ndarray, norm: Norm) -> np.ndarray:
    """Elementwise :func:`unpower`, equal to it bit for bit (``np.sqrt`` is
    correctly rounded, and ``np.float_power`` calls the C library's ``pow``)."""
    p = norm.p
    if math.isinf(p) or p == 1.0:
        return values
    if p == 2.0:
        return np.sqrt(values)
    return np.float_power(values, 1.0 / p)


# ---------------------------------------------------------------------------
# cluster costs


def _member_ids(c) -> tuple[int, ...]:
    if isinstance(c, Cluster):
        return c.members
    return tuple(sorted(int(i) for i in c))


def _check_ids(ids: tuple[int, ...], inst: Instance) -> None:
    if not ids:
        raise ValueError("cluster must be non-empty")
    if ids[0] < 0 or ids[-1] >= len(inst.points):
        raise ValueError(f"point id out of range for instance of size {len(inst.points)}")


def diameter(c, inst: Instance) -> float:
    """Largest pairwise distance within the cluster; 0 for singletons."""
    ids = _member_ids(c)
    _check_ids(ids, inst)
    if len(ids) == 1:
        return 0.0
    best = 0.0
    pts = inst.points
    norm = inst.norm
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            v = powered_distance(pts[a], pts[b], norm)
            if v > best:
                best = v
    return unpower(best, norm)


def discrete_radius(c, inst: Instance) -> tuple[float, int]:
    """Smallest enclosing radius with a member center; ties go to the
    smallest point id.  Returns (value, center id)."""
    ids = _member_ids(c)
    _check_ids(ids, inst)
    pts = inst.points
    norm = inst.norm
    best_val = math.inf
    best_center = ids[0]
    for center in ids:
        worst = 0.0
        for other in ids:
            v = powered_distance(pts[center], pts[other], norm)
            if v > worst:
                worst = v
        if worst < best_val:
            best_val = worst
            best_center = center
    return unpower(best_val, norm), best_center


def radius(c, inst: Instance) -> EnclosingBall:
    """Minimum enclosing ball of the cluster under the instance norm.

    The bounding box ``lo, hi`` and its midpoint ``lo / 2 + hi / 2`` (each
    end halved first, so it stays finite) are worked out once.  The
    midpoint is the exact center for l_infinity and for one-dimensional
    instances, where the ball is an axis box whose radius is half the
    largest span, and under every norm for at most two distinct points.  A
    set with a pair whose powered distance overflows (as
    :func:`powered_distance` gives it) has an infinite ball about the
    midpoint.  Otherwise l2 gets Gaertner's pivoting miniball, whose
    covering slack of 1e-12 of the squared radius is relative, as it works
    in coordinates scaled to the box, and other finite p get one scale-free
    SLSQP solve, which never raises, and are flagged approximate.  The l2,
    general-p and two-point radii are the largest distance from the
    returned center; the midrange radius is half the largest span, and the
    largest distance from its center can differ from that in the last bit.
    """
    ids = _member_ids(c)
    _check_ids(ids, inst)
    pts = [inst.points[i] for i in ids]
    norm = inst.norm
    if len(pts) == 1:
        return EnclosingBall(0.0, pts[0], approximate=False)
    arr = np.asarray(pts, dtype=float)
    # Python floats: a span that overflows is inf without a warning
    lo, hi = arr.min(axis=0).tolist(), arr.max(axis=0).tolist()
    mid = tuple(a / 2.0 + b / 2.0 for a, b in zip(lo, hi))
    span = max(b - a for a, b in zip(lo, hi))
    if norm.is_infinity or inst.dim == 1:
        # an axis box: each coordinate centers independently
        return EnclosingBall(span / 2.0, mid, approximate=False)
    # at most two distinct points: the midpoint is exact under every norm
    ends = []
    for p in pts:
        if p not in ends:
            ends.append(p)
            if len(ends) > 2:
                break
    if len(ends) <= 2:
        return EnclosingBall(max(distance(p, mid, norm) for p in ends), mid, approximate=False)
    # no squared distance can overflow while every coordinate is within
    # 1e150 (and d < 4e7); SLSQP cannot start from an infinite radius
    if ((norm.p != 2.0 or max(hi) > 1e150 or min(lo) < -1e150)
            and _has_infinite_pair(arr, norm)):
        return EnclosingBall(math.inf, mid, approximate=False)
    if norm.p == 2.0:
        # the whole span, as half of a subnormal span can round to 0
        return _euclidean_ball(arr, mid, span)
    half = max(b / 2.0 - a / 2.0 for a, b in zip(lo, hi))
    return _iterative_ball(arr, mid, half if half > 0.0 else span, norm)


def cluster_cost(problem: Problem, c, inst: Instance) -> float:
    """Dispatch to the cost function named by ``problem``; value only."""
    if problem is Problem.DIAMETER:
        return diameter(c, inst)
    if problem is Problem.DISCRETE_RADIUS:
        return discrete_radius(c, inst)[0]
    if problem is Problem.RADIUS:
        return radius(c, inst).radius
    raise ValueError(f"unknown problem {problem!r}")


# ---------------------------------------------------------------------------
# enclosing-ball solvers


def _has_infinite_pair(arr: np.ndarray, norm: Norm) -> bool:
    """Whether the powered distance of some pair of rows overflows to inf."""
    return any(block.max() == math.inf for _, block in powered_row_blocks(arr, norm))


def _epigraph_center(rel: np.ndarray, p: float, c0: np.ndarray, ftol: float) -> np.ndarray:
    """One SLSQP solve of the enclosing ball's epigraph form, minimize s
    subject to sum_j |x_ij - c_j|^p <= s over the rows x_i of ``rel``,
    from the center ``c0``; the constraints carry their analytic Jacobian.
    ``rel`` should be scaled to about unit size, as SLSQP's ``ftol`` is
    absolute.  Returns the solver's center, which a caller keeps only when
    its largest distance is lower than its start's (it can be nan)."""
    from scipy.optimize import minimize

    def spare(z):
        return z[-1] - (np.abs(rel - z[:-1]) ** p).sum(axis=1)

    def spare_jac(z):
        diff = rel - z[:-1]
        return np.hstack([p * np.sign(diff) * np.abs(diff) ** (p - 1.0), np.ones((len(rel), 1))])

    res = minimize(
        lambda z: z[-1],
        np.append(c0, float((np.abs(rel - c0) ** p).sum(axis=1).max())),
        jac=lambda z: np.eye(len(z))[-1],
        method="SLSQP",
        constraints=[{"type": "ineq", "fun": spare, "jac": spare_jac}],
        options={"ftol": ftol},
    )
    return res.x[:-1]


def _circumcenter(boundary: list[list[float]]) -> tuple[list[float], float]:
    """Center and squared radius of the smallest ball with every boundary
    point (at least two) on its sphere, in Python floats.

    The center is ``q0 + sum_j lam_j (q_j - q0)``, where ``lam`` solves the
    Gram system ``(q_j - q0) . (q_k - q0) lam_k = |q_j - q0|^2 / 2``: in
    closed form for two and three points, by elimination with partial
    pivoting for more.  A singular system takes its least-squares solution.
    """
    base = boundary[0]
    if len(boundary) == 2:
        center = [a / 2.0 + b / 2.0 for a, b in zip(base, boundary[1])]
        return center, max(math.dist(q, center) ** 2 for q in boundary)
    rows = [[a - b for a, b in zip(q, base)] for q in boundary[1:]]
    gram = [[sum(a * b for a, b in zip(u, v)) for v in rows] for u in rows]
    rhs = [g[j] / 2.0 for j, g in enumerate(gram)]
    m = len(rows)
    lam = None
    if m == 2:
        (uu, uv), (_, vv) = gram
        det = uu * vv - uv * uv
        if det > 0.0:
            lam = [vv * (uu - uv) / (2.0 * det), uu * (vv - uv) / (2.0 * det)]
    else:
        a, b = [g[:] for g in gram], rhs[:]
        for k in range(m):
            p = max(range(k, m), key=lambda i: abs(a[i][k]))
            if a[p][k] == 0.0:
                break
            a[k], a[p], b[k], b[p] = a[p], a[k], b[p], b[k]
            for i in range(k + 1, m):
                f = a[i][k] / a[k][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
                b[i] -= f * b[k]
        else:
            lam = [0.0] * m
            for k in reversed(range(m)):
                lam[k] = (b[k] - sum(a[k][j] * lam[j] for j in range(k + 1, m))) / a[k][k]
    if lam is None:
        lam = np.linalg.lstsq(np.array(gram), np.array(rhs), rcond=None)[0].tolist()
    center = [c + sum(x * r[j] for x, r in zip(lam, rows)) for j, c in enumerate(base)]
    return center, max(math.dist(q, center) ** 2 for q in boundary)


def _euclidean_ball(arr: np.ndarray, mid: tuple[float, ...], scale: float) -> EnclosingBall:
    """Exact l2 enclosing ball of the rows of ``arr``, at least three
    distinct points with no infinite pair: Gaertner's pivoting
    move-to-front miniball ("Fast and robust smallest enclosing balls",
    ESA 1999).

    A pivot pass finds the point farthest from the current center, the
    first one on a tie.  If it lies outside the ball by more than the
    covering slack, it joins the front of a small support list, and
    move-to-front Welzl over that list, with the pivot held on the sphere,
    gives the next ball; otherwise the ball is final.  A point joins the
    list at most once, so the loop ends.  The slack is 1e-12 of the squared
    radius, relative because the work is done in coordinates centred on the
    bounding-box midpoint ``mid`` and divided by the largest span
    ``scale``, where every input scale looks the same (unscaled, a Gram
    determinant of points near 1e-100 underflows to 0).  The radius is the
    largest distance from the returned center in the original coordinates.
    """
    d = arr.shape[1]
    rel = ((arr - mid) / scale).T.copy()
    slack = 1.0 + 1e-12

    center, r2 = rel[:, 0].tolist(), 0.0
    support, chosen = [center], {0}
    while True:
        dist2 = _powered_norms((col - c for col, c in zip(rel, center)), L2)
        k = int(dist2.argmax())
        if dist2[k] <= r2 * slack or k in chosen:
            break
        chosen.add(k)
        pivot = rel[:, k].tolist()
        # move-to-front Welzl over the support list with the pivot on the
        # sphere, its recursion unrolled: level t, with boundary[:t + 1] on
        # the sphere, scans support[:ends[t]] from idx[t]; a point outside
        # the ball opens level t + 1 over the points before it, and moves
        # to the front of the list when that level ends
        boundary = [pivot]
        center, r2 = pivot, 0.0
        ends, idx = [len(support)], [0]
        while True:
            i = idx[-1]
            if i < ends[-1] and len(boundary) <= d:
                q = support[i]
                if math.dist(q, center) ** 2 <= r2 * slack:
                    idx[-1] = i + 1
                else:
                    boundary.append(q)
                    ends.append(i)
                    idx.append(0)
                    center, r2 = _circumcenter(boundary)
                continue
            ends.pop()
            idx.pop()
            if not ends:
                break
            boundary.pop()
            j = idx[-1]
            support.insert(0, support.pop(j))
            idx[-1] = j + 1
        support.insert(0, pivot)
    out = (mid + scale * np.asarray(center)).tolist()
    rad = math.sqrt(float(_powered_norms((col - c for col, c in zip(arr.T, out)), L2).max()))
    return EnclosingBall(rad, tuple(out), approximate=False)


def _iterative_ball(
    arr: np.ndarray, mid: tuple[float, ...], scale: float, norm: Norm
) -> EnclosingBall:
    """General-p ball of the rows of ``arr``, at least three distinct points
    with no infinite pair, by one :func:`_epigraph_center` solve in
    coordinates centred on the box midpoint ``mid`` and divided by
    ``scale``: the largest half-span, or the whole span when that half
    rounds to 0.  The solve starts at the points' mean, whose ball stands
    when the solver's is not lower."""
    pts = arr.tolist()
    rel = (arr - mid) / scale

    def ball(c: np.ndarray) -> EnclosingBall:
        # Python floats throughout: the radius is a float, and a far center
        # overflows to inf without a warning
        center = tuple(m + scale * x for m, x in zip(mid, c.tolist()))
        return EnclosingBall(max(distance(x, center, norm) for x in pts), center, approximate=True)

    c0 = rel.mean(axis=0)
    best = ball(c0)
    solved = ball(_epigraph_center(rel, norm.p, c0, 1e-14))
    return solved if solved.radius < best.radius else best  # a nan never wins
