"""Points, lp metrics, and the three cluster cost functions.

A clustering instance is a finite list of points in R^d together with an
lp norm (1 <= p <= infinity).  Three cost functions are defined on any
non-empty subset of an instance:

* ``diameter``        -- largest pairwise distance,
* ``discrete_radius`` -- smallest enclosing ball radius with the center
                         restricted to the subset's own points,
* ``radius``          -- smallest enclosing ball radius with a free center.

For the l2 norm the exact enclosing ball is computed with a randomized
incremental (Welzl-style) algorithm; for l_infinity it is the per-coordinate
midrange.  For other finite p a set of at most two distinct points has its
midpoint as the exact center; otherwise the center is found by iterative
convex minimization and the result is flagged approximate.

Distance comparisons for l2 (and general finite p) are done on p-th powers
internally, so ties between integer-coordinate point sets are exact; the
root is taken only when a cost is reported.

Everything here is a pure function of immutable inputs (the dataclasses are
frozen), so concurrent calls are safe.
"""

from __future__ import annotations

import math
import random
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
    """Iterative enclosing-ball search failed to converge.

    Carries the best ball found so far in ``best``.
    """

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
        return f"lp{self.p:g}"

    def __repr__(self) -> str:
        return f"Norm({self.p:g})"


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
        pts = tuple(tuple(float(c) for c in p) for p in self.points)
        for i, p in enumerate(pts):
            if len(p) != self.dim:
                raise ValueError(f"point {i} has {len(p)} coordinates, expected {self.dim}")
            if not all(math.isfinite(c) for c in p):
                raise ValueError(f"point {i} has a non-finite coordinate")
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_points(cls, name: str, points: Iterable[Sequence[float]], norm: Norm) -> "Instance":
        pts = tuple(tuple(float(c) for c in p) for p in points)
        if not pts:
            raise ValueError("instance needs at least one point")
        return cls(name=name, dim=len(pts[0]), norm=norm, points=pts)

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
        if self.radius < 0:
            raise ValueError("cover radius must be >= 0")
        if not self.centers:
            raise ValueError("cover needs at least one center")
        dims = {len(c) for c in self.centers}
        if len(dims) != 1:
            raise ValueError("cover centers must share one dimension")

    @property
    def k(self) -> int:
        return len(self.centers)

    @property
    def dim(self) -> int:
        return len(self.centers[0])


@dataclass(frozen=True)
class EnclosingBall:
    """Result of an enclosing-ball computation.

    ``approximate`` is True when the ball came from the iterative general-p
    solver rather than an exact method: its radius is the largest distance
    from the best center the SLSQP search reached, an upper bound on the
    true radius with no stated tolerance.
    """

    radius: float
    center: tuple[float, ...]
    approximate: bool = False

    def __iter__(self):  # allows ``r, c = radius(...)`` unpacking
        return iter((self.radius, self.center))


# ---------------------------------------------------------------------------
# distances


def powered_distance(a: Sequence[float], b: Sequence[float], norm: Norm) -> float:
    """Distance raised to the p-th power (plain max-difference for linf).

    Monotone in the true distance, so maxima/minima and exact tie checks can
    be done in this domain without taking roots.
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


_BLOCK_ELEMENTS = 1 << 16  # cap on the (rows, n, d) difference slab of one block


def _powered_norms(diff: np.ndarray, norm: Norm) -> np.ndarray:
    """Powered norms over the last axis of a ``(..., d)`` array of coordinate
    differences, which is overwritten by its terms.

    The terms are accumulated left to right, as in :func:`powered_distance`
    (``sum`` over an axis adds eight or more terms pairwise), and general-p
    terms are raised by ``np.float_power``, which calls the C library's
    ``pow`` as Python's float ``**`` does; so every value equals
    :func:`powered_distance` bit for bit (numpy's ``**`` has its own SIMD
    routine, which differs from ``pow`` in the last bit on about 5 % of
    inputs).
    """
    np.abs(diff, out=diff)
    p = norm.p
    if math.isinf(p):
        return diff.max(axis=-1)
    if p == 2.0:
        diff *= diff
    elif p != 1.0:
        np.float_power(diff, p, out=diff)
    total = diff[..., 0].copy()
    for j in range(1, diff.shape[-1]):
        total += diff[..., j]
    return total


def powered_row_blocks(pts: np.ndarray, norm: Norm) -> Iterator[tuple[int, np.ndarray]]:
    """Pairwise powered distances of the rows of an (n, d) array, a few rows
    at a time: yields ``(start, block)`` with ``block[i, j]`` the powered
    distance between rows ``start + i`` and ``j``.

    Each entry is computed alone by :func:`_powered_norms`, so the values do
    not depend on the block size and equal :func:`powered_distance` bit for
    bit.
    """
    n, d = pts.shape
    rows = max(1, _BLOCK_ELEMENTS // max(n * d, 1))
    for start in range(0, n, rows):
        yield start, _powered_norms(pts[start:start + rows, None, :] - pts[None, :, :], norm)


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

    Exact for l2 (randomized incremental algorithm), for l_infinity
    (per-coordinate midrange), for one-dimensional instances (midrange) and,
    under every norm, for at most two distinct points (their midpoint).
    Other point sets under finite p fall back to iterative convex
    minimization of ``y -> max_x ||x - y||`` and are flagged approximate.
    """
    ids = _member_ids(c)
    _check_ids(ids, inst)
    pts = [inst.points[i] for i in ids]
    norm = inst.norm
    if len(pts) == 1:
        return EnclosingBall(0.0, pts[0], approximate=False)
    if norm.is_infinity or inst.dim == 1:
        return _midrange_ball(pts)
    if norm.p == 2.0:
        return _euclidean_ball(pts)
    return _iterative_ball(pts, norm)


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


def _midrange_ball(pts: list[tuple[float, ...]]) -> EnclosingBall:
    # Exact for linf in any dimension, and for any norm in dimension 1:
    # the ball is an axis box, so each coordinate centers independently.
    arr = np.asarray(pts, dtype=float)
    lo, hi = arr.min(axis=0), arr.max(axis=0)
    center = (lo + hi) / 2.0
    rad = float((hi - lo).max() / 2.0)
    return EnclosingBall(rad, tuple(float(x) for x in center), approximate=False)


def _circumball(boundary: list[np.ndarray]) -> tuple[np.ndarray | None, float]:
    """Smallest ball with all boundary points on its surface.

    Returns (center, squared radius); (None, -inf) for an empty boundary so
    that every point tests outside it.
    """
    if not boundary:
        return None, -math.inf
    if len(boundary) == 1:
        return boundary[0], 0.0
    base = boundary[0]
    rows = np.array([q - base for q in boundary[1:]], dtype=float)
    rhs = 0.5 * np.array([float(r @ r) for r in rows])
    gram = rows @ rows.T
    try:
        lam = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        lam, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    center = base + rows.T @ lam
    r2 = max(float((q - center) @ (q - center)) for q in boundary)
    return center, r2


def _euclidean_ball(pts: list[tuple[float, ...]]) -> EnclosingBall:
    d = len(pts[0])
    arr = np.asarray(pts, dtype=float)
    # infinite where a squared distance overflows, as in powered_distance;
    # none can while every coordinate is within 1e150 (and d < 4e7)
    if float(np.abs(arr).max()) > 1e150 and math.isinf(
        max(powered_distance(p, q, L2) for i, p in enumerate(pts) for q in pts[i + 1:])
    ):
        return EnclosingBall(math.inf, tuple((arr.min(axis=0) / 2 + arr.max(axis=0) / 2).tolist()))
    order = [np.asarray(p, dtype=float) for p in pts]
    random.Random(0x5EED).shuffle(order)  # fixed seed: result is deterministic

    def covers(center, r2, q) -> bool:
        if center is None:
            return False
        diff = q - center
        return float(diff @ diff) <= r2 * (1.0 + 1e-12)

    def solve(end: int, boundary: list[np.ndarray]) -> tuple[np.ndarray | None, float]:
        center, r2 = _circumball(boundary)
        if len(boundary) == d + 1:
            return center, r2
        for i in range(end):
            if not covers(center, r2, order[i]):
                center, r2 = solve(i, boundary + [order[i]])
        return center, r2

    center, _ = solve(len(order), [])
    # the recursive closure refers to itself: drop it, so that the shuffled
    # points go now and not at the next cyclic collection
    solve = None
    diffs = arr - center
    rad = math.sqrt(float((diffs * diffs).sum(axis=1).max()))
    return EnclosingBall(rad, tuple(float(x) for x in center), approximate=False)


def _iterative_ball(pts: list[tuple[float, ...]], norm: Norm, max_iter: int = 400) -> EnclosingBall:
    # at most two distinct points: their midpoint is the exact center under
    # every norm, and halving each end first keeps it finite
    ends = sorted(set(pts))
    if len(ends) <= 2:
        x, y = ends[0], ends[-1]
        center = tuple(a / 2.0 + b / 2.0 for a, b in zip(x, y))
        rad = max(distance(x, center, norm), distance(y, center, norm))
        return EnclosingBall(rad, center, approximate=False)
    # Epigraph form: minimize r subject to ||x_i - y|| <= r, solved with SLSQP
    # from a couple of starting centers; the best feasible center wins.
    from scipy.optimize import minimize

    arr = np.asarray(pts, dtype=float)
    d = arr.shape[1]

    def worst(center: np.ndarray) -> float:
        return max(distance(p, center, norm) for p in arr)

    starts = [arr.mean(axis=0), (arr.min(axis=0) + arr.max(axis=0)) / 2.0]
    best: EnclosingBall | None = None
    converged = False
    for y0 in starts:
        z0 = np.append(y0, worst(y0) * 1.05 + 1e-9)

        def objective(z):
            return z[-1]

        def constraint(z):
            y = z[:-1]
            return np.array([z[-1] - distance(p, y, norm) for p in arr])

        res = minimize(
            objective, z0, method="SLSQP",
            constraints=[{"type": "ineq", "fun": constraint}],
            options={"maxiter": max_iter, "ftol": 1e-12},
        )
        center = res.x[:d]
        ball = EnclosingBall(worst(center), tuple(float(x) for x in center), approximate=True)
        if best is None or ball.radius < best.radius:
            best = ball
        if res.success:
            converged = True
    if not converged:
        raise SolverError(
            f"enclosing-ball search did not converge within {max_iter} iterations "
            f"(best radius {best.radius:.9g})",
            best=best,
        )
    return best
