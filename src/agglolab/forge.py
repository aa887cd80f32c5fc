"""Worst-case instance generators, random families, and the instance file format.

Each adversarial generator returns a :class:`GeneratedCase`: the point set,
a merge script realizing one allowed greedy run that ends badly, and the
expected numbers (algorithm cost at the target level and the reference
optimum it is compared against, an upper bound unless an exact oracle
confirms it; the ratio is derived from the two).  Scripts only prescribe
merges that are cost-minimal at their step, so the engine accepts them as
legitimate runs of the greedy algorithm.

The four constructions:

* ``gen_line_1d(n)``      -- four equally spaced point groups on the line;
                            the scripted run at k=4 costs 5*2^n-3 against an
                            optimum of 2^(n+1)-1 (ratio -> 5/2 from below).
* ``gen_linf_2d()``       -- eight points in the plane under l_infinity;
                            scripted ratio exactly 3.
* ``gen_l2_3d(x)``        -- eight Euclidean points in R^3 parameterized by
                            0 < x < 2; at x=1.56 the scripted run costs 5.12
                            against an optimum of 2.
* ``gen_hypercube_l1(k)`` -- k^2 points [e_i; b] in dimension k + log2(k)
                            under l1; the scripted run reaches cost log2(k)
                            at level k while a reference k-clustering costs 2,
                            certifying a ratio of at least log2(k)/2.

Instance files are JSON with coordinates serialized as exact decimal doubles
(round-trips are bit-exact for finite values).  A case's ``expected`` block
holds ``k``, ``algo_cost``, ``opt_cost`` and ``problem``; older files'
``opt_is_exact`` and ``ratio`` keys are ignored.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import MergeScript
from .metrics import (
    BallCover,
    Cluster,
    Instance,
    L1,
    L2,
    LINF,
    Norm,
    Problem,
    _powered_norms,
    unpower_array,
)
from .oracles import CoverableSample

__all__ = [
    "ExpectedOutcome", "GeneratedCase", "ParseError",
    "gen_line_1d", "gen_linf_2d", "gen_l2_3d", "gen_hypercube_l1",
    "hypercube_reference_clusters", "gen_random",
    "read_instance", "read_case", "write_instance", "write_case",
    "RANDOM_FAMILIES",
]

RANDOM_FAMILIES = ("uniform_cube", "gaussian_blobs", "coverable")


class ParseError(ValueError):
    """An instance file is malformed; message names the offending field."""


@dataclass(frozen=True)
class ExpectedOutcome:
    """Claimed numbers for a generated case at one level k."""

    k: int
    algo_cost: float
    opt_cost: float
    problem: Problem

    @property
    def ratio(self) -> float:
        return self.algo_cost / self.opt_cost


@dataclass(frozen=True)
class GeneratedCase:
    instance: Instance
    script: MergeScript | None
    expected: ExpectedOutcome | None


# ---------------------------------------------------------------------------
# construction 1: the line


def gen_line_1d(n_param: int) -> GeneratedCase:
    """Four groups of 2^n+2 collinear points whose greedy merge order can be
    steered into a bad 4-clustering.

    Each group is a run of 2^n unit-spaced points with one outlier at
    distance 2^(n-1) on either side; groups are spaced so that the
    outlier-to-outlier gap between neighbors is 3*2^(n-1)-1, tying exactly
    with the in-group attachment merges.  The script exploits those ties.
    """
    if n_param < 2:
        raise ValueError(f"n_param must be >= 2, got {n_param}")
    n = n_param
    two_n = 2 ** n
    half = 2 ** (n - 1)
    group = two_n + 2

    values: list[float] = []
    for g in range(4):
        x = (g + 1) * (7 * half - 2)
        values.append(float(x - half))                    # left outlier
        values.extend(float(x + i) for i in range(two_n))  # the dense run
        values.append(float(x + 3 * half - 1))            # right outlier
    total = 4 * group

    def left_id(g: int) -> int:
        return g * group

    def right_id(g: int) -> int:
        return (g + 1) * group - 1

    steps: list[tuple[int, int]] = []
    next_id = total

    def emit(a: int, b: int) -> int:
        nonlocal next_id
        steps.append((a, b))
        new = next_id
        next_id += 1
        return new

    # balanced binary merge of each dense run, level by level across all
    # four groups so every merge is globally cost-minimal when taken
    blocks = [[g * group + 1 + j for j in range(two_n)] for g in range(4)]
    for _level in range(n):
        for g in range(4):
            blocks[g] = [emit(blocks[g][2 * b], blocks[g][2 * b + 1])
                         for b in range(len(blocks[g]) // 2)]
    tops = [blocks[g][0] for g in range(4)]

    bridges = [emit(right_id(g), left_id(g + 1)) for g in range(3)]
    end_left = emit(left_id(0), tops[0])
    emit(tops[3], right_id(3))
    ext_left = emit(bridges[0], tops[1])
    emit(bridges[2], tops[2])
    emit(end_left, ext_left)  # the forced expensive merge down to 4 clusters

    algo = float(5 * two_n - 3)
    opt = float(2 * two_n - 1)
    inst = Instance(
        name=f"line1d-n{n}", dim=1, norm=L2,
        points=tuple((v,) for v in values),
    )
    return GeneratedCase(
        instance=inst,
        script=MergeScript(tuple(steps)),
        expected=ExpectedOutcome(
            k=4, algo_cost=algo, opt_cost=opt, problem=Problem.DIAMETER,
        ),
    )


# ---------------------------------------------------------------------------
# construction 2: eight points under l_infinity


def gen_linf_2d() -> GeneratedCase:
    """Eight planar points under the max norm with scripted ratio exactly 3.

    The inner diamond A..D and outer points E..H pair up into an optimal
    4-clustering of cost 1, but merging A-B, C-D and then the two pairs is
    cost-minimal throughout and forces a final cluster of diameter 3.
    """
    pts = (
        (0.0, 1.0),    # A
        (1.0, 0.0),    # B
        (0.0, -1.0),   # C
        (-1.0, 0.0),   # D
        (-1.0, 2.0),   # E
        (2.0, 1.0),    # F
        (1.0, -2.0),   # G
        (-2.0, -1.0),  # H
    )
    inst = Instance(name="linf2d", dim=2, norm=LINF, points=pts)
    return GeneratedCase(
        instance=inst,
        script=MergeScript(((0, 1), (2, 3), (8, 9))),
        expected=ExpectedOutcome(
            k=4, algo_cost=3.0, opt_cost=1.0, problem=Problem.DIAMETER,
        ),
    )


# ---------------------------------------------------------------------------
# construction 3: eight Euclidean points in R^3


def gen_l2_3d(x: float) -> GeneratedCase:
    """Eight Euclidean points in R^3, parameterized by 0 < x < 2.

    Optimal pairs are at distance exactly 2; the scripted run instead builds
    the central quadruple (diameter 2*sqrt(2+x)) and then a pair at distance
    2(1+x).  The script realizes a legitimate greedy run only for middle x
    (roughly 0.62 to 1.58): below the golden-ratio threshold the outer pair
    undercuts the quadruple merge, and past ~1.58 a diagonal pair does; the
    merge engine rejects the script outside that window.  The ratio 1+x is
    maximized near x = 1.56.
    """
    if not 0.0 < x < 2.0:
        raise ValueError(f"x must satisfy 0 < x < 2, got {x}")
    z = 2.0 * math.sqrt(x)
    y = 1.0 + math.sqrt(4.0 - x * x)
    w = 1.0 + x
    pts = (
        (-1.0, 1.0, z),   # A
        (1.0, 1.0, z),    # B
        (-1.0, -1.0, 0.0),  # C
        (1.0, -1.0, 0.0),   # D
        (-w, y, z),       # E
        (w, y, z),        # F
        (-w, -y, 0.0),    # G
        (w, -y, 0.0),     # H
    )
    inst = Instance(name=f"l2-3d-x{x:g}", dim=3, norm=L2, points=pts)
    algo = 2.0 * (1.0 + x)
    return GeneratedCase(
        instance=inst,
        script=MergeScript(((0, 1), (2, 3), (8, 9), (4, 5))),
        expected=ExpectedOutcome(
            k=4, algo_cost=algo, opt_cost=2.0, problem=Problem.DIAMETER,
        ),
    )


# ---------------------------------------------------------------------------
# construction 4: unit vectors tagged with bit strings, under l1


def gen_hypercube_l1(k: int) -> GeneratedCase:
    """k^2 points [e_i; b] (i = 1..k, b over log2(k) bits) under l1.

    Points sharing the tag b but differing in the unit-vector block are at
    distance 2, so grouping by tag gives a k-clustering of cost 2.  The
    scripted run instead merges within each unit-vector group, one tag bit
    per stage, reaching diameter log2(k) at level k.  On this instance the
    member-centered radius of every cluster the run creates equals its
    diameter, so the same script is a valid run for both linkages.
    """
    if k < 2 or k & (k - 1):
        raise ValueError(f"k must be a power of two >= 2, got {k}")
    bits = k.bit_length() - 1
    dim = k + bits
    pts = []
    for i in range(k):
        for b in range(k):
            coord = [0.0] * dim
            coord[i] = 1.0
            for j in range(bits):
                coord[k + j] = float((b >> j) & 1)
            pts.append(tuple(coord))
    inst = Instance(name=f"hypercube-l1-k{k}", dim=dim, norm=L1, points=tuple(pts))

    steps: list[tuple[int, int]] = []
    next_id = k * k
    blocks = [[i * k + b for b in range(k)] for i in range(k)]
    for _stage in range(bits):
        for i in range(k):
            merged = []
            for b in range(len(blocks[i]) // 2):
                steps.append((blocks[i][2 * b], blocks[i][2 * b + 1]))
                merged.append(next_id)
                next_id += 1
            blocks[i] = merged

    algo = float(bits)
    return GeneratedCase(
        instance=inst,
        script=MergeScript(tuple(steps)),
        expected=ExpectedOutcome(
            k=k, algo_cost=algo, opt_cost=2.0, problem=Problem.DIAMETER,
        ),
    )


def hypercube_reference_clusters(k: int) -> list[Cluster]:
    """The cost-2 reference k-clustering of :func:`gen_hypercube_l1`: one
    cluster per tag b, containing [e_i; b] for every i."""
    if k < 2 or k & (k - 1):
        raise ValueError(f"k must be a power of two >= 2, got {k}")
    return [Cluster(tuple(i * k + b for i in range(k))) for b in range(k)]


# ---------------------------------------------------------------------------
# random families


def gen_random(
    family: str,
    n: int,
    d: int,
    norm: Norm,
    seed: int,
    k: int | None = None,
    r: float | None = None,
) -> Instance | CoverableSample:
    """Deterministic random instances for property tests and packing checks.

    Families: ``uniform_cube`` (points in the unit cube), ``gaussian_blobs``
    (up to three normal clumps), and ``coverable`` (points drawn inside k
    balls of a finite radius r >= 0, returned as a :class:`CoverableSample`
    carrying the cover certificate).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    rng = np.random.default_rng(seed)
    if family == "uniform_cube":
        pts = rng.uniform(0.0, 1.0, size=(n, d))
        return Instance.from_points(f"uniform-n{n}-d{d}-s{seed}", pts.tolist(), norm)
    if family == "gaussian_blobs":
        blobs = min(3, n)
        centers = rng.uniform(0.0, 10.0, size=(blobs, d))
        labels = rng.integers(0, blobs, size=n)
        pts = centers[labels] + rng.normal(0.0, 0.25, size=(n, d))
        return Instance.from_points(f"blobs-n{n}-d{d}-s{seed}", pts.tolist(), norm)
    if family == "coverable":
        if k is None or r is None:
            raise ValueError("coverable family needs k and r")
        if k < 1 or r < 0:
            raise ValueError("coverable family needs k >= 1 and r >= 0")
        if not math.isfinite(r):
            raise ValueError(f"coverable family needs a finite r, got {r!r}")
        box = 10.0 * r * max(1.0, k ** (1.0 / d))
        if math.isinf(box):
            raise ValueError(f"coverable family: r={r!r} puts the centers in an infinite box")
        centers = rng.uniform(0.0, box, size=(k, d))
        which = rng.integers(0, k, size=n)
        # Rejection-sample the norm ball of radius r.  The candidates come in
        # (rows, d) blocks, which the generator fills row by row from the
        # stream that one size-d draw per candidate would read, and the
        # generator is not used afterwards, so the sample does not depend on
        # the block sizes.
        offsets: list[np.ndarray] = []
        got = drawn = 0
        while got < n:
            # enough rows to finish at the acceptance rate seen so far
            rows = min(64 + (n - got) * (drawn + 1) // (got + 1) * 5 // 4, 1 << 16)
            block = rng.uniform(-r, r, size=(rows, d))
            block = block[unpower_array(_powered_norms(block.T.copy(), norm), norm) <= r]
            offsets.append(block)
            got += len(block)
            drawn += rows
        pts = centers[which] + np.concatenate(offsets)[:n]
        cover = BallCover(radius=float(r), centers=tuple(tuple(float(c) for c in row) for row in centers))
        return CoverableSample(points=tuple(map(tuple, pts.tolist())), cover=cover, norm=norm)
    raise ValueError(f"unknown family {family!r}; expected one of {RANDOM_FAMILIES}")


# ---------------------------------------------------------------------------
# instance files


def _norm_to_json(norm: Norm):
    if norm.is_infinity:
        return "linf"
    if norm.p == 1.0:
        return "l1"
    if norm.p == 2.0:
        return "l2"
    return {"lp": norm.p}


def _norm_from_json(value) -> Norm:
    if isinstance(value, str):
        table = {"l1": L1, "l2": L2, "linf": LINF}
        if value not in table:
            raise ParseError(f"field 'norm': unknown value {value!r}")
        return table[value]
    if isinstance(value, dict) and "lp" in value:
        try:
            return Norm(float(value["lp"]))
        except (TypeError, ValueError) as exc:
            raise ParseError(f"field 'norm.lp': {exc}") from exc
    raise ParseError(f"field 'norm': expected 'l1'|'l2'|'linf' or {{'lp': p}}, got {value!r}")


def _require(data: dict, field: str):
    if field not in data:
        raise ParseError(f"missing field '{field}'")
    return data[field]


def write_instance(
    inst: Instance,
    path: str | Path,
    script: MergeScript | None = None,
    expected: ExpectedOutcome | None = None,
) -> None:
    data: dict = {
        "name": inst.name,
        "dim": inst.dim,
        "norm": _norm_to_json(inst.norm),
        "points": [list(p) for p in inst.points],
    }
    if script is not None:
        data["script"] = [list(s) for s in script.steps]
    if expected is not None:
        data["expected"] = {
            "k": expected.k,
            "algo_cost": expected.algo_cost,
            "opt_cost": expected.opt_cost,
            "problem": expected.problem.value,
        }
    Path(path).write_text(json.dumps(data, indent=2) + "\n")


def write_case(case: GeneratedCase, path: str | Path) -> None:
    write_instance(case.instance, path, script=case.script, expected=case.expected)


def _load(path: str | Path) -> dict:
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ParseError("top-level value must be an object")
    return data


def read_instance(path: str | Path) -> Instance:
    return _instance_from(_load(path))


def _instance_from(data: dict) -> Instance:
    name = _require(data, "name")
    dim = _require(data, "dim")
    norm = _norm_from_json(_require(data, "norm"))
    points = _require(data, "points")
    if not isinstance(dim, int):
        raise ParseError(f"field 'dim': expected integer, got {dim!r}")
    if not isinstance(points, list) or not points:
        raise ParseError("field 'points': expected a non-empty list")
    try:
        return Instance(
            name=str(name), dim=dim, norm=norm,
            points=tuple(tuple(float(c) for c in p) for p in points),
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"field 'points': {exc}") from exc


def read_case(path: str | Path) -> GeneratedCase:
    data = _load(path)
    inst = _instance_from(data)
    script = None
    if "script" in data:
        raw = data["script"]
        if not isinstance(raw, list):
            raise ParseError("field 'script': expected a list of [id_a, id_b] pairs")
        try:
            script = MergeScript(tuple((int(a), int(b)) for a, b in raw))
        except (TypeError, ValueError) as exc:
            raise ParseError(f"field 'script': {exc}") from exc
    expected = None
    if "expected" in data:
        raw = data["expected"]
        try:
            expected = ExpectedOutcome(
                k=int(raw["k"]),
                algo_cost=float(raw["algo_cost"]),
                opt_cost=float(raw["opt_cost"]),
                problem=Problem(raw["problem"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"field 'expected': {exc}") from exc
    return GeneratedCase(instance=inst, script=script, expected=expected)
