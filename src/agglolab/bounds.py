"""Closed-form worst-case guarantees for the three greedy linkages.

Two variants exist per cost function:

* ``two-k``   -- the guarantee for the intermediate level with 2k clusters,
                 measured against the optimal k-clustering; independent of k.
* ``at-k``    -- the guarantee for level k itself, logarithmic in k.

For the member-centered radius cost the level-k factor is the closed form
20d + 2*log2(k) + 2.  For the free-center radius and the diameter cost the
level-k factors are conservatively composed from the guarantee's building
blocks: a 2(log2(k)+2) phase factor on top of the two-k guarantee, then one
final-merge step (doubling plus one or two extra optima).  The diameter
constants involve 2^(3*(42d)^d), which overflows doubles already at d = 2
((42d)^d itself does from d = 87 on); such values are reported as infinity
and printed as "astronomical".
"""

from __future__ import annotations

import math

from .metrics import Problem

__all__ = ["bound_value", "render_bound", "LEVELS"]

LEVELS = ("at-k", "two-k")


def render_bound(value: float) -> str:
    """12 significant digits, or "astronomical" past the double range."""
    return "astronomical" if math.isinf(value) else f"{value:.12g}"


def _pow(base: float, exponent: float) -> float:
    """``math.pow``, or inf past the double range."""
    try:
        return math.pow(base, exponent)
    except OverflowError:
        return math.inf


def _exp(value: float) -> float:
    try:
        return math.exp(value)
    except OverflowError:
        return math.inf


def bound_value(problem: Problem, k: int, d: int, level: str = "at-k") -> float:
    """Approximation-factor guarantee for (problem, k, d); may be +inf."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
    log_k = math.log2(k)
    if problem is Problem.DISCRETE_RADIUS:
        if level == "two-k":
            return 20.0 * d
        return 20.0 * d + 2.0 * log_k + 2.0
    if problem is Problem.RADIUS:
        base = 24.0 * d * _exp(24.0 * d)
        if level == "two-k":
            return base
        # phase factor on the two-k guarantee, then the final merge
        # (cost at k is at most twice the level above plus one optimum)
        return 4.0 * (log_k + 2.0) * (base + 1.0) + 1.0
    if problem is Problem.DIAMETER:
        sigma = _pow(42.0 * d, d)
        base = _pow(2.0, 3.0 * sigma) * (28.0 * d + 6.0)
        if level == "two-k":
            return base
        return 4.0 * (log_k + 2.0) * (base + 2.0) + 2.0
    raise ValueError(f"unknown problem {problem!r}")
