"""In-memory spans recorded by wrappers installed on module attributes.

A wrapper replaces a function under the name its callers look up at call
time (a module global or a class attribute).  Each call appends one
:class:`Span` to the recorder: its name, start and end on the benchmark's
clock (``calibration.now``, the thread's CPU time), the index of the
enclosing span, the exception type if the call raised, and optional
annotations computed from the arguments and result.  Nothing is written
until the benchmark ends.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from perfbench.calibration import now

MARK = "__perfbench_span__"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    error: str | None = None
    notes: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One name to wrap: ``owner.attr`` (owner is a module or a class).

    ``notes`` maps (args, kwargs, result) to extra fields for the span; it
    runs outside the span's interval and only when the call returned.
    """

    owner: Any
    attr: str
    span: str
    notes: Callable[[tuple, dict, Any], dict] | None = None


class Recorder:
    """Collects spans of one thread; ``stack`` holds the open span indices."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, now(), parent=parent))
        self.stack.append(idx)
        return idx

    def close(self, idx: int, error: BaseException | None = None) -> None:
        span = self.spans[idx]
        span.end = now()
        if error is not None:
            span.error = type(error).__name__
        self.stack.pop()

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        if self.stack:
            raise RuntimeError("cannot take spans while a span is open")
        out, self.spans = self.spans, []
        return out


def _wrap(fn: Callable, target: Target, rec: Recorder) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(target.span)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec.close(idx, exc)
            raise
        rec.close(idx)
        if target.notes is not None:
            rec.spans[idx].notes.update(target.notes(args, kwargs, result))
        return result

    setattr(wrapper, MARK, target.span)
    return wrapper


@contextmanager
def installed(targets: list[Target], rec: Recorder) -> Iterator[None]:
    """Wrap every target for the duration of the block, then restore the
    original objects, also when the block raises."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for t in targets:
            original = vars(t.owner)[t.attr]
            if hasattr(original, MARK):
                raise RuntimeError(f"{t.owner.__name__}.{t.attr} is already wrapped")
            saved.append((t.owner, t.attr, original))
            setattr(t.owner, t.attr, _wrap(original, t, rec))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def wrapped_names(targets: list[Target]) -> list[str]:
    """Names among ``targets`` that currently hold a span wrapper."""
    return [
        f"{t.owner.__name__}.{t.attr}"
        for t in targets
        if hasattr(vars(t.owner)[t.attr], MARK)
    ]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (children are clipped to the parent and merged first)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.duration - covered)
    return out


def outermost(spans: list[Span], name: str) -> list[int]:
    """Indices of spans called ``name`` with no ancestor of the same name, so
    recursive calls are not counted twice in a total."""
    out = []
    for i, s in enumerate(spans):
        if s.name != name:
            continue
        p = s.parent
        while p >= 0 and spans[p].name != name:
            p = spans[p].parent
        if p < 0:
            out.append(i)
    return out
