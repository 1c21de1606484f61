"""In-memory span recorder for the benchmark's traced runs.

A span has a name, a start and end (``time.perf_counter`` seconds), the
id of the span that was open when it started (its parent, ``-1`` at the
top) and an operation id shared by every span of one operation (one
walk, one request, one process).  Spans live in memory and are written
out once, when the traced process ends.

Wrapping works on *public names at their call sites*: :meth:`Tracer.wrap`
replaces an attribute of a module or class (the name the caller looks up
at call time) with a timing wrapper, so nothing under ``src/`` changes.

Stdlib only: the launcher imports this module before ``repro`` so that
``-X importtime`` attributes nothing of it to the program.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: One recorded span: (id, name, start, end, parent id, operation id).
Span = Tuple[int, str, float, float, int, int]


class Tracer:
    """Collects spans and counters; owns the wrappers it installs."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        #: Counter increments: (time, name, amount).
        self.events: List[Tuple[float, str, float]] = []
        self._ids = itertools.count()
        self._ops = itertools.count(1)
        self._local = threading.local()
        self._restore: List[Tuple[object, str, Optional[object]]] = []

    # -- operations and spans ----------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self) -> int:
        """Start a new operation on this thread; returns its id."""
        op = next(self._ops)
        self._local.op = op
        return op

    def count(self, name: str, amount: float = 1) -> None:
        self.events.append((self.clock(), name, amount))

    def call(self, name: str, func: Callable, /, *args, **kwargs):
        """Run ``func`` inside a span called ``name``."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        op = getattr(self._local, "op", 0)
        stack.append(sid)
        start = self.clock()
        try:
            return func(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, op))

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        new_op: bool = False,
        on_call: Optional[Callable[["Tracer", tuple, dict], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper recording a ``name`` span.

        ``new_op`` starts a fresh operation id for each call (a request
        handler, a walk); ``on_call`` sees the arguments, for counters.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if new_op:
                tracer.begin_op()
            if on_call is not None:
                on_call(tracer, args, kwargs)
            return tracer.call(name, original, *args, **kwargs)

        # A function stored on a class still binds ``self``, because
        # ``wrapper`` is a plain function too.
        self.patch(owner, attr, wrapper)

    def patch(self, owner: object, attr: str, value: object) -> None:
        """Set ``owner.attr = value``, remembering how to undo it."""
        self._restore.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is None:
                delattr(owner, attr)  # it was inherited
            else:
                setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        payload = {"spans": self.spans, "events": self.events}
        if extra:
            payload.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def counter_totals(events: Iterable[Sequence], since: float = float("-inf")) -> Dict[str, float]:
    """Summed counter increments made at or after ``since``."""
    totals: Dict[str, float] = {}
    for when, name, amount in events:
        if when >= since:
            totals[name] = totals.get(name, 0) + amount
    return totals


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Per-name self time: each span's duration minus what its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for sid, _name, start, end, parent, _op in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals: Dict[str, float] = {}
    for sid, name, start, end, _parent, _op in spans:
        own = (end - start) - covered(children.get(sid, ()), start, end)
        totals[name] = totals.get(name, 0.0) + own
    return totals


def inclusive_times(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Per-name total duration (children included)."""
    totals: Dict[str, float] = {}
    for _sid, name, start, end, _parent, _op in spans:
        totals[name] = totals.get(name, 0.0) + (end - start)
    return totals


def call_counts(spans: Sequence[Sequence]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for span in spans:
        counts[span[1]] = counts.get(span[1], 0) + 1
    return counts
