"""In-memory span recording for the traced benchmark mode.

A :class:`Recorder` keeps one record per span — name, start, end, parent
span id and the run phase (``setup`` or ``unit``) it was opened in — in
plain parallel lists, plus named counters per phase.  Nothing is written
while the run is measured; :func:`write_chrome_trace` dumps the spans as
Chrome trace-event JSON afterwards (it opens in Perfetto).

A span's *self time* is its duration minus the durations of its direct
children.  The program is single-threaded, so spans nest properly and the
self times of one tree add up exactly to its root's duration.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

__all__ = ["Recorder", "self_times", "traced", "write_chrome_trace"]


class Recorder:
    """Span and counter store for one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.phases: list[str] = []
        self.phase = "setup"
        self.counters: defaultdict[tuple[str, str], float] = defaultdict(float)
        self._open: list[int] = []

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its id."""
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.phases.append(self.phase)
        self.ends.append(0.0)
        self._open.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        """End span ``index``, which must be the innermost open span."""
        self.ends[index] = time.perf_counter()
        if self._open.pop() != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the body of a ``with`` block as one span."""
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name`` in the current phase."""
        self.counters[(self.phase, name)] += amount


def traced(
    recorder: Recorder,
    name: str,
    function: Callable,
    before: "Callable[[tuple, dict], None] | None" = None,
    after: "Callable[[object], None] | None" = None,
) -> Callable:
    """Wrap ``function`` so every call is recorded as a span named ``name``.

    ``before`` sees the call's arguments and ``after`` its result; both
    feed counters and run outside the span.
    """

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        index = recorder.open(name)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.close(index)
        if after is not None:
            after(result)
        return result

    return wrapper


def self_times(
    starts: "list[float]", ends: "list[float]", parents: "list[int]"
) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    result = [end - start for start, end in zip(starts, ends)]
    for index, parent in enumerate(parents):
        if parent >= 0:
            result[parent] -= ends[index] - starts[index]
    return result


def write_chrome_trace(recorder: Recorder, path: str) -> None:
    """Write every span as a Chrome trace-event ``X`` event to ``path``."""
    origin = min(recorder.starts, default=0.0)
    events = [
        {
            "name": name,
            "cat": phase,
            "ph": "X",
            "ts": round((start - origin) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "pid": 1,
            "tid": 1,
            "args": {"id": index, "parent": parent},
        }
        for index, (name, start, end, parent, phase) in enumerate(
            zip(
                recorder.names,
                recorder.starts,
                recorder.ends,
                recorder.parents,
                recorder.phases,
            )
        )
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"traceEvents": events, "displayTimeUnit": "ms"},
            handle,
            separators=(",", ":"),
        )
