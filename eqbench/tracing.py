"""Spans recorded in the benchmark's own code, around public calls.

A :class:`Tracer` wraps callables so that each call records one span: its
name, start, end, the span that was open when it began (its parent) and the
request it belongs to.  Spans stay in memory; :meth:`Tracer.totals` folds
them into total and self time per name once the traced phase is over.

The program itself is never edited: the traced run rebinds a few module
attributes and instance attributes to wrappers (see :func:`patched`) and
restores them afterwards.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Callable, Iterator

_clock = time.perf_counter


class Tracer:
    """In-memory span recorder.  Span records are ``[name, start, end, parent, request]``."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._open: list[int] = []
        self.request = -1

    def begin_request(self) -> None:
        self.request += 1

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[list[Any]]:
        record = [name, _clock(), 0.0, self._open[-1] if self._open else -1, self.request]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._open.pop()
            record[2] = _clock()

    def wrap(
        self,
        name: str,
        function: Callable[..., Any],
        rename: Callable[[], str] | None = None,
    ) -> Callable[..., Any]:
        """*function* with a span around every call.

        ``rename`` is called before the call and returns a function that,
        called after it, names the span — how a chase call is told apart as
        a cache hit or a cold chase from the cache counters.
        """

        def traced(*args: Any, **kwargs: Any) -> Any:
            decide_name = rename() if rename is not None else None
            with self.span(name) as record:
                result = function(*args, **kwargs)
            if decide_name is not None:
                record[0] = decide_name()
            return result

        return traced

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """``{name: (calls, total seconds, self seconds)}`` over every span."""
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            parent = record[3]
            if parent >= 0:
                child_time[parent] += record[2] - record[1]
        out: dict[str, list[float]] = {}
        for index, record in enumerate(self.spans):
            duration = record[2] - record[1]
            entry = out.setdefault(record[0], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child_time[index]
        return {name: (int(c), t, s) for name, (c, t, s) in out.items()}


@contextlib.contextmanager
def patched(bindings: list[tuple[object, str, Any]]) -> Iterator[None]:
    """Rebind ``(owner, attribute, value)`` triples, restoring them on exit."""
    saved = []
    for owner, attribute, value in bindings:
        had = attribute in vars(owner)
        saved.append((owner, attribute, had, getattr(owner, attribute, None)))
        setattr(owner, attribute, value)
    try:
        yield
    finally:
        for owner, attribute, had, old in reversed(saved):
            if had:
                setattr(owner, attribute, old)
            else:
                delattr(owner, attribute)
