"""Span tracer for the benchmark's traced runs.

The tracer replaces module attributes (the functions one avcsim module looks
up from the next layer down) with timing wrappers, and puts them back on
`restore`. Spans are aggregated in memory per (parent span, name) into a call
count, a total time and the time covered by child spans, so a function called
half a million times costs one dict update per call and keeps no per-call
record. Self time is total time minus child time.
"""

from __future__ import annotations

import contextlib
import functools
import time


class Tracer:
    def __init__(self):
        self.stats: dict[tuple, list] = {}  # (parent, name) -> [calls, total_s, child_s]
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list] = {}
        self.distinct: dict[str, set] = {}
        self._stack: list[list] = []  # open spans: [name, parent, start, child_s]
        self._patched: list[tuple] = []  # (owner, attribute, original)

    def _open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        frame = [name, parent, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        elapsed = time.perf_counter() - frame[2]
        self._stack.pop()
        if self._stack:
            self._stack[-1][3] += elapsed
        rec = self.stats.get((frame[1], frame[0]))
        if rec is None:
            rec = self.stats[(frame[1], frame[0])] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += elapsed
        rec[2] += frame[3]

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a call the benchmark itself makes."""
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def wrap(self, owner, attribute: str, name: str, observe=None) -> None:
        """Trace every call that goes through `owner.attribute` as span `name`.

        `observe(tracer, args, kwargs, result)` runs after the span closes and
        may update counters from the arguments or the result.
        """
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            frame = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(frame)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        setattr(owner, attribute, traced)
        self._patched.append((owner, attribute, original))

    def restore(self) -> bool:
        """Put back every wrapped attribute; True when all of them are the originals."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)
            if getattr(owner, attribute) is not original:
                return False
        return True

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def calls(self, name: str) -> int:
        return sum(rec[0] for (_, n), rec in self.stats.items() if n == name)

    def total_s(self, name: str) -> float:
        return sum(rec[1] for (_, n), rec in self.stats.items() if n == name)

    def self_s(self, name: str) -> float:
        return sum(rec[1] - rec[2] for (_, n), rec in self.stats.items() if n == name)
