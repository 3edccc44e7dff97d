"""In-memory spans around the calls the benchmark makes into evidist.

Span ``i`` has a name, start and end times from ``time.perf_counter``,
the index of its enclosing span (-1 at the top), the id of the benchmark
op that caused it and optional attributes. Spans are recorded by
temporarily replacing module or class attributes with wrappers, so
untraced runs execute no tracing code at all. They are kept in flat
arrays, which add no per-span objects for the garbage collector to walk,
and stay in memory until ``write`` saves them when the benchmark ends.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.op = None
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops: list = []
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` recording one span per call; ``attrs(args, result)``
        may add cheap attributes after the span has ended."""
        names, starts, ends, parents, ops = self.names, self.starts, self.ends, self.parents, self.ops
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if attrs is not None:
                self.attrs[index] = attrs(args, result)
            return result

        return traced

    @contextmanager
    def installed(self, calls):
        """Wrap each ``(owner, attribute, span name, attrs)`` for the
        duration of the block. An attribute missing from the program raises
        AttributeError: a trace point that has moved must be updated, not
        silently yield no spans."""
        saved = []
        try:
            for owner, attribute, name, attrs in calls:
                original = getattr(owner, attribute)
                saved.append((owner, attribute, original))
                setattr(owner, attribute, self.wrap(name, original, attrs))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    def named(self, name: str) -> list[int]:
        return [i for i, n in enumerate(self.names) if n == name]

    def duration(self, i: int) -> float:
        return self.ends[i] - self.starts[i]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        return own

    def write(self, path: Path):
        """One JSON object per line, times in microseconds from the first span."""
        origin = self.starts[0] if self.starts else 0.0
        with path.open("w", encoding="utf-8") as out:
            for i, name in enumerate(self.names):
                row = {"id": i, "name": name, "start_us": round((self.starts[i] - origin) * 1e6, 3),
                       "end_us": round((self.ends[i] - origin) * 1e6, 3),
                       "parent": self.parents[i], "op": self.ops[i]}
                if i in self.attrs:
                    row["attrs"] = self.attrs[i]
                out.write(json.dumps(row, separators=(",", ":")) + "\n")
