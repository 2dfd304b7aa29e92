"""In-memory spans around calls made by the benchmark into the program.

A span has a name, a start and an end (``perf_counter`` seconds), the row of
the span that was open when it began (its parent, -1 for none) and the id of
the query it belongs to.  Self time, a span's duration minus the part its
child spans cover, is summed per name as each span closes, so every span
counts even after the stored log reaches ``SPAN_LIMIT`` rows.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter

#: Spans stored for the dump; later spans still count in the per-name sums.
SPAN_LIMIT = 100_000


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.cols = {
            "name": array("i"),
            "start": array("d"),
            "end": array("d"),
            "parent": array("i"),
            "query": array("i"),
        }
        self.dropped = 0
        self.query = -1
        # Open spans as [name, start, time covered by children, stored row or -1].
        self._stack: list[list] = []
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}

    def begin(self, name: str) -> None:
        cols = self.cols
        row = len(cols["name"])
        if row < SPAN_LIMIT:
            nid = self._ids.get(name)
            if nid is None:
                nid = self._ids[name] = len(self.names)
                self.names.append(name)
            cols["name"].append(nid)
            cols["start"].append(0.0)
            cols["end"].append(0.0)
            cols["parent"].append(self._stack[-1][3] if self._stack else -1)
            cols["query"].append(self.query)
        else:
            row = -1
            self.dropped += 1
        self._stack.append([name, perf_counter(), 0.0, row])

    def end(self) -> None:
        end = perf_counter()
        name, start, child, row = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_s[name] = self.total_s.get(name, 0.0) + dur
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        if row >= 0:
            self.cols["start"][row] = start
            self.cols["end"][row] = end

    def unwind(self) -> None:
        """Close every open span, after a call raised past its ``end``."""
        while self._stack:
            self.end()

    def wrap(self, name: str, fn):
        """Return ``fn`` with a span named ``name`` around every call."""

        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return traced

    def layer_self_s(self) -> dict[str, float]:
        """Self time summed over the span names that share a layer prefix."""
        out: dict[str, float] = {}
        for name, t in self.self_s.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + t
        return out

    def dump(self, path) -> None:
        """Write the stored spans, one row per span, and the per-name sums."""
        doc = {
            "columns": list(self.cols),
            "names": self.names,
            "dropped": self.dropped,
            "spans": [list(row) for row in zip(*self.cols.values())],
            "calls": self.calls,
            "total_s": self.total_s,
            "self_s": self.self_s,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
