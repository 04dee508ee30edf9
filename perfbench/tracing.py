"""In-memory spans around calls into the library's public functions.

A span is ``(op id, span id, parent span id, name, start, end)``. Spans are
recorded only by the benchmark's own code, around the calls it makes; the
library is not instrumented. ``NullTracer`` is the untraced mode: the same
call sites, no recording.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path


class NullTracer:
    enabled = False
    counting = False

    def begin_op(self, op_id: int) -> None:
        pass

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, n: float) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.counting = True  # the worker turns counting off after the first pass
        self.spans: list[tuple[int, int, int | None, str, float, float]] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._op = -1

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._stack.clear()

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((self._op, sid, parent, name, 0.0, 0.0))
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (self._op, sid, parent, name, start, end)

    def count(self, name: str, n: float) -> None:
        """Add ``n`` to an exact per-op counter."""
        self.counts[self._op][name] += n

    def per_op(self, root: str) -> dict[int, dict[str, tuple[float, float]]]:
        """For each op, the total and self time of every span name below the
        root span called ``root``. Self time is the span's duration minus the
        durations of the spans nested in it."""
        children: dict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                children[parent] += end - start
        in_tree: dict[int, bool] = {}
        out: dict[int, dict[str, list[float]]] = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0]))
        for op, sid, parent, name, start, end in self.spans:
            if parent is None:
                in_tree[sid] = name == root
                continue
            in_tree[sid] = in_tree[parent]
            if in_tree[sid]:
                acc = out[op][name]
                acc[0] += end - start
                acc[1] += end - start - children[sid]
        return {op: {k: (v[0], v[1]) for k, v in names.items()} for op, names in out.items()}

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for op, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "span": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
