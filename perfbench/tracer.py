"""In-memory span tracer that wraps public callables of the program from outside.

A span is (name, start, end, parent span, trace id). Spans nest on one
stack because the program runs on one thread; the trace id groups the
spans of one pipeline. Self time is a span's duration minus the
durations of its direct children, which lie inside it, and minus the time
hooks of those children took to count their results.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

_ABSENT = object()
PACKAGE = "scale_fu"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.trace_ids: list[int] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.hook_s: dict[int, float] = defaultdict(float)  # span id -> hook time inside it
        self.trace_id = 0
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.trace_ids.append(self.trace_id)
        self.ends.append(float("nan"))
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def end(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        if not self._stack or self._stack[-1] != sid:
            raise RuntimeError(f"span {self.names[sid]!r} closed out of order")
        self._stack.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        """Add to a counter of the current trace id."""
        self.counts[(self.trace_id, name)] += value

    def wrap(self, name: str, fn, hook=None):
        """`fn` recorded as span `name`; `hook(tracer, args, kwargs, result)`
        runs after the span closes, and its time is kept out of the parent's
        self time."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if hook is not None:
                t = time.perf_counter()
                hook(self, args, kwargs, out)
                if self._stack:
                    self.hook_s[self._stack[-1]] += time.perf_counter() - t
            return out

        return traced

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.names)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[sid] - self.starts[sid]
        return [e - s - c - self.hook_s.get(sid, 0.0)
                for sid, (s, e, c) in enumerate(zip(self.starts, self.ends, child))]

    def summary(self, trace_id: int) -> dict[str, dict[str, float]]:
        """Per span name of one trace: calls, total seconds and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for sid, self_s in enumerate(self.self_times()):
            if self.trace_ids[sid] != trace_id:
                continue
            row = out.setdefault(self.names[sid], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += self.ends[sid] - self.starts[sid]
            row["self_s"] += self_s
        return out

    def child_calls(self, trace_id: int, parent_name: str, child_name: str) -> int:
        return sum(
            1
            for sid, parent in enumerate(self.parents)
            if parent >= 0
            and self.trace_ids[sid] == trace_id
            and self.names[sid] == child_name
            and self.names[parent] == parent_name
        )

    def write(self, path) -> None:
        """One JSON array per span: [id, name, start, end, parent, trace id]."""
        with open(path, "w") as fh:
            for sid, name in enumerate(self.names):
                row = [sid, name, self.starts[sid], self.ends[sid], self.parents[sid],
                       self.trace_ids[sid]]
                fh.write(json.dumps(row) + "\n")


def _package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


@contextmanager
def patched(tracer: Tracer, targets):
    """Wrap every target for the duration of the block, then restore.

    A function target is replaced under every name that binds it in any
    loaded module of the package, because callers that imported it by name
    look it up in their own module. A method target is replaced on its
    class, which is where instances look it up."""
    undo: list[tuple[object, str, object]] = []
    modules = _package_modules()
    try:
        for target in targets:
            owner = sys.modules[f"{PACKAGE}.{target.module}"]
            head, _, method = target.attr.partition(".")
            if method:
                cls = getattr(owner, head)
                original = getattr(cls, method)
                undo.append((cls, method, vars(cls).get(method, _ABSENT)))
                setattr(cls, method, tracer.wrap(target.name, original, target.hook))
                continue
            original = getattr(owner, head)
            wrapped = tracer.wrap(target.name, original, target.hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, attr, original))
                        setattr(mod, attr, wrapped)
        yield undo
    finally:
        for owner, attr, original in reversed(undo):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
