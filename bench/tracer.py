"""Span recorder for the benchmark's traced runs.

The recorder wraps public functions and methods of the engine from outside
(it patches module and class attributes while installed and restores them
afterwards), so the engine itself carries no tracing code. Each call becomes a
span with a name, start, end, parent and optional attributes. Spans are kept
in memory; ``write`` stores them when the run ends. A layer's self time is its
spans' duration minus the part of each span that its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import os
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class SpanRecorder:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id or -1, attrs or None)
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._patches: list[tuple[object, str, object]] = []

    def _parent(self) -> tuple[list[int], int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            return stack, stack[-1]
        # A worker thread's outermost span belongs to whatever the thread that
        # installed the recorder is waiting in: the engine fans work out from
        # there and joins it before returning.
        main = self._main_stack
        return stack, (main[-1] if main else -1)

    def traced(self, name: str, fn, attrs=None, before=None):
        """fn wrapped in a span; attrs(args, result, state) adds attributes,
        where state is what before(args) returned just ahead of the call."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, parent = recorder._parent()
            span_id = next(recorder._ids)
            state = before(args) if before else None
            stack.append(span_id)
            start = perf_counter()
            extra = None
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                extra = {"error": type(exc).__name__}
                raise
            else:
                if attrs is not None:
                    extra = attrs(args, result, state)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                recorder.spans.append((span_id, name, start, end, parent, extra))

        return wrapper

    def patch(self, owner, attr: str, name: str, attrs=None, before=None) -> None:
        """Replace owner.attr by a traced version until uninstall()."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.traced(name, raw.__func__, attrs, before))
        else:
            wrapped = self.traced(name, raw, attrs, before)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def patch_function(self, module, attr: str, name: str, attrs=None, before=None) -> None:
        """Trace a module-level function under every name the package binds it to."""
        fn = getattr(module, attr)
        package = module.__name__.split(".")[0]
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != package:
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self.patch(mod, key, name, attrs, before)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self, install):
        """Run install(self) to add patches; remove them all on exit."""
        try:
            install(self)
            yield self
        finally:
            self.uninstall()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "attrs": a}
            for i, n, s, e, p, a in sorted(self.spans, key=lambda span: span[0])
        ]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh, separators=(",", ":"))


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_totals(spans) -> dict[str, dict]:
    """Per span name: calls, total duration s, self time self_s, and the sum
    of every numeric attribute; also counts of each string attribute value."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for span_id, name, start, end, _, attrs in spans:
        entry = totals[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += (end - start) - covered(children.get(span_id, ()), start, end)
        for key, value in (attrs or {}).items():
            if isinstance(value, str):
                entry[f"{key}={value}"] += 1
            else:
                entry[key] += value
    return totals


def file_size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0
