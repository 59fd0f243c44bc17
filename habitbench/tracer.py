"""Span recorder that traces the habit layers from outside the library.

`Tracer.wrap` replaces a module attribute with a wrapper that records one
span (name, start, end, parent, operation id) per call. The library looks
these names up at call time (`mke.mutual_knowledge_core`, `train._grad_soft`,
`dpl.dbscan_1d`, ...), so wrapping the attribute traces every call without
editing the library. Wrappers are installed only inside `active()`, so an
untraced operation runs the unmodified functions.

Spans are kept in flat in-memory arrays and written once, by `save`.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        # counts[(op, key)] = amount, recorded at the same boundaries as spans
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.current_op = -1
        self._stack = [-1]
        self._wrappers: list[tuple[object, str, object]] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, module, attr, span=None, count=None):
        """Trace calls to `module.attr` as span `span` (default "<module>.<attr>").

        `count(args, kwargs, result)` may return (key, amount) pairs that are
        added to this call's operation.
        """
        span = span or f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        nid = self._ids[span]
        self._wrappers.append((module, attr, (nid, count)))

    def _make(self, orig, nid, count):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.op.append(self.current_op)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = orig(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if count is not None:
                for key, amount in count(args, kwargs, result):
                    self.counts[(self.current_op, key)] += amount
            return result

        return traced

    @contextmanager
    def active(self, op):
        """Install every wrapper and tag the spans recorded inside with `op`."""
        self.current_op = op
        for module, attr, (nid, count) in self._wrappers:
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self._make(orig, nid, count))
        try:
            yield
        finally:
            while self._saved:
                module, attr, orig = self._saved.pop()
                setattr(module, attr, orig)
            self.current_op = -1

    def arrays(self):
        """Spans as numpy arrays: (name, parent, op, start, end)."""
        return (
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.op, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def summary(self, ops):
        """Per span name over operations `ops`: total, self time (s) and calls."""
        name, parent, op, start, end = self.arrays()
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        self_time = dur - covered
        keep = np.isin(op, np.asarray(sorted(ops), dtype=np.int32))
        n = len(self.names)
        return {
            "total": dict(zip(self.names, np.bincount(name[keep], dur[keep], n))),
            "self": dict(zip(self.names, np.bincount(name[keep], self_time[keep], n))),
            "calls": dict(zip(self.names, np.bincount(name[keep], minlength=n))),
        }

    def count(self, key, ops):
        return sum(self.counts.get((op, key), 0.0) for op in ops)

    def save(self, path):
        name, parent, op, start, end = self.arrays()
        np.savez_compressed(
            path, names=np.asarray(self.names), name=name, parent=parent, op=op,
            start=start, end=end,
        )
