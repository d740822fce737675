"""Span recorder that wraps xpr's public functions from outside the package.

A span is (name, start, end, parent, note): `parent` is the index of the
enclosing span (or -1 for a root) and `note` is a small value a wrapper
extracts from the call, such as the number of points kept. Spans stay in
memory until the run ends. The package itself is never edited: each function
is replaced at the module attribute its caller looks it up by, and restored
by `Tracer.restore`.
"""
from __future__ import annotations

import gzip
import json
import time
from contextlib import contextmanager


class NullTracer:
    """Stand-in used by the untraced run: spans cost one method call."""

    @contextmanager
    def span(self, name):
        yield


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent, note]
        self._stack = []       # indices of open spans
        self._patched = []     # (owner, attribute, original)

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx, None)

    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx, note) -> None:
        rec = self.spans[idx]
        rec[2] = time.perf_counter()
        rec[4] = note
        self._stack.pop()

    def patch(self, owner, attribute: str, name: str, note=None) -> None:
        """Replace owner.attribute with a span-recording wrapper.

        `note(args, kwargs, result)` returns the value stored with the span.
        """
        original = getattr(owner, attribute)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._close(idx, None)
                raise
            tracer._close(idx, None if note is None
                          else note(args, kwargs, result))
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attribute, wrapper)
        self._patched.append((owner, attribute, original))

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def self_times(self) -> list:
        """Per-span duration minus the time covered by its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _note in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(end - start) - child[i]
                for i, (_n, start, end, _p, _note) in enumerate(self.spans)]

    def roots(self) -> list:
        """Index of the root span enclosing each span."""
        root = [0] * len(self.spans)
        for i, rec in enumerate(self.spans):
            root[i] = i if rec[3] < 0 else root[rec[3]]
        return root

    def write(self, path) -> None:
        """Dump every span as compact JSON rows, gzip-compressed."""
        names = sorted({rec[0] for rec in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[ids[n], round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1), p,
                 note if isinstance(note, (int, float, tuple)) else None]
                for n, s, e, p, note in self.spans]
        doc = {"names": names, "columns": ["name", "start_us", "end_us",
                                           "parent", "note"], "spans": rows}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
