"""Outside-in span recorder: wraps module attributes, keeps spans in memory.

A span is (name, start, end, parent).  Spans live in flat arrays so that a
campaign with a few million wrapped calls stays within tens of megabytes;
they are written out once, after the campaign, by ``Tracer.dump``.

Self time is a span's duration minus the part of its interval that its child
spans cover (``self_times``).  Generator functions are wrapped so that every
``next()`` is its own span, which charges lazy producers such as
``iter_support_masks`` with the work they do, not with the consumer's loop.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter


class Tracer:
    """Span store plus named counters for one traced process."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self.stack.pop()

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn, span: str | None, observe=None):
        """Wrapper recording a span around each call (or each ``next()`` of
        a generator function) and passing ``(result, exc, args)`` to
        ``observe`` after the span has closed (not for generators)."""
        if inspect.isgeneratorfunction(fn):
            if observe is not None:
                raise ValueError("generator wrappers take no observer")
            return self._wrap_generator(fn, span)
        nid = None if span is None else self.intern(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = None if nid is None else self.open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if idx is not None:
                    self.close(idx)
                if observe is not None:
                    observe(None, exc, args)
                raise
            if idx is not None:
                self.close(idx)
            if observe is not None:
                observe(result, None, args)
            return result

        return wrapper

    def _wrap_generator(self, fn, span: str):
        nid = self.intern(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self.open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    self.close(idx)
                    return
                except Exception:
                    self.close(idx)
                    raise
                self.close(idx)
                yield item

        return wrapper

    def patch(self, owner, attr: str, span: str | None, observe=None) -> None:
        """Replace ``owner.attr`` by its traced wrapper until ``restore``."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, span, observe))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, dict[str, int]]:
        return self_times(self.names, self.name, self.start, self.end, self.parent)

    def dump(self, path) -> int:
        """Write the spans: one JSON header line (names and array layout),
        then the raw name, parent, start and end arrays; returns the count."""
        header = {
            "names": self.names,
            "count": len(self.name),
            "arrays": [["name", "i"], ["parent", "i"], ["start_ns", "q"], ["end_ns", "q"]],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
        return len(self.name)


def self_times(names, name, start, end, parent) -> dict[str, dict[str, int]]:
    """Per span name: self time, span count, outermost calls and their time.

    Span k has name ``names[name[k]]``, interval ``[start[k], end[k]]`` and
    parent index ``parent[k]`` (-1 for none); spans are indexed in the order
    they were opened, so children follow their parent and siblings are
    ordered by start.  The covered part of a parent is the union of its
    children's intervals clipped to the parent's, so overlapping children
    are not counted twice.  ``calls`` counts spans not nested directly in a
    span of the same name (a decider falling back to another decider is one
    call), and ``incl_ns`` sums the durations of those outermost spans.
    """
    n = len(name)
    covered = array("q", bytes(8 * n))
    reach = array("q", bytes(8 * n))  # end of the covered prefix, per parent
    for k in range(n):
        p = parent[k]
        if p < 0:
            continue
        lo = max(start[k], start[p], reach[p])
        hi = min(end[k], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    stats = [[0, 0, 0, 0] for _ in names]
    for k in range(n):
        entry = stats[name[k]]
        duration = end[k] - start[k]
        entry[0] += duration - covered[k]
        entry[1] += 1
        p = parent[k]
        if p < 0 or name[p] != name[k]:
            entry[2] += 1
            entry[3] += duration
    return {
        names[i]: {"self_ns": s[0], "spans": s[1], "calls": s[2], "incl_ns": s[3]}
        for i, s in enumerate(stats)
        if s[1]
    }
