"""An in-memory span tracer that wraps engine functions from the outside.

`Tracer.wrap` replaces a module attribute with a timing wrapper and
`Tracer.restore` puts every original back, so nothing under `src/` changes.
Calls resolved through the module attribute at call time (`ops.conv2d(...)`
inside `rfbs.model`, `model.forward(...)` inside `rfbs.cli`) are traced;
names bound by `from x import y` before wrapping are not.

A span is (id, name, start, end, parent id, request id, work). The parent is
the innermost open span of the same thread; work is what an optional hook
computed from the call's arguments (see costs.OP_WORK).
"""

import functools
import itertools
import json
import threading
from collections import defaultdict, namedtuple
from time import perf_counter

Span = namedtuple("Span", "id name start end parent request work")
REQUEST = "request"  # the span the measuring loop puts around each request


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = None  # id stamped on every span recorded from now on
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, *args, work=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `name`; `work`, if
        given, computes the span's work from the arguments of a call that
        returned."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        returned = False
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            returned = True
            return result
        finally:
            end = perf_counter()
            stack.pop()
            cost = work(*args) if work is not None and returned else None
            self.spans.append(Span(sid, name, start, end, parent, self.request, cost))

    def wrap(self, module, attr, name, work=None):
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            return self.call(name, orig, *args, work=work, **kwargs)

        self._patch(module, attr, orig, traced)

    def wrap_generator(self, module, attr, name):
        """Trace the time each next() on the returned generator takes."""
        orig = getattr(module, attr)

        def pull(it):
            while True:
                try:
                    item = self.call(name, next, it)
                except StopIteration:
                    return
                yield item

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            return pull(orig(*args, **kwargs))

        self._patch(module, attr, orig, traced)

    def _patch(self, module, attr, orig, replacement):
        setattr(module, attr, replacement)
        self._patched.append((module, attr, orig))

    def restore(self):
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def covered(intervals, lo, hi):
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def children_of(spans):
    """Span id -> its child spans in start order."""
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    for v in kids.values():
        v.sort(key=lambda s: s.start)
    return kids


def self_times(spans):
    """Span id -> duration minus the part of it that child spans cover."""
    kids = children_of(spans)
    return {
        s.id: (s.end - s.start)
        - covered([(c.start, c.end) for c in kids.get(s.id, ())], s.start, s.end)
        for s in spans
    }
