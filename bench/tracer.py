"""Spans and counters recorded around the benchmark's calls into knots.

The library itself carries no instrumentation: every span here wraps
one call the benchmark makes into a public function, named
``<module>.<function>`` after the module that defines it.  Spans are
kept in memory as (name, start, end, parent, item) and handed back
whole when the round ends.

``Untraced`` has the same interface and only makes the call, so the
timed code is the same in both modes.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Untraced:
    on = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name, item=None):
        yield

    def count(self, name, value=1):
        pass


class Tracer:
    """Records spans with their parent; counts events per name."""

    on = True

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, item]
        self.counters = defaultdict(int)
        self._stack = []

    def _open(self, name, item):
        parent = self._stack[-1] if self._stack else -1
        if item is None and parent >= 0:
            item = self.spans[parent][4]
        self.spans.append([name, time.perf_counter(), None, parent, item])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        self._open(name, None)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.counters[f"{name}.failed.{type(exc).__name__}"] += 1
            raise
        finally:
            self._close()

    @contextmanager
    def span(self, name, item=None):
        self._open(name, item)
        try:
            yield
        finally:
            self._close()

    def count(self, name, value=1):
        self.counters[name] += value


def self_times(spans):
    """Per span name: (total self time in seconds, number of spans).

    A span's self time is its duration less the durations of its direct
    children.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _item in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for idx, (name, start, end, _parent, _item) in enumerate(spans):
        busy, calls = out.get(name, (0.0, 0))
        out[name] = (busy + (end - start) - child_time[idx], calls + 1)
    return out
