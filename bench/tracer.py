"""In-memory span tracer that instruments qgeom from outside.

`Tracer.instrument` replaces a public function at every binding inside
the qgeom package: a module that did `from .designs import spread_holes`
holds its own reference, so patching `qgeom.designs` alone would miss
the calls made through `qgeom.search`.  Nothing under `src/` changes.

Every wrapped call pushes a frame.  On return its duration is charged to
the parent frame, so a layer's self time is its duration minus the time
covered by wrapped calls it made.  Calls of hot leaf functions (tens of
thousands per run) are only aggregated; every other call is also kept as
a span `(id, parent_id, name, start_s, end_s, self_s)`, written out with
the run report when the benchmark ends.
"""

from __future__ import annotations

import sys
import time


class Tracer:
    def __init__(self):
        self.stats = {}     # layer name -> [calls, self_s, inclusive_s]
        self.edges = {}     # (caller layer, callee layer) -> inclusive_s
        self.counters = {}  # exact counts reported by hooks
        self.spans = []
        self._stack = []    # frames: [name, child_s, lines_walked, span_id]
        self._next_span = 0

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def self_s(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def inclusive_s(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def wrap(self, fn, name, *, hot=False, hook=None):
        """Return fn wrapped in a frame named `name` (or `name(args)` when
        name is callable).  `hook(tracer, frame, args, result)` runs after
        a successful call."""
        stack, stats, edges, spans = self._stack, self.stats, self.edges, self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            span_id = parent_span = None
            if not hot:
                span_id = self._next_span
                self._next_span += 1
                parent_span = next((f[3] for f in reversed(stack) if f[3] is not None), None)
            frame = [label, 0.0, 0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[1]
                st = stats.get(label)
                if st is None:
                    st = stats[label] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += own
                st[2] += dur
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    key = (parent[0], label)
                    edges[key] = edges.get(key, 0.0) + dur
                if span_id is not None:
                    spans.append((span_id, parent_span, label, t0, t1, own))
            if hook is not None:
                hook(self, frame, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def run(self, name, fn, *args):
        """Run fn as the root span, so unwrapped work lands in its self time."""
        return self.wrap(fn, name)(*args)

    def instrument(self, targets):
        """targets: (module, attribute, layer name, hot, hook) tuples."""
        modules = [m for key, m in sys.modules.items()
                   if key == "qgeom" or key.startswith("qgeom.")]
        for module_name, attr, name, hot, hook in targets:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self.wrap(original, name, hot=hot, hook=hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def lines_walked(self, frame):
        return frame[2]

    def note_lines(self, n):
        """Charge n enumerated lines to the calling frame."""
        if self._stack:
            self._stack[-1][2] += n
