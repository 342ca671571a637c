"""Span tracing from outside the program, for the benchmark's traced run.

`Tracer.installed()` replaces each traced function with a wrapper at the
place its caller looks it up (a module global or a class attribute) and
puts the originals back on exit. A span records its name, start, end,
parent span and flow id. Spans are kept in flat arrays while the flows
run and written out once at the end.
"""

from __future__ import annotations

import contextlib
import time
from array import array


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ix = array("i")
        self.parent = array("i")
        self.flow = array("i")
        self.start = array("d")
        self.end = array("d")
        self.flow_id = -1
        self.observed: dict[str, list] = {}   # span name -> values its observer kept
        self._stack = [-1]

    def wrap(self, name: str, fn, observe=None):
        """`fn` with a span named `name` around each call.

        `observe(result)` runs after the span closes; what it returns is
        kept in `observed[name]`.
        """
        nid = len(self.names)
        self.names.append(name)
        kept = self.observed.setdefault(name, [])
        stack, start, end = self._stack, self.start, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            self.name_ix.append(nid)
            self.parent.append(stack[-1])
            self.flow.append(self.flow_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if observe is not None:
                kept.append(observe(result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Wrap every (owner, attribute, span name, observer) in `targets`."""
        saved = []
        try:
            for owner, attr, name, observe in targets:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, observe))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, inclusive seconds, self seconds).

        Self time is a span's duration minus that of its direct children;
        spans nest on one thread, so children never overlap.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_ix[i]]]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return {name: tuple(row) for name, row in out.items()}

    def write(self, fh):
        """One tab-separated line per span: id, name, start, end, parent, flow."""
        fh.write("id\tname\tstart\tend\tparent\tflow\n")
        names = self.names
        for i in range(len(self.start)):
            fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n" % (
                i, names[self.name_ix[i]], self.start[i], self.end[i],
                self.parent[i], self.flow[i]))
