"""In-memory span recorder that times calls into the program's layers.

The recorder lives only in the benchmark.  It wraps public entry points
from outside the program -- a method on a live instance, a method on a
class, or a module-level function -- so an untraced run executes the
program exactly as shipped.  Each wrapped call appends one span:
layer name, parent span, start and end (``perf_counter_ns``).  A
layer's self time is its span's duration minus the time its child
spans cover; spans are recorded by one thread and nest properly, so
the children of a span are disjoint sub-intervals of it.
"""

from __future__ import annotations

import os
import time
from array import array


class SpanRecorder:
    """Records nested spans around wrapped callables.

    ``clock`` returns integer nanoseconds; tests pass a fake one.
    :meth:`restore` undoes every :meth:`wrap`, so a recorder can be
    scoped to one traced phase.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self._clock = clock
        #: Layer names; a span stores the index of its name.
        self.layers = []
        self._layer_ids = {}
        self.layer_of = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = []
        self._patches = []

    def __len__(self):
        return len(self.start)

    def wrap(self, owner, attr, layer):
        """Replace ``owner.attr`` with a timed wrapper recorded as ``layer``.

        ``owner`` may be an instance (the wrapper shadows the bound
        method), a class (every instance picks the wrapper up), or a
        module.  Callers inside the program that look the attribute up
        at call time are timed; references bound earlier are not.
        """
        original = getattr(owner, attr)
        own = vars(owner)
        self._patches.append((owner, attr, attr in own, own.get(attr)))
        layer_id = self._layer_ids.get(layer)
        if layer_id is None:
            layer_id = self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        clock = self._clock
        stack = self._stack
        layer_of, parents, starts, ends = self.layer_of, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            index = len(starts)
            layer_of.append(layer_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        setattr(owner, attr, traced)
        return traced

    def restore(self):
        """Put back every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, had_own, value = self._patches.pop()
            if had_own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    def self_times(self):
        """``{layer: (calls, self_ns)}`` over every recorded span."""
        n = len(self.start)
        starts, ends, parents = self.start, self.end, self.parent
        covered = [0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        calls = [0] * len(self.layers)
        self_ns = [0] * len(self.layers)
        for i in range(n):
            layer_id = self.layer_of[i]
            calls[layer_id] += 1
            self_ns[layer_id] += ends[i] - starts[i] - covered[i]
        return {name: (calls[i], self_ns[i]) for i, name in enumerate(self.layers)}

    def write(self, path):
        """Write every span as ``id parent layer start_ns end_ns`` lines."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        names = self.layers
        with open(path, "w") as out:
            out.write("id\tparent\tlayer\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                out.write("{}\t{}\t{}\t{}\t{}\n".format(
                    i, self.parent[i], names[self.layer_of[i]], self.start[i], self.end[i]))
