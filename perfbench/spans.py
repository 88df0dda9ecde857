"""In-memory span recorder and the wrappers that feed it.

A span is (name, start, end, parent span, instance id), with times from
``time.perf_counter_ns``.  Spans are kept in flat arrays while the run
measures and written out once at the end.  A layer's self time is the
duration of its spans minus the part covered by their child spans.

The program itself is not instrumented: ``Tracer.patch`` replaces a
public function or method of a hypersteiner module by a wrapper, in the
namespace its caller looks it up from, and ``Tracer.unpatch`` restores
the originals, so untraced rounds run the program untouched.
"""

import time
from array import array
from collections import Counter


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.instance = array("i")
        self.counts = Counter()
        self.current_instance = -1
        self._stack = []
        self._patched = []

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.instance.append(self.current_instance)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name, fn, count=None):
        """fn with a span named `name` around every call; `count(counts,
        args, kwargs, result)` updates counters after a call returns."""
        nid = self.name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            i = tracer.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if count is not None:
                count(tracer.counts, args, kwargs, out)
            return out

        return traced

    def patch(self, owner, attr, name, count=None):
        """Replace owner.attr (a module function or a class method) by its
        traced wrapper until unpatch()."""
        orig = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(name, orig, count))
        self._patched.append((owner, attr, orig))

    def unpatch(self):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def __len__(self):
        return len(self.name)

    def self_times_ns(self):
        """Total self time per span name, in nanoseconds."""
        own = [0] * len(self.names)
        name, start, end, parent = self.name, self.start, self.end, self.parent
        for i in range(len(name)):
            d = end[i] - start[i]
            own[name[i]] += d
            p = parent[i]
            if p >= 0:
                own[name[p]] -= d
        return {self.names[k]: v for k, v in enumerate(own)}

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("span,name,start_ns,end_ns,parent,instance\n")
            for i in range(len(self.name)):
                fh.write("%d,%s,%d,%d,%d,%d\n" % (
                    i, self.names[self.name[i]], self.start[i], self.end[i],
                    self.parent[i], self.instance[i]))
