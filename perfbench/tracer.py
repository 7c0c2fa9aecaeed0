"""In-memory span tracer that wraps gridmark functions where callers bind them.

`Tracer.install` replaces every module attribute that *is* a target
function (its defining module, every module that imported it by name, and
the package's re-exports) with a wrapper that records a span: name, start,
end and the index of the enclosing span.  `uninstall` puts every original
back and reports any attribute that is not the original afterwards.

A probe may be attached to a target.  It runs after the span closes and
returns data kept with the span (a mask, a digest, a byte count).  Its own
time is recorded as a child span named ``trace.probe`` of the enclosing
span, so it never inflates another span's self time and it is counted as
tracing cost.
"""

import functools
import sys
from contextlib import contextmanager
from time import perf_counter

PROBE = "trace.probe"


class Span:
    __slots__ = ("name", "start", "end", "parent", "data")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.data = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.active = False
        self._stack = []
        self._patches = []

    # -- installing -------------------------------------------------------

    def install(self, targets, package="gridmark"):
        """targets: iterable of (span name, function, probe or None)."""
        modules = [m for k, m in sorted(sys.modules.items()) if k == package or k.startswith(package + ".")]
        for name, fn, probe in targets:
            wrapper = self._wrap(name, fn, probe)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, fn))

    def uninstall(self):
        """Restore every patched attribute; return those still not original."""
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        leftovers = [f"{mod.__name__}.{attr}" for mod, attr, fn in self._patches if getattr(mod, attr) is not fn]
        self._patches = []
        self.active = False
        return leftovers

    @property
    def patched(self):
        return [f"{mod.__name__}.{attr}" for mod, attr, _ in self._patches]

    # -- recording --------------------------------------------------------

    def _open(self, name):
        span = Span(name, self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span):
        span.end = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, probe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if probe is not None:
                p = tracer._open(PROBE)
                try:
                    span.data = probe(args, kwargs, result)
                finally:
                    tracer._close(p)
            return result

        return wrapper

    @contextmanager
    def root(self, name, key=None):
        """A span opened by the benchmark itself, e.g. around one op; key
        names the input it works on."""
        if not self.active:
            yield
            return
        span = self._open(name)
        span.data = key
        try:
            yield
        finally:
            self._close(span)

    # -- analysis ---------------------------------------------------------

    @staticmethod
    def span_cost(calls=20000):
        """Seconds one span adds to a call, measured on a wrapped no-op."""
        t = Tracer()
        t.active = True

        def noop():
            return None

        wrapped = t._wrap("calibrate", noop, None)
        t0 = perf_counter()
        for _ in range(calls):
            wrapped()
        t1 = perf_counter()
        for _ in range(calls):
            noop()
        t2 = perf_counter()
        return max((t1 - t0) - (t2 - t1), 0.0) / calls

    def tree(self):
        """(root index of every span, self time of every span)."""
        roots = []
        child_time = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            # a parent is always opened, hence appended, before its children
            roots.append(i if s.parent is None else roots[s.parent])
            if s.parent is not None:
                child_time[s.parent] += s.duration
        self_time = [s.duration - c for s, c in zip(self.spans, child_time)]
        return roots, self_time
