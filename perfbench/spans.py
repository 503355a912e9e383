"""Outside-in layer tracing for the benchmark.

The tracer patches public and module-level functions of ``parpath`` from
the benchmark's own files, so the library itself carries no tracing.
Each call of a patched function becomes a span: layer name, start, end,
parent span, thread, and the thread's own minor faults and system CPU
(``RUSAGE_THREAD``) over the span.  Spans sit on a thread-local stack
while open and are kept in memory until the run ends.

Modules import their callees by name (``mc`` calls its own
``volterra_convolve_batch`` binding, ``cli`` its own ``rough_integrate``),
so a function is patched at every binding that callers go through.  A
binding that no longer exists is recorded as absent; a span name whose
bindings are all absent is reported as absent, never as zero.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import resource
import statistics
import threading
import time

def _thread_usage():
    ru = resource.getrusage(resource.RUSAGE_THREAD)  # Linux only
    return ru.ru_minflt, ru.ru_stime


@dataclasses.dataclass
class Span:
    id: int
    parent: object  # parent span id, or None for a root
    name: str
    thread: int
    start: float = 0.0
    end: float = 0.0
    minflt: int = 0
    sys_s: float = 0.0
    error: bool = False
    count: int = 0  # work the layer reports for this call (steps, bytes, ...)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from patched functions; ``restore`` undoes the patches."""

    def __init__(self):
        self.spans = []
        self.absent = set()
        self.present = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Id of the innermost open span on this thread, or None."""
        stack = self._stack()
        return stack[-1].id if stack else None

    @contextlib.contextmanager
    def span(self, name: str, parent=None):
        """Open a span; ``parent`` overrides the thread's own stack.

        The override carries the parent across a thread hand-off: a chunk
        span opened in a pool thread names the span that dispatched it.
        """
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].id
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        sp = Span(id=span_id, parent=parent, name=name,
                  thread=threading.get_ident())
        flt0, sys0 = _thread_usage()
        stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        except BaseException:
            sp.error = True
            raise
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            flt1, sys1 = _thread_usage()
            sp.minflt, sp.sys_s = flt1 - flt0, sys1 - sys0
            with self._lock:
                self.spans.append(sp)

    # -- patching ------------------------------------------------------

    def _patch(self, module, attr: str, name: str, make):
        original = getattr(module, attr, None)
        if not callable(original):
            self.absent.add(name)
            return
        self.present.add(name)
        replacement = make(original)
        functools.update_wrapper(replacement, original)
        setattr(module, attr, replacement)
        self._patched.append((module, attr, original))

    def wrap(self, module, attr: str, name: str, count=None):
        """Trace ``module.attr`` as span ``name``.

        ``count(args, kwargs, result)`` returns the work the call did,
        stored on the span.
        """
        def make(original):
            def traced(*args, **kwargs):
                with self.span(name) as sp:
                    result = original(*args, **kwargs)
                    if count is not None:
                        sp.count = int(count(args, kwargs, result))
                    return result
            return traced
        self._patch(module, attr, name, make)

    def wrap_dispatch(self, module, attr: str, name: str):
        """Trace every worker call a dispatcher makes, in whatever thread.

        The dispatcher takes the worker as its first argument; each call
        of the worker becomes a span whose parent is the span open where
        the dispatcher was called.
        """
        def make(original):
            def traced(worker, *args, **kwargs):
                parent = self.current()

                def traced_worker(*wargs, **wkwargs):
                    with self.span(name, parent=parent):
                        return worker(*wargs, **wkwargs)
                return original(traced_worker, *args, **kwargs)
            return traced
        self._patch(module, attr, name, make)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def is_absent(self, name: str) -> bool:
        return name in self.absent and name not in self.present

    def take(self):
        """Return and clear the spans recorded so far."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals.

    Children running concurrently in other threads cover the parent's
    interval once, not once per child, so a dispatcher waiting on two
    worker threads is left with only its own work.
    """
    children = {}
    for sp in spans:
        children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        covered, reach = 0.0, sp.start
        for lo, hi in sorted((max(c.start, sp.start), min(c.end, sp.end))
                             for c in children.get(sp.id, ())):
            if hi <= reach:
                continue
            covered += hi - max(lo, reach)
            reach = hi
        out[sp.id] = sp.duration - covered
    return out


def decile(values, k: int) -> float:
    """The k-th decile (5 = median, 9 = p90) of a non-empty sample."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]
