"""Span tracing of bohmsim from outside the package.

A ``Tracer`` replaces module attributes such as ``bohmsim.guidance.
interp_cubic_1d`` with timing wrappers for the duration of a ``with`` block,
at the place where the calling module looks the function up, and puts the
originals back on exit. Nothing under ``src/`` knows about it.

Spans are kept per thread: a span's self time is its duration minus the
durations of the spans it encloses on the same thread. Finished spans go to
one list under a lock, so pool threads can record concurrently.
"""

import importlib
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module.attr`` is timed as span ``layer``.

    ``observe(args, kwargs, result)`` returns a dict of counters for the
    span; it runs outside the timed interval.
    """

    layer: str
    module: str
    attr: str
    observe: object = None


@dataclass
class Span:
    layer: str
    thread: int
    start: float
    duration: float
    self_time: float
    cpu: float
    top_level: bool
    counters: dict


class Tracer:
    def __init__(self, targets):
        self.targets = list(targets)
        self.spans = []
        self.absent = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved = []

    def __enter__(self):
        self.spans.clear()
        self.absent.clear()
        for t in self.targets:
            try:
                module = importlib.import_module(t.module)
                original = getattr(module, t.attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{t.module}.{t.attr}")
                continue
            self._saved.append((module, t.attr, original))
            setattr(module, t.attr, self._wrap(t, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def present_layers(self):
        """Layers with at least one wrapped target."""
        missing = set(self.absent)
        return {t.layer for t in self.targets
                if f"{t.module}.{t.attr}" not in missing}

    def _wrap(self, target, fn):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            frame = [0.0]  # time covered by child spans on this thread
            stack.append(frame)
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                cpu = time.process_time() - cpu0
                stack.pop()
                if stack:
                    stack[-1][0] += duration
            counters = (target.observe(args, kwargs, result)
                        if target.observe else {})
            span = Span(target.layer, threading.get_ident(), t0, duration,
                        duration - frame[0], cpu, not stack, counters)
            with tracer._lock:
                tracer.spans.append(span)
            return result

        traced.__wrapped__ = fn
        return traced

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack
