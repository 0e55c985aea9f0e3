"""In-memory span tracer installed around the package's public functions.

Spans are recorded from the benchmark's side of each layer boundary: a
wrapper replaces a function at every module binding that refers to it
(``cli``, ``contrastive`` and ``evaluation`` import ``embed_batch`` by
name), or a method on its class.  Each span keeps its name, start, end,
parent span and the trace id of the CLI stage it ran under.  A
generator's span covers its consumption.  Hot leaf functions get a
counting wrapper instead of a span.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, trace, name, start, end, thread)
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._stage_span = None
        self._trace_id = None
        self._restore: list[tuple[object, str, object]] = []

    def add(self, key: str, amount: float = 1) -> None:
        """Add to a counter; hooks can run on several threads."""
        with self._lock:
            self.counts[key] += amount

    # -- span bookkeeping -------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> tuple:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else self._stage_span
        stack.append(span_id)
        return span_id, parent, self._trace_id, name, time.perf_counter()

    def close(self, token: tuple) -> None:
        end = time.perf_counter()
        span_id, parent, trace, name, start = token
        stack = self._stack()
        if stack and stack[-1] == span_id:
            stack.pop()
        elif span_id in stack:
            stack.remove(span_id)
        self.spans.append((span_id, parent, trace, name, start, end, threading.get_ident()))

    @contextlib.contextmanager
    def stage(self, trace_id: str, name: str):
        """The root span of one CLI stage invocation."""
        self._trace_id = trace_id
        token = self.open(name)
        self._stage_span = token[0]
        try:
            yield
        finally:
            self.close(token)
            self._stage_span = self._trace_id = None

    # -- wrapping ---------------------------------------------------------
    def span_wrapper(self, fn, name: str, hook=None):
        """Wrap ``fn`` in a span; ``hook(args, kwargs, result)`` records
        counts from a normal return."""
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                token = tracer.open(name)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer.close(token)
            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(token)
                tracer.add(name + ".raised")
                raise
            tracer.close(token)
            if hook is not None:
                hook(args, kwargs, result)
            return result
        return wrapper

    def count_wrapper(self, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(args, kwargs, result)
            return result
        return wrapper

    def patch_function(self, module, attr: str, wrapper_for) -> None:
        """Replace ``module.attr`` at every ``cmdsim`` module binding."""
        original = getattr(module, attr)
        wrapper = wrapper_for(original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "cmdsim" or name.startswith("cmdsim.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._restore.append((loaded, key, original))
                    setattr(loaded, key, wrapper)

    def patch_method(self, cls, attr: str, wrapper_for) -> None:
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, wrapper_for(original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- output -----------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Span duration minus the part of it that child spans cover."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span_id, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        result = {}
        for span_id, _, _, _, start, end, _ in self.spans:
            covered = 0.0
            cursor = start
            for child_start, child_end in sorted(children.get(span_id, ())):
                child_start, child_end = max(child_start, cursor), min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            result[span_id] = (end - start) - covered
        return result

    def write_spans(self, path) -> None:
        own = self.self_times()
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            for span_id, parent, trace, name, start, end, thread in sorted(self.spans, key=lambda s: s[4]):
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "trace": trace, "name": name,
                    "start_s": start - origin, "end_s": end - origin,
                    "self_s": own[span_id], "thread": thread,
                }))
                handle.write("\n")
