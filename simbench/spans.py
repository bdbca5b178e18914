"""Host-time spans around the simulator's layer entry points.

A :class:`SpanLog` keeps every span in memory as parallel lists (name,
start, end, parent, instance id) and :func:`self_times` reduces them to
per-layer self time: a span's duration minus the part of it that its
children cover.

Most layer entry points are coroutines driven with ``yield from``.  A
span around the *call* would only time generator creation, so
:func:`wrap` returns a :class:`_SpanGen` proxy for generator functions:
every resume (``send``/``throw``/``close``) becomes its own span, and
creation is never timed.  Plain functions get one span per call.  The
proxies forward values, exceptions and return values unchanged, so a
wrapped kernel produces the same requests in the same order and the
simulated cycles stay bit-identical.
"""

from __future__ import annotations

import functools
import inspect
from time import perf_counter


class SpanLog:
    """In-memory span store; spans nest by the host call stack."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.instances: list[int] = []
        self.instance = -1
        self.calls: dict[str, int] = {}
        #: Requests yielded towards the engine, counted once each at the
        #: outermost span of the layer named by ``request_layer``.
        self.requests = 0
        self.request_layer = ""
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.starts)

    def open(self, name: str) -> int:
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.instances.append(self.instance)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def count_call(self, name: str) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1

    def to_json(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "instance"],
            "spans": [list(row) for row in zip(
                self.names, self.starts, self.ends, self.parents,
                self.instances)],
        }


class _SpanGen:
    """Generator proxy that records one span per resume."""

    __slots__ = ("_gen", "_name", "_log")

    def __init__(self, gen, name: str, log: SpanLog):
        self._gen = gen
        self._name = name
        self._log = log

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def _resume(self, method, *args):
        log = self._log
        idx = log.open(self._name)
        try:
            value = method(*args)
        finally:
            log.close(idx)
        if self._name == log.request_layer:
            parent = log.parents[idx]
            if parent < 0 or log.names[parent] != self._name:
                log.requests += 1
        return value

    def send(self, value):
        return self._resume(self._gen.send, value)

    def throw(self, *exc):
        return self._resume(self._gen.throw, *exc)

    def close(self):
        log = self._log
        idx = log.open(self._name)
        try:
            self._gen.close()
        finally:
            log.close(idx)


def wrap(fn, name: str, log: SpanLog):
    """Return ``fn`` instrumented with spans named ``name`` in ``log``."""
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            log.count_call(name)
            return _SpanGen(fn(*args, **kwargs), name, log)
        return gen_wrapper

    @functools.wraps(fn)
    def call_wrapper(*args, **kwargs):
        log.count_call(name)
        idx = log.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            log.close(idx)
    return call_wrapper


class Patch:
    """Replace class attributes with span wrappers; undo on exit."""

    def __init__(self, log: SpanLog,
                 targets: list[tuple[type, str, str]]):
        self.log = log
        self.targets = targets
        self._saved: list[tuple[type, str, object]] = []

    def __enter__(self):
        for cls, attr, name in self.targets:
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, wrap(original, name, self.log))
        return self.log

    def __exit__(self, *exc):
        for cls, attr, original in reversed(self._saved):
            setattr(cls, attr, original)
        self._saved.clear()
        return False


def self_times(names, starts, ends, parents) -> dict[str, float]:
    """Per-name self time: duration minus the union of child intervals.

    Children are clipped to their parent's interval and overlapping
    children are counted once, so a span's self time is never negative.
    Spans may be given in any order; ``parents`` holds list indices
    (``-1`` for a root).
    """
    n = len(starts)
    covered = [0.0] * n
    reach = [float("-inf")] * n
    for i in sorted(range(n), key=starts.__getitem__):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], starts[p], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    out: dict[str, float] = {}
    for i in range(n):
        out[names[i]] = (out.get(names[i], 0.0)
                         + (ends[i] - starts[i]) - covered[i])
    return out
