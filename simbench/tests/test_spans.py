"""Span wrappers: transparency, resume forwarding and self-time math."""

import pytest

from repro.gpu import Device
from repro.workloads import run_memcpy
from simbench import layers
from simbench.spans import Patch, SpanLog, self_times, wrap


def _toy_copy():
    return run_memcpy(Device(memory_bytes=1 << 20), use_apointers=True,
                      width=4, nblocks=2, warps_per_block=2,
                      iters_per_thread=3, seed=5)


def test_wrapped_kernel_keeps_cycles_bit_identical():
    plain = _toy_copy()
    log = SpanLog()
    log.request_layer = "gpu.kernel"
    with Patch(log, layers.targets()):
        traced = _toy_copy()
    assert traced.verified and plain.verified
    assert traced.cycles == plain.cycles
    assert log.calls["core"] > 0 and log.calls["gpu.memory"] > 0
    assert log.requests > 0
    assert set(log.names) >= {"gpu.engine", "gpu.kernel", "gpu.memory",
                              "core"}


def test_patch_restores_every_entry_point():
    before = {(cls, attr): cls.__dict__[attr]
              for cls, attr, _ in layers.targets()}
    with Patch(SpanLog(), layers.targets()):
        assert all(cls.__dict__[attr] is not fn
                   for (cls, attr), fn in before.items())
    assert all(cls.__dict__[attr] is fn
               for (cls, attr), fn in before.items())


def _echo():
    """Yields twice, answers a thrown error, returns what it was sent."""
    got = yield "first"
    try:
        got = yield got
    except KeyError:
        got = yield "caught"
    return got


def test_generator_wrapper_times_resumes_not_creation():
    log = SpanLog()
    gen = wrap(_echo, "layer", log)()
    assert len(log) == 0 and log.calls == {"layer": 1}

    def driver():
        return (yield from gen)

    outer = driver()
    assert next(outer) == "first"
    assert outer.send("a") == "a"
    assert outer.throw(KeyError("x")) == "caught"
    with pytest.raises(StopIteration) as stop:
        outer.send("done")
    assert stop.value.value == "done"
    assert len(log) == 4
    assert all(end >= start for start, end in zip(log.starts, log.ends))


def test_generator_wrapper_forwards_close_and_errors():
    closed = []

    def body():
        try:
            yield 1
        finally:
            closed.append(True)

    log = SpanLog()
    gen = wrap(body, "layer", log)()
    assert next(gen) == 1
    gen.close()
    assert closed == [True] and len(log) == 2

    def boom():
        raise ValueError("inner")
        yield  # pragma: no cover

    with pytest.raises(ValueError, match="inner"):
        next(wrap(boom, "layer", log)())
    assert len(log) == 3 and not log._stack


def test_requests_count_once_at_the_outermost_span():
    log = SpanLog()
    log.request_layer = "k"

    def inner():
        yield "req"

    wrapped_inner = wrap(inner, "k", log)

    def outer():
        yield from wrapped_inner()

    list(wrap(outer, "k", log)())
    assert log.requests == 1


def test_self_time_subtracts_child_coverage():
    # root [0, 10] with children a [1, 4] and b [3, 6] (overlapping),
    # a's child g [2, 3], and c [9, 12], which runs past its parent.
    names = ["root", "a", "b", "g", "c"]
    starts = [0.0, 1.0, 3.0, 2.0, 9.0]
    ends = [10.0, 4.0, 6.0, 3.0, 12.0]
    parents = [-1, 0, 0, 1, 0]
    got = self_times(names, starts, ends, parents)
    # root: 10 minus the union [1, 6] + [9, 10] = 4.
    assert got == {"root": 4.0, "a": 2.0, "b": 3.0, "g": 1.0, "c": 3.0}


def test_self_time_sums_by_name_and_ignores_input_order():
    names = ["x", "y", "x", "y"]
    starts = [0.0, 4.0, 1.0, 2.0]
    ends = [5.0, 5.0, 2.0, 3.0]
    parents = [-1, 0, 3, 0]   # x[1,2] is a child of y[2,3]: clipped out
    got = self_times(names, starts, ends, parents)
    assert got["x"] == pytest.approx(5.0 - 2.0 + 1.0)
    assert got["y"] == pytest.approx(1.0 + 1.0)
