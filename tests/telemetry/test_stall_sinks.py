"""One stall, three sinks: the profile's stall mix, the trace's ``stall``
spans and the sampler's window stalls add up to the same cycles.

The kernel reaches every engine site that reports a stall: a compute
block sliced over the issue server, an uncontended and a contended lock,
stores, non-blocking loads waited for by a fence, a barrier, and an
``io_wait`` sleep.
"""

import math

import numpy as np

from repro.gpu import Device
from repro.gpu.engine import Engine
from repro.gpu.instructions import TimedLock
from repro.telemetry import capture

#: Synthetic instruction counts, named so the calibration linter can
#: tell deliberate test loads from drifted hardware estimates.
SLICED_COMPUTE = 3 * Engine.ISSUE_SLICE
LOCK_BODY = 40
SPIN_CYCLES = 200.0
WINDOW_CYCLES = 1000.0


def every_stall_kernel(ctx, buf, lock):
    yield from ctx.compute(SLICED_COMPUTE)
    yield from ctx.lock(lock)
    yield from ctx.compute(LOCK_BODY)
    yield from ctx.unlock(lock)
    addrs = buf + ctx.global_tid * 4
    yield from ctx.store(addrs, np.ones(32, np.float32), "f4")
    yield from ctx.load_wide(addrs, "f4", elems=1, nonblocking=True)
    yield from ctx.load_wide(addrs, "f4", elems=1, nonblocking=True)
    yield from ctx.fence()
    yield from ctx.syncthreads()
    yield from ctx.sleep(SPIN_CYCLES, io_wait=True)


def test_stall_totals_agree_across_sinks():
    lock = TimedLock("test")
    with capture(trace=True, timeseries=True,
                 window_cycles=WINDOW_CYCLES) as prof:
        device = Device(memory_bytes=8 * 1024 * 1024)
        buf = device.alloc(64 * 1024)
        device.launch(every_stall_kernel, grid=2, block_threads=128,
                      args=(buf, lock))
    assert lock.contended > 0
    assert lock.acquisitions > lock.contended
    [doc] = [p.to_dict() for p in prof.profiles]
    [tracer] = prof.traces
    stalls = doc["stalls"]
    assert {"issue_queue", "exec_dependency", "lock", "memory",
            "barrier", "spin"} <= set(stalls)
    series = doc["components"]["timeseries"]
    assert series["dropped_windows"] == 0
    assert tracer.dropped == 0

    profile_total = math.fsum(stalls.values())
    trace_total = math.fsum(e.duration for e in tracer.events
                            if e.kind == "stall")
    series_total = math.fsum(cycles for window in series["series"]
                             for cycles in window["stalls"].values())
    assert math.isclose(profile_total, trace_total, rel_tol=1e-12), \
        (profile_total, trace_total)
    assert math.isclose(profile_total, series_total, rel_tol=1e-12), \
        (profile_total, series_total)
