"""A fixed host-speed probe, independent of the program under test.

The benchmark's host shares its cores, and the simulator's speed drifts
by tens of percent over seconds as neighbours come and go.  Running
this loop between instances and dividing by its time cancels most of
that drift.  The loop does the kind of work the simulator does (warp
coroutines resumed from a heap, 32-lane numpy gathers and set unions)
but imports nothing from ``repro``, so a change to the program never
changes the yardstick.
"""

from __future__ import annotations

import heapq
from time import perf_counter

import numpy as np

#: The loop's typical time on an uncontended core of a 2.1 GHz Xeon KVM
#: guest (Python 3.11, numpy 2.4); calibrated times are in seconds of
#: that host.
REFERENCE_S = 0.0085
_WARPS = 8
_STEPS = 50


def _warp(data: np.ndarray, lanes: np.ndarray):
    total = 0
    for step in range(_STEPS):
        addrs = (lanes * 4 + step * 128) % (data.size - 4)
        vals = np.stack([data[addrs + k] for k in range(4)], axis=-1)
        tx = np.union1d(addrs // 128, (addrs + 3) // 128).size
        got = yield tx
        total += int(vals[0, 0]) + got
    return total


def loop_seconds() -> float:
    """Run the calibration loop once; return its host seconds."""
    data = np.arange(1 << 16, dtype=np.int64).astype(np.uint8)
    lanes = np.arange(32, dtype=np.int64)
    start = perf_counter()
    gens = [_warp(data, lanes + w) for w in range(_WARPS)]
    heap = [(0, w, next(g)) for w, g in enumerate(gens)]
    heapq.heapify(heap)
    while heap:
        now, w, tx = heapq.heappop(heap)
        try:
            heapq.heappush(heap, (now + tx, w, gens[w].send(1)))
        except StopIteration:
            pass
    return perf_counter() - start
