"""Golden cycles: absolute simulated results, pinned bit for bit.

Every number below was recorded from the engine and is compared with
``==``: a refactor of the engine loop, the dispatch handlers or the
memory model that moves any simulated cycle, instruction or DRAM byte
fails here, however small the drift.  The float literals are copied
from their ``repr``, so they round-trip exactly.

If a change is *meant* to move simulated time (a new timing rule, a
recalibrated spec), re-record the values and say so in the change log.
"""

import pytest

from repro.gpu import Device, K80_SPEC
from repro.telemetry import capture
from repro.workloads import (
    WORKLOADS,
    run_graphwalk,
    run_grepscan,
    run_kvstore,
)
from repro.workloads.base import run_workload

#: ``(cycles, instructions, dram_bytes)`` per §VI-B workload, at the
#: parameters of :func:`_run_suite_workload`.
APOINTER_GOLDEN = {
    "Read": (1428.2745852959245, 684.0, 1536),
    "Add": (1443.7556056158553, 692.0, 1536),
    "Reduce": (1567.6037681753019, 756.0, 1536),
    "FFT": (3811.177827838078, 1900.0, 1536),
    "Random 5": (1722.4139713746104, 836.0, 1536),
    "Bitonic sort": (2361.0700889708055, 1164.0, 1536),
    "Random 10": (2032.0343777732269, 996.0, 1536),
    "Random 50": (4551.993737911575, 2276.0, 1536),
}

RAW_GOLDEN = {
    "Read": (543.0711265842947, 68.0, 1536),
    "Add": (558.8331672241565, 76.0, 1536),
}

#: ``(cycles, instructions, dram_bytes)`` of the single launch each
#: write-capable syscall workload makes under the runtime sanitizer.
SYSCALL_GOLDEN = {
    "kvstore": (35103.73333333334, 2591.0, 11392),
    "grepscan": (67945.81913668744, 3864.0, 96000),
    "graphwalk": (141147.1752975173, 13812.0, 110976),
}

SYSCALL_RUNS = {
    "kvstore": (run_kvstore,
                dict(nwarps=2, records_per_warp=32, ops_per_warp=4)),
    "grepscan": (run_grepscan, dict(nwarps=2, pages_per_warp=2)),
    "graphwalk": (run_graphwalk,
                  dict(nwarps=2, steps=4, nnodes=8 * 1024)),
}


def _run_suite_workload(workload, *, use_apointers):
    device = Device(spec=K80_SPEC, memory_bytes=16 * 1024 * 1024)
    return run_workload(workload, device,
                        use_apointers=use_apointers,
                        nblocks=2, warps_per_block=2,
                        iters_per_thread=2)


def _contended_kernel_device():
    """A kernel mixing compute chains, loads, atomics and barriers."""
    device = Device(memory_bytes=8 * 1024 * 1024)
    src = device.alloc(256 * 1024)
    counter = device.alloc(64)

    # Named so the calibration linter can see these are deliberate
    # synthetic loads, not drifted hardware estimates.
    charge_block = 10
    tail_block = 30

    def kern(ctx):
        for i in range(3):
            ctx.charge(charge_block, chain=charge_block)
            _ = yield from ctx.load(src + ctx.global_tid * 4, "f4")
        yield from ctx.atomic_add(counter, 1)
        yield from ctx.syncthreads()
        yield from ctx.compute(tail_block)

    return device, kern


def _pinned(run):
    return (run.cycles, run.instructions, run.dram_bytes)


@pytest.mark.parametrize("workload", WORKLOADS,
                         ids=[w.name for w in WORKLOADS])
def test_apointer_workload_golden(workload):
    run = _run_suite_workload(workload, use_apointers=True)
    assert run.verified
    assert _pinned(run) == APOINTER_GOLDEN[workload.name]


@pytest.mark.parametrize("workload", WORKLOADS[:2],
                         ids=[w.name for w in WORKLOADS[:2]])
def test_raw_pointer_workload_golden(workload):
    run = _run_suite_workload(workload, use_apointers=False)
    assert run.verified
    assert _pinned(run) == RAW_GOLDEN[workload.name]


@pytest.mark.parametrize("name", sorted(SYSCALL_RUNS))
def test_sanitized_syscall_workload_golden(name):
    fn, kwargs = SYSCALL_RUNS[name]
    with capture(trace=False) as prof:
        result = fn(sanitize=True, **kwargs)
    assert result.verified
    [launch] = prof.profiles
    engine = launch.engine
    pinned = (engine["cycles"], engine["instructions"],
              engine["dram_bytes"])
    assert pinned == SYSCALL_GOLDEN[name]
    assert result.cycles == SYSCALL_GOLDEN[name][0]


def test_contended_kernel_golden():
    device, kern = _contended_kernel_device()
    result = device.launch(kern, grid=4, block_threads=128)
    stats = result.stats
    assert result.cycles == 1362.2918287937744
    assert (stats.instructions, stats.dram_bytes) == (1008.0, 6144)
    assert (stats.loads, stats.atomics, stats.barriers) == (48, 16, 16)
    assert stats.issue_busy == 283.2684824902725
