"""Golden cycles: absolute simulated results, pinned bit for bit.

Every number below was recorded from the engine and is compared with
``==``: a refactor of the engine loop, the dispatch handlers or the
memory model that moves any simulated cycle, instruction or DRAM byte
fails here, however small the drift.  The float literals are copied
from their ``repr``, so they round-trip exactly.

If a change is *meant* to move simulated time (a new timing rule, a
recalibrated spec), re-record the values and say so in the change log.
"""

import hashlib
from dataclasses import asdict, fields

import pytest

from repro.gpu import Device, K80_SPEC
from repro.gpu.engine import EngineStats
from repro.gpu.multigpu import ClusterLaunch, launch_cluster
from repro.telemetry import capture
from repro.workloads import (
    WORKLOADS,
    run_graphwalk,
    run_grepscan,
    run_kvstore,
)
from repro.workloads.base import run_workload
from tests.dsm.test_cluster import make_cluster, run_producer_consumer
from tests.gpu.test_sharded import make_devices, rpc_kernel, writer_kernel

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


#: Integer-valued :class:`EngineStats` fields: they must not move with
#: the float accumulation order of the busy-time sums.
_INT_STATS = tuple(f.name for f in fields(EngineStats) if f.type == "int")


def _digest(*buffers) -> str:
    h = hashlib.sha256()
    for buf in buffers:
        h.update(bytes(buf))
    return h.hexdigest()[:16]


def _cluster_pins(result, digest):
    stats = result.stats
    counters = {name: getattr(stats, name) for name in _INT_STATS}
    counters["instructions"] = stats.instructions
    return result.cycles, counters, digest


def _host_free_cluster():
    devices = make_devices(2)
    result = launch_cluster([
        ClusterLaunch(d, writer_kernel, 2, 64, args=(d.alloc(4096), i + 1))
        for i, d in enumerate(devices)])
    return _cluster_pins(result, _digest(*(d.memory.data for d in devices)))


def _rpc_cluster():
    devices = make_devices(3)
    result = launch_cluster([
        ClusterLaunch(d, rpc_kernel, 4, 128, args=(d.alloc(4096),))
        for d in devices])
    return _cluster_pins(result, _digest(*(d.memory.data for d in devices)))


def _dsm_cluster():
    cluster = make_cluster()
    result, seen = run_producer_consumer(cluster)
    pins = _cluster_pins(result, _digest(cluster.region_array(), *seen))
    return pins + (asdict(cluster.stats),)


CLUSTER_RUNS = {
    "host_free": _host_free_cluster,
    "rpc": _rpc_cluster,
    "dsm": _dsm_cluster,
}

#: ``(cycles, integer counters, memory digest[, DSM stats])`` per cluster.
CLUSTER_GOLDEN = {
    "host_free": (
        132.10203199308256,
        {"dram_bytes": 1024, "dram_transactions": 8, "loads": 0,
         "stores": 8, "atomics": 0, "barriers": 0,
         "lock_acquisitions": 0, "lock_contentions": 0, "pcie_bytes": 0,
         "pcie_transactions": 0, "preemptions": 0,
         "instructions": 808.0},
        "3e6593fc406107de"),
    "rpc": (
        126104.0,
        {"dram_bytes": 6144, "dram_transactions": 48, "loads": 0,
         "stores": 48, "atomics": 0, "barriers": 0,
         "lock_acquisitions": 0, "lock_contentions": 0, "pcie_bytes": 0,
         "pcie_transactions": 0, "preemptions": 0,
         "instructions": 12048.0},
        "0b5bdd19bdb3712a"),
    "dsm": (
        122741.73333333322,
        {"dram_bytes": 70656, "dram_transactions": 552, "loads": 156,
         "stores": 140, "atomics": 16, "barriers": 0,
         "lock_acquisitions": 8, "lock_contentions": 0,
         "pcie_bytes": 49152, "pcie_transactions": 12, "preemptions": 0,
         "instructions": 5432.0},
        "9011fb468bbc7409",
        {"read_faults": 4, "write_faults": 8, "flushes": 4,
         "invalidations": 0}),
}


@pytest.mark.parametrize("name", sorted(CLUSTER_RUNS))
def test_cluster_golden(name):
    assert CLUSTER_RUNS[name]() == CLUSTER_GOLDEN[name]
