"""Golden translation counters: simulated cycles and APStats, pinned.

Each run below exercises one shape of the apointer translation layer
(in-page increments, page crossings, TLB hits and evictions, unaligned
records, a 32-way page-divergent fault, the read-to-write upgrade
fault).  The numbers were recorded from the engine and are compared
with ``==``: a change to ``APtr`` that moves a cycle, a fault group, a
link or a TLB counter fails here.  The float literals are copied from
their ``repr``, so they round-trip exactly.
"""

import numpy as np
import pytest

from repro.core import APConfig, AVM
from repro.gpu import Device
from repro.host import HostFileSystem
from repro.host.filesys import O_RDWR
from repro.host.ramfs import RamFS
from repro.paging import GPUfs, GPUfsConfig
from repro.telemetry import capture
from repro.workloads import run_graphwalk, run_memcpy

PAGE = 4096

#: The APStats fields pinned after the cycle count.
FIELDS = ("derefs", "translation_faults", "fault_groups", "links",
          "unlinks", "tlb_hits", "tlb_misses", "tlb_bypasses",
          "tlb_evictions")

GOLDEN = {
    "memcpy-w4": (24469.57740460097, 640, 1024, 32, 1024, 1024, 0, 0, 0, 0),
    "memcpy-w8": (25187.57145652715, 640, 1536, 48, 1536, 1536, 0, 0, 0, 0),
    "graphwalk-tlb": (885846.2625571712, 8, 254, 211, 254, 254,
                      16, 195, 161, 24),
    "unaligned-3k": (100105.06666666667, 24, 320, 10, 320, 320, 0, 0, 0, 0),
    "divergent-32": (609259.3333333404, 2, 32, 32, 32, 32, 0, 0, 0, 0),
    "masked-upgrade": (24959.26666666667, 3, 64, 3, 64, 64, 0, 0, 0, 0),
}


def _pinned(cycles, counters: dict) -> tuple:
    """``(cycles, *FIELDS)`` from APStats counters."""
    return (cycles,) + tuple(int(counters[f]) for f in FIELDS)


def _memcpy(width):
    with capture(trace=False) as prof:
        result = run_memcpy(Device(memory_bytes=8 * 1024 * 1024),
                            use_apointers=True, width=width, nblocks=2,
                            warps_per_block=4, iters_per_thread=40)
    assert result.verified
    [launch] = prof.profiles
    return _pinned(result.cycles, launch.components["translation"])


def _graphwalk():
    with capture(trace=False) as prof:
        result = run_graphwalk(nwarps=2, steps=4, nnodes=64 * 1024,
                               use_tlb=True, tlb_entries=16)
    assert result.verified
    [launch] = prof.profiles
    return _pinned(result.cycles, launch.components["translation"])


def _file_env(num_frames):
    data = np.random.RandomState(3).randint(0, 256, 32 * PAGE,
                                            dtype=np.uint8)
    device = Device(memory_bytes=64 * 1024 * 1024)
    fs = RamFS()
    fs.create("data", data)
    gpufs = GPUfs(device, HostFileSystem(fs),
                  GPUfsConfig(page_size=PAGE, num_frames=num_frames))
    return device, gpufs, data


def _unaligned_records():
    """3 KB records straddle 4 KB pages: seeks, in-page and crossing
    increments, and mixed-page warps."""
    device, gpufs, data = _file_env(16)
    avm = AVM(APConfig(), gpufs=gpufs)
    fid = gpufs.open("data")
    record = 3072
    seen = []

    def kern(ctx):
        ptr = avm.gvmmap(ctx, 16 * PAGE, fid)
        for r in range(6):
            yield from ptr.seek(ctx, r * record + ctx.lane * 32)
            seen.append((r * record, (yield from ptr.read(ctx, "u4"))))
            yield from ptr.add(ctx, 1024)
            seen.append((r * record + 1024,
                         (yield from ptr.read(ctx, "u4"))))
        yield from ptr.destroy(ctx)

    result = device.launch(kern, grid=1, block_threads=64)
    for start, vals in seen:
        offs = start + np.arange(32) * 32
        expect = np.array([data[o:o + 4].view(np.uint32)[0] for o in offs])
        assert np.array_equal(vals, expect)
    return _pinned(result.cycles, vars(avm.stats))


def _divergent_pages():
    """Every lane in its own page: 32 fault groups, then in-page
    increments and a re-read that must not fault."""
    device, gpufs, data = _file_env(64)
    avm = AVM(APConfig(), gpufs=gpufs)
    fid = gpufs.open("data")
    seen = []

    def kern(ctx):
        ptr = avm.gvmmap(ctx, 32 * PAGE, fid)
        yield from ptr.seek(ctx, ctx.lane * PAGE)
        seen.append((0, (yield from ptr.read(ctx, "u4"))))
        yield from ptr.add(ctx, 8)
        seen.append((8, (yield from ptr.read(ctx, "u4"))))
        yield from ptr.destroy(ctx)

    result = device.launch(kern, grid=1, block_threads=32)
    for off, vals in seen:
        offs = np.arange(32) * PAGE + off
        expect = np.array([data[o:o + 4].view(np.uint32)[0] for o in offs])
        assert np.array_equal(vals, expect)
    return _pinned(result.cycles, vars(avm.stats))


def _masked_upgrade():
    """A read links every lane read-only; a masked write upgrades the
    even lanes, a full write then upgrades the odd ones."""
    device, gpufs, _ = _file_env(16)
    avm = AVM(APConfig(), gpufs=gpufs)
    fid = gpufs.open("data", O_RDWR)

    def kern(ctx):
        ptr = avm.gvmmap(ctx, 8 * PAGE, fid, write=True)
        yield from ptr.seek(ctx, ctx.lane * 64)
        yield from ptr.read(ctx, "u4")
        even = ctx.lane % 2 == 0
        yield from ptr.write(ctx, np.full(32, 7, np.uint32), "u4",
                             mask=even)
        yield from ptr.write(ctx, np.full(32, 9, np.uint32), "u4")
        yield from ptr.destroy(ctx)

    result = device.launch(kern, grid=1, block_threads=32)
    return _pinned(result.cycles, vars(avm.stats))


RUNS = {
    "memcpy-w4": lambda: _memcpy(4),
    "memcpy-w8": lambda: _memcpy(8),
    "graphwalk-tlb": _graphwalk,
    "unaligned-3k": _unaligned_records,
    "divergent-32": _divergent_pages,
    "masked-upgrade": _masked_upgrade,
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_translation_golden(name):
    assert RUNS[name]() == GOLDEN[name]
