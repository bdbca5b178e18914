"""On-GPU key-value store with write-back persistence.

The first of the three write-capable workloads built on the generic
syscall layer (:mod:`repro.syscalls`): each warp owns a disjoint bucket
of fixed-size 64-byte records in a single store file and runs an
alternating PUT/GET sequence against it — PUTs ``pwrite`` a
host-pregenerated payload, GETs ``pread`` the record back and fold a
checksum.  A final per-bucket ``msync`` persists the dirty pages, so
the run exercises the full write path: write faults, dirty tracking,
write-back eviction under frame pressure, and explicit flush.

Verification is byte-exact: the final RamFS file must equal a serial
host replay of every PUT, and the GET checksums must match the replay's
(each warp's bucket is private, so warp-program order is the only
order that matters).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.kernel import WarpContext
from repro.gpu.memory import LaneRange
from repro.host.filesys import O_RDWR
from repro.workloads.filebench import make_file_env

#: Fixed record size; 64 records pack one 4 KB page.
RECORD_BYTES = 64
#: Per-GET checksum fold cost (sum 16 words across lanes).
CHECKSUM_INSTRS = 4


@dataclass
class KVStoreResult:
    """One key-value store run, verified against the host replay."""

    cycles: float
    seconds: float
    verified: bool
    ops: int
    ops_per_s: float
    preads: int
    pwrites: int
    msyncs: int
    writeback_bytes: int
    major_faults: int


def run_kvstore(*, nwarps: int = 8, records_per_warp: int = 64,
                ops_per_warp: int = 32, num_frames: int | None = None,
                sanitize: bool = False, seed: int = 29) -> KVStoreResult:
    """Run the KV store: ``ops_per_warp`` alternating PUT/GET per warp.

    ``records_per_warp`` should be a multiple of 64 so buckets are
    page-aligned (not required for correctness, but it keeps each
    warp's ``msync`` range from overlapping a neighbour's pages).
    """
    if nwarps > 32 and nwarps % 32:
        raise ValueError("warps beyond one block must fill blocks of 32")
    nrecords = nwarps * records_per_warp
    total_bytes = nrecords * RECORD_BYTES
    nputs = -(-ops_per_warp // 2)
    rng = np.random.RandomState(seed)
    initial = rng.randint(0, 2**32, total_bytes // 4, dtype=np.uint64)
    initial = initial.astype(np.uint32)
    payloads = rng.randint(0, 2**32, (nwarps, nputs, RECORD_BYTES // 4),
                           dtype=np.uint64).astype(np.uint32)
    # Every concurrently-faulting warp pins one frame, so the pool
    # must exceed nwarps; half the file's pages forces write-back
    # eviction once buckets span multiple pages.
    frames = (num_frames if num_frames is not None
              else max(nwarps + 2, total_bytes // 4096 // 2))
    device, gpufs, fid, _ = make_file_env(
        total_bytes, num_frames=frames,
        memory_bytes=total_bytes * 2 + 64 * 1024 * 1024,
        sanitize=sanitize, flags=O_RDWR, data=initial)
    sc = gpufs.syscalls

    payload_base = device.alloc(payloads.nbytes)
    device.memory.write(payload_base, payloads.reshape(-1).view(np.uint8))
    scratch_base = device.alloc(nwarps * 128)
    sums_base = device.alloc(nwarps * 8)

    def record_for(i: int) -> int:
        return (i * 7 + 3) % records_per_warp

    def kernel(ctx: WarpContext):
        warp = ctx.warp_id
        bucket = warp * records_per_warp
        scratch = scratch_base + warp * 128
        checksum = np.uint64(0)
        nput = 0
        for i in range(ops_per_warp):
            off = (bucket + record_for(i)) * RECORD_BYTES
            if i % 2 == 0:
                src = (payload_base
                       + (warp * nputs + nput) * RECORD_BYTES)
                nput += 1
                yield from sc.pwrite(ctx, fid, off, RECORD_BYTES, src)
            else:
                yield from sc.pread(ctx, fid, off, RECORD_BYTES, scratch)
                vals = yield from ctx.load(LaneRange(
                    scratch, 4, ctx.warp_size, ctx.warp_size), "u4")
                ctx.charge(CHECKSUM_INSTRS)
                checksum += np.uint64(
                    vals[:RECORD_BYTES // 4].astype(np.uint64).sum())
        yield from sc.msync(ctx, fid, bucket * RECORD_BYTES,
                            records_per_warp * RECORD_BYTES)
        yield from ctx.store_scalar(sums_base + warp * 8, checksum, "u8")

    res = device.launch(kernel, grid=max(nwarps // 32, 1),
                        block_threads=min(nwarps, 32) * 32)

    # Serial host replay: apply every PUT to a copy of the initial
    # store and fold the GET checksums in warp-program order.
    image = initial.copy().reshape(nrecords, RECORD_BYTES // 4)
    expect_sums = np.zeros(nwarps, dtype=np.uint64)
    for warp in range(nwarps):
        bucket = warp * records_per_warp
        nput = 0
        for i in range(ops_per_warp):
            rec = bucket + record_for(i)
            if i % 2 == 0:
                image[rec] = payloads[warp, nput]
                nput += 1
            else:
                expect_sums[warp] += image[rec].astype(np.uint64).sum()

    final = gpufs.handle_for(fid).pread(0, total_bytes)
    got_sums = device.memory.read(sums_base, nwarps * 8).view(np.uint64)
    verified = (bool(np.array_equal(final,
                                    image.reshape(-1).view(np.uint8)))
                and bool(np.array_equal(got_sums, expect_sums)))
    ops = nwarps * ops_per_warp
    stats = sc.stats
    return KVStoreResult(
        cycles=res.cycles,
        seconds=res.seconds,
        verified=verified,
        ops=ops,
        ops_per_s=ops / res.seconds if res.seconds else 0.0,
        preads=stats.pread,
        pwrites=stats.pwrite,
        msyncs=stats.msync,
        writeback_bytes=stats.writeback_bytes,
        major_faults=gpufs.stats.major_faults,
    )
