"""Out-of-core grep/scan with match-offset writes.

Each warp streams a contiguous chunk of a large input file through
``pread`` one page at a time (the chunk never fits the warp's scratch
buffer — this is the out-of-core pattern), scans the page with wide
loads for words below a threshold, and records the matching *file byte
offsets*.  The matches are then published through the write path: each
warp ``pwrite``s a fixed-capacity slot ``[count u4][offsets u4...pad]``
into a pre-sized shared output file and ``msync``s it.

Verification compares the whole output file byte-for-byte against a
numpy scan of the input, including the zero padding and the capacity
truncation, so a dropped or duplicated match fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.kernel import WarpContext
from repro.gpu.memory import LaneRange
from repro.host.filesys import O_RDWR
from repro.workloads.filebench import make_file_env

#: Per-512-byte-block match extraction cost (compare + ballot + pack).
SCAN_INSTRS = 8


@dataclass
class GrepScanResult:
    """One grep/scan run, verified against the numpy oracle."""

    cycles: float
    seconds: float
    verified: bool
    bytes_scanned: int
    gb_per_s: float
    matches: int
    truncated_warps: int
    preads: int
    pwrites: int
    writeback_bytes: int


def run_grepscan(*, nwarps: int = 8, pages_per_warp: int = 4,
                 slot_bytes: int = 512, threshold: int | None = None,
                 num_frames: int | None = None,
                 sanitize: bool = False, seed: int = 31) -> GrepScanResult:
    """Scan ``nwarps * pages_per_warp`` pages; publish match offsets.

    ``threshold`` selects the match density over uniform u32 words
    (default ~1/64).  ``slot_bytes`` caps each warp's output slot;
    overflowing matches are dropped (count still reports the capped
    value), exactly as the oracle models.
    """
    if nwarps > 32 and nwarps % 32:
        raise ValueError("warps beyond one block must fill blocks of 32")
    if slot_bytes % 4096 and 4096 % slot_bytes:
        raise ValueError("slot_bytes must pack evenly into pages")
    if slot_bytes % 128:
        raise ValueError("slot_bytes must be a multiple of 128 "
                         "(one u4 per lane per store)")
    page = 4096
    chunk_bytes = pages_per_warp * page
    total_bytes = nwarps * chunk_bytes
    if threshold is None:
        threshold = 2**32 // 64
    rng = np.random.RandomState(seed)
    words = rng.randint(0, 2**32, total_bytes // 4,
                        dtype=np.uint64).astype(np.uint32)
    frames = (num_frames if num_frames is not None
              else max(2 * nwarps + 2, total_bytes // page // 2))
    device, gpufs, in_fid, _ = make_file_env(
        total_bytes, num_frames=frames,
        memory_bytes=total_bytes * 2 + 64 * 1024 * 1024,
        sanitize=sanitize, data=words)
    out_bytes = nwarps * slot_bytes
    gpufs.host_fs.ramfs.create(
        "scan-out", np.zeros(out_bytes, dtype=np.uint8))
    out_fid = gpufs.open("scan-out", O_RDWR)
    sc = gpufs.syscalls

    slot_words = slot_bytes // 4
    cap = slot_words - 1
    scratch_base = device.alloc(nwarps * page)
    out_scratch_base = device.alloc(nwarps * slot_bytes)

    def kernel(ctx: WarpContext):
        warp = ctx.warp_id
        base = warp * chunk_bytes
        scratch = scratch_base + warp * page
        matches: list[int] = []
        block = 16 * ctx.warp_size          # bytes per wide warp-load
        for off in range(0, chunk_bytes, page):
            yield from sc.pread(ctx, in_fid, base + off, page, scratch)
            for j in range(0, page, block):
                vals = yield from ctx.load_wide(LaneRange(
                    scratch + j, 16, ctx.warp_size, ctx.warp_size),
                    "u4", 4)
                ctx.charge(SCAN_INSTRS)
                flat = vals.reshape(-1)      # lane-major: lane*4 + elem
                for k in np.nonzero(flat < threshold)[0]:
                    lane, elem = divmod(int(k), 4)
                    matches.append(base + off + j
                                   + lane * 16 + elem * 4)
        count = min(len(matches), cap)
        slot = np.zeros(slot_words, dtype=np.uint32)
        slot[0] = count
        slot[1:1 + count] = matches[:count]
        out_scratch = out_scratch_base + warp * slot_bytes
        for j in range(0, slot_words, ctx.warp_size):
            yield from ctx.store(
                out_scratch + (j + ctx.lane) * 4,
                slot[j + ctx.lane], "u4")
        yield from sc.pwrite(ctx, out_fid, warp * slot_bytes,
                             slot_bytes, out_scratch)
        yield from sc.msync(ctx, out_fid)

    res = device.launch(kernel, grid=max(nwarps // 32, 1),
                        block_threads=min(nwarps, 32) * 32)

    # Oracle: numpy scan per warp chunk with the same capacity rule.
    expect = np.zeros((nwarps, slot_words), dtype=np.uint32)
    total_matches = 0
    truncated = 0
    chunk_words = chunk_bytes // 4
    for warp in range(nwarps):
        chunk = words[warp * chunk_words:(warp + 1) * chunk_words]
        offs = np.nonzero(chunk < threshold)[0] * 4 + warp * chunk_bytes
        total_matches += len(offs)
        truncated += int(len(offs) > cap)
        count = min(len(offs), cap)
        expect[warp, 0] = count
        expect[warp, 1:1 + count] = offs[:count]

    final = gpufs.handle_for(out_fid).pread(0, out_bytes)
    verified = bool(np.array_equal(final,
                                   expect.reshape(-1).view(np.uint8)))
    stats = sc.stats
    return GrepScanResult(
        cycles=res.cycles,
        seconds=res.seconds,
        verified=verified,
        bytes_scanned=total_bytes,
        gb_per_s=(total_bytes / res.seconds / 1e9
                  if res.seconds else 0.0),
        matches=total_matches,
        truncated_warps=truncated,
        preads=stats.pread,
        pwrites=stats.pwrite,
        writeback_bytes=stats.writeback_bytes,
    )
