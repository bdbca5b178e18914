"""Pointer-chasing graph traversal stressing the TLB.

The input file is a next-pointer array: ``next[i]`` is a u4 node id, and
the array is a random permutation, so every chain is a long cycle with
no locality — each hop lands on a fresh page.  Each lane chases its own
chain through an apointer over the ``gvmmap``-ed file, using per-lane
vector ``seek`` (the apointer API's scatter addressing), which makes
every dereference a 32-way page-divergent access: the worst case for
the software TLB and the per-warp translation caches.

After ``steps`` hops each warp stores its 32 final node ids to scratch
and ``pwrite``s them into its slot of a shared output file, then
``msync``s — so the traversal result is persisted through the same
write path the other workloads use and verified byte-exactly against a
numpy chase of the permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core import APConfig, AVM
from repro.gpu.kernel import WarpContext
from repro.gpu.memory import LaneRange
from repro.host.filesys import O_RDWR
from repro.workloads.filebench import make_file_env

#: Per-hop bookkeeping (index arithmetic + bounds mask).
HOP_INSTRS = 4
#: One output slot per warp: 32 lanes x u4 final node.
SLOT_BYTES = 128


@dataclass
class GraphWalkResult:
    """One pointer-chase run, verified against the numpy chase."""

    cycles: float
    seconds: float
    verified: bool
    edges: int
    cycles_per_edge: float
    tlb_hits: int
    tlb_misses: int
    minor_faults: int
    major_faults: int
    pwrites: int
    writeback_bytes: int


def run_graphwalk(*, nwarps: int = 4, steps: int = 16,
                  nnodes: int = 64 * 1024,
                  use_tlb: bool = True, tlb_entries: int = 64,
                  num_frames: Optional[int] = None,
                  sanitize: bool = False,
                  seed: int = 37) -> GraphWalkResult:
    """Chase ``nwarps * 32`` chains for ``steps`` hops each.

    ``nnodes`` u4 next-pointers span ``nnodes / 1024`` pages; with the
    permutation's uniform jumps, consecutive hops practically never
    share a page, so ``steps`` hops cost ~``steps`` translations per
    lane — precisely the access pattern §VI-B's Random workload
    approximates and the TLB ablation (``use_tlb=False``) quantifies.
    """
    if nwarps > 32 and nwarps % 32:
        raise ValueError("warps beyond one block must fill blocks of 32")
    total_bytes = nnodes * 4
    rng = np.random.RandomState(seed)
    perm = rng.permutation(nnodes).astype(np.uint32)
    npages = -(-total_bytes // 4096)
    frames = (num_frames if num_frames is not None
              else npages + 32)
    device, gpufs, fid, _ = make_file_env(
        total_bytes, num_frames=frames,
        memory_bytes=total_bytes * 2 + 64 * 1024 * 1024,
        sanitize=sanitize, data=perm)
    out_bytes = nwarps * SLOT_BYTES
    gpufs.host_fs.ramfs.create(
        "walk-out", np.zeros(out_bytes, dtype=np.uint8))
    out_fid = gpufs.open("walk-out", O_RDWR)
    sc = gpufs.syscalls
    cfg = APConfig(use_tlb=use_tlb, tlb_entries=tlb_entries)
    avm = AVM(cfg, gpufs=gpufs)
    scratch_base = device.alloc(nwarps * SLOT_BYTES)

    # Deterministic, well-spread chain starts (one per lane).
    starts = ((np.arange(nwarps * 32, dtype=np.uint64) * 2654435761)
              % nnodes).astype(np.int64).reshape(nwarps, 32)

    def kernel(ctx: WarpContext):
        warp = ctx.warp_id
        ptr = avm.gvmmap(ctx, total_bytes, fid)
        cur = starts[warp].copy()
        for _ in range(steps):
            yield from ptr.seek(ctx, cur * 4)
            vals = yield from ptr.read(ctx, "u4")
            ctx.charge(HOP_INSTRS)
            cur = vals.astype(np.int64)
        yield from ptr.destroy(ctx)
        scratch = scratch_base + warp * SLOT_BYTES
        yield from ctx.store(
            LaneRange(scratch, 4, ctx.warp_size, ctx.warp_size),
            cur.astype(np.uint32), "u4")
        yield from sc.pwrite(ctx, out_fid, warp * SLOT_BYTES,
                             SLOT_BYTES, scratch)
        yield from sc.msync(ctx, out_fid)
        if cfg.use_tlb:
            yield from ctx.syncthreads()
            if ctx.warp_in_block == 0:
                yield from avm.drain_tlb(ctx, ptr.backend)

    res = device.launch(kernel, grid=max(nwarps // 32, 1),
                        block_threads=min(nwarps, 32) * 32,
                        scratchpad_bytes=cfg.tlb_bytes())

    # Oracle: chase the permutation in numpy.
    expect = starts.reshape(-1).copy()
    for _ in range(steps):
        expect = perm[expect].astype(np.int64)
    final = gpufs.handle_for(out_fid).pread(0, out_bytes)
    verified = bool(np.array_equal(
        final.view(np.uint32), expect.astype(np.uint32)))
    edges = nwarps * 32 * steps
    stats = sc.stats
    return GraphWalkResult(
        cycles=res.cycles,
        seconds=res.seconds,
        verified=verified,
        edges=edges,
        cycles_per_edge=res.cycles / edges if edges else 0.0,
        tlb_hits=avm.stats.tlb_hits,
        tlb_misses=avm.stats.tlb_misses,
        minor_faults=gpufs.stats.minor_faults,
        major_faults=gpufs.stats.major_faults,
        pwrites=stats.pwrite,
        writeback_bytes=stats.writeback_bytes,
    )
