"""The four collage implementations of Figure 9.

Every runner returns a :class:`RunOutcome` with wall time (simulated)
and the chosen image ids, which must match the numpy reference — the
implementations differ only in *where* work happens and *how* the
dataset is accessed:

* :func:`run_cpu` — 12-core AVX CPU (analytic timing model);
* :func:`run_cpu_gpu` — GPU computes LSH keys, CPU gathers candidate
  histograms and ships them over PCIe, GPU searches (no GPUfs);
* :func:`run_gpufs` — single GPU kernel; candidates fetched through the
  GPUfs page cache with ``gmmap`` per record page;
* :func:`run_gpufs_apointers` — same kernel, but the whole dataset file
  is ``gvmmap``-ed once and walked with pointer arithmetic.

The GPU kernels assign one warp per input block; per-candidate work is a
histogram distance computed with 16-byte vector loads, matching the
structure the paper describes (all stages in one kernel).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.collage.collage import CollageProblem, CollageResult
from repro.collage.histogram import HIST_BYTES, HIST_FLOATS
from repro.core import APConfig, AVM
from repro.gpu import Device
from repro.gpu.kernel import WarpContext
from repro.gpu.memory import LaneRange
from repro.host import HostFileSystem
from repro.host.cpu import CPUSpec, HOST_CPU
from repro.host.ramfs import RamFS
from repro.paging import GPUfs, GPUfsConfig

#: Per-block fixed GPU work (instructions/warp): block histogram +
#: LSH key computation, derived from the operation counts.
HIST_INSTRS = 32 * 32 * 3 * 2 / 32          # bin increments
ARGMIN_INSTRS = 6
#: Dependent-op depth of the histogram + LSH key computation: the bin
#: reduction tree feeding the hash rounds serializes ~60 ops.
HIST_LSH_CHAIN = 60
#: Dependent-op depth of the 768-wide L2 distance reduction.
DISTANCE_CHAIN = 30

#: CPU-side post-processing (assembling the output collage) per block.
CPU_FINAL_SECONDS_PER_BLOCK = 2e-7


@dataclass
class RunOutcome:
    """Timing and result of one collage implementation."""

    name: str
    seconds: float
    choices: np.ndarray
    breakdown: dict = field(default_factory=dict)
    paging: Optional[dict] = None

    def per_block(self, problem: CollageProblem) -> float:
        return self.seconds / problem.num_blocks

    def matches(self, reference: CollageResult) -> bool:
        return bool(np.array_equal(self.choices, reference.choices))


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------
def _lsh_instrs(problem: CollageProblem) -> float:
    """Warp instructions to hash one block's histogram on the GPU."""
    return problem.dataset.lsh.hash_flops() / 32.0


def _distance_instrs() -> float:
    """Warp instructions for one 768-float L2 distance plus reduction."""
    return HIST_FLOATS * 3 / 32.0 + 10


def _search_block(ctx, query, cand_ids, read_candidate):
    """Generator: exhaustive search among candidates for one block.

    ``read_candidate`` is a generator function returning the candidate's
    histogram as float32[768].
    """
    best_id, best_dist = -1, np.inf
    q = query.astype(np.float64)
    for cid in cand_ids:
        hist = yield from read_candidate(int(cid))
        ctx.charge(_distance_instrs(), chain=DISTANCE_CHAIN)
        diff = hist.astype(np.float64) - q
        dist = float(np.sqrt((diff * diff).sum()))
        ctx.charge(ARGMIN_INSTRS)
        if dist < best_dist:
            best_dist, best_id = dist, int(cid)
    return best_id


def _wide_reads_per_record() -> int:
    # 3072 bytes at 16 bytes/lane * 32 lanes = 512 B per access.
    return -(-HIST_BYTES // (16 * 32))


def _line(ctx: WarpContext, base: int) -> LaneRange:
    """One 16-byte wide load per lane from ``base`` on: 512 bytes."""
    return LaneRange(base, 16, ctx.warp_size, ctx.warp_size)


# ----------------------------------------------------------------------
# 1. CPU-only baseline (TBB + AVX on 12 cores)
# ----------------------------------------------------------------------
def run_cpu(problem: CollageProblem,
            cpu: CPUSpec = HOST_CPU) -> RunOutcome:
    """Analytic CPU timing + numpy compute (it *is* the reference)."""
    d = problem.dataset
    blocks = problem.num_blocks
    refs = problem.total_candidate_refs()

    hist_time = cpu.time_for(
        scalar_ops=blocks * 32 * 32 * 3 * 2,     # binning: scalar chase
        mem_bytes=blocks * 32 * 32 * 3)
    lsh_time = cpu.time_for(flops=blocks * d.lsh.hash_flops())
    search_time = cpu.time_for(
        flops=refs * HIST_FLOATS * 3,
        mem_bytes=refs * HIST_BYTES)
    final_time = blocks * CPU_FINAL_SECONDS_PER_BLOCK

    choices = np.empty(blocks, dtype=np.int64)
    for b, (query, cands) in enumerate(zip(problem.block_hists,
                                           problem.candidates)):
        if cands.size == 0:
            choices[b] = -1
            continue
        diffs = d.histograms[cands].astype(np.float64) - query
        choices[b] = cands[int(np.argmin((diffs * diffs).sum(axis=1)))]
    return RunOutcome(
        name="CPU",
        seconds=hist_time + lsh_time + search_time + final_time,
        choices=choices,
        breakdown={"hist": hist_time, "lsh": lsh_time,
                   "search": search_time, "final": final_time},
    )


# ----------------------------------------------------------------------
# 2. CPU + GPU without GPUfs
# ----------------------------------------------------------------------
def run_cpu_gpu(problem: CollageProblem,
                cpu: CPUSpec = HOST_CPU,
                warps_per_tb: int = 8,
                rounds: int = 4) -> RunOutcome:
    """GPU keys -> CPU gather -> PCIe -> GPU search, in chunked rounds.

    The paper's description: "the GPU computes the LSH keys, and the CPU
    then groups them, eliminates duplicates, reads the candidates from
    the dataset, and invokes the GPU to search among candidates."  The
    input is processed in ``rounds`` chunks sized to the GPU's staging
    capacity; the phases of one round serialise (kernel - copy - CPU -
    copy - kernel), which is the structural weakness Figure 9 exposes:
    cross-round data reuse cannot be exploited, the CPU's scattered
    dataset reads are random-access bound, and every round pays launch
    and transfer latencies.
    """
    d = problem.dataset
    device = Device(memory_bytes=max(256 * 1024 * 1024,
                                     d.total_bytes + 64 * 1024 * 1024))
    blocks = problem.num_blocks
    spec = device.spec
    lsh_instrs = _lsh_instrs(problem)
    image_base = device.alloc(blocks * HIST_BYTES)
    choices = np.full(blocks, -1, dtype=np.int64)
    kernel_launch_s = 10e-6
    total = 0.0
    breakdown = {"gpu_keys": 0.0, "pcie_keys": 0.0, "cpu_gather": 0.0,
                 "pcie_cands": 0.0, "gpu_search": 0.0, "launch": 0.0,
                 "final": 0.0}

    round_size = -(-blocks // rounds)
    for start in range(0, blocks, round_size):
        chunk = list(range(start, min(start + round_size, blocks)))

        # Phase 1 (GPU): histograms + LSH keys for this chunk.
        def keys_kernel(ctx: WarpContext):
            w = ctx.warp_id
            if w >= len(chunk):
                return
            b = chunk[w]
            for i in range(_wide_reads_per_record()):
                yield from ctx.load_wide(
                    _line(ctx, image_base + b * HIST_BYTES + i * 512),
                    "f4", 4)
            yield from ctx.compute(HIST_INSTRS + lsh_instrs,
                                   chain=HIST_LSH_CHAIN)

        grid = -(-len(chunk) // warps_per_tb)
        r1 = device.launch(keys_kernel, grid=grid,
                           block_threads=warps_per_tb * 32)

        # Keys to the host.
        keys_bytes = len(chunk) * d.lsh.params.tables * 8
        pcie_keys = spec.pcie_latency_s + keys_bytes / spec.pcie_bandwidth

        # CPU: group, dedup within the round, gather from the dataset.
        chunk_cands = [problem.candidates[b] for b in chunk]
        refs = int(sum(c.size for c in chunk_cands))
        uniq_ids = (np.unique(np.concatenate(chunk_cands))
                    if refs else np.empty(0, np.int64))
        cpu_gather = cpu.time_for(
            scalar_ops=refs * 40,
            random_mem_bytes=uniq_ids.size * HIST_BYTES,
            mem_bytes=uniq_ids.size * HIST_BYTES)
        payload = uniq_ids.size * HIST_BYTES + refs * 4
        pcie_cands = spec.pcie_latency_s + payload / spec.pcie_bandwidth

        # Stage candidates in GPU memory for the search kernel.
        device.memory.reset_allocator()
        device.alloc(blocks * HIST_BYTES)   # keep the image region
        cand_base = device.alloc(max(uniq_ids.size, 1) * HIST_BYTES)
        slot_of = {int(cid): i for i, cid in enumerate(uniq_ids)}
        for cid, slot in slot_of.items():
            device.memory.write(cand_base + slot * HIST_BYTES,
                                d.histograms[cid])

        # Phase 2 (GPU): exhaustive search for this chunk.
        def search_kernel(ctx: WarpContext):
            w = ctx.warp_id
            if w >= len(chunk):
                return
            b = chunk[w]

            def read_candidate(cid):
                base = cand_base + slot_of[cid] * HIST_BYTES
                parts = []
                for i in range(_wide_reads_per_record()):
                    ctx.charge(3)
                    part = yield from ctx.load_wide(
                        _line(ctx, base + i * 512), "f4", 4,
                        nonblocking=True)
                    parts.append(part.reshape(-1))
                yield from ctx.fence()
                return np.concatenate(parts)[:HIST_FLOATS]

            best = yield from _search_block(
                ctx, problem.block_hists[b], problem.candidates[b],
                read_candidate)
            choices[b] = best

        r2 = device.launch(search_kernel, grid=grid,
                           block_threads=warps_per_tb * 32)
        total += (r1.seconds + pcie_keys + cpu_gather + pcie_cands
                  + r2.seconds + 2 * kernel_launch_s)
        breakdown["gpu_keys"] += r1.seconds
        breakdown["pcie_keys"] += pcie_keys
        breakdown["cpu_gather"] += cpu_gather
        breakdown["pcie_cands"] += pcie_cands
        breakdown["gpu_search"] += r2.seconds
        breakdown["launch"] += 2 * kernel_launch_s

    final_time = blocks * CPU_FINAL_SECONDS_PER_BLOCK
    breakdown["final"] = final_time
    return RunOutcome(
        name="CPU+GPU",
        seconds=total + final_time,
        choices=choices,
        breakdown=breakdown,
    )


# ----------------------------------------------------------------------
# 3 & 4. GPUfs, with and without ActivePointers
# ----------------------------------------------------------------------
def _run_gpufs_common(problem: CollageProblem, *, use_apointers: bool,
                      page_cache_frames: Optional[int] = None,
                      warps_per_tb: int = 8,
                      team_warps: int = 4,
                      config: Optional[APConfig] = None) -> RunOutcome:
    d = problem.dataset
    blocks = problem.num_blocks
    record = d.params.record_bytes
    page = 4096
    # The paper's cache (2 GB of 12 GB) holds a fraction of the 40 GB
    # dataset; scale: default to half the unique working set so the
    # largest inputs overflow it, as in §VI-E.
    if page_cache_frames is None:
        uniq_pages = max(1, problem.unique_candidates() * record // page)
        page_cache_frames = max(64, uniq_pages // 2)
    fs = RamFS()
    fs.create("dataset", d.file_bytes())
    device = Device(memory_bytes=(page_cache_frames * page
                                  + 256 * 1024 * 1024))
    gpufs = GPUfs(device, HostFileSystem(fs),
                  GPUfsConfig(page_size=page,
                              num_frames=page_cache_frames))
    fid = gpufs.open("dataset")
    cfg = config if config is not None else APConfig()
    avm = AVM(cfg, gpufs=gpufs)
    lsh_instrs = _lsh_instrs(problem)
    image_base = device.alloc(blocks * HIST_BYTES)
    choices = np.full(blocks, -1, dtype=np.int64)
    wide = _wide_reads_per_record()
    # A *team* of warps shares one input block, splitting its candidate
    # list — large candidate sets would otherwise leave the GPU
    # latency-bound on one warp's serial chain.
    team = max(1, min(team_warps, warps_per_tb))
    blocks_per_tb = max(1, warps_per_tb // team)

    def kernel(ctx: WarpContext):
        slot = ctx.warp_in_block // team
        member = ctx.warp_in_block % team
        b = ctx.block_id * blocks_per_tb + slot
        shared = ctx.block.shared.setdefault("best", {})
        if b < blocks:
            if member == 0:
                # Stage 1: block histogram + LSH keys (input resident).
                for i in range(wide):
                    yield from ctx.load_wide(
                        _line(ctx, image_base + b * HIST_BYTES + i * 512),
                        "f4", 4)
                yield from ctx.compute(HIST_INSTRS + lsh_instrs,
                                   chain=HIST_LSH_CHAIN)

            if use_apointers:
                ptr = avm.gvmmap(ctx, d.total_bytes, fid)

                def read_candidate(cid):
                    offset = d.record_offset(cid)
                    parts = []
                    yield from ptr.seek(ctx, offset + ctx.lane * 16)
                    for i in range(wide):
                        part = yield from ptr.read_wide(ctx, 4, "f4",
                                                        nonblocking=True)
                        parts.append(part.reshape(-1))
                        if i + 1 < wide:
                            yield from ptr.add(ctx, 512)
                    yield from ctx.fence()
                    return np.concatenate(parts)[:HIST_FLOATS]
            else:
                def read_candidate(cid):
                    # The gmmap path must handle records straddling page
                    # boundaries explicitly — the "significant code
                    # changes" the paper contrasts with apointers.
                    offset = d.record_offset(cid)
                    parts = []
                    mapped = []
                    first_page = offset // page
                    last_page = (offset + HIST_BYTES - 1) // page
                    addrs = {}
                    for p in range(first_page, last_page + 1):
                        addrs[p] = yield from gpufs.gmmap(ctx, fid,
                                                          p * page)
                        mapped.append(p)
                    for i in range(wide):
                        pos = offset + i * 512
                        p = pos // page
                        ctx.charge(4)
                        part = yield from ctx.load_wide(
                            _line(ctx, addrs[p] + pos % page),
                            "f4", 4, nonblocking=True)
                        parts.append(part.reshape(-1))
                    yield from ctx.fence()
                    for p in mapped:
                        yield from gpufs.gmunmap(ctx, fid, p * page)
                    return np.concatenate(parts)[:HIST_FLOATS]

            my_cands = problem.candidates[b][member::team]
            best = yield from _search_block(
                ctx, problem.block_hists[b], my_cands, read_candidate)
            bd = float("inf")
            if best >= 0:
                q = problem.block_hists[b].astype(np.float64)
                diff = d.histograms[best].astype(np.float64) - q
                bd = float(np.sqrt((diff * diff).sum()))
            shared[(slot, member)] = (bd, best)
            yield from ctx.scratch(1)
            if use_apointers:
                yield from ptr.destroy(ctx)
        yield from ctx.syncthreads()
        if b < blocks and member == 0:
            ctx.charge(4 * team)
            yield from ctx.scratch(team)
            entries = [shared.get((slot, m), (float("inf"), -1))
                       for m in range(team)]
            choices[b] = min(entries)[1]

    grid = -(-blocks // blocks_per_tb)
    res = device.launch(kernel, grid=grid, block_threads=warps_per_tb * 32,
                        scratchpad_bytes=cfg.tlb_bytes())
    final_time = blocks * CPU_FINAL_SECONDS_PER_BLOCK
    name = "GPUfs+AP" if use_apointers else "GPUfs"
    return RunOutcome(
        name=name,
        seconds=res.seconds + final_time,
        choices=choices,
        breakdown={"gpu": res.seconds, "final": final_time},
        paging={"major": gpufs.stats.major_faults,
                "minor": gpufs.stats.minor_faults,
                "evictions": gpufs.cache.evictions,
                "frames": page_cache_frames},
    )


def run_gpufs(problem: CollageProblem, **kwargs) -> RunOutcome:
    """All stages on the GPU; candidates via ``gmmap`` (§VI-E item 3)."""
    return _run_gpufs_common(problem, use_apointers=False, **kwargs)


def run_gpufs_apointers(problem: CollageProblem, **kwargs) -> RunOutcome:
    """Whole dataset mapped via ``gvmmap`` and accessed through
    apointers (§VI-E item 4)."""
    return _run_gpufs_common(problem, use_apointers=True, **kwargs)
