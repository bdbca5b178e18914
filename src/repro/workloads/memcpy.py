"""The Table II memory-copy bandwidth benchmark.

Copies data between two GPU memory regions with memory tiling (copy
operations interleaved across warps to fully utilise bandwidth), with
per-thread 4-byte or 8-byte accesses, in a raw-pointer baseline and an
apointer version.  Reported as achieved bandwidth against the device's
``cudaMemcpyDeviceToDevice`` figure (152 GB/s on the paper's K80).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core import APConfig, AVM
from repro.gpu import Device
from repro.gpu.kernel import WarpContext
from repro.gpu.memory import LaneRange


@dataclass
class MemcpyResult:
    """Outcome of one memory-copy run."""

    width: int
    use_apointers: bool
    cycles: float
    bytes_copied: int
    bandwidth: float            # copied bytes / second (payload, one way)
    fraction_of_peak: float
    verified: bool


def run_memcpy(device: Device, *, use_apointers: bool, width: int = 4,
               nblocks: int = 52, warps_per_block: int = 32,
               iters_per_thread: int = 8,
               config: Optional[APConfig] = None,
               perm_checks: bool = False,
               compute_per_iter: float = 0.0,
               seed: int = 99) -> MemcpyResult:
    """Copy ``nblocks * warps * 32 * iters`` elements of ``width`` bytes.

    Each warp copies its own contiguous chunk, advancing by one
    coalesced 128/256-byte warp-line per iteration — the paper's layout
    ("each warp copies 1 MB using 4-byte or 8-byte reads/writes per
    thread"), where the pointer crosses a page every ``4096 / line``
    iterations.

    ``compute_per_iter`` adds that many dependent arithmetic
    instructions per copied element — the arithmetic-intensity knob of
    Figure 6 / §VI-A, used to measure the free-computation bubble
    closing as per-access compute rises.
    """
    if width not in (4, 8):
        raise ValueError("width must be 4 or 8 bytes (Table II)")
    elems = width // 4
    threads = nblocks * warps_per_block * 32
    total_floats = threads * iters_per_thread * elems
    nbytes = total_floats * 4
    rng = np.random.RandomState(seed)
    data = rng.uniform(-1, 1, total_floats).astype(np.float32)

    src = device.alloc(nbytes)
    dst = device.alloc(nbytes)
    device.memory.write(src, data)
    if config is None:
        config = APConfig(perm_checks=perm_checks)
    avm = AVM(config)
    line = 32 * width                    # one warp-iteration's bytes
    chunk = iters_per_thread * line      # one warp's chunk

    def kernel(ctx: WarpContext):
        lanes = ctx.warp_size
        first = ctx.warp_id * chunk
        if use_apointers:
            base = first + ctx.lane * width
            sp = avm.gvmmap_device(ctx, src, nbytes)
            dp = avm.gvmmap_device(ctx, dst, nbytes, write=True)
            yield from sp.seek(ctx, base)
            yield from dp.seek(ctx, base)
        for i in range(iters_per_thread):
            if use_apointers:
                if elems == 1:
                    v = yield from sp.read(ctx, "f4")
                    if compute_per_iter:
                        yield from ctx.compute(compute_per_iter,
                                               chain=compute_per_iter)
                    yield from dp.write(ctx, v, "f4")
                else:
                    v = yield from sp.read_wide(ctx, 2, "f4")
                    if compute_per_iter:
                        yield from ctx.compute(compute_per_iter,
                                               chain=compute_per_iter)
                    yield from dp.write_wide(ctx, v, "f4")
                yield from sp.add(ctx, line)
                yield from dp.add(ctx, line)
            else:
                at = first + i * line
                src_line = LaneRange(src + at, width, lanes, lanes)
                dst_line = LaneRange(dst + at, width, lanes, lanes)
                ctx.charge(3, chain=3)
                if elems == 1:
                    v = yield from ctx.load(src_line, "f4")
                    if compute_per_iter:
                        yield from ctx.compute(compute_per_iter,
                                               chain=compute_per_iter)
                    ctx.charge(2)
                    yield from ctx.store(dst_line, v, "f4")
                else:
                    v = yield from ctx.load_wide(src_line, "f4", 2)
                    if compute_per_iter:
                        yield from ctx.compute(compute_per_iter,
                                               chain=compute_per_iter)
                    ctx.charge(2)
                    yield from ctx.store_wide(dst_line, v, "f4")
        if use_apointers:
            yield from sp.destroy(ctx)
            yield from dp.destroy(ctx)

    result = device.launch(kernel, grid=nblocks,
                           block_threads=warps_per_block * 32)
    copied = device.memory.read(dst, nbytes).view(np.float32)
    verified = bool(np.array_equal(copied, data))
    # Bandwidth follows the cudaMemcpy D2D convention the paper compares
    # against: total DRAM traffic (read + write) per second.
    bandwidth = result.stats.dram_bandwidth(device.spec)
    return MemcpyResult(
        width=width,
        use_apointers=use_apointers,
        cycles=result.cycles,
        bytes_copied=nbytes,
        bandwidth=bandwidth,
        fraction_of_peak=bandwidth / device.spec.dram_bandwidth_achievable,
        verified=verified,
    )
