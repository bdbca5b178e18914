"""Workload abstraction and the generic benchmark runner.

A workload defines its per-element compute (:meth:`Workload.consume`) and
its verification (:meth:`Workload.expected`).  :func:`run_workload`
builds the kernel around it — data loading via raw pointers or apointers,
pointer advancement, accumulator write-back — mirroring the paper's
setup: "each workload reads its data using apointers and accumulates the
results in a register, written back to global memory at the end".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core import APConfig, AVM
from repro.gpu import Device
from repro.gpu.kernel import WarpContext
from repro.gpu.memory import LaneRange

#: Loop bookkeeping instructions per iteration in both versions.
LOOP_INSTRS = 4


class Workload:
    """One §VI-B microbenchmark."""

    #: Display name (Figure 6 series label).
    name: str = "?"
    #: Approximate extra instructions per element (sorting key).
    compute_rank: float = 0.0
    #: Elements consumed per lane per iteration.
    lanes_stride: int = 1
    #: Extra apointer-version instruction penalty per iteration.  Zero
    #: everywhere except FFT, where the paper attributes an anomalous
    #: overhead to compiler code-generation artifacts "in the code
    #: regions unrelated to the global memory accesses" (§VI-B).
    apointer_artifact_instrs: float = 0.0

    def consume(self, ctx: WarpContext, values: np.ndarray,
                acc: np.ndarray) -> np.ndarray:
        """Fold one warp-load of values into the accumulator, charging
        the compute cost via ``ctx.charge``/warp intrinsics."""
        raise NotImplementedError

    def expected(self, data: np.ndarray) -> np.ndarray:
        """Reference result over the full input (lane-accumulator sum)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Workload {self.name}>"


@dataclass
class WorkloadRun:
    """Outcome of one workload execution."""

    workload: str
    use_apointers: bool
    cycles: float
    seconds: float
    verified: bool
    dram_bytes: int
    instructions: float

    def overhead_over(self, baseline: "WorkloadRun") -> float:
        """Fractional slowdown of this run vs. a baseline run."""
        return self.cycles / baseline.cycles - 1.0


def run_workload(workload: Workload, device: Device, *,
                 use_apointers: bool,
                 nblocks: int,
                 warps_per_block: int = 32,
                 iters_per_thread: int = 4,
                 width: int = 4,
                 config: Optional[APConfig] = None,
                 regs_per_thread: int = 64,
                 seed: int = 1234) -> WorkloadRun:
    """Execute ``workload`` and verify its result.

    ``width`` is the per-lane load size in bytes (4 or 16; §VI-B shows
    batching reads into 16-byte loads amortises the access overhead).
    """
    if width not in (4, 16):
        raise ValueError("width must be 4 or 16 bytes")
    floats_per_load = width // 4
    threads = nblocks * warps_per_block * 32
    total_floats = threads * iters_per_thread * floats_per_load
    rng = np.random.RandomState(seed)
    data = rng.uniform(0.25, 4.0, total_floats).astype(np.float32)

    src = device.alloc(total_floats * 4)
    out = device.alloc(threads * 4)
    device.memory.write(src, data)
    avm = AVM(config if config is not None else APConfig())

    def kernel(ctx: WarpContext):
        acc = np.zeros(ctx.warp_size, dtype=np.float64)
        # Each warp reads its own contiguous chunk, one coalesced
        # warp-line per iteration (a page fault every 4096/line reads).
        stride = 32 * width
        chunk = iters_per_thread * stride
        first = ctx.warp_id * chunk
        ptr = None
        if use_apointers:
            ptr = avm.gvmmap_device(ctx, src, total_floats * 4)
            yield from ptr.seek(ctx, first + ctx.lane * width)
        for i in range(iters_per_thread):
            if use_apointers:
                if floats_per_load == 1:
                    vals = yield from ptr.read(ctx, "f4")
                    vals = vals.astype(np.float64)[:, None]
                else:
                    vals = yield from ptr.read_wide(ctx, floats_per_load,
                                                    "f4")
                    vals = vals.astype(np.float64)
                yield from ptr.add(ctx, stride)
            else:
                ctx.charge(2, chain=2)
                line = LaneRange(src + first + i * stride, width,
                                 ctx.warp_size, ctx.warp_size)
                if floats_per_load == 1:
                    v = yield from ctx.load(line, "f4")
                    vals = v.astype(np.float64)[:, None]
                else:
                    vals = yield from ctx.load_wide(
                        line, "f4", floats_per_load)
                    vals = vals.astype(np.float64)
            ctx.charge(LOOP_INSTRS)
            for col in range(vals.shape[1]):
                acc = workload.consume(ctx, vals[:, col], acc)
            if use_apointers and workload.apointer_artifact_instrs:
                ctx.charge(workload.apointer_artifact_instrs,
                           chain=workload.apointer_artifact_instrs)
        if use_apointers:
            yield from ptr.destroy(ctx)
        yield from ctx.store(out + ctx.global_tid * 4,
                             acc.astype(np.float32), "f4")

    result = device.launch(kernel, grid=nblocks,
                           block_threads=warps_per_block * 32,
                           regs_per_thread=regs_per_thread)
    got = device.memory.read(out, threads * 4).view(np.float32)
    verified = _verify(workload, data, got, threads, iters_per_thread,
                       floats_per_load)
    return WorkloadRun(
        workload=workload.name,
        use_apointers=use_apointers,
        cycles=result.cycles,
        seconds=result.seconds,
        verified=verified,
        dram_bytes=result.stats.dram_bytes,
        instructions=result.stats.instructions,
    )


def _verify(workload: Workload, data: np.ndarray, got: np.ndarray,
            threads: int, iters: int, floats_per_load: int) -> bool:
    """Check the written-back accumulators against a numpy reference."""
    # Layout: warp w, iteration i, lane l, sub-element j.
    warps = threads // 32
    arr = data.reshape(warps, iters, 32, floats_per_load)
    per_thread = arr.transpose(1, 0, 2, 3).reshape(
        iters, threads, floats_per_load)
    expect = workload.expected(per_thread)
    return bool(np.allclose(got, expect.astype(np.float32),
                            rtol=1e-4, atol=1e-4))
