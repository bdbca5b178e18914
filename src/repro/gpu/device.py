"""The simulated GPU device: memory plus kernel launch.

:class:`Device` owns global memory and launches kernels on the engine.
A :class:`KernelLaunch` describes grid geometry and per-thread resource
usage (registers, scratchpad), from which the occupancy calculator
derives how many threadblocks are resident per SM — the knob Figure 6 of
the paper sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.gpu.engine import Engine, EngineProfile, EngineStats
from repro.gpu.kernel import BlockContext, KernelFn, WarpContext
from repro.gpu.launch import EngineHooks, LaunchPlan
from repro.gpu.memory import GlobalMemory, Scratchpad
from repro.gpu.occupancy import OccupancyLimits, occupancy_limits
from repro.gpu.specs import GPUSpec, K80_SPEC
from repro.telemetry import hooks as telemetry_hooks


@dataclass
class KernelLaunch:
    """Launch configuration, mirroring ``kernel<<<grid, block>>>``."""

    kernel: KernelFn
    grid: int
    block_threads: int
    args: tuple = ()
    regs_per_thread: int = 64
    scratchpad_bytes: int = 0
    block_init: Optional[Callable[[BlockContext], None]] = None

    def __post_init__(self):
        if self.grid <= 0:
            raise ValueError("grid must contain at least one block")
        if self.block_threads <= 0:
            raise ValueError("block must contain at least one thread")


@dataclass
class LaunchResult:
    """Outcome of one kernel launch."""

    cycles: float
    seconds: float
    stats: EngineStats
    occupancy: OccupancyLimits
    #: Populated when a profiler observed the launch (explicitly passed
    #: or ambient via ``repro.telemetry.capture``).
    profile: Optional[Any] = None
    #: Merged execution trace of a cluster launch
    #: (:func:`repro.gpu.multigpu.launch_cluster` with tracing on);
    #: ``None`` elsewhere — single-device launches hand the tracer back
    #: to its owner instead.
    tracer: Optional[Any] = None
    #: Merged ``components.timeseries`` section of a sharded cluster
    #: launch with sampling on; ``None`` elsewhere.
    series: Optional[dict] = None

    def dram_bandwidth(self, spec: GPUSpec) -> float:
        return self.stats.dram_bandwidth(spec)


class Device:
    """One simulated discrete GPU."""

    def __init__(self, spec: GPUSpec = K80_SPEC,
                 memory_bytes: int = 64 * 1024 * 1024):
        self.spec = spec
        self.memory = GlobalMemory(memory_bytes,
                                   spec.dram_transaction_bytes)
        self.total_cycles = 0.0
        self.launches = 0
        #: Installed by ``GPUfs(config=GPUfsConfig(sanitize=True))``;
        #: when set, launches run under the runtime sanitizer.
        self.sanitizer = None

    # ------------------------------------------------------------------
    def alloc(self, nbytes: int, align: int = 256) -> int:
        return self.memory.alloc(nbytes, align)

    # ------------------------------------------------------------------
    def launch(self, kernel: KernelFn, grid: int, block_threads: int,
               args: tuple = (), regs_per_thread: int = 64,
               scratchpad_bytes: int = 0,
               block_init: Optional[Callable[[BlockContext], None]] = None,
               tracer=None, profiler=None,
               hooks: Optional[EngineHooks] = None) -> LaunchResult:
        """Run ``kernel`` over ``grid`` threadblocks and return timing."""
        cfg = KernelLaunch(kernel, grid, block_threads, args,
                           regs_per_thread, scratchpad_bytes, block_init)
        return self.launch_cfg(cfg, tracer=tracer, profiler=profiler,
                               hooks=hooks)

    def launch_cfg(self, cfg: KernelLaunch, tracer=None,
                   profiler=None,
                   hooks: Optional[EngineHooks] = None) -> LaunchResult:
        spec = self.spec
        occ = occupancy_limits(spec, cfg.block_threads,
                               cfg.regs_per_thread, cfg.scratchpad_bytes)
        if not occ.is_schedulable:
            raise ValueError(
                f"kernel cannot be scheduled: {occ.limiting_factor}")
        if hooks is not None:
            # Caller supplied a pre-assembled instrumentation bundle.
            tracer = hooks.tracer
            sampler = hooks.sampler
        else:
            # Ambient profiling (repro.telemetry.capture): one pointer
            # test per launch when off, a full profile per launch on.
            if profiler is None:
                profiler = telemetry_hooks.current()
            engine_profile = None
            sampler = None
            if profiler is not None:
                if tracer is None:
                    tracer = profiler.begin_launch()
                engine_profile = EngineProfile.for_sms(spec.num_sms)
                # Cycle-window sampling (None unless the profiler
                # enables it) — live series stream out as the launch
                # runs.
                begin_sampling = getattr(profiler, "begin_sampling", None)
                if begin_sampling is not None:
                    sampler = begin_sampling(spec, tracer=tracer)
            hooks = EngineHooks(tracer=tracer, profile=engine_profile,
                                sampler=sampler)
        san = (hooks.sanitizer if hooks.sanitizer is not None
               else self.sanitizer)
        engine = Engine(spec, occ.blocks_per_sm, hooks=hooks)
        cycles = engine.launch(LaunchPlan(
            self.block_factories(cfg, tracer, san)))
        self.total_cycles += cycles
        self.launches += 1
        launch_profile = None
        if profiler is not None:
            if sampler is not None:
                sampler.finish(cycles)
            launch_profile = profiler.record_launch(
                device=self, cfg=cfg, occ=occ, engine=engine,
                tracer=tracer, sampler=sampler)
        return LaunchResult(
            cycles=cycles,
            seconds=spec.cycles_to_seconds(cycles),
            stats=engine.stats,
            occupancy=occ,
            profile=launch_profile,
        )

    def block_factories(self, cfg: KernelLaunch, tracer=None,
                        sanitizer=None) -> list:
        """The block factories of one launch of ``cfg``, in launch order.

        ``tracer`` threads into every :class:`WarpContext`, so layer
        spans land in the launch's trace; under a ``sanitizer`` every
        warp runs watched, and the call begins a sanitizer launch.
        """
        spec = self.spec
        warps_per_block = -(-cfg.block_threads // spec.warp_size)

        def make_block(block_id: int):
            def factory():
                block = BlockContext(
                    block_id=block_id,
                    threads=cfg.block_threads,
                    warps=warps_per_block,
                    scratchpad=Scratchpad(max(cfg.scratchpad_bytes, 1)),
                )
                if cfg.block_init is not None:
                    cfg.block_init(block)
                gens = []
                for w in range(warps_per_block):
                    if sanitizer is None:
                        ctx = WarpContext(spec, self.memory, block, w,
                                          tracer=tracer)
                        gens.append(cfg.kernel(ctx, *cfg.args))
                    else:
                        ctx = sanitizer.make_context(
                            spec, self.memory, block, w, tracer=tracer)
                        gens.append(sanitizer.watch(
                            cfg.kernel(ctx, *cfg.args), ctx))
                return block, gens
            return factory

        if sanitizer is not None:
            sanitizer.begin_launch()
        return [make_block(b) for b in range(cfg.grid)]
