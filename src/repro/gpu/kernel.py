"""Kernel authoring interface: warp and threadblock contexts.

A *kernel* is a Python generator function ``kernel(ctx, *args)`` that the
engine instantiates **once per warp**.  Inside, the 32 lanes are
represented by numpy vectors (``ctx.lane``, ``ctx.global_tid`` ...), and
every timed operation is invoked with ``yield from``:

    def copy_kernel(ctx, src, dst, n):
        idx = ctx.global_tid
        vals = yield from ctx.load(src + idx * 4, "f4")
        yield from ctx.store(dst + idx * 4, vals, "f4")

Pure per-lane arithmetic does not need to yield; its cost is recorded via
:meth:`WarpContext.charge` and folded into the next timed operation, the
same way real instructions fill issue slots between memory accesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from repro.gpu import warp_primitives as wp
from repro.gpu.instructions import (
    AcquireLock,
    AtomicOp,
    Barrier,
    Compute,
    HostCompute,
    LoadFence,
    MemAccess,
    PcieTransfer,
    ReleaseLock,
    Request,
    ScratchAccess,
    Sleep,
    TimedLock,
)
from repro.gpu.memory import GlobalMemory, Scratchpad
from repro.gpu.specs import GPUSpec


@dataclass
class BlockContext:
    """State shared by all warps of one threadblock."""

    block_id: int
    threads: int
    warps: int
    scratchpad: Scratchpad
    shared: dict = field(default_factory=dict)

    # Engine-internal barrier bookkeeping.
    barrier_waiting: list = field(default_factory=list)
    live_warps: int = 0
    done_warps: int = 0
    sm_index: int = -1
    # I/O preemption bookkeeping (§VII what-if).
    io_stalled: int = 0
    preempted: bool = False

    def warp_id(self, warp_in_block: int) -> int:
        """Global warp id, as kernels and traces see it."""
        return self.block_id * self.warps + warp_in_block


class WarpContext:
    """Per-warp execution context handed to kernels.

    Exposes lane identity, global memory access, scratchpad access, warp
    intrinsics, locks, barriers, and the raw ``charge``/``compute`` cost
    hooks used by the ActivePointers layer.
    """

    #: Runtime sanitizer (``repro.analysis.sanitizer``) observing this
    #: warp, or ``None``.  A class attribute so instrumentation sites
    #: (``APtr.__init__``, ``GPUfs.gmmap``) pay one attribute test when
    #: sanitization is off, mirroring the ``tracer is None`` guard.
    sanitizer = None

    def __init__(self, spec: GPUSpec, memory: GlobalMemory,
                 block: BlockContext, warp_in_block: int, tracer=None):
        self.spec = spec
        self.memory = memory
        self.block = block
        self.tracer = tracer
        self.warp_in_block = warp_in_block
        self.warp_size = spec.warp_size
        self.lane = wp.lane_ids(spec.warp_size)
        self.active = np.ones(spec.warp_size, dtype=bool)
        tid0 = block.block_id * block.threads + warp_in_block * spec.warp_size
        self.global_tid = tid0 + self.lane
        self.block_tid = warp_in_block * spec.warp_size + self.lane
        self._pending_count = 0.0
        self._pending_chain = 0.0
        # Attribution state, only maintained while a tracer is attached
        # (the stall-interval recording of ``repro.telemetry.attribution``):
        # ``_activity`` is a stack of activity tags ("translation",
        # "fault_wait", ...) and ``_pending_tags`` splits the pending
        # charge per tag so the engine can decompose it later.
        self._activity: list[str] = []
        self._pending_tags: dict[str, list] = {}
        # Causal request spans: ``begin_request`` mints a deterministic
        # id at warp fault / syscall entry; every span recorded until
        # the matching ``end_request`` carries it, linking translation,
        # fault handling, readahead and staging for one logical request.
        self._request_depth = 0
        self._request_seq = 0
        self._request_id = ""
        self.now = 0.0

    # ------------------------------------------------------------------
    # Identity helpers
    # ------------------------------------------------------------------
    @property
    def block_id(self) -> int:
        return self.block.block_id

    @property
    def warp_id(self) -> int:
        return self.block.warp_id(self.warp_in_block)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def trace_span(self, kind: str, start: float, end: float,
                   detail: str = "") -> None:
        """Record a layer-level span (fault handling, page-in, ...).

        No-op without an attached tracer; call sites on hot paths should
        still guard with ``if ctx.tracer is not None`` so they do not
        pay for building ``detail`` strings when tracing is off.
        """
        if self.tracer is None:
            return
        self.tracer.record(self.warp_id, self.block_id, kind, start, end,
                           detail, sm=self.block.sm_index,
                           req=self._request_id)

    def begin_request(self) -> None:
        """Open a causal request scope (pair with :meth:`end_request`,
        ideally via ``try/finally``).

        At the outermost entry a request id ``"0:<warp>:<seq>"`` is
        minted from simulated state only — deterministic across reruns
        and across ``jobs=1``/``jobs=N`` sharding.  The leading device
        field is 0 because an engine runs one device; a sharded cluster
        merge rebases it to the shard index.  Nested
        begins (a syscall whose page loop faults, a fault whose
        handler issues readahead) reuse the outer id, so every span a
        warp records until the matching end shares one request.  No-op
        without a tracer — zero-cost when tracing is off.
        """
        if self.tracer is None:
            return
        if self._request_depth == 0:
            self._request_id = f"0:{self.warp_id}:{self._request_seq}"
            self._request_seq += 1
        self._request_depth += 1

    def end_request(self) -> None:
        """Close the innermost causal request scope."""
        if self.tracer is None:
            return
        if self._request_depth > 0:
            self._request_depth -= 1
            if self._request_depth == 0:
                self._request_id = ""

    def push_activity(self, tag: str) -> None:
        """Enter an attribution activity (pair with :meth:`pop_activity`,
        ideally via ``try/finally``).  While active, charged work and
        yielded requests are tagged ``tag`` so the stall-interval
        recorder can name the reason a warp was not issuing.  No-op
        without a tracer — attribution is zero-cost when off."""
        if self.tracer is not None:
            self._activity.append(tag)

    def pop_activity(self) -> None:
        if self.tracer is not None and self._activity:
            self._activity.pop()

    @property
    def activity(self) -> str:
        """The innermost active attribution tag ('' when none)."""
        return self._activity[-1] if self._activity else ""

    # ------------------------------------------------------------------
    # Instruction cost accounting
    # ------------------------------------------------------------------
    def charge(self, count: float, chain: Optional[float] = None,
               tag: str = "") -> None:
        """Record ``count`` warp-instructions of un-yielded work.

        The cost is folded into the next timed request the warp issues,
        exactly as real ALU instructions occupy issue slots between
        memory operations.  ``tag`` attributes the work to an activity
        ("translation", ...) for the stall recorder; it defaults to the
        innermost :meth:`push_activity` tag and is only tracked while a
        tracer is attached — timing is identical either way.
        """
        chain = count if chain is None else chain
        self._pending_count += count
        self._pending_chain += chain
        if self.tracer is not None:
            tag = tag or self.activity
            if tag:
                slot = self._pending_tags.get(tag)
                if slot is None:
                    self._pending_tags[tag] = [count, chain]
                else:
                    slot[0] += count
                    slot[1] += chain

    def _take_pending(self) -> tuple[float, float, Optional[dict]]:
        count, chain = self._pending_count, self._pending_chain
        self._pending_count = 0.0
        self._pending_chain = 0.0
        tags = self._pending_tags or None
        if tags is not None:
            self._pending_tags = {}
        return count, chain, tags

    def _tagged(self, req: Request, tags: Optional[dict],
                tag: str = "") -> Request:
        """Attach attribution metadata to an outgoing request (only when
        a tracer is attached; otherwise the class defaults stay)."""
        if self.tracer is not None:
            tag = tag or self.activity
            if tag:
                req.tag = tag
            if tags:
                req.tags = tags
        return req

    def compute(self, count: float, chain: Optional[float] = None
                ) -> Iterator[Request]:
        """Explicitly execute a block of ALU work now."""
        pc, pch, tags = self._take_pending()
        chain = count if chain is None else chain
        self.now = yield self._tagged(
            Compute(count=count + pc, chain=chain + pch), tags)

    def flush(self) -> Iterator[Request]:
        """Flush any pending charged instructions as a compute op."""
        pc, pch, tags = self._take_pending()
        if pc or pch:
            self.now = yield self._tagged(Compute(count=pc, chain=pch),
                                          tags)

    # ------------------------------------------------------------------
    # Global memory
    # ------------------------------------------------------------------
    def load(self, addrs, dtype: str = "f4", mask=None,
             overlap_chain: float = 0.0, post_chain: float = 0.0,
             chain_tag: str = "") -> Iterator[Request]:
        """Warp-wide gather from global memory.

        ``overlap_chain`` and ``post_chain`` support the speculative
        prefetch optimisation (§IV-B): the overlap chain runs while the
        data is in flight; the post chain runs after it arrives.
        ``chain_tag`` attributes those chains to an activity for the
        stall recorder (the translation layer passes ``"translation"``).
        """
        addrs = self._addr_vec(addrs)
        width = int(np.dtype(dtype).itemsize)
        tx = self.memory.transactions_for(addrs, width, mask=mask)
        pc, pch, tags = self._take_pending()
        req = MemAccess(transactions=tx, is_store=False, count=pc,
                        chain=pch, overlap_chain=overlap_chain,
                        post_chain=post_chain)
        if chain_tag and self.tracer is not None:
            req.chain_tag = chain_tag
        self.now = yield self._tagged(req, tags)
        return self.memory.load_vector(addrs, dtype, mask=mask)

    def store(self, addrs, values, dtype: str = "f4", mask=None
              ) -> Iterator[Request]:
        """Warp-wide scatter to global memory (write-back, non-stalling)."""
        addrs = self._addr_vec(addrs)
        width = int(np.dtype(dtype).itemsize)
        tx = self.memory.transactions_for(addrs, width, mask=mask)
        self.memory.store_vector(addrs, values, dtype, mask=mask)
        pc, pch, tags = self._take_pending()
        self.now = yield self._tagged(
            MemAccess(transactions=tx, is_store=True, count=pc,
                      chain=pch), tags)

    def load_wide(self, addrs, dtype: str = "f4", elems: int = 4,
                  mask=None, overlap_chain: float = 0.0,
                  post_chain: float = 0.0,
                  nonblocking: bool = False,
                  chain_tag: str = "") -> Iterator[Request]:
        """Vector load: ``elems`` consecutive elements per lane in one
        memory transaction group (the 8/16-byte loads of §VI-A/B).

        ``nonblocking`` issues the load without waiting for the data
        (memory-level parallelism); call :meth:`fence` before using the
        values' timing-wise.
        """
        addrs = self._addr_vec(addrs)
        width = int(np.dtype(dtype).itemsize) * elems
        tx = self.memory.transactions_for(addrs, width, mask=mask)
        pc, pch, tags = self._take_pending()
        req = MemAccess(transactions=tx, is_store=False, count=pc,
                        chain=pch, overlap_chain=overlap_chain,
                        post_chain=post_chain,
                        nonblocking=nonblocking)
        if chain_tag and self.tracer is not None:
            req.chain_tag = chain_tag
        self.now = yield self._tagged(req, tags)
        return self.memory.load_vector_wide(addrs, dtype, elems, mask=mask)

    def fence(self) -> Iterator[Request]:
        """Wait for all outstanding non-blocking loads to arrive."""
        yield from self.flush()
        self.now = yield LoadFence()

    def store_wide(self, addrs, values, dtype: str = "f4",
                   mask=None) -> Iterator[Request]:
        """Vector store: ``values`` of shape (lanes, elems) written as one
        wide access per lane."""
        addrs = self._addr_vec(addrs)
        values = np.asarray(values)
        elems = values.shape[1]
        width = int(np.dtype(dtype).itemsize)
        tx = self.memory.transactions_for(addrs, width * elems, mask=mask)
        self.memory.store_vector(addrs, values, dtype, mask=mask)
        pc, pch, tags = self._take_pending()
        self.now = yield self._tagged(
            MemAccess(transactions=tx, is_store=True, count=pc,
                      chain=pch), tags)

    def load_scalar(self, addr: int, dtype: str = "u8") -> Iterator[Request]:
        """Single-address load performed by the warp leader."""
        vals = yield from self.load(np.full(1, int(addr), np.int64), dtype)
        return vals[0]

    def store_scalar(self, addr: int, value, dtype: str = "u8"
                     ) -> Iterator[Request]:
        """Single-address store performed by the warp leader."""
        yield from self.store(np.full(1, int(addr), np.int64),
                              np.array([value], dtype=np.dtype(dtype)),
                              dtype)

    def atomic_add(self, addr: int, value: int = 1,
                   dtype: str = "i8") -> Iterator[Request]:
        """Scalar atomic add at a global address; returns the old value."""
        old = int(self.memory.load_vector(
            np.array([addr]), dtype)[0])
        self.memory.store_vector(np.array([addr]),
                                 np.array([old + value]), dtype)
        self.now = yield self._tagged(AtomicOp(address=int(addr)), None)
        return old

    # ------------------------------------------------------------------
    # Scratchpad
    # ------------------------------------------------------------------
    def scratch(self, count: float = 1.0) -> Iterator[Request]:
        """Charge a scratchpad access (data lives in ``block.scratchpad``)."""
        pc, pch, tags = self._take_pending()
        if pc or pch:
            self.now = yield self._tagged(Compute(count=pc, chain=pch),
                                          tags)
        self.now = yield self._tagged(ScratchAccess(count=count), None)

    # ------------------------------------------------------------------
    # Warp intrinsics (single-instruction cost, charged lazily)
    # ------------------------------------------------------------------
    def ballot(self, pred) -> int:
        self.charge(1)
        return wp.ballot(pred, self.active)

    def all(self, pred) -> bool:
        self.charge(1)
        return wp.all_sync(pred, self.active)

    def any(self, pred) -> bool:
        self.charge(1)
        return wp.any_sync(pred, self.active)

    def shfl(self, values, src_lane: int) -> np.ndarray:
        self.charge(1)
        return wp.shfl(values, src_lane)

    def shfl_xor(self, values, lane_mask: int) -> np.ndarray:
        self.charge(1)
        return wp.shfl_xor(values, lane_mask)

    def shfl_down(self, values, delta: int) -> np.ndarray:
        self.charge(1)
        return wp.shfl_down(values, delta)

    @staticmethod
    def ffs(mask: int) -> int:
        return wp.ffs(mask)

    @staticmethod
    def popc(mask: int) -> int:
        return wp.popc(mask)

    # ------------------------------------------------------------------
    # Synchronisation
    # ------------------------------------------------------------------
    def syncthreads(self) -> Iterator[Request]:
        yield from self.flush()
        self.now = yield Barrier()

    def lock(self, lock: TimedLock) -> Iterator[Request]:
        yield from self.flush()
        self.now = yield self._tagged(AcquireLock(lock), None)

    def unlock(self, lock: TimedLock) -> Iterator[Request]:
        self.now = yield ReleaseLock(lock)

    # ------------------------------------------------------------------
    # Host interaction (used by the paging layer)
    # ------------------------------------------------------------------
    def pcie(self, nbytes: int, to_device: bool = True,
             latency_free: bool = False) -> Iterator[Request]:
        yield from self.flush()
        self.now = yield self._tagged(
            PcieTransfer(nbytes=int(nbytes), to_device=to_device,
                         latency_free=latency_free), None)

    def host_compute(self, seconds: float) -> Iterator[Request]:
        self.now = yield self._tagged(
            HostCompute(seconds=float(seconds)), None)

    def sleep(self, cycles: float,
              io_wait: bool = False) -> Iterator[Request]:
        self.now = yield self._tagged(
            Sleep(cycles=float(cycles), io_wait=io_wait), None)

    def clock(self) -> Iterator[Request]:
        """Return the current simulated cycle count (GPU ``clock()``).

        Flushes charged-but-pending instructions first, so a timed
        region includes the cost of the arithmetic inside it.
        """
        yield from self.flush()
        self.now = yield Sleep(cycles=0.0)
        return self.now

    # ------------------------------------------------------------------
    def _addr_vec(self, addrs) -> np.ndarray:
        addrs = np.asarray(addrs, dtype=np.int64)
        if addrs.ndim == 0:
            addrs = np.full(self.warp_size, int(addrs), dtype=np.int64)
        return addrs


KernelFn = Callable[..., Iterator[Request]]
