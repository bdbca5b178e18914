"""Event-driven warp scheduler: one event heap drives every warp.

The engine advances one warp coroutine per event.  Each yielded request
reserves the resources it needs:

* **Issue server** (one per SM): ``count / effective_ipc`` cycles of the
  SM's instruction issue bandwidth, shared with every warp resident on
  that SM.
* **DRAM server** (one per GPU): ``transactions * 128`` bytes against the
  achievable memory bandwidth, plus a fixed access latency visible only
  to the issuing warp.
* **PCIe server** (one per GPU): fixed per-transaction cost plus bytes at
  link bandwidth — which is why the paging layer batches 4 KB pages.
* **Host server**: serialises host-side work, modelling the CPU-centric
  bottleneck the paper argues against (Figure 1 vs. Figure 2).

Latency hiding is emergent: a warp stalled on memory does not occupy the
issue server, so other resident warps run in the meantime.  With one warp
the latency chain dominates (the paper's Table I regime); with many the
servers saturate and only issue- or bandwidth-bound costs remain (the
Table II / Figure 6 regime).

Event loop
----------

One ``heapq`` of ``(time, seq, runner)`` entries drives the loop.
Sequence numbers are globally monotonic, so events at one timestamp run
in the order they were scheduled, and a run is deterministic.  The
absolute cycles of the workload registry are pinned by
``tests/gpu/test_engine_golden.py``.

The dispatch handlers are looked up by request type in a handler table
(:attr:`Engine._handlers`) instead of an ``isinstance`` chain.  The
tracer / profile / sampler instrumentation arrives bundled in one
:class:`~repro.gpu.launch.EngineHooks` object, which the engine turns
into one :class:`~repro.gpu.launch.EngineObserver` per launch: each
issue, stall, DRAM, PCIe, macro-op and translation event is sent once,
behind one ``is not None`` test per event site, so every sink sees the
same intervals and instrumented runs stay cycle-bit-identical to
uninstrumented ones.  :meth:`Engine.launch` takes a
:class:`~repro.gpu.launch.LaunchPlan` and runs it to completion.

For sharded epoch execution (:mod:`repro.gpu.sharded`) the loop is also
exposed incrementally: :meth:`Engine.begin` seeds the launch wave,
:meth:`Engine.advance` drains events up to an epoch horizon, and
host-compute requests can be *parked* (:meth:`Engine.gate_host`) so a
parent process can serialise the shared host server deterministically.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field, fields

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
    ScratchAccess,
    Sleep,
)
from repro.gpu.kernel import BlockContext
from repro.gpu.launch import EngineHooks, EngineObserver, FanOut, LaunchPlan
from repro.gpu.specs import GPUSpec
from repro.gpu.trace import TraceObserver

_INF = math.inf

@dataclass
class EngineStats:
    """Aggregate counters for one kernel launch."""

    cycles: float = 0.0
    instructions: float = 0.0
    dram_bytes: int = 0
    dram_transactions: int = 0
    loads: int = 0
    stores: int = 0
    atomics: int = 0
    scratch_accesses: float = 0.0
    barriers: int = 0
    lock_acquisitions: int = 0
    lock_contentions: int = 0
    pcie_bytes: int = 0
    pcie_transactions: int = 0
    host_seconds: float = 0.0
    preemptions: int = 0
    # Resource busy time (cycles), for bottleneck analysis.
    issue_busy: float = 0.0
    dram_busy: float = 0.0
    pcie_busy: float = 0.0
    sleep_cycles: float = 0.0

    def dram_bandwidth(self, spec: GPUSpec) -> float:
        """Achieved DRAM bandwidth in bytes/second."""
        if self.cycles <= 0:
            return 0.0
        return self.dram_bytes / spec.cycles_to_seconds(self.cycles)

    @classmethod
    def merged(cls, parts: list["EngineStats"]) -> "EngineStats":
        """Merge per-shard stats: counters sum, cycles is the makespan."""
        out = cls()
        for part in parts:
            for f in fields(cls):
                setattr(out, f.name,
                        getattr(out, f.name) + getattr(part, f.name))
        out.cycles = max((p.cycles for p in parts), default=0.0)
        return out


@dataclass
class EngineProfile(EngineObserver):
    """Deep per-launch counters, collected only when profiling is on.

    An :class:`~repro.gpu.launch.EngineObserver` sink: the engine sends
    it the same events it sends the tracer and the sampler, so an
    unprofiled launch pays one pointer test per event and nothing else.

    * ``sm_busy`` — issue-server busy cycles per SM; idle is the launch
      span minus busy (the per-SM utilisation of the paper's Figure 6
      occupancy sweeps).
    * ``stalls`` — cycles warps spent not issuing, keyed by reason
      (``memory``, ``barrier``, ``lock``, ``atomic``, ``io``, ``spin``,
      ``sleep``, ``issue_queue``, ``exec_dependency``, ``scratch``):
      the summed lengths of exactly the ``stall`` spans a trace of the
      launch records, keyed by kind instead of by activity tag.
    * ``dram_queue_cycles`` — time memory accesses waited for the DRAM
      bandwidth server beyond their own issue/dependency chain, i.e.
      pure bandwidth contention.
    """

    sm_busy: list[float] = field(default_factory=list)
    stalls: dict[str, float] = field(default_factory=dict)
    dram_queue_cycles: float = 0.0
    dram_queued_accesses: int = 0

    @classmethod
    def for_sms(cls, total_sms: int) -> "EngineProfile":
        return cls(sm_busy=[0.0] * total_sms)

    def issue(self, warp, sm, start, cycles, count):
        self.sm_busy[sm] += cycles

    def stall(self, warp, kind, tag, start, end):
        if end > start:
            self.stalls[kind] = self.stalls.get(kind, 0.0) + (end - start)

    def dram(self, start, nbytes, transactions, busy, queue):
        self.dram_queue_cycles += queue
        self.dram_queued_accesses += 1

    @classmethod
    def merged(cls, parts: list["EngineProfile"]) -> "EngineProfile":
        """Merge per-shard profiles: ``sm_busy`` concatenates in shard
        order (shard *i* owns device *i*'s SMs), stall buckets and DRAM
        queue counters sum."""
        out = cls()
        for part in parts:
            out.sm_busy.extend(part.sm_busy)
            for reason, cycles in part.stalls.items():
                out.stalls[reason] = out.stalls.get(reason, 0.0) + cycles
            out.dram_queue_cycles += part.dram_queue_cycles
            out.dram_queued_accesses += part.dram_queued_accesses
        return out


class _WarpRunner:
    """Engine-side handle for one executing warp coroutine."""

    __slots__ = ("gen", "block", "started", "outstanding", "warp_id",
                 "io_stalled", "pending_req")

    def __init__(self, gen, block: BlockContext, warp_id: int = 0):
        self.gen = gen
        self.block = block
        self.started = False
        self.outstanding = 0.0   # completion time of in-flight async loads
        self.warp_id = warp_id   # global id, as the kernel sees it
        self.io_stalled = False  # currently waiting on a host transfer
        self.pending_req = None  # sliced request awaiting re-dispatch


class Engine:
    """Executes a grid of threadblocks on the simulated GPU."""

    def __init__(self, spec: GPUSpec, blocks_per_sm: int,
                 hooks: EngineHooks | None = None):
        self.spec = spec
        self.blocks_per_sm = max(1, blocks_per_sm)
        self._set_hooks(hooks if hooks is not None else EngineHooks())
        self.stats = EngineStats()
        self._issue_avail = [0.0] * spec.num_sms
        self._dram_avail = 0.0
        self._pcie_avail = 0.0
        self._host_avail = 0.0
        self._atomic_avail: dict[int, float] = {}
        self._heap: list = []
        self._seq = itertools.count()
        self._pending: list = []        # block factories not yet started
        self._eff_ipc = spec.effective_issue_rate()
        self._extra_blocks = [0] * spec.num_sms   # preemption slots used
        self._dram_bpc = spec.dram_bytes_per_cycle()
        self._pcie_bpc = spec.pcie_bytes_per_cycle()
        self._end_time = 0.0
        self._host_gated = False
        self._parked = None      # (req, runner, arrival) awaiting grant
        self._handlers = {
            Compute: self._h_compute,
            MemAccess: self._h_mem,
            ScratchAccess: self._h_scratch,
            AtomicOp: self._h_atomic,
            LoadFence: self._h_fence,
            Barrier: self._h_barrier,
            AcquireLock: self._h_acquire,
            ReleaseLock: self._h_release,
            PcieTransfer: self._h_pcie,
            HostCompute: self._h_host,
            Sleep: self._h_sleep,
        }

    # -- hooks ---------------------------------------------------------
    def _set_hooks(self, hooks: EngineHooks) -> None:
        # Read back by the telemetry profiler and the sharded merge.
        self.profile = hooks.profile
        sinks = [sink for sink in (
            hooks.profile, hooks.sampler,
            None if hooks.tracer is None else TraceObserver(hooks.tracer))
            if sink is not None]
        self._obs = (None if not sinks else sinks[0] if len(sinks) == 1
                     else FanOut(sinks))

    # -- entry points --------------------------------------------------
    def launch(self, plan: LaunchPlan) -> float:
        """Run one :class:`~repro.gpu.launch.LaunchPlan` to completion.

        Returns total elapsed cycles.  ``plan.blocks_per_sm`` and
        ``plan.hooks`` override the constructor defaults when set.
        """
        if plan.blocks_per_sm is not None:
            self.blocks_per_sm = max(1, plan.blocks_per_sm)
        if plan.hooks is not None:
            self._set_hooks(plan.hooks)
        self.begin(plan.factories)
        self.advance()
        return self.finish()

    # -- incremental interface (used by launch() and repro.gpu.sharded)
    def begin(self, factories) -> None:
        """Seed the launch from the device's block factories.

        Breadth-first initial wave: one block per SM, then a second
        round, as the hardware block scheduler does.
        """
        self._pending = list(factories)
        for _ in range(self.blocks_per_sm):
            for sm in range(self.spec.num_sms):
                if not self._pending:
                    break
                self._start_next_block(sm, 0.0)

    def advance(self, horizon: float = _INF) -> float:
        """Drain events with time ≤ ``horizon`` (all of them by default).

        Stops early when a host-compute request parks (see
        :meth:`gate_host`).  Returns the next pending event time, or
        ``inf`` when the launch has fully drained.
        """
        heap = self._heap
        step = self._step
        while heap and heap[0][0] <= horizon:
            time, _, runner = heapq.heappop(heap)
            step(runner, time)
            if self._parked is not None:
                break
        return self.peek()

    def peek(self) -> float:
        """Next pending event time (``inf`` when drained)."""
        return self._heap[0][0] if self._heap else _INF

    def finish(self) -> float:
        """Record and return total elapsed cycles."""
        self.stats.cycles = self._end_time
        return self._end_time

    # ------------------------------------------------------------------
    def _start_next_block(self, sm: int, time: float) -> bool:
        if not self._pending:
            return False
        block, gens = self._pending.pop(0)()
        block.sm_index = sm
        block.live_warps = len(gens)
        block.done_warps = 0
        for w, gen in enumerate(gens):
            self._schedule(_WarpRunner(gen, block, block.warp_id(w)), time)
        return True

    def _schedule(self, runner: _WarpRunner, time: float) -> None:
        heapq.heappush(self._heap, (time, next(self._seq), runner))
        if time > self._end_time:
            self._end_time = time

    def _finish_warp(self, runner: _WarpRunner, time: float) -> None:
        block = runner.block
        block.done_warps += 1
        self._end_time = max(self._end_time, time)
        self._release_barrier_if_complete(block, time)
        if block.done_warps == block.live_warps:
            self._start_next_block(block.sm_index, time)

    # -- sharded host serialisation ------------------------------------
    def gate_host(self) -> None:
        """Park host-compute requests instead of serving them locally.

        In sharded execution the host server is owned by the parent:
        a gated engine stops draining the moment a warp yields
        :class:`HostCompute` (strict stop), exposes the request via
        :meth:`parked_host`, and resumes on :meth:`grant_host`.
        """
        self._host_gated = True

    @property
    def parked(self) -> bool:
        return self._parked is not None

    def parked_host(self) -> tuple[float, float]:
        """(arrival cycle, host seconds) of the parked request."""
        req, _, now = self._parked
        return now, req.seconds

    def grant_host(self, start: float, done: float) -> None:
        """Serve the parked host request with parent-assigned timing."""
        req, runner, now = self._parked
        self._parked = None
        self._host_avail = done
        self._complete_host(req, runner, now, start, done)

    # ------------------------------------------------------------------
    #: Issue-slice size (warp-instructions).  Large instruction blocks
    #: are fed to the issue pipeline in slices so warps interleave
    #: fairly, as the hardware's round-robin scheduler does — a single
    #: FIFO reservation per macro-op would let one warp's long compute
    #: serialise every other warp's small ops behind it.  The slice is
    #: deliberately coarse: fault-path instruction charges (~150-250)
    #: must stay atomic or their requeueing inflates lock hold times.
    ISSUE_SLICE = 512.0

    def _step(self, runner: _WarpRunner, now: float) -> None:
        if self._obs is not None:
            # Event times are monotonic and every interval reported
            # below ends at or after ``now``, so the sampler's windows
            # ending before it are complete and can stream out.
            self._obs.advance(now)
        if runner.io_stalled:
            runner.io_stalled = False
            runner.block.io_stalled -= 1
        if runner.pending_req is not None:
            req = runner.pending_req
            runner.pending_req = None
            self._dispatch(req, runner, now)
            return
        try:
            if runner.started:
                req = runner.gen.send(now)
            else:
                runner.started = True
                req = next(runner.gen)
        except StopIteration:
            self._finish_warp(runner, now)
            return
        self._dispatch(req, runner, now)

    def _slice_issue(self, req, runner: _WarpRunner, now: float,
                     sm: int) -> bool:
        """Issue one slice of an oversized instruction block; returns
        True if the request was sliced (and re-queued)."""
        if req.count <= self.ISSUE_SLICE:
            return False
        spec = self.spec
        start = max(now, self._issue_avail[sm])
        issue_time = self.ISSUE_SLICE / self._eff_ipc
        self._issue_avail[sm] = start + issue_time
        self.stats.issue_busy += issue_time
        self.stats.instructions += self.ISSUE_SLICE
        req.count -= self.ISSUE_SLICE
        chain = (req.chain_length() if isinstance(req, Compute)
                 else req.chain)
        used = min(chain, self.ISSUE_SLICE)
        req.chain = chain - used
        latency = used * spec.dependent_issue_cycles
        wake = start + max(issue_time, latency)
        obs = self._obs
        if obs is not None:
            obs.stall(runner, "issue_queue", "", now, start)
            obs.issue(runner, sm, start, issue_time, self.ISSUE_SLICE)
            obs.stall(runner, "exec_dependency", req.tag,
                      start + issue_time, wake)
        runner.pending_req = req
        self._schedule(runner, wake)
        return True

    # -- dispatch ------------------------------------------------------
    def _dispatch(self, req, runner: _WarpRunner, now: float) -> None:
        handler = self._handlers.get(type(req))
        if handler is None:
            # Subclassed requests fall back to an isinstance scan once,
            # then dispatch via the table like everything else.
            for base, fn in list(self._handlers.items()):
                if isinstance(req, base):
                    self._handlers[type(req)] = handler = fn
                    break
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown request {req!r}")
        handler(req, runner, now)

    def _h_compute(self, req: Compute, runner: _WarpRunner,
                   now: float) -> None:
        spec = self.spec
        sm = runner.block.sm_index
        if self._slice_issue(req, runner, now, sm):
            return
        start = max(now, self._issue_avail[sm])
        issue_time = req.count / self._eff_ipc
        self._issue_avail[sm] = start + issue_time
        self.stats.issue_busy += issue_time
        latency = (spec.macro_op_overhead_cycles
                   + req.chain_length() * spec.dependent_issue_cycles)
        self.stats.instructions += req.count
        done = start + max(issue_time, latency)
        obs = self._obs
        if obs is not None:
            obs.op(runner, req, start, done)
            obs.stall(runner, "issue_queue", "", now, start)
            obs.issue(runner, sm, start, issue_time, req.count)
            obs.stall(runner, "exec_dependency", req.tag,
                      start + issue_time, done)
            tr = (req.tags.get("translation")
                  if req.tags is not None else None)
            if tr is not None:
                # Counterfactual: where the warp would resume with the
                # translation share of the chain removed.
                pre = (min(tr[1], req.chain_length())
                       * spec.dependent_issue_cycles)
                done0 = start + max(issue_time, latency - pre)
                pre_x = done - done0
                obs.translation(runner, start, done,
                                tr[0] / self._eff_ipc, pre_x, pre - pre_x)
        self._schedule(runner, done)

    def _h_scratch(self, req: ScratchAccess, runner: _WarpRunner,
                   now: float) -> None:
        spec = self.spec
        sm = runner.block.sm_index
        start = max(now, self._issue_avail[sm])
        issue_time = req.count / self._eff_ipc
        self._issue_avail[sm] = start + issue_time
        self.stats.instructions += req.count
        self.stats.scratch_accesses += req.count
        done = start + max(issue_time, spec.scratchpad_latency_cycles)
        obs = self._obs
        if obs is not None:
            obs.op(runner, req, start, done)
            obs.stall(runner, "issue_queue", "", now, start)
            obs.issue(runner, sm, start, issue_time, req.count)
            obs.stall(runner, "scratch", req.tag, start + issue_time, done)
        self._schedule(runner, done)

    def _h_atomic(self, req: AtomicOp, runner: _WarpRunner,
                  now: float) -> None:
        spec = self.spec
        avail = self._atomic_avail.get(req.address, 0.0)
        start = max(now, avail)
        # Pipelined: the address accepts another atomic after the
        # issue interval; the issuing warp sees the full latency.
        self._atomic_avail[req.address] = (
            start + spec.atomic_interval_cycles)
        self.stats.atomics += 1
        done = start + spec.atomic_latency_cycles
        obs = self._obs
        if obs is not None:
            obs.op(runner, req, start, done)
            obs.stall(runner, "atomic", req.tag, now, done)
        self._schedule(runner, done)

    def _h_fence(self, req: LoadFence, runner: _WarpRunner,
                 now: float) -> None:
        if self._obs is not None:
            self._obs.stall(runner, "memory", req.tag, now,
                            runner.outstanding)
        self._schedule(runner, max(now, runner.outstanding))

    def _h_acquire(self, req: AcquireLock, runner: _WarpRunner,
                   now: float) -> None:
        spec = self.spec
        lock = req.lock
        lock.acquisitions += 1
        cost = (spec.atomic_latency_cycles if lock.latency is None
                else lock.latency)
        if lock.holder is None:
            lock.holder = runner
            self.stats.lock_acquisitions += 1
            if self._obs is not None:
                self._obs.stall(runner, "lock", req.tag, now, now + cost)
            self._schedule(runner, now + cost)
        else:
            lock.contended += 1
            self.stats.lock_contentions += 1
            lock.waiters.append((runner, now, req.tag))

    def _h_release(self, req: ReleaseLock, runner: _WarpRunner,
                   now: float) -> None:
        spec = self.spec
        lock = req.lock
        lock.holder = None
        if lock.waiters:
            waiter, enqueued, wtag = lock.waiters.pop(0)
            lock.holder = waiter
            self.stats.lock_acquisitions += 1
            cost = (spec.atomic_latency_cycles if lock.latency is None
                    else lock.latency)
            if self._obs is not None:
                self._obs.stall(waiter, "lock", wtag, enqueued, now + cost)
            self._schedule(waiter, now + cost)
        self._schedule(runner, now)

    def _h_pcie(self, req: PcieTransfer, runner: _WarpRunner,
                now: float) -> None:
        # The link is busy only while bytes move (DMA engines
        # pipeline); the fixed latency is visible to the requesting
        # warp but does not serialise the link.  Host-side per-batch
        # setup costs go through HostCompute instead — that is the
        # CPU-centric bottleneck of the paper's Figure 1.
        spec = self.spec
        start = max(now, self._pcie_avail)
        xfer = req.nbytes / self._pcie_bpc
        self._pcie_avail = start + xfer
        self.stats.pcie_busy += xfer
        self.stats.pcie_bytes += req.nbytes
        self.stats.pcie_transactions += 1
        fixed = 0.0 if req.latency_free else spec.pcie_latency_cycles()
        done = start + xfer + fixed
        obs = self._obs
        if obs is not None:
            obs.pcie(start, req.nbytes, xfer)
            obs.op(runner, req, start, done)
            obs.stall(runner, "io", req.tag, now, done)
        self._maybe_preempt(runner, now, done)
        self._schedule(runner, done)

    def _h_host(self, req: HostCompute, runner: _WarpRunner,
                now: float) -> None:
        if self._host_gated:
            # Sharded execution: the parent owns the host server.
            # Park and strict-stop; grant_host() replays completion
            # with the parent's serialised timing.
            self._parked = (req, runner, now)
            return
        start = max(now, self._host_avail)
        done = start + req.seconds * self.spec.clock_hz
        self._host_avail = done
        self._complete_host(req, runner, now, start, done)

    def _complete_host(self, req: HostCompute, runner: _WarpRunner,
                       now: float, start: float, done: float) -> None:
        self.stats.host_seconds += req.seconds
        obs = self._obs
        if obs is not None:
            obs.op(runner, req, start, done)
            obs.stall(runner, "io", req.tag, now, done)
        self._maybe_preempt(runner, now, done)
        self._schedule(runner, done)

    def _h_sleep(self, req: Sleep, runner: _WarpRunner,
                 now: float) -> None:
        self.stats.sleep_cycles += req.cycles
        obs = self._obs
        if obs is not None and req.cycles:
            obs.op(runner, req, now, now + req.cycles)
            obs.stall(runner, "spin" if req.io_wait else "sleep",
                      req.tag, now, now + req.cycles)
        if req.io_wait:
            self._maybe_preempt(runner, now, now + req.cycles)
        self._schedule(runner, now + req.cycles)

    def _h_mem(self, req: MemAccess, runner: _WarpRunner,
               now: float) -> None:
        sm = runner.block.sm_index
        if self._slice_issue(req, runner, now, sm):
            return
        spec = self.spec
        dep = spec.dependent_issue_cycles
        start = max(now, self._issue_avail[sm])
        issue_time = (req.count + 1) / self._eff_ipc
        issued = start + issue_time
        self._issue_avail[sm] = issued
        self.stats.issue_busy += issue_time
        self.stats.instructions += req.count + 1
        nbytes = req.transactions * spec.dram_transaction_bytes
        self.stats.dram_bytes += nbytes
        self.stats.dram_transactions += req.transactions
        # Serial chain before the access can be issued.
        pre_done = start + spec.macro_op_overhead_cycles + req.chain * dep
        dram_avail = self._dram_avail
        dram_start = max(pre_done, dram_avail)
        dram_busy = nbytes / self._dram_bpc
        self._dram_avail = dram_start + dram_busy
        self.stats.dram_busy += dram_busy
        if req.is_store:
            self.stats.stores += 1
        else:
            self.stats.loads += 1
            data_ready = dram_start + spec.dram_latency_cycles
        if req.is_store or req.nonblocking:
            # The warp keeps issuing once the access is out; a
            # non-blocking load (memory-level parallelism) is waited
            # for by a later LoadFence, at its slowest outstanding load.
            if not req.is_store:
                runner.outstanding = max(runner.outstanding, data_ready)
            kind = "exec_dependency"
            resume = max(pre_done, issued)
        else:
            overlap_done = pre_done + req.overlap_chain * dep
            ready = max(data_ready, overlap_done)
            ready += req.post_chain * dep
            kind = "memory"
            resume = max(ready, issued)
        obs = self._obs
        if obs is not None:
            obs.stall(runner, "issue_queue", "", now, start)
            obs.issue(runner, sm, start, issue_time, req.count + 1)
            obs.dram(dram_start, nbytes, req.transactions, dram_busy,
                     dram_start - pre_done)
            if not req.is_store:
                obs.op(runner, req, start, data_ready)
            obs.stall(runner, kind, req.tag, issued, resume)
            if req.tags is not None or req.chain_tag == "translation":
                if kind == "memory":
                    # The chain's end also gates the DRAM access start,
                    # which is still bounded by the bandwidth queue.
                    iss, lat, hid = self._mem_translation(
                        req, pre_done, dram_avail)
                    if req.chain_tag == "translation":
                        ov = req.overlap_chain * dep
                        ov_x = min(ov, max(0.0, overlap_done - data_ready))
                        lat = lat + ov_x + req.post_chain * dep
                        hid += ov - ov_x
                else:
                    iss, lat, hid = self._mem_translation(
                        req, pre_done, issued)
                obs.translation(runner, start, resume, iss, lat, hid)
        self._schedule(runner, resume)

    def _mem_translation(self, req: MemAccess, pre_done: float,
                         floor: float) -> tuple[float, float, float]:
        """Translation share ``(iss, lat, hid)`` of one memory request's
        pre-chain.  Counterfactual: with the translation part of the
        chain removed, the gated point ``max(pre_done, floor)`` would
        move to ``max(pre_done - pre, floor)``; the difference is
        exposed (``lat``), the rest of the chain hidden (``hid``)."""
        tr = req.tags.get("translation") if req.tags is not None else None
        tr_cnt = tr_chain = 0.0
        if tr is not None:
            tr_cnt, tr_chain = tr
            tr_chain = min(tr_chain, req.chain)
        pre = tr_chain * self.spec.dependent_issue_cycles
        pre_x = max(pre_done, floor) - max(pre_done - pre, floor)
        return tr_cnt / self._eff_ipc, pre_x, pre - pre_x

    # ------------------------------------------------------------------
    def _maybe_preempt(self, runner: _WarpRunner, now: float,
                       resume: float) -> None:
        """§VII I/O preemption: if every live warp of this block is now
        stalled on a host transfer and work is queued, swap in a pending
        block on this SM (the stalled block keeps its state and resumes
        when its transfers land)."""
        spec = self.spec
        block = runner.block
        if not runner.io_stalled:
            runner.io_stalled = True
            block.io_stalled += 1
        if not spec.io_preemption:
            return
        if not self._pending:
            return
        running = block.live_warps - block.done_warps
        sm = block.sm_index
        # Most of the block is off-chip: save its context and bring in
        # queued work.  Oversubscription is bounded per SM (the saved
        # contexts live in spill memory, as GPUpIO proposes).
        threshold = max(1, (3 * running) // 4)
        if block.io_stalled >= threshold and self._extra_blocks[sm] < 4:
            self._extra_blocks[sm] += 1
            self.stats.preemptions += 1
            start_at = now + spec.preemption_cost_cycles
            self._start_next_block(sm, start_at)

    # ------------------------------------------------------------------
    def _h_barrier(self, req: Barrier, runner: _WarpRunner,
                   now: float) -> None:
        block = runner.block
        block.barrier_waiting.append((runner, now))
        self.stats.barriers += 1
        self._release_barrier_if_complete(block, now)

    def _release_barrier_if_complete(self, block: BlockContext,
                                     now: float) -> None:
        waiting = block.barrier_waiting
        running = block.live_warps - block.done_warps
        if waiting and len(waiting) == running:
            release = max(t for _, t in waiting)
            block.barrier_waiting = []
            for waiter, arrived in waiting:
                if self._obs is not None:
                    self._obs.stall(waiter, "barrier", "", arrived, release)
                self._schedule(waiter, release)
