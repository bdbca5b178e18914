"""The ActivePointer: a pointer with software address translation.

An :class:`APtr` is a *warp-level* object holding per-lane pointer state,
matching how the real implementation lives in each thread's registers
while executing in SIMT lockstep.  Each lane has its own position, valid
bit, and cached aphysical address; lanes may point into different pages.

State machine (paper Figure 4):

* **uninitialized** — fresh object before a mapping is attached (here:
  construction via ``AVM.gvmmap`` initializes immediately);
* **unlinked** — the lane holds an xAddress (backing-store position);
  dereferencing triggers a page fault handled on the GPU;
* **linked** — the lane holds an aphysical address and a reference to an
  *active page* whose mapping cannot change; dereferencing is page-fault
  free and needs no table lookup.

Transitions: first access links (page fault); pointer arithmetic that
leaves the current page unlinks (proactively dropping the reference —
the paper's heuristic for keeping pinned pages few); assignment from
another apointer copies the position but stays unlinked; destruction
unlinks everything.

Page faults use the warp-level *translation aggregation* of Listing 1:
subgroups of lanes that fault on the same page elect a leader with
``__ballot``/``__ffs``, broadcast the backing address with ``__shfl``,
aggregate the reference count with ``__popc``, and the leader alone
touches shared data structures — which is what makes the handler
deadlock-free.

The per-lane arrays are the source of truth.  Beside them each pointer
keeps a :class:`_Summary` of those arrays (position range, alignment,
linked-lane count and, while every lane is linked, the aphysical
addresses), so the common warp shapes — an all-linked dereference, an
increment that stays in the lanes' shared page — cost a few scalar
tests instead of per-lane scans, as the register-cached translation
does in hardware.  A linked warp whose aphysical addresses are evenly
spaced, the coalesced line, is summarised as a
:class:`~repro.gpu.memory.LaneRange`, which global memory serves with
one slice.
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np

from repro.core import translation as tr
from repro.core.calibration import CostModel, cost_model_for
from repro.core.config import APConfig, ImplVariant, PtrFormat
from repro.gpu import warp_primitives as wp
from repro.gpu.kernel import WarpContext
from repro.gpu.memory import LaneRange


class APtrState(enum.Enum):
    UNINITIALIZED = "uninitialized"
    UNLINKED = "unlinked"
    LINKED = "linked"
    MIXED = "mixed"          # some lanes linked, some not


class ProtectionError(Exception):
    """An access violated the mapping's page permissions."""


class BoundsError(IndexError):
    """An access fell outside the mapped region."""


#: Alignment of a warp whose every position is 0 (any width divides it).
_ALIGN_ALL = 1 << 62
#: Widest lane access (a 16-byte vector load): a linked warp summarised
#: as a LaneRange has a lane stride no wider, so an access of its width
#: can take the range path.
_MAX_LANE_BYTES = 16


class _Summary:
    """Scalars derived from an :class:`APtr`'s per-lane arrays.

    ``lo``/``hi`` bound ``pos``; ``align`` is a power of two dividing
    every position (a lower bound of the exact alignment after a
    shift); ``nlinked`` counts valid lanes.  While every lane is linked,
    ``addrs`` holds each lane's aphysical address (``frame_addr`` plus
    in-page offset) and ``all_write`` whether every link is a write
    link (``None`` until a write asks); otherwise ``addrs`` is ``None``.
    Evenly spaced addresses are held as a :class:`LaneRange` (see
    :func:`_lanes`), any others as an array.
    """

    __slots__ = ("lo", "hi", "align", "nlinked", "addrs", "all_write")

    def __init__(self, lo: int, hi: int, align: int, nlinked: int,
                 addrs: Optional[np.ndarray],
                 all_write: Optional[bool]):
        self.lo = lo
        self.hi = hi
        self.align = align
        self.nlinked = nlinked
        self.addrs = addrs
        self.all_write = all_write

    @classmethod
    def of(cls, aptr: "APtr") -> "_Summary":
        """Derive the summary from ``aptr``'s per-lane arrays."""
        pos = aptr.pos
        bits = int(np.bitwise_or.reduce(pos))
        nlinked = int(np.count_nonzero(aptr.valid))
        linked = nlinked == pos.size
        return cls(int(pos.min()), int(pos.max()),
                   bits & -bits if bits else _ALIGN_ALL, nlinked,
                   _lanes(aptr.frame_addr + aptr.in_page_vec())
                   if linked else None,
                   None)

    def shift(self, delta: int) -> None:
        """Move every lane ``delta`` bytes without changing its page.

        ``addrs`` is replaced, never updated in place: a vector already
        returned by a dereference stays as it was.  A range stays a
        range.
        """
        self.lo += delta
        self.hi += delta
        if delta:
            self.align = min(self.align, delta & -delta)
        addrs = self.addrs
        if type(addrs) is LaneRange:
            self.addrs = addrs.shift(delta)
        elif addrs is not None:
            self.addrs = addrs + delta


class APtr:
    """An active pointer over one mapped region (one per warp)."""

    def __init__(self, ctx: WarpContext, avm, backend, base_offset: int,
                 size: int, write: bool):
        # -- metadata (local memory; only touched on faults, §IV-A) --
        self.avm = avm
        self.backend = backend
        self.base_offset = int(base_offset)
        self.size = int(size)
        self.readable = True
        self.writable = bool(write)
        self.config: APConfig = avm.config
        self.cost: CostModel = cost_model_for(avm.config)
        n = ctx.warp_size
        # -- per-lane translation state (hardware registers) --
        self.pos = np.zeros(n, dtype=np.int64)
        self.valid = np.zeros(n, dtype=bool)
        self.frame_addr = np.zeros(n, dtype=np.int64)
        self.linked_xpage = np.full(n, -1, dtype=np.int64)
        self.tlb_backed = np.zeros(n, dtype=bool)
        # Whether each lane's link was established by a write fault; a
        # write through a read-only link must re-fault (the upgrade
        # fault that lets paging backends observe S->M transitions).
        self.linked_write = np.zeros(n, dtype=bool)
        # Derived from the arrays above on first use; ``None`` after any
        # write to them that does not update it (see _Summary).
        self._sum: Optional[_Summary] = None
        if ctx.sanitizer is not None:
            ctx.sanitizer.register_aptr(ctx, self)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def page_size(self) -> int:
        return self.backend.page_size

    @property
    def state(self) -> APtrState:
        if self.valid.all():
            return APtrState.LINKED
        if self.valid.any():
            return APtrState.MIXED
        return APtrState.UNLINKED

    def xpage_vec(self) -> np.ndarray:
        """Backing-store page number each lane currently points into."""
        return (self.base_offset + self.pos) // self.page_size

    def in_page_vec(self) -> np.ndarray:
        return (self.base_offset + self.pos) % self.page_size

    def encoded_word(self) -> np.ndarray:
        """The packed 64-bit translation field per lane (§IV-A)."""
        perms = tr.perm_bits(self.readable, self.writable)
        # The aphysical address a dereference loads from: the frame
        # base plus the lane's in-page offset.
        aphys = (self.frame_addr + self.in_page_vec()).astype(np.uint64)
        if self.config.fmt is PtrFormat.LONG:
            addr = np.where(self.valid, aphys,
                            (self.base_offset
                             + self.pos).astype(np.uint64))
            return tr.encode_long(self.valid, perms, addr)
        return tr.encode_short(self.valid, perms, aphys,
                               self.xpage_vec().astype(np.uint64))

    def clone(self, ctx: WarpContext) -> "APtr":
        """Assignment: the copy points at the same positions, *unlinked*
        (a fresh copy must not pin pages it may never touch, §III-C)."""
        twin = APtr(ctx, self.avm, self.backend, self.base_offset,
                    self.size, self.writable)
        twin.pos = self.pos.copy()
        return twin

    # ------------------------------------------------------------------
    # Pointer arithmetic
    # ------------------------------------------------------------------
    def add(self, ctx: WarpContext, delta):
        """Timed: advance each lane by ``delta`` bytes (scalar or
        per-lane).  Lanes that leave their linked page unlink, dropping
        their page references — the paper's proactive-decrement
        heuristic."""
        cm = self.cost
        ctx.charge(cm.arith_count + cm.fmt_extra_count,
                   chain=cm.arith_chain + cm.fmt_extra_chain,
                   tag="translation")
        self.avm.stats.arith_ops += 1
        span = self._sum
        if span is not None and isinstance(delta, (int, np.integer)):
            # A scalar step that keeps [lo, hi] inside the one page all
            # lanes share crosses nothing: a valid lane's linked page is
            # always its current page.
            delta = int(delta)
            page, base = self.page_size, self.base_offset
            first = (base + span.lo) // page
            if ((base + span.hi) // page == first
                    and (base + span.lo + delta) // page == first
                    and (base + span.hi + delta) // page == first):
                self.pos = self.pos + delta
                span.shift(delta)
                return
        new_pos = self.pos + np.asarray(delta, dtype=np.int64)
        new_xpage = (self.base_offset + new_pos) // self.page_size
        crossing = self.valid & (new_xpage != self.linked_xpage)
        self.pos = new_pos
        self._sum = None
        if crossing.any():
            yield from self._unlink(ctx, crossing)

    def seek(self, ctx: WarpContext, pos):
        """Timed: set each lane's absolute position in the mapping."""
        delta = np.asarray(pos, dtype=np.int64) - self.pos
        yield from self.add(ctx, delta)

    # ------------------------------------------------------------------
    # Dereference
    # ------------------------------------------------------------------
    def read(self, ctx: WarpContext, dtype: str = "f4",
             mask: Optional[np.ndarray] = None):
        """Timed: ``*ptr`` — load one ``dtype`` element per active lane."""
        width = int(np.dtype(dtype).itemsize)
        addrs = yield from self._deref(ctx, width, write=False, mask=mask)
        cm = self.cost
        self.avm.stats.reads += 1
        ctx.charge(cm.deref_count + cm.fmt_extra_count,
                   chain=cm.deref_chain + cm.fmt_extra_chain,
                   tag="translation")
        overlap, post = cm.deref_overlap, cm.deref_post
        if self.config.perm_checks:
            self.avm.stats.perm_checks += 1
            ctx.charge(cm.perm_count, chain=cm.perm_chain,
                       tag="translation")
            post += cm.perm_post
        return (yield from ctx.load(addrs, dtype, mask=mask,
                                    overlap_chain=overlap,
                                    post_chain=post,
                                    chain_tag="translation"))

    def read_wide(self, ctx: WarpContext, elems: int,
                  dtype: str = "f4",
                  mask: Optional[np.ndarray] = None,
                  nonblocking: bool = False):
        """Timed: vector dereference — ``elems`` consecutive elements per
        lane in one access (the 16-byte loads of §VI-B, which amortise
        the translation cost over more data).

        ``nonblocking`` overlaps the load with later work (memory-level
        parallelism); pair with ``ctx.fence()``.
        """
        width = int(np.dtype(dtype).itemsize) * elems
        addrs = yield from self._deref(ctx, width, write=False, mask=mask)
        cm = self.cost
        self.avm.stats.reads += 1
        ctx.charge(cm.deref_count + cm.fmt_extra_count + elems,
                   chain=cm.deref_chain + cm.fmt_extra_chain,
                   tag="translation")
        overlap, post = cm.deref_overlap, cm.deref_post
        if self.config.perm_checks:
            self.avm.stats.perm_checks += 1
            ctx.charge(cm.perm_count, chain=cm.perm_chain,
                       tag="translation")
            post += cm.perm_post
        return (yield from ctx.load_wide(addrs, dtype, elems, mask=mask,
                                         overlap_chain=overlap,
                                         post_chain=post,
                                         nonblocking=nonblocking,
                                         chain_tag="translation"))

    def write(self, ctx: WarpContext, values, dtype: str = "f4",
              mask: Optional[np.ndarray] = None):
        """Timed: ``*ptr = v`` — store one element per active lane."""
        width = int(np.dtype(dtype).itemsize)
        addrs = yield from self._deref(ctx, width, write=True, mask=mask)
        cm = self.cost
        self.avm.stats.writes += 1
        ctx.charge(cm.deref_count + cm.fmt_extra_count,
                   chain=cm.deref_chain + cm.fmt_extra_chain,
                   tag="translation")
        if self.config.perm_checks:
            self.avm.stats.perm_checks += 1
            ctx.charge(cm.perm_count, chain=cm.perm_chain + cm.perm_post,
                       tag="translation")
        yield from ctx.store(addrs, values, dtype, mask=mask)

    def write_wide(self, ctx: WarpContext, values, dtype: str = "f4",
                   mask: Optional[np.ndarray] = None):
        """Timed: vector store — ``values`` of shape (lanes, elems)
        written through one dereference per lane."""
        values = np.asarray(values)
        elems = values.shape[1]
        width = int(np.dtype(dtype).itemsize) * elems
        addrs = yield from self._deref(ctx, width, write=True, mask=mask)
        cm = self.cost
        self.avm.stats.writes += 1
        ctx.charge(cm.deref_count + cm.fmt_extra_count + elems,
                   chain=cm.deref_chain + cm.fmt_extra_chain,
                   tag="translation")
        if self.config.perm_checks:
            self.avm.stats.perm_checks += 1
            ctx.charge(cm.perm_count, chain=cm.perm_chain + cm.perm_post,
                       tag="translation")
        yield from ctx.store_wide(addrs, values, dtype, mask=mask)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def destroy(self, ctx: WarpContext):
        """Timed: drop all references (scope exit in Figure 3)."""
        if self.valid.any():
            yield from self._unlink(ctx, self.valid)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _deref(self, ctx: WarpContext, width: int, write: bool,
               mask: Optional[np.ndarray]):
        active = ctx.active if mask is None else (ctx.active & mask)
        # Every lane active (the common case): check the summary's
        # scalars instead of the lanes, and skip the masking copies.
        every = np.count_nonzero(active) == active.size
        self.avm.stats.derefs += 1
        if every:
            span = self._summary()
            self._check_bounds(width, span.lo, span.hi, span.align,
                               self.pos)
            # Every lane linked, and for a write every link writable:
            # no upgrade fault and no page fault can follow.
            linked = span.addrs is not None
            if linked and write:
                if span.all_write is None:
                    span.all_write = bool(self.linked_write.all())
                linked = span.all_write
        else:
            pos = self.pos[active]
            if pos.size:
                self._check_bounds(width, int(pos.min()), int(pos.max()),
                                   1, pos)
            linked = False
        if write and not self.writable:
            raise ProtectionError("write through a read-only apointer")
        if write and not linked:
            # Upgrade fault: lanes linked read-only must re-fault so the
            # paging backend sees the write (dirty marking, coherence).
            upgrade = self.valid & ~self.linked_write
            if not every:
                upgrade &= active
            if upgrade.any():
                yield from self._unlink(ctx, upgrade)
        # Joint valid-bit vote across the warp (one instruction): the
        # fault-free path has no divergent control flow.  Under
        # speculative prefetch the vote overlaps the memory access
        # (§IV-B), so it adds no serial latency.  With every lane
        # active the vote passes exactly when the warp is linked: an
        # unlinked lane, or an upgrade, leaves a lane invalid.
        all_valid = linked if every else wp.all_sync(self.valid, active)
        prefetching = self.config.variant is ImplVariant.PREFETCH
        ctx.charge(1, chain=0 if prefetching else 1, tag="translation")
        if not all_valid:
            yield from self._page_fault(ctx, active, write)
        elif write:
            self._mark_dirty(active)
        if linked:
            return span.addrs
        addrs = self.frame_addr + self.in_page_vec()
        if every:
            # The fault linked every lane, each for a write exactly when
            # this access writes (the upgrade unlinked any other).
            addrs = _lanes(addrs)
            self._sum = _Summary(span.lo, span.hi, span.align,
                                 self.pos.size, addrs, write)
        return addrs

    def _page_fault(self, ctx: WarpContext, active: np.ndarray,
                    write: bool):
        """Listing 1: aggregated, leader-driven fault handling."""
        cm = self.cost
        faulting = (~self.valid) & active
        lanes = np.flatnonzero(faulting)
        xpages = self.xpage_vec()[lanes]
        self.avm.stats.translation_faults += int(lanes.size)
        self._sum = None
        t0 = ctx.now
        ctx.begin_request()
        try:
            ctx.push_activity("translation")
            try:
                # Each round of Listing 1's loop: ballot the faulting
                # lanes, elect the lowest as leader, broadcast its
                # page, and link every lane bound for that page.
                for leader, same in _groups(lanes, xpages):
                    ctx.charge(2)              # __ballot + __ffs
                    self.avm.stats.fault_groups += 1
                    leader_xpage = int(xpages[leader])
                    refs = int(same.size)      # __popc(__ballot(same))
                    ctx.charge(cm.fault_setup_count)
                    frame_addr, via_tlb = yield from self._resolve(
                        ctx, leader_xpage, refs, write)
                    self.frame_addr[same] = frame_addr
                    self.linked_xpage[same] = leader_xpage
                    self.tlb_backed[same] = via_tlb
                    self.linked_write[same] = write
                    self.valid[same] = True
                    ctx.charge(cm.fault_link_count)
                    self.avm.stats.links += refs
                ctx.charge(2)                  # the final, empty ballot
            finally:
                ctx.pop_activity()
            if ctx.tracer is not None:
                ctx.trace_span("translation_fault", t0, ctx.now,
                               f"lanes={int(lanes.size)}")
        finally:
            ctx.end_request()
        if write:
            self._mark_dirty(active)

    def _resolve(self, ctx: WarpContext, xpage: int, refs: int,
                 write: bool):
        """Leader-only: obtain the frame address for one page.

        Consults the block TLB when configured; otherwise (or on a
        bypass) goes to the paging backend.  Returns
        ``(frame_addr, via_tlb)``.
        """
        backend = self.backend
        tlb = self.avm.tlb_for(ctx)
        if tlb is None or not getattr(backend, "paged", True):
            frame = yield from backend.fault(ctx, xpage, refs, write)
            return frame, False
        fid = backend.file_id
        frame = yield from tlb.lookup_and_ref(ctx, fid, xpage, refs)
        if frame is not None:
            return frame, True
        frame = yield from backend.fault(ctx, xpage, refs, write)
        ctx.push_activity("tlb_miss")
        try:
            installed, evicted = yield from tlb.install(
                ctx, fid, xpage, frame, refs)
            if evicted is not None:
                (_, old_xpage), held = evicted
                if held:
                    yield from backend.release(ctx, old_xpage, held)
        finally:
            ctx.pop_activity()
        return frame, installed

    def _unlink(self, ctx: WarpContext, mask: np.ndarray):
        """Drop references for ``mask`` lanes, grouped per page and per
        backing path (TLB-tracked vs. direct), leaders in lane order."""
        cm = self.cost
        lanes = np.flatnonzero(mask)
        xpages = self.linked_xpage[lanes]
        backed = self.tlb_backed[lanes]
        self._sum = None
        tlb = self.avm.tlb_for(ctx)
        for leader, group in _groups(lanes, xpages * 2 + backed):
            xpage = int(xpages[leader])
            via_tlb = bool(backed[leader])
            refs = int(group.size)
            ctx.charge(cm.fault_setup_count, tag="translation")
            if via_tlb and tlb is not None:
                found = yield from tlb.unref(
                    ctx, self.backend.file_id, xpage, refs)
                if not found:
                    raise RuntimeError(
                        "TLB-backed lane lost its TLB entry")
            else:
                yield from self.backend.release(ctx, xpage, refs)
            self.valid[group] = False
            self.tlb_backed[group] = False
            self.linked_write[group] = False
            self.avm.stats.unlinks += refs

    def _mark_dirty(self, active: np.ndarray) -> None:
        backend = self.backend
        gpufs = getattr(backend, "gpufs", None)
        if gpufs is None:
            return
        for xpage in np.unique(self.linked_xpage[active & self.valid]):
            entry = gpufs.cache.table.get(backend.file_id, int(xpage))
            if entry is not None:
                entry.dirty = True

    def _summary(self) -> _Summary:
        if self._sum is None:
            self._sum = _Summary.of(self)
        return self._sum

    def _check_bounds(self, width: int, lo: int, hi: int, align: int,
                      pos: np.ndarray) -> None:
        """Reject an access outside the mapping, not ``width``-aligned
        in its page, or running past the page's end.  ``pos`` are the
        accessing lanes' positions, ``lo``/``hi`` their extremes and
        ``align`` a power of two dividing all of them."""
        if lo < 0 or hi + width > self.size:
            raise BoundsError(
                f"access at [{lo}, {hi} + {width}) outside "
                f"mapping of {self.size} bytes")
        page = self.page_size
        if (width & (width - 1) == 0 and page % width == 0
                and self.base_offset % width == 0):
            # A power-of-two width dividing the page: alignment alone
            # rules out straddling, and lanes align with their position.
            misaligned = (align < width
                          and int(np.bitwise_or.reduce(pos)) & (width - 1))
            end = 0
        else:
            in_page = (self.base_offset + pos) % page
            misaligned = int((in_page % width).max())
            end = int(in_page.max()) + width
        if misaligned:
            raise BoundsError(
                f"{width}-byte access not {width}-aligned "
                "(would straddle a page boundary)")
        if end > page:
            raise BoundsError(
                f"{width}-byte access at in-page offset {end - width} "
                f"runs past the end of its {page}-byte page")


def _lanes(addrs: np.ndarray):
    """A linked warp's aphysical addresses as the summary holds them: a
    :class:`LaneRange` when lane ``i`` is at ``addrs[0] + i * width``
    for one ``width`` from 1 to :data:`_MAX_LANE_BYTES`, else the
    array itself."""
    if addrs.size > 1:
        base = int(addrs[0])
        width = int(addrs[1]) - base
        if (0 < width <= _MAX_LANE_BYTES
                and not (addrs[1:] - addrs[:-1] - width).any()):
            return LaneRange(base, width, addrs.size, addrs.size)
    return addrs


def _groups(lanes: np.ndarray, keys: np.ndarray):
    """Listing 1's subgroups, computed once: ``(leader, members)`` per
    distinct key, leaders in lane order.

    ``keys[i]`` belongs to lane ``lanes[i]``; ``leader`` indexes
    ``keys`` and ``members`` holds lane numbers.  Electing the lowest
    remaining lane round after round, as the ballot loop does, visits
    the distinct keys in order of first occurrence — the order here.
    """
    if not lanes.size:
        return []
    if keys.min() == keys.max():
        return [(0, lanes)]
    _, first, inverse = np.unique(keys, return_index=True,
                                  return_inverse=True)
    return [(int(first[g]), lanes[inverse == g])
            for g in np.argsort(first)]
