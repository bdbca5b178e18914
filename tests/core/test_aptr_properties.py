"""Property tests over random apointer programs.

A program is a sequence of pointer steps — scalar and per-lane
``add``/``seek``, masked and unmasked ``read``/``write``/``read_wide``/
``write_wide``, ``clone`` and ``destroy`` — run by one warp over a
device-memory mapping or a GPUfs file mapping.  After every step:

* the pointer's cached summary agrees with one derived afresh from its
  per-lane arrays (its alignment may be a coarser power of two), and a
  summary ``LaneRange`` materialises to the lanes' aphysical addresses;
* every linked lane's page is the page it currently points into;
* loaded values equal the bytes at ``base_offset + pos`` of a shadow
  copy that every store also updates.

A step whose access is out of bounds, straddles a page or writes
through a read-only pointer must raise the class and message that
:func:`expected_error` derives from the positions alone.

The fault and unlink loops' subgroups, computed once, are compared
with Listing 1's ballot loop run round by round (:func:`ballot_loop`).
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import APConfig, AVM
from repro.core.apointer import (BoundsError, ProtectionError, _Summary,
                                 _groups)
from repro.gpu import Device, LaneRange
from repro.gpu import warp_primitives as wp
from repro.host import HostFileSystem
from repro.host.filesys import O_RDWR
from repro.host.ramfs import RamFS
from repro.paging import GPUfs, GPUfsConfig

PAGE = 4096
MAP_PAGES = 8
FILE_PAGES = MAP_PAGES + 2
LANES = 32
DTYPES = ("u1", "u2", "u4", "u8")


def ballot_loop(pending, keys):
    """Listing 1's loop, verbatim: ``(leader lane, members)`` per round
    over the lanes ``pending`` marks, grouped by ``keys``."""
    pending = pending.copy()
    rounds = []
    while True:
        leader = wp.ffs(wp.ballot(pending)) - 1
        if leader < 0:
            return rounds
        key = wp.shfl(keys, leader)[0]
        same = pending & (keys == key)
        rounds.append((leader, np.flatnonzero(same)))
        pending &= ~same


def expected_error(size, page, base, pos, width, write, writable):
    """``(class, message)`` an access at ``pos`` (active lanes) must
    raise, or ``None``."""
    if pos.size:
        lo, hi = int(pos.min()), int(pos.max())
        if lo < 0 or hi + width > size:
            return BoundsError, (f"access at [{lo}, {hi} + {width}) "
                                 f"outside mapping of {size} bytes")
        in_page = (base + pos) % page
        if int((in_page % width).max()):
            return BoundsError, (f"{width}-byte access not "
                                 f"{width}-aligned (would straddle a "
                                 "page boundary)")
        end = int(in_page.max()) + width
        if end > page:
            return BoundsError, (f"{width}-byte access at in-page offset "
                                 f"{end - width} runs past the end of "
                                 f"its {page}-byte page")
    if write and not writable:
        return ProtectionError, "write through a read-only apointer"
    return None


def stored_bytes(pos, width, stamp):
    """Per-lane bytes a write stores: a function of each byte's address
    and the step, so lanes sharing an address store the same bytes."""
    addr = pos[:, None] + np.arange(width)
    return ((addr * 7 + stamp * 13) & 0xFF).astype(np.uint8)


def check_invariants(ptr):
    cur = (ptr.base_offset + ptr.pos) // ptr.page_size
    assert np.array_equal(ptr.linked_xpage[ptr.valid], cur[ptr.valid])
    span = ptr._sum
    if span is None:
        return
    fresh = _Summary.of(ptr)
    assert (span.lo, span.hi, span.nlinked) == (fresh.lo, fresh.hi,
                                                fresh.nlinked)
    assert span.align & (span.align - 1) == 0
    assert fresh.align % span.align == 0
    if fresh.addrs is None:
        assert span.addrs is None
    else:
        assert np.array_equal(span.addrs, fresh.addrs)
        if type(span.addrs) is LaneRange:
            assert np.array_equal(np.asarray(span.addrs),
                                  ptr.frame_addr + ptr.in_page_vec())
        if span.all_write is not None:
            assert span.all_write == bool(ptr.linked_write.all())


masks = st.one_of(st.none(), st.lists(st.booleans(), min_size=LANES,
                                      max_size=LANES))
lane_offsets = st.one_of(
    # a coalesced warp: consecutive elements from one start
    st.tuples(st.just("stride"), st.integers(0, MAP_PAGES - 1),
              st.sampled_from([-16, 0, 4, 1000, 2048, 3968, 4092]),
              st.sampled_from([0, 1, 2, 4, 8, 12, 16, 128])),
    # scattered lanes anywhere in (and just outside) the mapping
    st.tuples(st.just("scatter"),
              st.lists(st.integers(-8, MAP_PAGES * PAGE + 8),
                       min_size=LANES, max_size=LANES)),
)
steps = st.one_of(
    st.tuples(st.just("add"), st.sampled_from(
        [0, 1, 4, 8, 16, 128, 256, -4, -128, 2048, 3000, PAGE, -PAGE,
         np.int64(64)])),
    st.tuples(st.just("add_lanes"), lane_offsets),
    st.tuples(st.just("seek"), lane_offsets),
    st.tuples(st.just("read"), st.sampled_from(DTYPES), masks),
    st.tuples(st.just("write"), st.sampled_from(DTYPES), masks),
    st.tuples(st.just("read_wide"), st.integers(2, 4), masks),
    st.tuples(st.just("write_wide"), st.integers(2, 4), masks),
    st.tuples(st.just("clone")),
    st.tuples(st.just("destroy")),
)


def lane_vector(spec):
    kind, *args = spec
    if kind == "stride":
        page, offset, stride = args
        return (page * PAGE + offset
                + stride * np.arange(LANES, dtype=np.int64))
    return np.asarray(args[0], dtype=np.int64)


def run_program(program, *, gpufs_backed, writable, use_tlb):
    rng = np.random.RandomState(len(program))
    image = rng.randint(0, 256, FILE_PAGES * PAGE).astype(np.uint8)
    device = Device(memory_bytes=4 * 1024 * 1024)
    config = APConfig(use_tlb=use_tlb, tlb_entries=8)
    size = MAP_PAGES * PAGE
    if gpufs_backed:
        fs = RamFS()
        fs.create("data", image)
        gpufs = GPUfs(device, HostFileSystem(fs),
                      GPUfsConfig(page_size=PAGE, num_frames=32))
        fid = gpufs.open("data", O_RDWR)
        avm = AVM(config, gpufs=gpufs)
        base = PAGE                       # a page-aligned file offset
    else:
        gpufs = None
        region = device.alloc(FILE_PAGES * PAGE)
        device.memory.write(region, image)
        avm = AVM(config)
        base = 0
    shadow = image[base:base + size].copy()
    handed_out = []                       # summary addresses, with copies

    def access(ctx, ptr, step, stamp):
        op, arg, mask = step
        mask = None if mask is None else np.asarray(mask, bool)
        write = op.startswith("write")
        dtype = arg if op in ("read", "write") else "u4"
        elems = arg if op.endswith("wide") else 1
        item = np.dtype(dtype).itemsize
        width = item * elems
        lanes = np.ones(LANES, bool) if mask is None else mask
        expect = expected_error(size, PAGE, ptr.base_offset,
                                ptr.pos[lanes], width, write,
                                ptr.writable)
        values = None
        if write:
            raw = stored_bytes(ptr.pos, width, stamp)
            values = raw.view(dtype).reshape(LANES, elems)
            if op == "write":
                values = values[:, 0]
        try:
            if op == "read":
                got = yield from ptr.read(ctx, dtype, mask=mask)
            elif op == "read_wide":
                got = yield from ptr.read_wide(ctx, elems, "u4", mask=mask)
            elif op == "write":
                yield from ptr.write(ctx, values, dtype, mask=mask)
            else:
                yield from ptr.write_wide(ctx, values, "u4", mask=mask)
        except (BoundsError, ProtectionError) as err:
            assert expect == (type(err), str(err))
            return
        assert expect is None
        for lane in np.flatnonzero(lanes):
            at = int(ptr.pos[lane])
            if write:
                shadow[at:at + width] = raw[lane]
            else:
                want = shadow[at:at + width].view(dtype)
                assert np.array_equal(
                    np.atleast_1d(got[lane]).astype(want.dtype), want)

    def kern(ctx):
        if gpufs_backed:
            ptr = avm.gvmmap(ctx, size, fid, foffset=base, write=writable)
        else:
            ptr = avm.gvmmap_device(ctx, region, size, write=writable)
        for stamp, step in enumerate(program):
            op = step[0]
            if op == "add":
                yield from ptr.add(ctx, step[1])
            elif op == "add_lanes":
                yield from ptr.add(ctx, lane_vector(step[1]))
            elif op == "seek":
                yield from ptr.seek(ctx, lane_vector(step[1]))
            elif op == "clone":
                twin = ptr.clone(ctx)
                assert np.array_equal(twin.pos, ptr.pos)
                assert not twin.valid.any()
                yield from access(ctx, twin, ("read", "u1", None), stamp)
                check_invariants(twin)
                yield from twin.destroy(ctx)
            elif op == "destroy":
                yield from ptr.destroy(ctx)
                assert not ptr.valid.any()
            else:
                yield from access(ctx, ptr, step, stamp)
            check_invariants(ptr)
            if ptr._sum is not None and ptr._sum.addrs is not None:
                handed_out.append((ptr._sum.addrs,
                                   np.array(ptr._sum.addrs)))
        yield from ptr.destroy(ctx)
        if use_tlb:
            yield from avm.drain_tlb(ctx, ptr.backend)

    device.launch(kern, grid=1, block_threads=LANES,
                  scratchpad_bytes=config.tlb_bytes() if use_tlb else 0)
    for vec, copy in handed_out:
        assert np.array_equal(vec, copy)
    if gpufs_backed:
        for xpage in range(FILE_PAGES):
            entry = gpufs.cache.table.get(fid, xpage)
            assert entry is None or entry.refcount == 0
    stats = avm.stats
    assert stats.links == stats.unlinks


@given(st.lists(st.booleans(), min_size=LANES, max_size=LANES),
       st.lists(st.integers(0, 5), min_size=LANES, max_size=LANES))
@settings(max_examples=200, deadline=None)
def test_groups_match_the_ballot_loop(pending, keys):
    pending = np.asarray(pending, bool)
    keys = np.asarray(keys, np.int64)
    lanes = np.flatnonzero(pending)
    grouped = [(int(lanes[leader]), members)
               for leader, members in _groups(lanes, keys[lanes])]
    reference = ballot_loop(pending, keys)
    assert [g[0] for g in grouped] == [r[0] for r in reference]
    for (_, got), (_, want) in zip(grouped, reference):
        assert np.array_equal(got, want)


programs = st.lists(steps, min_size=1, max_size=14)

#: A linked warp inside one page whose scalar step moves only its top
#: lanes into the next page: those lanes must unlink.
TOP_LANES_CROSS = [("seek", ("stride", 1, 1000, 16)),
                   ("read", "u4", None), ("add", 3000),
                   ("read", "u4", None), ("write", "u4", None)]


@given(programs, st.booleans())
@example(TOP_LANES_CROSS, True)
@settings(max_examples=80, deadline=None)
def test_random_programs_device_backend(program, writable):
    run_program(program, gpufs_backed=False, writable=writable,
                use_tlb=False)


@given(programs, st.booleans(), st.booleans())
@example(TOP_LANES_CROSS, True, True)
@settings(max_examples=80, deadline=None)
def test_random_programs_gpufs_backend(program, writable, use_tlb):
    run_program(program, gpufs_backed=True, writable=writable,
                use_tlb=use_tlb)
