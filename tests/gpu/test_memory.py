"""Unit tests for simulated global memory and scratchpad."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.memory import (DTYPE_WIDTHS, GlobalMemory, LaneRange,
                              MemoryError_, Scratchpad)


@pytest.fixture
def mem():
    return GlobalMemory(64 * 1024)


class TestAllocator:
    def test_alloc_returns_aligned_bases(self, mem):
        a = mem.alloc(100)
        b = mem.alloc(100)
        assert a % 256 == 0
        assert b % 256 == 0
        assert b >= a + 100

    def test_alloc_out_of_memory_raises(self, mem):
        with pytest.raises(MemoryError_):
            mem.alloc(mem.size + 1)

    def test_alloc_exactly_fills(self):
        m = GlobalMemory(1024)
        base = m.alloc(1024)
        assert base == 0
        with pytest.raises(MemoryError_):
            m.alloc(1)

    def test_reset_allocator(self, mem):
        mem.alloc(1000)
        mem.reset_allocator()
        assert mem.alloc(16) == 0

    def test_bytes_allocated_tracks(self, mem):
        mem.alloc(512)
        assert mem.bytes_allocated == 512


class TestBulkAccess:
    def test_write_then_read_roundtrip(self, mem):
        data = np.arange(100, dtype=np.float32)
        mem.write(0, data)
        back = mem.read(0, 400).view(np.float32)
        assert np.array_equal(back, data)

    def test_read_out_of_bounds_raises(self, mem):
        with pytest.raises(MemoryError_):
            mem.read(mem.size - 2, 4)

    def test_write_negative_addr_raises(self, mem):
        with pytest.raises(MemoryError_):
            mem.write(-4, np.zeros(4, dtype=np.uint8))


class TestVectorAccess:
    @pytest.mark.parametrize("dtype", ["u1", "u2", "u4", "i4", "f4", "u8", "f8"])
    def test_roundtrip_all_dtypes(self, mem, dtype):
        width = DTYPE_WIDTHS[dtype]
        addrs = np.arange(32) * width
        vals = np.arange(32).astype(np.dtype(dtype))
        mem.store_vector(addrs, vals, dtype)
        back = mem.load_vector(addrs, dtype)
        assert np.array_equal(back, vals)

    def test_masked_load_returns_zero_for_inactive(self, mem):
        mem.write(0, np.arange(32, dtype=np.float32))
        addrs = np.arange(32) * 4
        mask = np.zeros(32, dtype=bool)
        mask[:4] = True
        out = mem.load_vector(addrs, "f4", mask=mask)
        assert np.array_equal(out[:4], np.arange(4, dtype=np.float32))
        assert np.all(out[4:] == 0)

    def test_masked_store_only_writes_active(self, mem):
        addrs = np.arange(32) * 4
        mask = np.zeros(32, dtype=bool)
        mask[5] = True
        mem.store_vector(addrs, np.full(32, 7.0, np.float32), "f4", mask=mask)
        back = mem.read(0, 128).view(np.float32)
        assert back[5] == 7.0
        assert back[0] == 0.0

    def test_scattered_load(self, mem):
        mem.write(0, np.arange(1000, dtype=np.float32))
        idx = np.array([3, 999, 500, 1] + [0] * 28)
        out = mem.load_vector(idx * 4, "f4")
        assert out[0] == 3.0 and out[1] == 999.0 and out[2] == 500.0

    def test_vector_out_of_bounds_raises(self, mem):
        with pytest.raises(MemoryError_):
            mem.load_vector(np.array([mem.size]), "f4")

    def test_all_inactive_mask_is_noop(self, mem):
        out = mem.load_vector(np.arange(32) * 4, "f4",
                              mask=np.zeros(32, dtype=bool))
        assert np.all(out == 0)


class TestCoalescing:
    def test_fully_coalesced_4byte_is_one_transaction(self, mem):
        addrs = np.arange(32) * 4
        assert mem.transactions_for(addrs, 4) == 1

    def test_coalesced_8byte_is_two_transactions(self, mem):
        addrs = np.arange(32) * 8
        assert mem.transactions_for(addrs, 8) == 2

    def test_fully_scattered_is_32_transactions(self, mem):
        addrs = np.arange(32) * 4096
        assert mem.transactions_for(addrs, 4) == 32

    def test_same_address_all_lanes_is_one_transaction(self, mem):
        addrs = np.full(32, 1024)
        assert mem.transactions_for(addrs, 4) == 1

    def test_straddling_access_counts_both_segments(self, mem):
        addrs = np.array([126])
        assert mem.transactions_for(addrs, 4) == 2

    def test_mask_excludes_lanes(self, mem):
        addrs = np.arange(32) * 4096
        mask = np.zeros(32, dtype=bool)
        mask[:2] = True
        assert mem.transactions_for(addrs, 4, mask=mask) == 2

    def test_empty_mask_is_zero_transactions(self, mem):
        assert mem.transactions_for(np.arange(32), 4,
                                    mask=np.zeros(32, dtype=bool)) == 0


# ----------------------------------------------------------------------
# Byte-by-byte reference model of the warp accessors
# ----------------------------------------------------------------------
def ref_load(data, addrs, dtype, mask, elems):
    """Each active lane reads its ``elems`` elements byte by byte."""
    width = DTYPE_WIDTHS[dtype]
    out = np.zeros((len(addrs), elems * width), dtype=np.uint8)
    for lane, addr in enumerate(addrs):
        if mask is None or mask[lane]:
            for b in range(elems * width):
                out[lane, b] = data[addr + b]
    return out.view(np.dtype(dtype))


def ref_store(data, addrs, values, dtype, mask):
    """Element by element, byte by byte, lane by lane: later lanes win
    where stores overlap."""
    width = DTYPE_WIDTHS[dtype]
    raw = np.ascontiguousarray(values).view(np.uint8)
    lanes = [lane for lane in range(len(addrs))
             if mask is None or mask[lane]]
    for b in range(raw.shape[1]):
        for lane in lanes:
            data[addrs[lane] + b] = raw[lane, b]
    assert raw.shape[1] % width == 0


def ref_transactions(addrs, width, mask, tb=128):
    addrs = np.asarray(addrs, dtype=np.int64)
    if mask is not None:
        addrs = addrs[mask]
    if addrs.size == 0:
        return 0
    return np.union1d(addrs // tb, (addrs + width - 1) // tb).size


@st.composite
def warp_access(draw, max_elems=1):
    """A memory (size not always a multiple of 8) and one warp access:
    aligned or unaligned lanes, duplicates, and every kind of mask."""
    dtype = draw(st.sampled_from(sorted(DTYPE_WIDTHS)))
    width = DTYPE_WIDTHS[dtype]
    elems = draw(st.integers(1, max_elems))
    size = draw(st.integers(8 * max_elems + 8, 300))
    lanes = draw(st.integers(1, 32))
    top = size - width * elems
    if draw(st.booleans()):
        slots = st.integers(0, top // width).map(lambda k: k * width)
    else:
        slots = st.integers(0, top)
    if draw(st.booleans()):          # few distinct addresses: duplicates
        pool = draw(st.lists(slots, min_size=1, max_size=3))
        slots = st.sampled_from(pool)
    addrs = np.array(draw(st.lists(slots, min_size=lanes,
                                   max_size=lanes)), dtype=np.int64)
    mask = draw(st.one_of(
        st.none(),
        st.just(np.ones(lanes, dtype=bool)),
        st.just(np.zeros(lanes, dtype=bool)),
        st.lists(st.booleans(), min_size=lanes,
                 max_size=lanes).map(lambda m: np.array(m, dtype=bool)),
    ))
    seed = draw(st.integers(0, 2**31))
    return dtype, elems, size, addrs, mask, seed


def _filled(size, seed):
    mem = GlobalMemory(size)
    mem.data[:] = np.random.RandomState(seed).randint(0, 256, size)
    return mem


def _random_values(rng, lanes, elems, dtype):
    raw = rng.randint(0, 256, (lanes, elems * DTYPE_WIDTHS[dtype]))
    return raw.astype(np.uint8).view(np.dtype(dtype))


class TestFastPathEquivalence:
    """The typed-view path and the byte path move the same bytes."""

    @settings(max_examples=300, deadline=None)
    @given(warp_access(max_elems=1))
    def test_load_matches_byte_reference(self, access):
        dtype, _, size, addrs, mask, seed = access
        mem = _filled(size, seed)
        got = mem.load_vector(addrs, dtype, mask=mask)
        want = ref_load(mem.data, addrs, dtype, mask, 1)[:, 0]
        assert got.dtype == np.dtype(dtype)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(warp_access(max_elems=4))
    def test_wide_load_matches_byte_reference(self, access):
        dtype, elems, size, addrs, mask, seed = access
        mem = _filled(size, seed)
        got = mem.load_vector_wide(addrs, dtype, elems, mask=mask)
        want = ref_load(mem.data, addrs, dtype, mask, elems)
        assert got.shape == (len(addrs), elems)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(warp_access(max_elems=1))
    def test_store_matches_byte_reference(self, access):
        dtype, _, size, addrs, mask, seed = access
        mem = _filled(size, seed)
        want = mem.data.copy()
        values = _random_values(np.random.RandomState(seed + 1),
                                len(addrs), 1, dtype)
        mem.store_vector(addrs, values[:, 0], dtype, mask=mask)
        ref_store(want, addrs, values, dtype, mask)
        assert mem.data.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(warp_access(max_elems=4))
    def test_wide_store_matches_byte_reference(self, access):
        dtype, elems, size, addrs, mask, seed = access
        mem = _filled(size, seed)
        want = mem.data.copy()
        values = _random_values(np.random.RandomState(seed + 1),
                                len(addrs), elems, dtype)
        mem.store_vector(addrs, values, dtype, mask=mask)
        ref_store(want, addrs, values, dtype, mask)
        assert mem.data.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(warp_access(max_elems=1),
           st.sampled_from([1, 2, 4, 8, 12, 16, 128, 3072]))
    def test_transactions_match_union_reference(self, access, width):
        _, _, _, addrs, mask, seed = access
        addrs = addrs + np.random.RandomState(seed).randint(0, 4) * 128
        mem = GlobalMemory(1)
        assert (mem.transactions_for(addrs, width, mask=mask)
                == ref_transactions(addrs, width, mask))

    @pytest.mark.parametrize("dtype", ["u2", "f4", "u8"])
    def test_duplicate_aligned_stores_last_lane_wins(self, dtype):
        mem = GlobalMemory(64)
        width = DTYPE_WIDTHS[dtype]
        addrs = np.array([0, width, 0, width, 0]) * 1
        values = np.arange(1, 6).astype(np.dtype(dtype))
        mem.store_vector(addrs, values, dtype)
        back = mem.load_vector(np.array([0, width]), dtype)
        assert back.tolist() == [5, 4]

    def test_overlapping_wide_stores_keep_element_order(self):
        # Lane 1's first element lands on lane 0's second; the byte
        # path writes element column by column, so lane 0's second
        # element (the later column) wins.
        mem = GlobalMemory(64)
        values = np.array([[1, 2], [3, 4]], dtype=np.uint32)
        mem.store_vector(np.array([0, 4]), values, "u4")
        assert mem.read(0, 12).view(np.uint32).tolist() == [1, 2, 4]

    def test_aligned_out_of_bounds_raises_without_writing(self):
        mem = GlobalMemory(100)           # the last 4 bytes: no u8 slot
        addrs = np.array([0, 8, 96])
        with pytest.raises(MemoryError_):
            mem.store_vector(addrs, np.full(3, 7, np.uint64), "u8")
        assert not mem.data.any()
        with pytest.raises(MemoryError_):
            mem.load_vector(addrs, "u8")
        with pytest.raises(MemoryError_):
            mem.load_vector_wide(np.array([80]), "u8", 3)

    def test_negative_aligned_address_raises(self):
        mem = GlobalMemory(64)
        with pytest.raises(MemoryError_):
            mem.load_vector(np.array([-8, 0]), "u8")
        with pytest.raises(MemoryError_):
            mem.store_vector(np.array([-8]), np.ones(1, np.uint64), "u8")

    def test_tail_bytes_reachable_unaligned(self):
        mem = GlobalMemory(13)
        mem.store_vector(np.array([9]), np.array([0x01020304], np.uint32),
                         "u4")
        assert mem.load_vector(np.array([9]), "u4")[0] == 0x01020304

    def test_pickled_copy_stores_reach_its_data(self):
        mem = GlobalMemory(1024)
        addrs = np.arange(32) * 4
        mem.store_vector(addrs, np.arange(32, dtype=np.uint32), "u4")
        clone = pickle.loads(pickle.dumps(mem))
        clone.store_vector(addrs + 128, np.full(32, 9, np.uint32), "u4")
        assert clone.read(128, 128).view(np.uint32).tolist() == [9] * 32
        assert clone.read(0, 128).view(np.uint32).tolist() == list(
            range(32))
        assert not mem.read(128, 128).any()


@st.composite
def lane_range_access(draw, max_elems=1):
    """A memory and one LaneRange access: any access width, a range
    width equal to it (the range-slice path) or not (the fallback), an
    aligned or unaligned base that may lie before or past the memory,
    and sometimes an explicit mask on top."""
    dtype = draw(st.sampled_from(sorted(DTYPE_WIDTHS)))
    width = DTYPE_WIDTHS[dtype]
    elems = draw(st.integers(1, max_elems))
    access = width * elems
    step = draw(st.one_of(st.just(access), st.just(access),
                          st.sampled_from([1, 2, 4, 8, 16])))
    active = draw(st.integers(0, 32))
    span = step * 31 + access            # bytes the 32 lanes cover
    size = draw(st.one_of(st.integers(span, span + 64),
                          st.integers(8, span)))
    aligned = st.integers(0, max(size - span, 0) // width).map(
        lambda k: k * width)             # in bounds when the lanes fit
    base = draw(st.one_of(
        aligned, aligned,
        st.integers(0, size),            # unaligned
        st.integers(-span, -1),          # before the memory
        st.integers(size - access + 1, size + 64),   # past the end
    ))
    mask = draw(st.one_of(
        st.none(), st.none(),
        st.lists(st.booleans(), min_size=32,
                 max_size=32).map(lambda m: np.array(m, dtype=bool)),
    ))
    seed = draw(st.integers(0, 2**31))
    return dtype, elems, size, LaneRange(base, step, active, 32), mask, seed


def _as_array(lanes, mask):
    """The array access a LaneRange stands for."""
    prefix = np.arange(lanes.size) < lanes.active
    return np.asarray(lanes), prefix if mask is None else prefix & mask


def _outcome(fn):
    """What an access did: its result, or the MemoryError_ it raised."""
    try:
        return "ok", fn()
    except MemoryError_ as err:
        return "raised", str(err)


class TestLaneRangeEquivalence:
    """A LaneRange access equals its materialised array and prefix mask
    on every path: range slice, aligned gather and byte path."""

    def test_materialises_to_lanes_and_prefix_mask(self):
        lanes = LaneRange(100, 8, 20, 32)
        assert np.array_equal(np.asarray(lanes),
                              100 + 8 * np.arange(32))
        assert lanes.mask.tolist() == [True] * 20 + [False] * 12
        assert LaneRange(0, 4, 32, 32).mask is None
        assert lanes.shift(-8) == LaneRange(92, 8, 20, 32)

    @settings(max_examples=400, deadline=None)
    @given(lane_range_access(max_elems=4))
    def test_loads_match_array_and_byte_reference(self, access):
        dtype, elems, size, lanes, mask, seed = access
        mem = _filled(size, seed)
        addrs, keep = _as_array(lanes, mask)
        if elems == 1:
            got = _outcome(lambda: mem.load_vector(lanes, dtype, mask))
            want = _outcome(lambda: mem.load_vector(addrs, dtype, keep))
        else:
            got = _outcome(lambda: mem.load_vector_wide(
                lanes, dtype, elems, mask))
            want = _outcome(lambda: mem.load_vector_wide(
                addrs, dtype, elems, keep))
        assert got[0] == want[0]
        if got[0] == "raised":
            assert got[1] == want[1]
            return
        assert got[1].dtype == want[1].dtype
        assert got[1].shape == want[1].shape
        assert got[1].tobytes() == want[1].tobytes()
        ref = ref_load(mem.data, addrs, dtype, keep, elems)
        assert got[1].tobytes() == ref.tobytes()

    @settings(max_examples=400, deadline=None)
    @given(lane_range_access(max_elems=4))
    def test_stores_match_array_and_byte_reference(self, access):
        dtype, elems, size, lanes, mask, seed = access
        values = _random_values(np.random.RandomState(seed + 1), 32,
                                elems, dtype)
        if elems == 1:
            values = values[:, 0]
        addrs, keep = _as_array(lanes, mask)
        by_range, by_array = _filled(size, seed), _filled(size, seed)
        before = by_range.data.copy()
        got = _outcome(lambda: by_range.store_vector(lanes, values, dtype,
                                                     mask))
        want = _outcome(lambda: by_array.store_vector(addrs, values, dtype,
                                                      keep))
        assert got == want
        assert by_range.data.tobytes() == by_array.data.tobytes()
        if got[0] == "raised":
            assert by_range.data.tobytes() == before.tobytes()
            return
        ref_store(before, addrs, values.reshape(32, -1), dtype, keep)
        assert by_range.data.tobytes() == before.tobytes()

    @settings(max_examples=400, deadline=None)
    @given(lane_range_access(max_elems=4),
           st.sampled_from([None, 1, 2, 4, 8, 12, 16]))
    def test_transactions_match_array_and_union_reference(self, access,
                                                          width):
        _, _, _, lanes, mask, _ = access
        width = lanes.width if width is None else width
        addrs, keep = _as_array(lanes, mask)
        mem = GlobalMemory(1)
        got = mem.transactions_for(lanes, width, mask=mask)
        assert got == mem.transactions_for(addrs, width, mask=keep)
        assert got == ref_transactions(addrs, width, keep)

    @pytest.mark.parametrize("lanes, want", [
        (LaneRange(0, 4, 32, 32), 1),      # ends on a segment boundary
        (LaneRange(0, 8, 32, 32), 2),
        (LaneRange(4, 4, 32, 32), 2),
        (LaneRange(256, 16, 32, 32), 4),
        (LaneRange(124, 4, 1, 32), 1),
        (LaneRange(126, 4, 1, 32), 2),     # one lane straddling
        (LaneRange(-128, 8, 16, 32), 1),
        (LaneRange(64, 8, 0, 32), 0),
    ])
    def test_range_transactions_are_closed_form(self, lanes, want):
        addrs, keep = _as_array(lanes, None)
        mem = GlobalMemory(1)
        assert mem.transactions_for(lanes, lanes.width) == want
        assert ref_transactions(addrs, lanes.width, keep) == want

    def test_out_of_bounds_range_raises_like_the_array(self):
        mem = GlobalMemory(256)
        for lanes in (LaneRange(-8, 8, 4, 32), LaneRange(232, 8, 4, 32)):
            addrs, keep = _as_array(lanes, None)
            for access in (
                    lambda a, m: mem.load_vector(a, "u8", m),
                    lambda a, m: mem.store_vector(
                        a, np.ones(32, np.uint64), "u8", m)):
                with pytest.raises(MemoryError_) as by_range:
                    access(lanes, None)
                with pytest.raises(MemoryError_) as by_array:
                    access(addrs, keep)
                assert str(by_range.value) == str(by_array.value)
        assert not mem.data.any()


class TestScratchpad:
    def test_alloc_array(self):
        sp = Scratchpad(1024)
        arr = sp.alloc_array("tlb", 32, "u8")
        assert arr.size == 32
        assert sp.bytes_used == 256

    def test_overflow_raises(self):
        sp = Scratchpad(64)
        with pytest.raises(MemoryError_):
            sp.alloc_array("big", 100, "u8")

    def test_multiple_allocations_accumulate(self):
        sp = Scratchpad(1024)
        sp.alloc_array("a", 16, "u4")
        sp.alloc_array("b", 16, "u4")
        assert sp.bytes_used == 128
