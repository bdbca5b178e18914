"""Tests for the APtr state machine, arithmetic, dereference, and the
reference-counting invariants of §III-B."""

import numpy as np
import pytest

from repro.core import APConfig, APtrState, PtrFormat
from repro.core.apointer import BoundsError, ProtectionError
from tests.core.conftest import PAGE, launch, make_avm


class TestStateMachine:
    def test_fresh_pointer_is_unlinked(self, device, gpufs, file_bytes):
        avm = make_avm(gpufs)
        fid = gpufs.open("data")
        states = []

        def kern(ctx):
            ptr = avm.gvmmap(ctx, 8 * PAGE, fid)
            states.append(ptr.state)
            yield from ptr.read(ctx, "u4")
            states.append(ptr.state)

        launch(device, kern)
        assert states == [APtrState.UNLINKED, APtrState.LINKED]

    def test_first_access_faults_second_does_not(self, device, gpufs):
        avm = make_avm(gpufs)
        fid = gpufs.open("data")

        def kern(ctx):
            ptr = avm.gvmmap(ctx, 8 * PAGE, fid)
            yield from ptr.read(ctx, "u4")
            yield from ptr.read(ctx, "u4")
            yield from ptr.read(ctx, "u4")

        launch(device, kern)
        assert avm.stats.fault_groups == 1
        assert avm.stats.derefs == 3

    def test_crossing_page_boundary_unlinks(self, device, gpufs):
        avm = make_avm(gpufs)
        fid = gpufs.open("data")
        states = []

        def kern(ctx):
            ptr = avm.gvmmap(ctx, 8 * PAGE, fid)
            yield from ptr.read(ctx, "u4")
            yield from ptr.add(ctx, PAGE)          # off the linked page
            states.append(ptr.state)
            yield from ptr.add(ctx, -PAGE)         # back, still unlinked
            states.append(ptr.state)
            yield from ptr.destroy(ctx)

        launch(device, kern)
        assert states == [APtrState.UNLINKED, APtrState.UNLINKED]
        assert avm.stats.unlinks == 32

    def test_moving_within_page_stays_linked(self, device, gpufs):
        avm = make_avm(gpufs)
        fid = gpufs.open("data")
        states = []

        def kern(ctx):
            ptr = avm.gvmmap(ctx, 8 * PAGE, fid)
            yield from ptr.seek(ctx, ctx.lane * 4)
            yield from ptr.read(ctx, "u4")
            yield from ptr.add(ctx, 128)
            states.append(ptr.state)
            yield from ptr.destroy(ctx)

        launch(device, kern)
        assert states == [APtrState.LINKED]
        assert avm.stats.fault_groups == 1

    def test_clone_is_unlinked_copy(self, device, gpufs):
        avm = make_avm(gpufs)
        fid = gpufs.open("data")
        out = []

        def kern(ctx):
            ptr = avm.gvmmap(ctx, 8 * PAGE, fid)
            yield from ptr.add(ctx, 64)
            yield from ptr.read(ctx, "u4")
            twin = ptr.clone(ctx)
            out.append((twin.state, twin.pos.copy(), ptr.state))
            yield from ptr.destroy(ctx)

        launch(device, kern)
        twin_state, twin_pos, orig_state = out[0]
        assert twin_state == APtrState.UNLINKED
        assert orig_state == APtrState.LINKED
        assert np.all(twin_pos == 64)

    def test_mixed_state_when_lanes_diverge(self, device, gpufs):
        avm = make_avm(gpufs)
        fid = gpufs.open("data")
        states = []

        def kern(ctx):
            ptr = avm.gvmmap(ctx, 8 * PAGE, fid)
            yield from ptr.seek(ctx, ctx.lane * 4)
            yield from ptr.read(ctx, "u4")
            # Half the lanes step onto the next page (and unlink).
            delta = np.where(ctx.lane < 16, PAGE, 0)
            yield from ptr.add(ctx, delta)
            states.append(ptr.state)
            yield from ptr.destroy(ctx)

        launch(device, kern)
        assert states == [APtrState.MIXED]


class TestFunctionalAccess:
    def test_read_returns_file_contents(self, device, gpufs, file_bytes):
        avm = make_avm(gpufs)
        fid = gpufs.open("data")
        seen = []

        def kern(ctx):
            ptr = avm.gvmmap(ctx, 8 * PAGE, fid)
            yield from ptr.seek(ctx, ctx.lane * 4)
            seen.append((yield from ptr.read(ctx, "u4")))
            yield from ptr.destroy(ctx)

        launch(device, kern)
        assert np.array_equal(seen[0], file_bytes[:128].view(np.uint32))

    def test_write_reaches_backing_file_via_flush(self, device, gpufs):
        from repro.host.filesys import O_RDWR
        avm = make_avm(gpufs)
        fid = gpufs.open("data", O_RDWR)

        def kern(ctx):
            ptr = avm.gvmmap(ctx, 8 * PAGE, fid, write=True)
            yield from ptr.seek(ctx, ctx.lane * 4)
            yield from ptr.write(ctx, np.full(32, 99, np.uint32), "u4")
            yield from ptr.destroy(ctx)
            yield from gpufs.flush(ctx)

        launch(device, kern)
        back = gpufs.host_fs.ramfs.open("data").pread(0, 128).view(np.uint32)
        assert np.all(back == 99)

    def test_unaligned_mapping_reads_across_pages(self, device, gpufs,
                                                  file_bytes):
        """The §VI-E usability point: records not aligned to page
        boundaries are read through plain pointer arithmetic."""
        avm = make_avm(gpufs)
        fid = gpufs.open("data")
        seen = []
        record = 3072  # 3 KB records straddle 4 KB pages

        def kern(ctx):
            ptr = avm.gvmmap(ctx, 16 * PAGE, fid)
            for r in range(4):
                yield from ptr.seek(ctx, r * record + ctx.lane * 4)
                seen.append((r, (yield from ptr.read(ctx, "u4"))))
            yield from ptr.destroy(ctx)

        launch(device, kern)
        for r, vals in seen:
            exp = file_bytes[r * record:r * record + 128].view(np.uint32)
            assert np.array_equal(vals, exp)

    def test_lanes_in_different_pages_read_correctly(self, device,
                                                     file_bytes):
        # 32 simultaneously pinned pages need a cache larger than the
        # default 16-frame fixture.
        from repro.host import HostFileSystem
        from repro.host.ramfs import RamFS
        from repro.paging import GPUfs, GPUfsConfig
        fs = RamFS()
        fs.create("data", file_bytes)
        gpufs = GPUfs(device, HostFileSystem(fs),
                      GPUfsConfig(page_size=PAGE, num_frames=64))
        avm = make_avm(gpufs)
        fid = gpufs.open("data")
        seen = []

        def kern(ctx):
            ptr = avm.gvmmap(ctx, 32 * PAGE, fid)
            yield from ptr.seek(ctx, ctx.lane * PAGE)  # 32 distinct pages
            seen.append((yield from ptr.read(ctx, "u4")))
            yield from ptr.destroy(ctx)

        launch(device, kern)
        exp = np.array([file_bytes[l * PAGE:l * PAGE + 4].view(np.uint32)[0]
                        for l in range(32)])
        assert np.array_equal(seen[0], exp)


class TestAggregation:
    def test_one_fault_group_per_distinct_page(self, device, gpufs):
        avm = make_avm(gpufs)
        fid = gpufs.open("data")

        def kern(ctx):
            ptr = avm.gvmmap(ctx, 8 * PAGE, fid)
            # Lanes split across 4 pages: 4 sequential fault groups.
            yield from ptr.seek(ctx, (ctx.lane % 4) * PAGE)
            yield from ptr.read(ctx, "u4")
            yield from ptr.destroy(ctx)

        launch(device, kern)
        assert avm.stats.fault_groups == 4
        assert avm.stats.translation_faults == 32

    def test_refcount_aggregated_per_warp(self, device, gpufs):
        """§III-D: the count is incremented by the number of lanes that
        access the page, not once per lane."""
        avm = make_avm(gpufs)
        fid = gpufs.open("data")
        counts = []

        def kern(ctx):
            ptr = avm.gvmmap(ctx, 8 * PAGE, fid)
            yield from ptr.seek(ctx, ctx.lane * 4)
            yield from ptr.read(ctx, "u4")
            entry = gpufs.cache.table.get(fid, 0)
            counts.append(entry.refcount)
            yield from ptr.destroy(ctx)

        launch(device, kern)
        assert counts[0] == 32
        assert gpufs.cache.table.get(fid, 0).refcount == 0

    def test_active_page_survives_cache_pressure(self, device, gpufs,
                                                 file_bytes):
        """A linked apointer's page is never evicted even when other
        accesses sweep the whole cache (16 frames, 32-page file)."""
        avm = make_avm(gpufs)
        fid = gpufs.open("data")
        ok = []

        def kern(ctx):
            held = avm.gvmmap(ctx, 32 * PAGE, fid)
            yield from held.seek(ctx, ctx.lane * 4)
            first = yield from held.read(ctx, "u4")
            sweep = avm.gvmmap(ctx, 32 * PAGE, fid)
            for p in range(1, 32):
                yield from sweep.seek(ctx, p * PAGE)
                yield from sweep.read(ctx, "u4")
            again = yield from held.read(ctx, "u4")  # still linked: no fault
            ok.append(np.array_equal(first, again))
            yield from held.destroy(ctx)
            yield from sweep.destroy(ctx)

        launch(device, kern)
        assert ok[0]
        assert gpufs.cache.evictions > 0  # pressure was real


class TestProtectionAndBounds:
    def test_write_through_readonly_raises(self, device, gpufs):
        avm = make_avm(gpufs)
        fid = gpufs.open("data")

        def kern(ctx):
            ptr = avm.gvmmap(ctx, 8 * PAGE, fid, write=False)
            yield from ptr.write(ctx, np.zeros(32, np.uint32), "u4")

        with pytest.raises(ProtectionError):
            launch(device, kern)

    def test_out_of_bounds_read_raises(self, device, gpufs):
        avm = make_avm(gpufs)
        fid = gpufs.open("data")

        def kern(ctx):
            ptr = avm.gvmmap(ctx, PAGE, fid)
            yield from ptr.add(ctx, PAGE)
            yield from ptr.read(ctx, "u4")

        with pytest.raises(BoundsError):
            launch(device, kern)

    def test_negative_position_raises(self, device, gpufs):
        avm = make_avm(gpufs)
        fid = gpufs.open("data")

        def kern(ctx):
            ptr = avm.gvmmap(ctx, PAGE, fid)
            yield from ptr.add(ctx, -4)
            yield from ptr.read(ctx, "u4")

        with pytest.raises(BoundsError):
            launch(device, kern)

    def test_straddling_access_rejected(self, device, gpufs):
        avm = make_avm(gpufs)
        fid = gpufs.open("data")

        def kern(ctx):
            ptr = avm.gvmmap(ctx, 2 * PAGE, fid)
            yield from ptr.add(ctx, PAGE - 2)
            yield from ptr.read(ctx, "u4")

        with pytest.raises(BoundsError):
            launch(device, kern)

    def test_wide_access_running_past_page_end_rejected(self, device,
                                                        gpufs):
        # 12-byte lanes at in-page offsets 3720..4092: every offset is a
        # multiple of 12, but lane 31 spans bytes 4092-4104 of a
        # 4096-byte page and would read the next frame.
        from repro.core.aarray import AArray
        avm = make_avm(gpufs)
        fid = gpufs.open("data")

        def kern(ctx, base):
            arr = AArray(avm.gvmmap(ctx, 8 * PAGE, fid), "f4")
            yield from arr.get_block(ctx, base, 3)

        launch(device, kern, 927)          # offsets 3708..4080: fits
        with pytest.raises(BoundsError, match="past the end"):
            launch(device, kern, 930)


class TestEncodedWord:
    @pytest.mark.parametrize("fmt", [PtrFormat.LONG, PtrFormat.SHORT])
    def test_word_tracks_state(self, device, gpufs, fmt):
        from repro.core import translation as tr
        avm = make_avm(gpufs, fmt=fmt)
        fid = gpufs.open("data")
        words = []

        def kern(ctx):
            ptr = avm.gvmmap(ctx, 8 * PAGE, fid)
            words.append(("unlinked", ptr.encoded_word().copy()))
            yield from ptr.read(ctx, "u4")
            words.append(("linked", ptr.encoded_word().copy()))
            yield from ptr.destroy(ctx)

        launch(device, kern)
        for label, word in words:
            valid = (word & tr.VALID_BIT) != 0
            assert valid.all() == (label == "linked")

    def test_long_word_decodes_to_load_and_backing_addresses(self, device,
                                                             gpufs):
        """Linked lanes encode the address the dereference loads from
        (frame base plus in-page offset); unlinked lanes encode their
        backing-store position ``base_offset + pos``."""
        from repro.core import translation as tr
        avm = make_avm(gpufs, fmt=PtrFormat.LONG)
        fid = gpufs.open("data")
        words = []

        def kern(ctx):
            ptr = avm.gvmmap(ctx, 8 * PAGE, fid, foffset=PAGE)
            yield from ptr.seek(ctx, PAGE + 4 * ctx.lane)
            words.append(ptr.encoded_word())
            yield from ptr.read(ctx, "u4")
            words.append(ptr.encoded_word())
            yield from ptr.destroy(ctx)

        launch(device, kern)
        offsets = 4 * np.arange(32)
        valid, addr = tr.decode_long(words[0])
        assert not valid.any()
        assert np.array_equal(addr, 2 * PAGE + offsets)
        frame = gpufs.cache.frame_addr(gpufs.cache.table.get(fid, 2).frame)
        valid, addr = tr.decode_long(words[1])
        assert valid.all()
        assert np.array_equal(addr, frame + offsets)

    def test_short_word_keeps_in_page_offset_and_xpage(self, device,
                                                       gpufs):
        from repro.core import translation as tr
        avm = make_avm(gpufs, fmt=PtrFormat.SHORT)
        fid = gpufs.open("data")
        words = []

        def kern(ctx):
            ptr = avm.gvmmap(ctx, 8 * PAGE, fid, foffset=PAGE)
            yield from ptr.seek(ctx, PAGE + 4 * ctx.lane)
            words.append(ptr.encoded_word())
            yield from ptr.read(ctx, "u4")
            words.append(ptr.encoded_word())
            yield from ptr.destroy(ctx)

        launch(device, kern)
        offsets = 4 * np.arange(32)
        frame = gpufs.cache.frame_addr(gpufs.cache.table.get(fid, 2).frame)
        for word, linked in zip(words, (False, True)):
            valid, aphys, xpage = tr.decode_short(word)
            assert valid.all() == linked
            assert np.array_equal(aphys % PAGE, offsets)
            assert np.all(xpage == 2)
        assert np.array_equal(aphys, frame + offsets)

    def test_short_format_costs_more_instructions(self):
        from repro.core.calibration import cost_model_for
        long_cm = cost_model_for(APConfig(fmt=PtrFormat.LONG))
        short_cm = cost_model_for(APConfig(fmt=PtrFormat.SHORT))
        assert short_cm.fmt_extra_count > long_cm.fmt_extra_count


class TestDirectBackend:
    def test_device_mapping_roundtrip(self, device):
        avm = make_avm()
        base = device.alloc(8 * PAGE)
        device.memory.write(base, np.arange(PAGE * 2, dtype=np.uint32))
        seen = []

        def kern(ctx):
            ptr = avm.gvmmap_device(ctx, base, 8 * PAGE)
            yield from ptr.seek(ctx, ctx.lane * 4)
            seen.append((yield from ptr.read(ctx, "u4")))
            yield from ptr.write(ctx, np.full(32, 5, np.uint32), "u4")
            yield from ptr.destroy(ctx)

        launch(device, kern)
        assert np.array_equal(seen[0], np.arange(32, dtype=np.uint32))
        back = device.memory.read(base, 128).view(np.uint32)
        assert np.all(back == 5)

    def test_no_gpufs_required(self, device):
        avm = make_avm()
        with pytest.raises(RuntimeError, match="no GPUfs"):

            def kern(ctx):
                avm.gvmmap(ctx, PAGE, 3)
                yield from ctx.flush()

            launch(device, kern)
