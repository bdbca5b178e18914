"""Integration tests for the DSM cluster with apointer access."""

import numpy as np
import pytest

from repro.core import APConfig, AVM
from repro.dsm import DSMCluster
from repro.dsm.cluster import ActivePageRevocationError
from repro.dsm.directory import PageState

PAGE = 4096


def make_cluster():
    return DSMCluster(num_devices=2, region_bytes=8 * PAGE,
                      frames_per_device=16)


@pytest.fixture
def cluster():
    return make_cluster()


def run_on(cluster, dev, body):
    """Launch a one-warp kernel on device ``dev`` with a mapped ptr."""
    avm = AVM(APConfig())
    backend = cluster.backend_for(dev)

    def kern(ctx):
        ptr = avm.map_backend(ctx, backend, cluster.region_bytes,
                              write=True)
        yield from body(ctx, ptr)
        yield from ptr.destroy(ctx)

    return cluster.devices[dev].launch(kern, grid=1, block_threads=32)


def run_producer_consumer(cluster):
    """Device 0 dirties pages 0-3, then device 0 writes pages 4-7 while
    device 1 concurrently reads pages 0-3.  Returns the cluster launch
    result and the values device 1 read, one array per page."""
    from repro.gpu.multigpu import ClusterLaunch, launch_cluster

    # Phase 1: device 0 writes pages 0-3 (left dirty in its cache).
    avm0 = AVM(APConfig())
    b0 = cluster.backend_for(0)

    def writer(ctx):
        ptr = avm0.map_backend(ctx, b0, cluster.region_bytes,
                               write=True)
        for p in range(4):
            yield from ptr.seek(ctx, p * PAGE + ctx.lane * 4)
            yield from ptr.write(ctx, np.full(32, 99, np.uint32), "u4")
        yield from ptr.destroy(ctx)

    cluster.devices[0].launch(writer, grid=1, block_threads=32)

    # Phase 2 (concurrent): device 0 computes on pages 4-7 while device
    # 1 reads pages 0-3, forcing flushes of device 0's dirty copies
    # mid-run.
    seen = []
    avm1 = AVM(APConfig())
    b1 = cluster.backend_for(1)

    def reader(ctx):
        ptr = avm1.map_backend(ctx, b1, cluster.region_bytes)
        for p in range(4):
            yield from ptr.seek(ctx, p * PAGE + ctx.lane * 4)
            seen.append((yield from ptr.read(ctx, "u4")).copy())
        yield from ptr.destroy(ctx)

    def busy(ctx):
        ptr = avm0.map_backend(ctx, b0, cluster.region_bytes,
                               write=True)
        for p in range(4, 8):
            yield from ptr.seek(ctx, p * PAGE + ctx.lane * 4)
            yield from ptr.write(ctx, np.full(32, 7, np.uint32), "u4")
        yield from ptr.destroy(ctx)

    result = launch_cluster([
        ClusterLaunch(cluster.devices[0], busy, 1, 32),
        ClusterLaunch(cluster.devices[1], reader, 1, 32),
    ])
    return result, seen


class TestBasicSharing:
    def test_write_then_remote_read(self, cluster):
        def writer(ctx, ptr):
            yield from ptr.seek(ctx, ctx.lane * 4)
            yield from ptr.write(ctx, np.full(32, 42, np.uint32), "u4")

        seen = []

        def reader(ctx, ptr):
            yield from ptr.seek(ctx, ctx.lane * 4)
            seen.append((yield from ptr.read(ctx, "u4")))

        run_on(cluster, 0, writer)
        run_on(cluster, 1, reader)
        assert np.all(seen[0] == 42)
        assert cluster.stats.flushes == 1

    def test_ping_pong_ownership(self, cluster):
        """Alternating writers migrate the page back and forth."""
        for round_ in range(4):
            dev = round_ % 2

            def bump(ctx, ptr):
                yield from ptr.seek(ctx, ctx.lane * 4)
                v = yield from ptr.read(ctx, "u4")
                yield from ptr.write(ctx, v + 1, "u4")

            run_on(cluster, dev, bump)
        final = cluster.region_array()[:128].view(np.uint32)
        # The last writer's copy may still be dirty; force a read that
        # flushes it.
        seen = []

        def check(ctx, ptr):
            yield from ptr.seek(ctx, ctx.lane * 4)
            seen.append((yield from ptr.read(ctx, "u4")))

        run_on(cluster, 0, check)
        assert np.all(seen[0] == 4)
        assert cluster.stats.flushes >= 3

    def test_readers_share_without_flushes(self, cluster):
        def reader(ctx, ptr):
            yield from ptr.seek(ctx, ctx.lane * 4)
            yield from ptr.read(ctx, "u4")

        run_on(cluster, 0, reader)
        run_on(cluster, 1, reader)
        assert cluster.stats.flushes == 0
        assert cluster.directory.state_of(0) is PageState.SHARED
        assert cluster.directory.holders_of(0) == {0, 1}

    def test_upgrade_fault_reaches_directory(self, cluster):
        """Read-then-write on one device must become EXCLUSIVE even
        though the pointer was already linked (the upgrade fault)."""
        def read_then_write(ctx, ptr):
            yield from ptr.seek(ctx, ctx.lane * 4)
            v = yield from ptr.read(ctx, "u4")
            yield from ptr.write(ctx, v + 7, "u4")

        run_on(cluster, 0, read_then_write)
        assert cluster.directory.state_of(0) is PageState.EXCLUSIVE
        assert cluster.directory.holders_of(0) == {0}


class TestCoherenceInvariant:
    def test_check_coherent_after_traffic(self, cluster):
        rng = np.random.RandomState(4)

        def scribble(dev_seed):
            def body(ctx, ptr):
                r = np.random.RandomState(dev_seed)
                for _ in range(6):
                    page = int(r.randint(0, 8))
                    yield from ptr.seek(ctx, page * PAGE + ctx.lane * 4)
                    if r.rand() < 0.5:
                        v = yield from ptr.read(ctx, "u4")
                        yield from ptr.write(ctx, v + 1, "u4")
                    else:
                        yield from ptr.read(ctx, "u4")
            return body

        for round_ in range(4):
            run_on(cluster, round_ % 2, scribble(round_))
        assert cluster.check_coherent()

    def test_active_page_cannot_be_revoked(self, cluster):
        """The fixed-mapping guarantee extends across the cluster: an
        invalidation targeting a referenced page is an error."""
        # Pin page 0 on device 1 by taking a reference directly.
        gpufs1 = cluster.gpufs[1]

        def pin(ctx):
            yield from gpufs1.gmmap(ctx, cluster.fids[1], 0)

        cluster.devices[1].launch(pin, grid=1, block_threads=32)
        cluster.directory.acquire_read(0, 1)

        def writer(ctx, ptr):
            yield from ptr.seek(ctx, ctx.lane * 4)
            yield from ptr.write(ctx, np.full(32, 1, np.uint32), "u4")

        with pytest.raises(ActivePageRevocationError):
            run_on(cluster, 0, writer)


class TestFlushBudget:
    def test_flush_wait_on_lost_page_in_raises(self, cluster):
        """A flush waiting on a page-in that never completes must fail
        loudly within its cycle budget instead of spinning forever."""
        from repro.dsm import DSMFlushTimeoutError
        from repro.paging.page_table import PageTableEntry

        # Fabricate a lost page-in on device 0: an entry stuck not-ready
        # with no transfer that will ever complete it.
        gpufs0 = cluster.gpufs[0]
        stuck = PageTableEntry(cluster.fids[0], 0, frame=0, ready=False)
        gpufs0.cache.table.host_insert(stuck)
        gpufs0.cache.bind(stuck)
        cluster.FLUSH_WAIT_BUDGET_CYCLES = 10_000.0  # keep the test fast

        def kern(ctx):
            yield from cluster.flush_page(ctx, 0, 0)

        with pytest.raises(DSMFlushTimeoutError, match="page-in still"):
            cluster.devices[1].launch(kern, grid=1, block_threads=32)

    def test_flush_waits_out_inflight_page_in(self, cluster):
        """Within budget, a flush still waits for a page-in to finish."""
        gpufs0 = cluster.gpufs[0]
        entry_holder = []

        def kern(ctx):
            if ctx.warp_id == 0:
                # A real page-in on device 0's timeline...
                yield from gpufs0.gmmap(ctx, cluster.fids[0], 0)
                yield from gpufs0.gmunmap(ctx, cluster.fids[0], 0)
            else:
                # ...while the flush path waits for it to become ready.
                while not entry_holder:
                    e = gpufs0.cache.table.get(cluster.fids[0], 0)
                    if e is not None:
                        entry_holder.append(e)
                        break
                    yield from ctx.sleep(50.0)
                yield from cluster.flush_page(ctx, 0, 0)

        cluster.devices[0].launch(kern, grid=1, block_threads=64)
        assert cluster.stats.flushes == 1
        assert entry_holder[0].ready


class TestConcurrent:
    def test_concurrent_disjoint_writers(self, cluster):
        """Both GPUs run at the same time on disjoint pages of the
        shared region (multi-GPU co-simulation)."""
        from repro.gpu.multigpu import ClusterLaunch, launch_cluster

        def make_writer(dev, pages):
            avm = AVM(APConfig())
            backend = cluster.backend_for(dev)

            def kern(ctx):
                ptr = avm.map_backend(ctx, backend,
                                      cluster.region_bytes, write=True)
                for p in pages:
                    yield from ptr.seek(ctx, p * PAGE + ctx.lane * 4)
                    yield from ptr.write(
                        ctx, np.full(32, dev + 10, np.uint32), "u4")
                yield from ptr.destroy(ctx)
                yield from cluster.gpufs[dev].flush(ctx)

            return kern

        launch_cluster([
            ClusterLaunch(cluster.devices[0], make_writer(0, [0, 1]),
                          1, 32),
            ClusterLaunch(cluster.devices[1], make_writer(1, [2, 3]),
                          1, 32),
        ])
        store = cluster.region_array()
        for p, expect in ((0, 10), (1, 10), (2, 11), (3, 11)):
            vals = store[p * PAGE:p * PAGE + 128].view(np.uint32)
            assert np.all(vals == expect), p
        assert cluster.check_coherent()

    def test_concurrent_producer_consumer_read_sharing(self, cluster):
        """One device reads pages the other wrote in an earlier phase
        while both are running — the read-fault flush path under true
        concurrency."""
        _, seen = run_producer_consumer(cluster)
        for vals in seen:
            assert np.all(vals == 99)
        assert cluster.stats.flushes >= 4


class TestConstruction:
    def test_unaligned_region_rejected(self):
        with pytest.raises(ValueError):
            DSMCluster(num_devices=2, region_bytes=PAGE + 1)

    def test_region_starts_zeroed(self, cluster):
        assert not cluster.region_array().any()
