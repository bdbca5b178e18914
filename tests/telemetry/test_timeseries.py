"""Cycle-window sampling: the zero-perturbation invariant, exact
integration of sampled series, streaming sinks, and exposition."""

import json

import pytest

from repro.gpu import Device
from repro.gpu.trace import COUNTER_KIND, Tracer, events_from_chrome_trace
from repro.telemetry import capture, validate_profile
from repro.telemetry.timeseries import (
    JsonlSink,
    TimeseriesSampler,
    merge_series,
    prometheus_lines,
    write_prometheus,
)
from repro.workloads import run_memcpy
from repro.workloads.filebench import make_file_env

PAGE = 4096


def _memcpy_doc(**capture_kwargs):
    with capture(trace=False, **capture_kwargs) as prof:
        device = Device(memory_bytes=32 * 1024 * 1024)
        r = run_memcpy(device, use_apointers=True, width=4, nblocks=2,
                       warps_per_block=4, iters_per_thread=4)
    assert r.verified
    return prof.profiles[0].to_dict()


class TestZeroPerturbation:
    """The tentpole invariant: sampling never moves simulated time."""

    def test_sampled_cycles_bit_identical_to_unsampled(self):
        baseline = _memcpy_doc()
        for window in (500.0, 2000.0, 1e9):
            sampled = _memcpy_doc(timeseries=True,
                                  window_cycles=window)
            assert sampled["launch"]["cycles"] \
                == baseline["launch"]["cycles"]
            assert sampled["engine"] == baseline["engine"]
            assert sampled["stalls"] == baseline["stalls"]
            assert sampled["sms"] == baseline["sms"]

    def test_sampling_marks_profile_component(self):
        doc = _memcpy_doc(timeseries=True, window_cycles=2000.0)
        series = doc["components"]["timeseries"]
        assert series["enabled"] == 1
        assert series["window_cycles"] == 2000.0
        assert series["windows"] == len(series["series"]) > 1
        validate_profile(doc)

    def test_unsampled_profile_has_zeroed_component(self):
        doc = _memcpy_doc()
        series = doc["components"]["timeseries"]
        assert series["enabled"] == 0
        assert series["series"] == []
        validate_profile(doc)


class TestSeriesIntegration:
    """Window series must integrate exactly to the profile totals."""

    @pytest.fixture(scope="class")
    def sampled(self):
        return _memcpy_doc(timeseries=True, window_cycles=1000.0)

    def test_dram_bytes_integrate_exactly(self, sampled):
        series = sampled["components"]["timeseries"]["series"]
        assert sum(w["dram_bytes"] for w in series) \
            == sampled["dram"]["bytes"]
        assert sum(w["dram_transactions"] for w in series) \
            == sampled["dram"]["transactions"]

    def test_sm_busy_integrates_exactly(self, sampled):
        series = sampled["components"]["timeseries"]["series"]
        for sm_doc in sampled["sms"]:
            sm = sm_doc["sm"]
            total = sum(w["sm_busy"][sm] for w in series)
            assert total == pytest.approx(sm_doc["busy_cycles"])

    def test_stalls_integrate_exactly(self, sampled):
        series = sampled["components"]["timeseries"]["series"]
        by_reason: dict = {}
        for w in series:
            for reason, cycles in w["stalls"].items():
                by_reason[reason] = by_reason.get(reason, 0.0) + cycles
        for reason, cycles in sampled["stalls"].items():
            assert by_reason.get(reason, 0.0) == pytest.approx(cycles)

    def test_windows_tile_the_launch(self, sampled):
        series = sampled["components"]["timeseries"]["series"]
        cycles = sampled["launch"]["cycles"]
        assert [w["window"] for w in series] \
            == list(range(len(series)))
        assert series[-1]["t1"] >= cycles
        for w in series:
            assert w["t1"] - w["t0"] == pytest.approx(1000.0)


class TestPagingCountersAndGauges:
    def test_fault_deltas_and_gauges_land_in_windows(self):
        npages = 8
        with capture(trace=False, timeseries=True,
                     window_cycles=5000.0) as prof:
            device, gpufs, fid, _ = make_file_env(
                npages * PAGE, num_frames=npages + 4,
                memory_bytes=npages * PAGE + 32 * 1024 * 1024)

            def kern(ctx):
                for p in range(npages):
                    yield from gpufs.gmmap(ctx, fid, p * PAGE)
                    yield from gpufs.gmunmap(ctx, fid, p * PAGE)

            device.launch(kern, grid=1, block_threads=32)

        doc = prof.longest().to_dict()
        series = doc["components"]["timeseries"]["series"]
        faults = sum(w["counters"].get("paging.major_faults", 0)
                     for w in series)
        assert faults == doc["components"]["paging"]["major_faults"] \
            == npages
        assert sum(w["pcie_bytes"] for w in series) \
            == doc["pcie"]["bytes"]
        gauge_names = set()
        for w in series:
            gauge_names.update(w["gauges"])
        assert "page_cache.occupancy" in gauge_names
        assert "staging.ring_utilization" in gauge_names


class TestSamplerUnit:
    def test_issue_spread_conserves_cycles_and_instructions(self):
        s = TimeseriesSampler(num_sms=1, window_cycles=100.0)
        s.issue(None, 0, 50.0, 175.0, 8.0)       # spans windows 0, 1, 2
        s.finish(300.0)
        busy = [w["sm_busy"][0] for w in s.windows]
        assert busy == [50.0, 100.0, 25.0]
        assert sum(w["instructions"] for w in s.windows) \
            == pytest.approx(8.0)

    def test_stall_attributed_to_end_window(self):
        s = TimeseriesSampler(num_sms=1, window_cycles=100.0)
        s.advance(250.0)                   # windows 0 and 1 closed
        s.stall(None, "barrier", "", 10.0, 250.0)  # began in window 0
        s.finish(300.0)
        stalls = [w["stalls"].get("barrier", 0.0) for w in s.windows]
        assert stalls == [0.0, 0.0, 240.0]

    def test_closed_windows_are_immutable(self):
        hits = []
        s = TimeseriesSampler(num_sms=1, window_cycles=100.0,
                              sink=hits.append)
        s.issue(None, 0, 10.0, 10.0, 1.0)
        s.advance(150.0)
        assert len(hits) == 1
        flushed = json.loads(json.dumps(hits[0]))
        s.issue(None, 0, 150.0, 10.0, 1.0)       # lands in open window 1
        s.stall(None, "memory", "", -340.0, 160.0)
        s.finish(200.0)
        assert hits[0] == flushed          # window 0 never touched

    def test_max_windows_drops_and_counts(self):
        s = TimeseriesSampler(num_sms=1, window_cycles=10.0,
                              max_windows=3)
        s.finish(100.0)                    # 10 windows, cap 3
        assert len(s.windows) == 3
        assert s.dropped_windows == 7
        comp = s.to_component()
        assert comp["windows"] == 10
        assert comp["dropped_windows"] == 7

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            TimeseriesSampler(num_sms=1, window_cycles=0.0)


class TestJsonlSink:
    def test_records_stamped_and_appended(self, tmp_path):
        path = tmp_path / "series.jsonl"
        seen = []
        sink = JsonlSink(str(path), meta={"experiment": "x", "point": 3},
                         on_window=seen.append)
        sink({"window": 0, "dram_bytes": 5})
        sink({"window": 1, "dram_bytes": 7})
        sink.close()
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert [r["window"] for r in lines] == [0, 1]
        assert all(r["experiment"] == "x" and r["point"] == 3
                   for r in lines)
        assert seen == lines


class TestPrometheus:
    def test_exposition_format(self):
        lines = prometheus_lines(
            {"dram_bytes": 1024, "gauge.page_cache.occupancy": 0.5,
             "skip_me": "not a number"})
        assert "# TYPE repro_dram_bytes counter" in lines
        assert "repro_dram_bytes 1024" in lines
        assert "# TYPE repro_gauge_page_cache_occupancy gauge" in lines
        assert "repro_gauge_page_cache_occupancy 0.5" in lines
        assert not any("skip_me" in line for line in lines)

    def test_write_is_atomic_and_parseable(self, tmp_path):
        path = tmp_path / "live" / "metrics.prom"
        write_prometheus(str(path), {"windows": 4})
        text = path.read_text()
        assert text.endswith("\n")
        assert "repro_windows 4" in text
        assert not (tmp_path / "live" / "metrics.prom.tmp").exists()


class TestMergeSeries:
    def test_concatenates_with_launch_keys(self):
        docs = [
            {"components": {"timeseries": {
                "enabled": 1, "window_cycles": 100.0, "windows": 2,
                "dropped_windows": 0,
                "series": [{"window": 0}, {"window": 1}]}}},
            {"components": {"timeseries": {"enabled": 0,
                                           "series": []}}},
            {"components": {"timeseries": {
                "enabled": 1, "window_cycles": 50.0, "windows": 1,
                "dropped_windows": 1, "series": [{"window": 0}]}}},
        ]
        merged = merge_series(docs)
        assert merged["enabled"] == 2
        assert merged["windows"] == 3
        assert merged["dropped_windows"] == 1
        assert merged["window_cycles"] == 100.0
        assert [(w["launch"], w["window"]) for w in merged["series"]] \
            == [(0, 0), (0, 1), (2, 0)]


class TestChromeCounterRoundTrip:
    def test_counter_events_survive_export_import(self):
        tracer = Tracer()
        tracer.record_counter("timeseries.sm_busy_frac", 1000.0, 0.375)
        tracer.record_counter("gauge.page_cache.occupancy", 2000.0, 0.5)
        trace = tracer.to_chrome_trace()
        counters = [e for e in trace["traceEvents"]
                    if e.get("ph") == "C"]
        assert len(counters) == 2
        assert counters[0]["cat"] == "timeseries"
        events, dropped = events_from_chrome_trace(trace)
        assert dropped == 0
        assert [e for e in events if e.kind == COUNTER_KIND] \
            == tracer.events

    def test_sampled_traced_launch_exports_counter_tracks(self):
        with capture(trace=True, max_traces=1, timeseries=True,
                     window_cycles=1000.0) as prof:
            device = Device(memory_bytes=32 * 1024 * 1024)
            run_memcpy(device, use_apointers=True, width=4, nblocks=1,
                       warps_per_block=2, iters_per_thread=2)
        tracer = prof.traces[0]
        trace = tracer.to_chrome_trace()
        names = {e["name"] for e in trace["traceEvents"]
                 if e.get("ph") == "C"}
        assert "timeseries.sm_busy_frac" in names
        assert "timeseries.dram_bytes" in names
