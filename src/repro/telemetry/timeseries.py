"""Cycle-window time-series sampling — live metrics for long launches.

Everything else in :mod:`repro.telemetry` is post-hoc: a launch must
finish before its :class:`LaunchProfile` exists.  The
:class:`TimeseriesSampler` closes that gap.  As an engine observer
(:class:`repro.gpu.launch.EngineObserver`) it gets the same events as
``EngineProfile`` and the tracer — an unobserved launch pays one
comparison per event and nothing else — and buckets everything it
sees into fixed-width *windows* of simulated cycles:

* per-SM issue-server busy cycles (occupancy) and instructions issued;
* warp stall cycles keyed by reason (``memory``, ``barrier``, ...);
* DRAM bytes/transactions, bandwidth-server busy cycles, and queue
  delay; PCIe bytes and link busy cycles;
* per-window *deltas* of every component counter registered with the
  profiler (page-cache faults, TLB hits/misses, readahead hits,
  staging batches, ...), probed by snapshot at window boundaries so the
  per-dereference hot paths stay uninstrumented;
* *gauges* — instantaneous levels (frames in use, pinned frames,
  staging-ring utilisation, readahead in-flight pages) evaluated at
  each window close.

The hard invariant: sampling only ever *reads* simulator state.  A
launch sampled at any window size produces bit-identical simulated
cycles to an unsampled one (regression-tested, like the attribution
layer's traced==untraced invariant).

Windows stream out through an optional ``sink`` callable as they close
(:class:`JsonlSink` appends them to a JSONL file — what ``repro-top``
tails), are mirrored as Chrome-trace ``"C"`` counter events when a
tracer is attached, and land in the launch profile under
``components.timeseries`` (schema v6).  :func:`prometheus_lines` /
:func:`write_prometheus` render a cumulative snapshot in Prometheus
text exposition format for scrape-style consumers.
"""

from __future__ import annotations

import json
import math
import os
from typing import Callable, Optional

from repro.gpu.launch import EngineObserver

#: Default window width, simulated cycles.  At the K80's 0.56 GHz this
#: is ~90 us of simulated time per sample — fine enough to see phase
#: changes, coarse enough that a long run stays a few thousand windows.
DEFAULT_WINDOW_CYCLES = 50_000.0

#: In-profile retention cap: the profile document keeps at most this
#: many windows (the stream sink is uncapped); overflow windows are
#: counted in ``dropped_windows``.
DEFAULT_MAX_WINDOWS = 4096


class _Window:
    """Accumulator for one cycle window (plain attrs, no dataclass —
    this is allocated per window on the sampling path)."""

    __slots__ = ("index", "sm_busy", "instructions", "stalls",
                 "dram_bytes", "dram_transactions", "dram_busy",
                 "dram_queue_cycles", "dram_queued_accesses",
                 "pcie_bytes", "pcie_busy")

    def __init__(self, index: int, num_sms: int):
        self.index = index
        self.sm_busy = [0.0] * num_sms
        self.instructions = 0.0
        self.stalls: dict[str, float] = {}
        self.dram_bytes = 0
        self.dram_transactions = 0
        self.dram_busy = 0.0
        self.dram_queue_cycles = 0.0
        self.dram_queued_accesses = 0
        self.pcie_bytes = 0
        self.pcie_busy = 0.0


class TimeseriesSampler(EngineObserver):
    """Buckets engine activity into fixed cycle windows.  See module
    docstring for the full contract; its owner calls :meth:`finish`."""

    def __init__(self, num_sms: int,
                 window_cycles: float = DEFAULT_WINDOW_CYCLES,
                 max_windows: int = DEFAULT_MAX_WINDOWS,
                 sink: Optional[Callable[[dict], None]] = None,
                 tracer=None,
                 probes: Optional[list] = None,
                 gauges: Optional[list] = None):
        if window_cycles <= 0:
            raise ValueError("window_cycles must be positive")
        self.num_sms = num_sms
        self.window_cycles = float(window_cycles)
        self.max_windows = max_windows
        self.sink = sink
        self.tracer = tracer
        #: ``(kind, stats_obj)`` pairs to probe by snapshot delta at
        #: each window close — or a :class:`MetricsRegistry`, consulted
        #: live so components registered mid-launch join the stream.
        #: The sampler keeps its *own* baselines so probing never
        #: rebaselines the profiler's per-launch delta accounting.
        self.probes = probes if probes is not None else []
        #: ``(name, fn)`` pairs; ``fn()`` -> instantaneous level.
        self.gauges = gauges if gauges is not None else []
        self.windows: list[dict] = []
        self.dropped_windows = 0
        self.finished = False
        self._open: dict[int, _Window] = {}
        self._flushed_until = 0      # all indices < this are closed
        self._next_roll = self.window_cycles
        self._baselines: dict[int, dict] = {}
        self._totals: dict[str, float] = {}
        # Baseline every already-registered component now (launch
        # start), so the first window reports deltas, not nothing.
        self._probe_deltas()

    # -- engine observer events (hot path; must never mutate sim state)
    def advance(self, now: float) -> None:
        """Heap time reached ``now``: close every window that ended.

        Safe because heap pops are monotonic and every interval the
        engine records starts at or after the pop time — a closed
        window can never receive a late contribution.
        """
        if now < self._next_roll:
            return
        target = int(now / self.window_cycles)
        for index in range(self._flushed_until, target):
            self._flush(index)
        self._flushed_until = target
        self._next_roll = (target + 1) * self.window_cycles

    def issue(self, warp, sm: int, start: float, cycles: float,
              count: float) -> None:
        """One issue-server reservation: ``cycles`` busy on ``sm``
        issuing ``count`` instructions, starting at ``start``."""
        if cycles <= 0 and count <= 0:
            return
        w = self.window_cycles
        first = int(start / w)
        end = start + cycles
        if end <= (first + 1) * w:       # fast path: single window
            win = self._open.get(first)
            if win is None:
                win = self._window(first)
            win.sm_busy[sm] += cycles
            win.instructions += count
            return
        span = cycles if cycles > 0 else 1.0
        index = max(first, self._flushed_until)
        while True:
            lo = max(start, index * w)
            hi = min(end, (index + 1) * w)
            part = hi - lo
            if part > 0:
                win = self._window(index)
                win.sm_busy[sm] += part
                win.instructions += count * (part / span)
            if end <= (index + 1) * w:
                break
            index += 1

    def stall(self, warp, kind: str, tag: str, start: float,
              end: float) -> None:
        """One warp stall, attributed to the window in which it *ended*
        (stall intervals may begin before the current window — e.g.
        barrier waiters — and closed windows are immutable, so
        completion-time attribution keeps the stream append-only)."""
        if end <= start:
            return
        index = int(end / self.window_cycles)
        if index < self._flushed_until:
            index = self._flushed_until
        win = self._open.get(index)
        if win is None:
            win = self._window(index)
        win.stalls[kind] = win.stalls.get(kind, 0.0) + (end - start)

    def dram(self, start: float, nbytes: int, transactions: int,
             busy: float, queue_cycles: float) -> None:
        """One DRAM access: bytes/transactions/queue delay land in the
        window containing the access start (so the byte series
        integrates exactly to the launch total); server busy cycles are
        spread over the service interval."""
        w = self.window_cycles
        index = int(start / w)
        if index < self._flushed_until:
            index = self._flushed_until
        win = self._open.get(index)
        if win is None:
            win = self._window(index)
        win.dram_bytes += nbytes
        win.dram_transactions += transactions
        win.dram_queue_cycles += queue_cycles
        win.dram_queued_accesses += 1
        if busy > 0:
            if start + busy <= (index + 1) * w \
                    and index * w <= start:
                win.dram_busy += busy    # fast path: single window
            else:
                self._spread(start, busy, "dram_busy")

    def pcie(self, start: float, nbytes: int, busy: float) -> None:
        """One PCIe transfer: bytes at the start window, link busy
        cycles spread over the transfer interval."""
        w = self.window_cycles
        index = int(start / w)
        if index < self._flushed_until:
            index = self._flushed_until
        win = self._open.get(index)
        if win is None:
            win = self._window(index)
        win.pcie_bytes += nbytes
        if busy > 0:
            if start + busy <= (index + 1) * w \
                    and index * w <= start:
                win.pcie_busy += busy
            else:
                self._spread(start, busy, "pcie_busy")

    def finish(self, total_cycles: float) -> None:
        """Launch over: close every remaining window."""
        if self.finished:
            return
        # A launch ending exactly on a boundary owns no window past it:
        # total==N*W means windows 0..N-1, not an empty window N.
        last = max((int(math.ceil(total_cycles / self.window_cycles))
                    - 1 if total_cycles > 0 else -1),
                   *(self._open.keys() or (-1,)))
        for index in range(self._flushed_until, last + 1):
            self._flush(index)
        self._flushed_until = last + 1
        self.finished = True

    # ------------------------------------------------------------------
    def _window(self, index: int) -> _Window:
        win = self._open.get(index)
        if win is None:
            win = _Window(index, self.num_sms)
            self._open[index] = win
        return win

    def _spread(self, start: float, cycles: float, attr: str) -> None:
        if cycles <= 0:
            return
        w = self.window_cycles
        end = start + cycles
        index = max(int(start / w), self._flushed_until)
        while True:
            lo = max(start, index * w)
            hi = min(end, (index + 1) * w)
            if hi > lo:
                win = self._window(index)
                setattr(win, attr, getattr(win, attr) + (hi - lo))
            if end <= (index + 1) * w:
                break
            index += 1

    def _probe_deltas(self) -> dict:
        """Per-window component-counter deltas since the last close.

        Uses private baselines keyed by stats-object id; a component
        first seen mid-launch is baselined silently (its pre-window
        history belongs to no window).
        """
        from repro.telemetry.profile import _numeric_fields
        out: dict[str, float] = {}
        probes = (self.probes.components()
                  if hasattr(self.probes, "components")
                  else self.probes)
        for kind, stats in probes:
            now = _numeric_fields(stats)
            base = self._baselines.get(id(stats))
            self._baselines[id(stats)] = now
            if base is None:
                continue
            for key, value in now.items():
                delta = value - base.get(key, 0)
                if delta:
                    name = f"{kind}.{key}"
                    out[name] = out.get(name, 0) + delta
        return out

    def _read_gauges(self) -> dict:
        out: dict[str, float] = {}
        for name, fn in self.gauges:
            try:
                value = float(fn())
            except Exception:       # a dead gauge must not kill a run
                continue
            out[name] = out.get(name, 0.0) + value
        return out

    def _flush(self, index: int) -> None:
        w = self.window_cycles
        win = self._open.pop(index, None)
        if win is None:
            win = _Window(index, self.num_sms)
        record = {
            "window": index,
            "t0": index * w,
            "t1": (index + 1) * w,
            "sm_busy": win.sm_busy,
            "instructions": win.instructions,
            "stalls": win.stalls,
            "dram_bytes": win.dram_bytes,
            "dram_transactions": win.dram_transactions,
            "dram_busy": win.dram_busy,
            "dram_queue_cycles": win.dram_queue_cycles,
            "dram_queued_accesses": win.dram_queued_accesses,
            "pcie_bytes": win.pcie_bytes,
            "pcie_busy": win.pcie_busy,
            "counters": self._probe_deltas(),
            "gauges": self._read_gauges(),
        }
        self._accumulate(record)
        if len(self.windows) < self.max_windows:
            self.windows.append(record)
        else:
            self.dropped_windows += 1
            # Overflow records still stream; stamping the running drop
            # count (only on them — retained records stay unmutated)
            # lets live consumers like repro-top surface the loss.
            record["dropped_windows"] = self.dropped_windows
        if self.sink is not None:
            self.sink(record)
        if self.tracer is not None:
            self._counter_events(record)

    def _accumulate(self, record: dict) -> None:
        t = self._totals
        t["windows"] = t.get("windows", 0) + 1
        t["cycles"] = record["t1"]
        t["sm_busy_cycles"] = (t.get("sm_busy_cycles", 0.0)
                               + sum(record["sm_busy"]))
        for key in ("instructions", "dram_bytes", "dram_transactions",
                    "dram_busy", "dram_queue_cycles", "pcie_bytes",
                    "pcie_busy"):
            t[key] = t.get(key, 0) + record[key]
        for reason, cycles in record["stalls"].items():
            key = f"stall_cycles.{reason}"
            t[key] = t.get(key, 0.0) + cycles
        for name, value in record["counters"].items():
            key = f"counter.{name}"
            t[key] = t.get(key, 0) + value
        for name, value in record["gauges"].items():
            t[f"gauge.{name}"] = value

    def _counter_events(self, record: dict) -> None:
        """Mirror the window onto the tracer as Chrome counter tracks."""
        t1 = record["t1"]
        busy = sum(record["sm_busy"]) / (self.window_cycles
                                         * max(self.num_sms, 1))
        self.tracer.record_counter("timeseries.sm_busy_frac", t1, busy)
        self.tracer.record_counter("timeseries.dram_bytes", t1,
                                   record["dram_bytes"])
        self.tracer.record_counter("timeseries.pcie_bytes", t1,
                                   record["pcie_bytes"])
        for name, value in record["gauges"].items():
            self.tracer.record_counter(f"gauge.{name}", t1, value)

    # -- consumers -----------------------------------------------------
    def snapshot(self) -> dict:
        """Cumulative totals over every closed window (for Prometheus
        exposition and dashboard summaries)."""
        return dict(self._totals)

    def to_component(self) -> dict:
        """The ``components.timeseries`` section of the profile."""
        return {
            "enabled": 1,
            "window_cycles": self.window_cycles,
            "windows": len(self.windows) + self.dropped_windows,
            "dropped_windows": self.dropped_windows,
            "series": list(self.windows),
        }


# ----------------------------------------------------------------------
# Streaming sinks and exposition formats
# ----------------------------------------------------------------------
class JsonlSink:
    """Appends one JSON object per window to a file — the append-only
    series stream ``repro-top`` tails.  ``meta`` keys (experiment name,
    point index, worker pid) are stamped onto every record."""

    def __init__(self, path: str, meta: Optional[dict] = None,
                 on_window: Optional[Callable[[dict], None]] = None):
        self.path = path
        self.meta = dict(meta or {})
        self.on_window = on_window
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        # Truncate on open: one writer per file, one file per point.
        self._fh = open(path, "w")

    def __call__(self, record: dict) -> None:
        out = dict(self.meta)
        out.update(record)
        self._fh.write(json.dumps(out) + "\n")
        self._fh.flush()
        if self.on_window is not None:
            self.on_window(out)

    def close(self) -> None:
        self._fh.close()


def _prom_name(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    return "".join(out)


def prometheus_lines(metrics: dict, prefix: str = "repro") -> list[str]:
    """Render a flat metrics dict in Prometheus text exposition format
    (one ``# TYPE`` line plus one sample per metric; gauges for
    ``gauge.*`` keys, counters for the rest)."""
    lines = []
    for name in sorted(metrics):
        value = metrics[name]
        if not isinstance(value, (int, float)) \
                or isinstance(value, bool):
            continue
        kind = "gauge" if name.startswith("gauge.") else "counter"
        metric = f"{prefix}_{_prom_name(name)}"
        lines.append(f"# TYPE {metric} {kind}")
        lines.append(f"{metric} {value:g}")
    return lines


def write_prometheus(path: str, metrics: dict,
                     prefix: str = "repro") -> None:
    """Atomically write a Prometheus text-exposition snapshot file."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        f.write("\n".join(prometheus_lines(metrics, prefix)) + "\n")
    os.replace(tmp, path)


def merge_series(docs: list) -> dict:
    """Concatenate ``components.timeseries`` sections across per-launch
    profile documents into one suite section (used by
    :func:`repro.telemetry.profile.merge_profiles`).

    Windows keep their per-launch indices and gain a ``launch`` key
    (the source document's position) so a reader can still separate the
    interleaved streams.
    """
    enabled = 0
    windows = 0
    dropped = 0
    window_cycles = 0.0
    series: list[dict] = []
    for pos, doc in enumerate(docs):
        sub = doc.get("components", {}).get("timeseries")
        if not isinstance(sub, dict) or not sub.get("enabled"):
            continue
        enabled += 1
        windows += int(sub.get("windows", 0))
        dropped += int(sub.get("dropped_windows", 0))
        window_cycles = max(window_cycles,
                            float(sub.get("window_cycles", 0.0)))
        for record in sub.get("series", []):
            out = dict(record)
            out["launch"] = pos
            series.append(out)
    return {
        "enabled": enabled,
        "window_cycles": window_cycles,
        "windows": windows,
        "dropped_windows": dropped,
        "series": series,
    }
