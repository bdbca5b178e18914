"""The simulator's layers: which entry points each span covers, and the
per-layer metrics of a traced instance.

Spans come from :mod:`simbench.spans` wrappers installed on the classes
below; counts come from the profile ``repro.telemetry.capture()``
records for the instance's launch.  Nothing in ``src/`` is changed.
"""

from __future__ import annotations

import inspect

from repro.core.apointer import APtr
from repro.gpu.device import Device
from repro.gpu.engine import Engine
from repro.gpu.kernel import WarpContext
from repro.gpu.memory import GlobalMemory
from repro.host.filesys import FileHandle
from repro.paging.gpufs import GPUfs
from repro.paging.page_cache import PageCache
from repro.paging.page_table import PageTable
from repro.paging.staging import TransferBatcher
from repro.readahead.engine import ReadaheadEngine
from repro.syscalls.layer import SyscallLayer

#: Root span of one instance; its self time is the instance's host time
#: outside every layer (input generation, env construction, oracle).
ROOT = "workloads"
#: Layers whose self times, with the root's, make up an instance.
LAYERS = ("gpu.engine", "gpu.kernel", "gpu.memory", "core", "paging",
          "readahead", "syscalls", "host")


def _public_coroutines(cls) -> list[str]:
    return [attr for attr, fn in vars(cls).items()
            if not attr.startswith("_")
            and inspect.isgeneratorfunction(fn)]


def _public_functions(cls) -> list[str]:
    return [attr for attr, fn in vars(cls).items()
            if not attr.startswith("_") and inspect.isfunction(fn)]


ENTRY_POINTS: dict[str, list[tuple[type, list[str]]]] = {
    "gpu.engine": [(Device, ["launch"]), (Engine, ["launch"])],
    "gpu.kernel": [(WarpContext, _public_coroutines(WarpContext))],
    "gpu.memory": [(GlobalMemory, ["load_vector", "store_vector",
                                   "load_vector_wide",
                                   "transactions_for"])],
    "core": [(APtr, ["read", "read_wide", "write", "write_wide", "seek",
                     "add", "destroy"])],
    "paging": [
        (GPUfs, ["handle_fault", "release_page", "gmmap", "gmunmap",
                 "flush"]),
        (PageCache, ["allocate_frame", "release_frame",
                     "allocate_speculative", "discard_frame"]),
        (PageTable, ["lookup", "insert", "remove",
                     "remove_if_unreferenced", "add_refs"]),
        (TransferBatcher, ["fetch", "fetch_async", "writeback"]),
    ],
    "readahead": [(ReadaheadEngine, ["poll", "on_demand_access", "on_hit",
                                     "on_spec_evicted"])],
    "syscalls": [(SyscallLayer, _public_functions(SyscallLayer))],
    "host": [(FileHandle, ["pread", "pwrite"])],
}

#: Every per-layer metric name, in report order (BENCHMARK.json order).
METRICS = (
    "gpu.memory.self_s", "gpu.memory.calls", "gpu.memory.us_per_call",
    "gpu.memory.dram_transactions", "gpu.memory.dram_queue_cycles",
    "core.self_s", "core.calls", "core.us_per_call", "core.derefs",
    "core.translation_faults", "core.tlb_hit_ratio",
    "gpu.engine.self_s", "gpu.engine.lock_contention_ratio",
    "gpu.engine.issue_queue_stall_cycles",
    "gpu.kernel.self_s", "gpu.kernel.requests",
    "paging.self_s", "paging.calls", "paging.major_faults",
    "paging.minor_faults", "paging.busy_waits", "paging.pages_per_batch",
    "paging.writeback_bytes", "paging.io_stall_cycles",
    "readahead.self_s", "readahead.issued", "readahead.hit_ratio",
    "readahead.wasted",
    "syscalls.self_s", "syscalls.calls", "syscalls.blocked_cycles",
    "host.self_s", "host.pcie_bytes",
    "workloads.outside_launch_s",
    "trace.overhead_ratio",
)

_SYSCALLS = ("pread", "pwrite", "msync", "madvise", "ftruncate",
             "pread_async", "pwrite_async")


def targets() -> list[tuple[type, str, str]]:
    """``(class, attribute, layer)`` for every wrapped entry point."""
    out = []
    for layer, groups in ENTRY_POINTS.items():
        for cls, attrs in groups:
            out.extend((cls, attr, layer) for attr in attrs)
    return out


def unit(metric: str) -> str:
    suffix = metric.rsplit(".", 1)[1]
    if suffix.endswith("_s"):
        return "s"
    if suffix == "us_per_call":
        return "us"
    if suffix.endswith("_cycles"):
        return "cycles"
    if suffix.endswith("_bytes"):
        return "bytes"
    if suffix.endswith("_ratio") or suffix == "pages_per_batch":
        return "ratio"
    return "count"


def instance_counts(profile, self_s: dict[str, float],
                    calls: dict[str, int], requests: int) -> dict:
    """Additive counts of one traced instance (summed across instances
    before :func:`layer_metrics` forms the ratios)."""
    comp = profile.components
    engine = profile.engine
    stalls = profile.stalls
    tr, pg = comp["translation"], comp["paging"]
    ra, sc = comp["readahead"], comp["syscalls"]
    staging = comp.get("staging", {})
    out = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS}
    out["workloads.outside_launch_s"] = self_s.get(ROOT, 0.0)
    for layer in ("gpu.memory", "core", "paging"):
        out[f"{layer}.calls"] = calls.get(layer, 0)
    out.update({
        "gpu.memory.dram_transactions": engine["dram_transactions"],
        "gpu.memory.dram_queue_cycles": profile.dram["queue_cycles"],
        "core.derefs": tr["derefs"],
        "core.translation_faults": tr["translation_faults"],
        "core.tlb_hits": tr["tlb_hits"],
        "core.tlb_lookups": tr["tlb_hits"] + tr["tlb_misses"],
        "gpu.engine.lock_acquisitions": engine["lock_acquisitions"],
        "gpu.engine.lock_contentions": engine["lock_contentions"],
        "gpu.engine.issue_queue_stall_cycles":
            stalls.get("issue_queue", 0.0),
        "gpu.kernel.requests": requests,
        "paging.major_faults": pg["major_faults"],
        "paging.minor_faults": pg["minor_faults"],
        "paging.busy_waits": pg["busy_waits"],
        "paging.transfers": staging.get("transfers", 0),
        "paging.batches": staging.get("batches", 0),
        "paging.writeback_bytes": sc["writeback_bytes"],
        "paging.io_stall_cycles": stalls.get("io", 0.0),
        "readahead.issued": ra["issued"],
        "readahead.hits": ra["hits"],
        "readahead.wasted": ra["wasted"],
        "syscalls.calls": sum(sc[name] for name in _SYSCALLS),
        "syscalls.blocked_cycles": sc["blocked_cycles"],
        "host.pcie_bytes": engine["pcie_bytes"],
    })
    return out


def layer_metrics(totals: dict, instances: int,
                  overhead_ratio: float) -> dict[str, float]:
    """Per-instance means of the summed counts, plus ratios of sums."""
    def ratio(num: str, den: str) -> float:
        return totals[num] / totals[den] if totals[den] else 0.0

    out = {}
    for metric in METRICS:
        if metric in totals:
            out[metric] = totals[metric] / instances
    for layer in ("gpu.memory", "core"):
        out[f"{layer}.us_per_call"] = 1e6 * ratio(f"{layer}.self_s",
                                                  f"{layer}.calls")
    out["core.tlb_hit_ratio"] = ratio("core.tlb_hits", "core.tlb_lookups")
    out["gpu.engine.lock_contention_ratio"] = ratio(
        "gpu.engine.lock_contentions", "gpu.engine.lock_acquisitions")
    out["paging.pages_per_batch"] = ratio("paging.transfers",
                                          "paging.batches")
    out["readahead.hit_ratio"] = ratio("readahead.hits",
                                       "readahead.issued")
    out["trace.overhead_ratio"] = overhead_ratio
    return {metric: out[metric] for metric in METRICS}
