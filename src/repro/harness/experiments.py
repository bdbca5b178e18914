"""Registry entries for every table/figure of the paper's evaluation
(§VI), one declarative :class:`~repro.harness.registry.Experiment` per
table or figure.

Each experiment is three module-level pieces — a parameter ``grid``
(picklable dicts), a ``point`` function measuring one grid point, and
(where points are coupled by a baseline or a pivot) a parent-side
``fold`` — registered with :func:`~repro.harness.registry.experiment`.
``scale`` selects ``"quick"`` (CI-sized, minutes total) or ``"full"``
(closer to the paper's sweep sizes).  Paper values are embedded
alongside measured ones so reports always show the comparison.

Run an entry through :data:`~repro.harness.registry.REGISTRY` and
:func:`repro.harness.runner.run_experiment` (or
:func:`~repro.harness.runner.run_named`), which can fan the grid
points out across worker processes (``repro-experiments --jobs``).
"""

from __future__ import annotations

from typing import Optional

from repro.collage import (
    CollageDataset,
    DatasetParams,
    make_problem,
    reference_solution,
    run_cpu,
    run_cpu_gpu,
    run_gpufs,
    run_gpufs_apointers,
)
from repro.core import APConfig, AVM, ImplVariant, PtrFormat
from repro.gpu import Device
from repro.harness.registry import (
    Column,
    ExperimentResult,
    experiment,
)
from repro.workloads import WORKLOADS, run_memcpy, run_workload, \
    workload_by_name
from repro.workloads.filebench import (
    run_pagefault_bench,
    run_tlb_sweep_point,
    run_workload_file,
)

PAGE = 4096


def _sizes(scale: str, quick, full):
    if scale == "quick":
        return quick
    if scale == "full":
        return full
    raise ValueError(f"unknown scale {scale!r}")


def _merge_rows(rows: list, key: str) -> list:
    """Fold helper: merge partial rows sharing ``row[key]`` (in first-
    appearance order) into one wide row each — the pivot that turns
    per-cell points back into the paper's table rows."""
    merged: dict = {}
    order: list = []
    for row in rows:
        k = row[key]
        if k not in merged:
            merged[k] = {}
            order.append(k)
        merged[k].update(row)
    return [merged[k] for k in order]


# ----------------------------------------------------------------------
# Table I — apointer operation latency in GPU cycles
# ----------------------------------------------------------------------
TABLE1_PAPER = {
    ("Raw access", "read"): 225, ("Raw access", "inc"): 32,
    ("Raw access", "read+inc"): 257, ("Raw access", "read+inc+rw"): 257,
    ("Compiler", "read"): 367, ("Compiler", "inc"): 152,
    ("Compiler", "read+inc"): 519, ("Compiler", "read+inc+rw"): 585,
    ("Optimized PTX", "read"): 282,
    ("Optimized PTX", "read+inc"): 434,
    ("Optimized PTX", "read+inc+rw"): 544,
    ("Prefetching", "read"): 271,
    ("Prefetching", "read+inc"): 423,
    ("Prefetching", "read+inc+rw"): 435,
}

_TABLE1_VARIANTS: dict[str, Optional[ImplVariant]] = {
    "Raw access": None,
    "Compiler": ImplVariant.COMPILER,
    "Optimized PTX": ImplVariant.OPTIMIZED_PTX,
    "Prefetching": ImplVariant.PREFETCH,
}


def _measure_latency(variant: Optional[ImplVariant], op: str,
                     perm: bool) -> float:
    """Single-warp latency of one apointer (or raw) operation."""
    device = Device(memory_bytes=16 * 1024 * 1024)
    base = device.alloc(PAGE * 2)
    times: list[float] = []

    def kern(ctx):
        if variant is None:
            addr = base + ctx.lane * 4
            _ = yield from ctx.load(addr, "f4")        # warm-up
            t0 = yield from ctx.clock()
            if "read" in op:
                ctx.charge(2, chain=2)
                _ = yield from ctx.load(addr, "f4")
            if "inc" in op:
                ctx.charge(2, chain=2)
            t1 = yield from ctx.clock()
        else:
            avm = AVM(APConfig(variant=variant, perm_checks=perm))
            ptr = avm.gvmmap_device(ctx, base, PAGE * 2)
            yield from ptr.seek(ctx, ctx.lane * 4)
            _ = yield from ptr.read(ctx, "f4")         # warm-up: link
            t0 = yield from ctx.clock()
            if "read" in op:
                _ = yield from ptr.read(ctx, "f4")
            if "inc" in op:
                yield from ptr.add(ctx, 4)
            t1 = yield from ctx.clock()
            yield from ptr.destroy(ctx)
        times.append(t1 - t0)

    device.launch(kern, grid=1, block_threads=32)
    return times[0]


def table1_grid(scale: str) -> list[dict]:
    return [{"implementation": name, "op": op}
            for name in _TABLE1_VARIANTS
            for op in ("read", "inc", "read+inc", "read+inc+rw")
            if (name, op) in TABLE1_PAPER]


def table1_trend(result: ExperimentResult) -> Optional[dict]:
    """Trend metric: prefetching read latency (the paper's headline
    single-op number, Table I)."""
    try:
        row = result.row_by(implementation="Prefetching", op="read")
    except KeyError:
        return None
    return {"metric": "prefetch_read_cycles",
            "value": row["measured"], "unit": "cycles",
            "higher_is_better": False, "tier1": True}


@experiment(
    "table1",
    title="Apointer operation latency (GPU cycles, 1 warp)",
    columns=(Column("implementation", role="param"),
             Column("op", role="param"),
             Column("measured", unit="cycles", role="measured"),
             Column("paper", unit="cycles", role="paper")),
    grid=table1_grid,
    trend=table1_trend,
    notes="rw = page permission checks enabled; '-' ops not "
          "reported by the paper are skipped.",
)
def table1_point(*, scale: str, implementation: str, op: str) -> list:
    """Table I: read / inc latency of one implementation level."""
    variant = _TABLE1_VARIANTS[implementation]
    perm = op.endswith("rw") and variant is not None
    measured = _measure_latency(variant, op, perm)
    return [{
        "implementation": implementation,
        "op": op,
        "measured": round(measured, 1),
        "paper": TABLE1_PAPER[(implementation, op)],
    }]


# ----------------------------------------------------------------------
# Table II — memcpy bandwidth
# ----------------------------------------------------------------------
TABLE2_PAPER = {"4-byte": 99.7, "4-byte+rw": 97.7, "8-byte": 148.7}
TABLE2_PAPER_PEAK = 152.0

_TABLE2_CASES = [("4-byte", 4, False), ("4-byte+rw", 4, True),
                 ("8-byte", 8, False)]


def table2_grid(scale: str) -> list[dict]:
    return [{"access": label, "width": width, "perm": perm}
            for label, width, perm in _TABLE2_CASES]


def table2_trend(result: ExperimentResult) -> Optional[dict]:
    """Trend metric: 4-byte apointer memcpy bandwidth (Table II)."""
    try:
        row = result.row_by(access="4-byte")
    except KeyError:
        return None
    return {"metric": "memcpy_4byte_gbs",
            "value": row["measured_gbs"], "unit": "GB/s",
            "higher_is_better": True, "tier1": True}


@experiment(
    "table2",
    title="Memory-copy bandwidth (GB/s, % of achievable peak)",
    columns=(Column("access", role="param"),
             Column("measured_gbs", unit="GB/s", role="measured"),
             Column("measured_pct", unit="%", role="measured"),
             Column("paper_gbs", unit="GB/s", role="paper"),
             Column("paper_pct", unit="%", role="paper")),
    grid=table2_grid,
    trend=table2_trend,
    notes="Peak = 152 GB/s (cudaMemcpyDeviceToDevice convention: "
          "read+write traffic).",
)
def table2_point(*, scale: str, access: str, width: int,
                 perm: bool) -> list:
    """Table II: apointer memcpy bandwidth vs cudaMemcpy D2D."""
    nblocks, iters = _sizes(scale, (13, 16), (52, 32))
    device = Device(memory_bytes=512 * 1024 * 1024)
    r = run_memcpy(device, use_apointers=True, width=width,
                   nblocks=nblocks, iters_per_thread=iters,
                   perm_checks=perm)
    if not r.verified:
        raise AssertionError(f"memcpy {access} copied wrong data")
    return [{
        "access": access,
        "measured_gbs": round(r.bandwidth / 1e9, 1),
        "measured_pct": round(100 * r.fraction_of_peak, 1),
        "paper_gbs": TABLE2_PAPER[access],
        "paper_pct": round(100 * TABLE2_PAPER[access]
                           / TABLE2_PAPER_PEAK, 1),
    }]


# ----------------------------------------------------------------------
# Figure 6 — apointer overhead vs occupancy
# ----------------------------------------------------------------------
def _figure6_blocks(scale: str, with_gpufs: bool) -> list[int]:
    block_counts = _sizes(scale, [1, 4, 13, 26, 52],
                          [1, 2, 4, 8, 13, 26, 39, 52])
    if with_gpufs and scale == "quick":
        block_counts = [1, 13, 52]   # the page-cache runs are heavy
    return block_counts


def _figure6_grid(scale: str, width: int, with_gpufs: bool) -> list:
    return [{"workload": w.name, "nblocks": nb, "width": width,
             "with_gpufs": with_gpufs}
            for w in WORKLOADS
            for nb in _figure6_blocks(scale, with_gpufs)]


def figure6a_grid(scale: str) -> list[dict]:
    return _figure6_grid(scale, width=4, with_gpufs=False)


def figure6b_grid(scale: str) -> list[dict]:
    return _figure6_grid(scale, width=16, with_gpufs=False)


def figure6c_grid(scale: str) -> list[dict]:
    return _figure6_grid(scale, width=4, with_gpufs=True)


def _figure6_columns(with_gpufs: bool):
    def columns(scale: str) -> tuple:
        return (Column("workload", role="param"),
                *(Column(f"tb={nb}", unit="%", role="measured")
                  for nb in _figure6_blocks(scale, with_gpufs)))
    return columns


def figure6_fold(rows: list, scale: str) -> list:
    return _merge_rows(rows, "workload")


_FIGURE6_NOTES = ("Values are percent slowdown over the raw-pointer "
                  "baseline; paper aggregate: Fig 6b avg 20% (7% excl. "
                  "FFT), Fig 6c avg 16% excl. FFT at full occupancy.")


def _register_figure6(name: str, width: int, with_gpufs: bool, grid):
    experiment(
        name,
        title=(f"Apointer overhead vs #threadblocks ({width}-byte reads"
               f"{', GPUfs page cache' if with_gpufs else ''})"),
        columns=_figure6_columns(with_gpufs),
        grid=grid,
        fold=figure6_fold,
        notes=_FIGURE6_NOTES,
    )(figure6_point)


def figure6_point(*, scale: str, workload: str, nblocks: int,
                  width: int, with_gpufs: bool) -> list:
    """Figure 6: one (workload, occupancy) cell — percent overhead of
    the apointer version over the identical raw-pointer version."""
    _, iters = _sizes(scale, (None, 4), (None, 8))
    wl = workload_by_name(workload)
    if with_gpufs:
        r0 = run_workload_file(wl, use_apointers=False, nblocks=nblocks,
                               warps_per_block=8, iters_per_thread=32)
        r1 = run_workload_file(wl, use_apointers=True, nblocks=nblocks,
                               warps_per_block=8, iters_per_thread=32)
    else:
        device = Device(memory_bytes=768 * 1024 * 1024)
        r0 = run_workload(wl, device, use_apointers=False,
                          nblocks=nblocks, iters_per_thread=iters,
                          width=width)
        r1 = run_workload(wl, device, use_apointers=True,
                          nblocks=nblocks, iters_per_thread=iters,
                          width=width)
    if not (r0.verified and r1.verified):
        raise AssertionError(f"{workload} produced wrong results")
    return [{"workload": workload,
             f"tb={nblocks}": round(100 * r1.overhead_over(r0), 1)}]


_register_figure6("figure6a", width=4, with_gpufs=False,
                  grid=figure6a_grid)
_register_figure6("figure6b", width=16, with_gpufs=False,
                  grid=figure6b_grid)
_register_figure6("figure6c", width=4, with_gpufs=True,
                  grid=figure6c_grid)


# ----------------------------------------------------------------------
# Table III — page-fault overheads
# ----------------------------------------------------------------------
TABLE3_PAPER = {"Apointer Short": 20, "Apointer Long": 24, "no TLB": 13}

_TABLE3_CONFIGS: dict[str, Optional[APConfig]] = {
    "baseline": None,
    "Apointer Short": APConfig(fmt=PtrFormat.SHORT, use_tlb=True),
    "Apointer Long": APConfig(fmt=PtrFormat.LONG, use_tlb=True),
    "no TLB": APConfig(fmt=PtrFormat.LONG, use_tlb=False),
}


def table3_grid(scale: str) -> list[dict]:
    return [{"implementation": name} for name in _TABLE3_CONFIGS]


def table3_fold(rows: list, scale: str) -> list:
    """Overheads are relative to the shared gmmap() baseline point —
    derived here so the points themselves stay independent."""
    by_impl = {row["implementation"]: row for row in rows}
    base = by_impl.get("baseline")
    out = []
    for name in TABLE3_PAPER:
        row = by_impl.get(name)
        if row is None:
            continue
        out.append({
            "implementation": name,
            "minor_pct": (round(100 * (row["warm_cycles"]
                                       / base["warm_cycles"] - 1), 1)
                          if base else None),
            "major_pct": (round(100 * (row["cold_cycles"]
                                       / base["cold_cycles"] - 1), 1)
                          if base else None),
            "paper_minor_pct": TABLE3_PAPER[name],
            "paper_major": "none observable",
        })
    return out


@experiment(
    "table3",
    title="Page-fault overhead over the gmmap() baseline",
    columns=(Column("implementation", role="param"),
             Column("minor_pct", unit="%", role="measured"),
             Column("major_pct", unit="%", role="measured"),
             Column("paper_minor_pct", unit="%", role="paper"),
             Column("paper_major", role="paper", numeric=False)),
    grid=table3_grid,
    fold=table3_fold,
    notes="Major-fault overheads are masked by host transfers "
          "(paper: 'no observable overhead', std dev up to 10%).",
)
def table3_point(*, scale: str, implementation: str) -> list:
    """Table III: warm/cold fault cycles of one apointer flavour."""
    nblocks, warps, pages = _sizes(scale, (13, 32, 16), (13, 32, 64))
    cfg = _TABLE3_CONFIGS[implementation]
    r = run_pagefault_bench(use_apointers=cfg is not None,
                            nblocks=nblocks, warps_per_block=warps,
                            pages_per_warp=pages, config=cfg)
    return [{"implementation": implementation,
             "warm_cycles": r.warm_cycles,
             "cold_cycles": r.cold_cycles}]


# ----------------------------------------------------------------------
# Figure 7 — TLB size vs page reuse
# ----------------------------------------------------------------------
def _figure7_uniques(scale: str) -> list[int]:
    return _sizes(scale, [8, 16, 32, 64, 128],
                  [4, 8, 16, 32, 64, 128, 256, 512])


def figure7_grid(scale: str) -> list[dict]:
    return [{"tlb_entries": tlb, "unique_pages": u}
            for tlb in (16, 32, 64, None)
            for u in _figure7_uniques(scale)]


def figure7_columns(scale: str) -> tuple:
    return (Column("tlb", role="param"),
            *(Column(f"pages={u}", unit="cycles", role="measured")
              for u in _figure7_uniques(scale)))


def figure7_fold(rows: list, scale: str) -> list:
    return _merge_rows(rows, "tlb")


@experiment(
    "figure7",
    title="Access time per page vs unique pages per threadblock",
    columns=figure7_columns,
    grid=figure7_grid,
    fold=figure7_fold,
    notes="Paper shape: the TLB wins at high reuse; the TLB-less "
          "design wins once the working set exceeds the TLB, "
          "because it avoids TLB update costs.",
)
def figure7_point(*, scale: str, tlb_entries: Optional[int],
                  unique_pages: int) -> list:
    """Figure 7: read cycles/page at one (TLB size, reuse) point."""
    reads = _sizes(scale, 32, 64)
    value = round(run_tlb_sweep_point(unique_pages=unique_pages,
                                      tlb_entries=tlb_entries,
                                      reads_per_warp=reads))
    return [{"tlb": "none" if tlb_entries is None else tlb_entries,
             f"pages={unique_pages}": value}]


# ----------------------------------------------------------------------
# Figure 9 — image collage end-to-end
# ----------------------------------------------------------------------
def _collage_specs(scale: str) -> list[tuple]:
    return _sizes(
        scale,
        [("small", 8, 8, 12), ("medium", 12, 12, 6),
         ("large", 16, 16, 4)],
        [("small", 8, 8, 16), ("medium", 16, 16, 8),
         ("large", 24, 24, 5), ("huge", 32, 32, 3)],
    )


def figure9_grid(scale: str) -> list[dict]:
    return [{"problem": name, "blocks_x": bx, "blocks_y": by,
             "cluster_spread": spread}
            for name, bx, by, spread in _collage_specs(scale)]


@experiment(
    "figure9",
    title="Image collage: runtime per block normalised to CPU "
          "(lower is better)",
    columns=(Column("input", role="param"),
             Column("reuse", unit="x", role="measured"),
             Column("CPU", unit="x", role="measured"),
             Column("CPU+GPU", unit="x", role="measured"),
             Column("GPUfs", unit="x", role="measured"),
             Column("GPUfs+AP", unit="x", role="measured"),
             Column("ap_overhead_pct", unit="%", role="derived")),
    grid=figure9_grid,
    notes="Paper aggregates: GPUfs 1.6x over CPU and 2.6x over "
          "CPU+GPU on average (up to 2.6x / 3.9x); apointers add "
          "<1% over GPUfs.",
)
def figure9_point(*, scale: str, problem: str, blocks_x: int,
                  blocks_y: int, cluster_spread: int) -> list:
    """Figure 9: one collage input, all four implementations."""
    images, clusters = _sizes(scale, (2048, 32), (8192, 64))
    dataset = CollageDataset(DatasetParams(num_images=images,
                                           num_clusters=clusters))
    prob = make_problem(dataset, name=problem, blocks_x=blocks_x,
                        blocks_y=blocks_y,
                        cluster_spread=cluster_spread)
    reference = reference_solution(prob)
    outcomes = {}
    for fn in (run_cpu, run_cpu_gpu, run_gpufs, run_gpufs_apointers):
        out = fn(prob)
        if not out.matches(reference):
            raise AssertionError(
                f"{out.name} produced a wrong collage for {prob.name}")
        outcomes[out.name] = out
    cpu_time = outcomes["CPU"].seconds
    row = {"input": prob.name, "reuse": round(prob.data_reuse(), 1)}
    for name in ("CPU", "CPU+GPU", "GPUfs", "GPUfs+AP"):
        row[name] = round(outcomes[name].seconds / cpu_time, 3)
    row["ap_overhead_pct"] = round(
        100 * (outcomes["GPUfs+AP"].seconds
               / outcomes["GPUfs"].seconds - 1), 2)
    return [row]


# ----------------------------------------------------------------------
# §VI-E — unaligned access
# ----------------------------------------------------------------------
def unaligned_grid(scale: str) -> list[dict]:
    return [{"aligned": True}, {"aligned": False}]


@experiment(
    "unaligned",
    title="Unaligned (3 KB) records through apointers",
    columns=(Column("layout", role="param"),
             Column("record_bytes", unit="bytes", role="param"),
             Column("seconds", unit="s", role="measured"),
             Column("correct", role="measured", numeric=False)),
    grid=unaligned_grid,
    notes="Same kernel code for both layouts — the usability point "
          "of memory-mapped files.",
)
def unaligned_point(*, scale: str, aligned: bool) -> list:
    """§VI-E: 3 KB records without page alignment, via apointers.

    The apointer kernel is *unmodified*; only the dataset layout
    changes.  (The gmmap baseline needs explicit multi-page mapping
    code — see ``repro.collage.runners``.)
    """
    images, clusters = _sizes(scale, (1024, 16), (4096, 48))
    dataset = CollageDataset(DatasetParams(
        num_images=images, num_clusters=clusters, aligned=aligned))
    problem = make_problem(dataset, blocks_x=6, blocks_y=6,
                           cluster_spread=4)
    reference = reference_solution(problem)
    out = run_gpufs_apointers(problem)
    return [{
        "layout": "aligned (4 KB)" if aligned else "unaligned (3 KB)",
        "record_bytes": dataset.params.record_bytes,
        "seconds": round(out.seconds, 6),
        "correct": out.matches(reference),
    }]


# ----------------------------------------------------------------------
# Ablations called out in the design sections
# ----------------------------------------------------------------------
def ablation_prefetch_grid(scale: str) -> list[dict]:
    return [{"variant": v.value}
            for v in (ImplVariant.OPTIMIZED_PTX, ImplVariant.PREFETCH)]


@experiment(
    "ablation_prefetch",
    title="Speculative prefetch ablation",
    columns=(Column("variant", role="param"),
             Column("read_latency_cycles", unit="cycles",
                    role="measured"),
             Column("memcpy_pct_peak", unit="%", role="measured")),
    grid=ablation_prefetch_grid,
)
def ablation_prefetch_point(*, scale: str, variant: str) -> list:
    """§IV-B: speculative prefetch on/off, read latency and bandwidth."""
    impl = ImplVariant(variant)
    nblocks, iters = _sizes(scale, (13, 16), (26, 32))
    lat = _measure_latency(impl, "read", perm=False)
    device = Device(memory_bytes=512 * 1024 * 1024)
    bw = run_memcpy(device, use_apointers=True, width=4,
                    nblocks=nblocks, iters_per_thread=iters,
                    config=APConfig(variant=impl))
    return [{
        "variant": variant,
        "read_latency_cycles": round(lat, 1),
        "memcpy_pct_peak": round(100 * bw.fraction_of_peak, 1),
    }]


def ablation_batching_grid(scale: str) -> list[dict]:
    return [{"batching": True}, {"batching": False}]


def ablation_batching_trend(result: ExperimentResult) -> Optional[dict]:
    """Trend metric: batched major-fault run time (§V)."""
    try:
        row = result.row_by(batching=True)
    except KeyError:
        return None
    return {"metric": "batched_cycles", "value": row["cycles"],
            "unit": "cycles", "higher_is_better": False, "tier1": True}


@experiment(
    "ablation_batching",
    title="PCIe transfer batching for 4 KB pages",
    columns=(Column("batching", role="param", numeric=False),
             Column("cycles", unit="cycles", role="measured"),
             Column("batches", role="measured"),
             Column("mean_batch", unit="pages", role="measured")),
    grid=ablation_batching_grid,
    trend=ablation_batching_trend,
    notes="Major-fault-dominated run; batching amortises the fixed "
          "PCIe transaction cost (§V).",
)
def ablation_batching_point(*, scale: str, batching: bool) -> list:
    """§V: host-side transfer batching for 4 KB pages, on/off."""
    from repro.workloads.filebench import make_file_env

    npages = _sizes(scale, 256, 1024)
    device, gpufs, fid, _ = make_file_env(
        npages * PAGE, num_frames=npages + 8,
        memory_bytes=npages * PAGE + 128 * 1024 * 1024,
        batching=batching)
    nwarps = 64

    def kern(ctx):
        for p in range(ctx.warp_id, npages, nwarps):
            yield from gpufs.gmmap(ctx, fid, p * PAGE)
            yield from gpufs.gmunmap(ctx, fid, p * PAGE)

    res = device.launch(kern, grid=2, block_threads=1024)
    return [{
        "batching": batching,
        "cycles": round(res.cycles),
        "batches": gpufs.batcher.stats.batches,
        "mean_batch": round(gpufs.batcher.stats.mean_batch_size(), 1),
    }]


def ablation_registers_grid(scale: str) -> list[dict]:
    return [{"regs_per_thread": regs} for regs in (64, 128)]


def ablation_registers_fold(rows: list, scale: str) -> list:
    base = next((r["cycles"] for r in rows
                 if r["regs_per_thread"] == 64), None)
    return [dict(r, slowdown_vs_64=(round(r["cycles"] / base, 3)
                                    if base else None))
            for r in rows]


@experiment(
    "ablation_registers",
    title="Register pressure vs occupancy (Read workload, apointers)",
    columns=(Column("regs_per_thread", role="param"),
             Column("blocks_per_sm", role="measured"),
             Column("cycles", unit="cycles", role="measured"),
             Column("slowdown_vs_64", unit="x", role="derived")),
    grid=ablation_registers_grid,
    fold=ablation_registers_fold,
    notes="More registers per thread halve residency and expose "
          "the translation latency the extra registers were meant "
          "to help with - the paper's motivation for the 64-register "
          "cap.",
)
def ablation_registers_point(*, scale: str, regs_per_thread: int) -> list:
    """§VII register pressure: the paper caps kernels at 64 registers/
    thread because higher counts reduce occupancy and hurt latency
    hiding (the GK210 register file fits 2048 threads x 64 regs)."""
    from repro.gpu.occupancy import occupancy_limits
    from repro.gpu.specs import K80_SPEC

    nblocks = _sizes(scale, 26, 52)
    workload = workload_by_name("Read")
    device = Device(memory_bytes=512 * 1024 * 1024)
    run = run_workload(workload, device, use_apointers=True,
                       nblocks=nblocks, iters_per_thread=4,
                       regs_per_thread=regs_per_thread)
    if not run.verified:
        raise AssertionError("register ablation produced bad data")
    occ = occupancy_limits(K80_SPEC, 1024,
                           regs_per_thread=regs_per_thread)
    return [{
        "regs_per_thread": regs_per_thread,
        "blocks_per_sm": occ.blocks_per_sm,
        "cycles": round(run.cycles),
    }]


def ablation_future_hw_grid(scale: str) -> list[dict]:
    return [{"variant": v.value}
            for v in (ImplVariant.PREFETCH, ImplVariant.HW_ASSISTED)]


@experiment(
    "ablation_future_hw",
    title="Projected impact of the paper's §VII hardware extensions",
    columns=(Column("variant", role="param"),
             Column("read_latency_cycles", unit="cycles",
                    role="measured"),
             Column("inc_latency_cycles", unit="cycles",
                    role="measured"),
             Column("memcpy_4B_pct_peak", unit="%", role="measured")),
    grid=ablation_future_hw_grid,
    notes="HW_ASSISTED models dedicated boundary-check/increment "
          "instructions and fused shuffle+integer ops.",
)
def ablation_future_hw_point(*, scale: str, variant: str) -> list:
    """§VII what-if: hardware-assisted apointer operations.

    The paper argues that "hardware extensions for these operations ...
    and special instructions which fuse shuffle and integer arithmetics
    could help reduce or eliminate these overheads".  This experiment
    swaps in the HW_ASSISTED cost model and re-runs the headline
    fault-free benchmarks.
    """
    impl = ImplVariant(variant)
    nblocks, iters = _sizes(scale, (13, 16), (26, 32))
    read = _measure_latency(impl, "read", perm=False)
    inc = _measure_latency(impl, "inc", perm=False)
    device = Device(memory_bytes=512 * 1024 * 1024)
    bw = run_memcpy(device, use_apointers=True, width=4,
                    nblocks=nblocks, iters_per_thread=iters,
                    config=APConfig(variant=impl))
    if not bw.verified:
        raise AssertionError("hw-assist memcpy copied wrong data")
    return [{
        "variant": variant,
        "read_latency_cycles": round(read, 1),
        "inc_latency_cycles": round(inc, 1),
        "memcpy_4B_pct_peak": round(100 * bw.fraction_of_peak, 1),
    }]


def ablation_eviction_grid(scale: str,
                           eviction_policy: Optional[str] = None
                           ) -> list[dict]:
    policies = ((eviction_policy,) if eviction_policy
                else ("clock", "fifo", "lru", "random"))
    return [{"policy": policy} for policy in policies]


@experiment(
    "ablation_eviction",
    title="Eviction policy under thrash (cache = working set / 2)",
    columns=(Column("policy", role="param"),
             Column("cycles", unit="cycles", role="measured"),
             Column("major_faults", role="measured"),
             Column("evictions", role="measured")),
    grid=ablation_eviction_grid,
    options=("eviction_policy",),
    notes="Sequential-with-reuse sweep; the differences are small "
          "because the access pattern cycles through the file.",
)
def ablation_eviction_point(*, scale: str, policy: str) -> list:
    """Eviction-policy ablation under cache thrash.

    The paper leaves the replacement policy unspecified; this sweep
    runs the §VI-C page-walk workload with a cache holding half the
    working set and compares clock/FIFO/LRU/random.  The policy is
    plumbed through :class:`~repro.paging.gpufs.GPUfsConfig`
    (``eviction_policy``) rather than swapped in after construction;
    the CLI's ``--eviction-policy`` restricts the sweep to one policy.
    """
    from repro.workloads.filebench import make_file_env

    npages, rounds = _sizes(scale, (128, 3), (512, 4))
    device, gpufs, fid, _ = make_file_env(
        npages * PAGE, num_frames=npages // 2,
        memory_bytes=npages * PAGE + 128 * 1024 * 1024,
        eviction_policy=policy)
    nwarps = 32

    def kern(ctx):
        for r in range(rounds):
            for p in range(ctx.warp_id, npages, nwarps):
                yield from gpufs.gmmap(ctx, fid, p * PAGE)
                yield from gpufs.gmunmap(ctx, fid, p * PAGE)

    res = device.launch(kern, grid=1, block_threads=1024)
    return [{
        "policy": policy,
        "cycles": round(res.cycles),
        "major_faults": gpufs.stats.major_faults,
        "evictions": gpufs.cache.evictions,
    }]


def ablation_readahead_grid(scale: str,
                            eviction_policy: Optional[str] = None
                            ) -> list[dict]:
    policy = eviction_policy or "clock"
    return [{"workload": workload, "readahead": ra,
             "eviction_policy": policy}
            for workload in ("seq-read", "file-memcpy")
            for ra in (False, True)]


def ablation_readahead_fold(rows: list, scale: str) -> list:
    """Speedup is vs the readahead-off point of the same workload."""
    base = {r["workload"]: r["cycles"] for r in rows
            if not r["readahead"]}
    out = []
    for r in rows:
        r = dict(r)
        b = base.get(r["workload"])
        r["speedup"] = round(b / r["cycles"], 3) if b else None
        r["cycles"] = round(r["cycles"])
        r.pop("eviction_policy", None)
        out.append(r)
    return out


def ablation_readahead_trend(result: ExperimentResult
                             ) -> Optional[dict]:
    """Trend metric: sequential-read speedup with readahead on."""
    try:
        row = result.row_by(workload="seq-read", readahead=True)
    except KeyError:
        return None
    if row.get("speedup") is None:
        return None
    return {"metric": "seq_read_speedup", "value": row["speedup"],
            "unit": "x", "higher_is_better": True, "tier1": True}


@experiment(
    "ablation_readahead",
    title="Asynchronous page readahead (cold cache, sequential)",
    columns=(Column("workload", role="param"),
             Column("readahead", role="param", numeric=False),
             Column("cycles", unit="cycles", role="measured"),
             Column("speedup", unit="x", role="derived"),
             Column("major_faults", role="measured"),
             Column("ra_issued", role="measured"),
             Column("ra_hits", role="measured"),
             Column("ra_wasted", role="measured"),
             Column("ra_cancelled", role="measured")),
    grid=ablation_readahead_grid,
    fold=ablation_readahead_fold,
    trend=ablation_readahead_trend,
    options=("eviction_policy",),
    notes="Extension beyond §V: a host-side readahead daemon "
          "issues speculative page-ins through the same transfer "
          "batcher, so speculative and demand transfers coalesce. "
          "`speedup` is vs the batching-only baseline of the same "
          "workload; output is verified against file contents.",
)
def ablation_readahead_point(*, scale: str, workload: str,
                             readahead: bool,
                             eviction_policy: str) -> list:
    """Asynchronous page readahead, off vs on (reproduction extension).

    §V's batching amortises the PCIe transaction cost of *demand*
    faults; ``repro.readahead`` goes further and has the host daemon
    push pages speculatively once a warp's faults look sequential.
    Cold-cache streaming reads are the best case: the first faults of
    each warp train the stream detector, and the rest of the file
    arrives before the warps ask for it.
    """
    from repro.workloads.filebench import run_sequential_file_read

    # (npages, warps): file-memcpy uses fewer warps so each stream is
    # long enough for the detector to train before the warp finishes.
    (seq_pages, seq_warps), (mc_pages, mc_warps) = _sizes(
        scale, ((192, 32), (128, 16)), ((768, 32), (384, 16)))
    pages, nwarps, copy = ((seq_pages, seq_warps, False)
                           if workload == "seq-read"
                           else (mc_pages, mc_warps, True))
    r = run_sequential_file_read(npages=pages, warps=nwarps,
                                 copy_pages=copy, readahead=readahead,
                                 eviction_policy=eviction_policy)
    if not r.verified:
        raise AssertionError(
            f"{workload} (readahead={readahead}) read wrong data")
    return [{
        "workload": workload,
        "readahead": readahead,
        "cycles": r.cycles,
        "major_faults": r.major_faults,
        "ra_issued": r.ra_issued,
        "ra_hits": r.ra_hits,
        "ra_wasted": r.ra_wasted,
        "ra_cancelled": r.ra_cancelled,
    }]


def ablation_io_preemption_grid(scale: str) -> list[dict]:
    return [{"p2p": p2p, "preempt": preempt}
            for p2p in (False, True)
            for preempt in (False, True)]


def ablation_io_preemption_fold(rows: list, scale: str) -> list:
    base = {r["io_path"]: r["cycles"] for r in rows
            if not r["io_preemption"]}
    return [dict(r, speedup_vs_no_preempt=(
        round(base[r["io_path"]] / r["cycles"], 3)
        if base.get(r["io_path"]) else None)) for r in rows]


@experiment(
    "ablation_io_preemption",
    title="I/O-driven threadblock preemption (§VII what-if)",
    columns=(Column("io_path", role="param"),
             Column("io_preemption", role="param", numeric=False),
             Column("cycles", unit="cycles", role="measured"),
             Column("preemptions", role="measured"),
             Column("speedup_vs_no_preempt", unit="x", role="derived")),
    grid=ablation_io_preemption_grid,
    fold=ablation_io_preemption_fold,
    notes="Disk-class storage (~150 us/access).  With host-mediated "
          "faults the host RPC service rate is the bottleneck "
          "(the paper's Figure 1 problem) and preemption cannot "
          "help; with peer-to-peer DMA (GPUDirect, §I) the stall "
          "is pure latency and preemption recovers the SMs — the "
          "combination the paper's GPU-centric design plus "
          "GPUpIO [24] argues for.",
)
def ablation_io_preemption_point(*, scale: str, p2p: bool,
                                 preempt: bool) -> list:
    """§VII what-if: I/O-driven threadblock preemption (GPUpIO [24]).

    "A major page fault incurs a long-latency access to the backing
    store ... the stalled warp wastes the SM resources while waiting
    for data, calling for the addition of a hardware-assisted
    threadblock preemption mechanism."  Here a wave of I/O-bound blocks
    (major faults) occupies every SM while compute-bound blocks wait in
    the grid queue; preemption lets the compute run during the stalls.
    """
    from repro.gpu.specs import K80_SPEC
    from repro.workloads.filebench import make_file_env

    # One synthetic compute burst for the compute-bound blocks: enough
    # dependent arithmetic to keep an SM busy through an I/O stall
    # window without touching memory.
    burst_instrs, burst_chain = 150, 20
    compute_ops = _sizes(scale, 40, 64)
    io_blocks = 26           # fills all 13 SMs (2 blocks/SM)
    compute_blocks = 26
    io_warps = io_blocks * 32
    npages = io_warps * 2    # two disk-class faults per warp
    device, gpufs, fid, _ = make_file_env(
        npages * PAGE, num_frames=npages + 8,
        memory_bytes=256 * 1024 * 1024 + npages * PAGE)
    device.spec = K80_SPEC.with_overrides(
        io_preemption=preempt, pcie_latency_s=150e-6,
        host_rpc_s=0.0 if p2p else K80_SPEC.host_rpc_s)
    gpufs.batcher.enabled = False

    def kern(ctx):
        if ctx.block_id < io_blocks:
            # I/O-bound: two dependent disk-class faults.
            for i in range(2):
                p = ctx.warp_id + i * io_warps
                yield from gpufs.gmmap(ctx, fid, p * PAGE)
                yield from gpufs.gmunmap(ctx, fid, p * PAGE)
        else:
            # Compute-bound: no memory traffic at all.
            for _ in range(compute_ops):
                yield from ctx.compute(burst_instrs, chain=burst_chain)

    res = device.launch(kern, grid=io_blocks + compute_blocks,
                        block_threads=1024)
    return [{
        "io_path": "p2p-dma" if p2p else "host-mediated",
        "io_preemption": preempt,
        "cycles": round(res.cycles),
        "preemptions": res.stats.preemptions,
    }]


# ----------------------------------------------------------------------
# Write-capable syscall workloads (repro.syscalls extension)
# ----------------------------------------------------------------------
def syscall_kvstore_grid(scale: str) -> list[dict]:
    return [{"cache": cache} for cache in ("full", "half")]


def syscall_kvstore_trend(result: ExperimentResult) -> Optional[dict]:
    """Trend metric: KV throughput under write-back eviction."""
    try:
        row = result.row_by(cache="half")
    except KeyError:
        return None
    return {"metric": "kv_ops_per_s", "value": row["ops_per_s"],
            "unit": "ops/s", "higher_is_better": True, "tier1": True}


@experiment(
    "syscall_kvstore",
    title="On-GPU key-value store (pwrite/pread/msync persistence)",
    columns=(Column("cache", role="param", numeric=False),
             Column("cycles", unit="cycles", role="measured"),
             Column("ops_per_s", unit="ops/s", role="measured"),
             Column("pwrites", role="measured"),
             Column("writeback_bytes", unit="B", role="measured"),
             Column("major_faults", role="measured")),
    grid=syscall_kvstore_grid,
    trend=syscall_kvstore_trend,
    notes="Each warp PUT/GETs a private bucket of 64 B records "
          "through the generic syscall layer; a final msync "
          "persists the dirty pages.  `cache=half` holds half the "
          "store's pages, forcing write-back eviction mid-run.  The "
          "final file is verified byte-exactly against a serial "
          "host replay.",
)
def syscall_kvstore_point(*, scale: str, cache: str) -> list:
    """KV store over the syscall layer, with and without eviction.

    The write path the paper's GPUfs integration needs but §VI never
    measures: write faults, dirty-page tracking, and flush.  The
    ``half`` cache point is the stress case — dirty pages are evicted
    (written back) mid-run and re-faulted.
    """
    from repro.workloads.kvstore import run_kvstore

    nwarps, ops = _sizes(scale, (8, 16), (32, 64))
    rpw = 128                       # two pages per bucket
    npages = nwarps * rpw * 64 // PAGE
    frames = npages + 8 if cache == "full" else max(npages // 2,
                                                    nwarps + 2)
    r = run_kvstore(nwarps=nwarps, records_per_warp=rpw,
                    ops_per_warp=ops, num_frames=frames)
    if not r.verified:
        raise AssertionError(f"kvstore ({cache} cache) lost writes")
    return [{
        "cache": cache,
        "cycles": round(r.cycles),
        "ops_per_s": round(r.ops_per_s, 1),
        "pwrites": r.pwrites,
        "writeback_bytes": r.writeback_bytes,
        "major_faults": r.major_faults,
    }]


def syscall_grepscan_grid(scale: str) -> list[dict]:
    return [{"density": density} for density in ("sparse", "dense")]


def syscall_grepscan_trend(result: ExperimentResult) -> Optional[dict]:
    """Trend metric: out-of-core scan throughput (sparse matches)."""
    try:
        row = result.row_by(density="sparse")
    except KeyError:
        return None
    return {"metric": "scan_gb_per_s", "value": row["gb_per_s"],
            "unit": "GB/s", "higher_is_better": True, "tier1": True}


@experiment(
    "syscall_grepscan",
    title="Out-of-core grep/scan (pread stream + match pwrite)",
    columns=(Column("density", role="param", numeric=False),
             Column("cycles", unit="cycles", role="measured"),
             Column("gb_per_s", unit="GB/s", role="measured"),
             Column("matches", role="measured"),
             Column("truncated_warps", role="measured")),
    grid=syscall_grepscan_grid,
    trend=syscall_grepscan_trend,
    notes="Each warp preads its chunk page-by-page (never resident "
          "all at once), scans with 16 B wide loads, and pwrites its "
          "match offsets into a fixed-capacity slot of a shared "
          "output file.  `dense` overflows the slots, exercising the "
          "capacity-truncation path.  Output file verified "
          "byte-exactly against a numpy scan.",
)
def syscall_grepscan_point(*, scale: str, density: str) -> list:
    """Grep-style scan through pread with pwrite-published results."""
    from repro.workloads.grepscan import run_grepscan

    nwarps, ppw = _sizes(scale, (8, 4), (32, 16))
    threshold = 2**26 if density == "sparse" else 2**31
    r = run_grepscan(nwarps=nwarps, pages_per_warp=ppw,
                     threshold=threshold)
    if not r.verified:
        raise AssertionError(f"grepscan ({density}) wrote wrong offsets")
    return [{
        "density": density,
        "cycles": round(r.cycles),
        "gb_per_s": round(r.gb_per_s, 3),
        "matches": r.matches,
        "truncated_warps": r.truncated_warps,
    }]


def syscall_graphwalk_grid(scale: str) -> list[dict]:
    return [{"tlb": tlb} for tlb in (True, False)]


def syscall_graphwalk_fold(rows: list, scale: str) -> list:
    """TLB benefit is vs the TLB-less point."""
    base = next((r["cycles"] for r in rows if not r["tlb"]), None)
    return [dict(r, speedup=(round(base / r["cycles"], 3)
                             if base else None)) for r in rows]


def syscall_graphwalk_trend(result: ExperimentResult) -> Optional[dict]:
    """Trend metric: translation cost per edge with the TLB on."""
    try:
        row = result.row_by(tlb=True)
    except KeyError:
        return None
    return {"metric": "walk_cycles_per_edge",
            "value": row["cycles_per_edge"], "unit": "cycles",
            "higher_is_better": False, "tier1": True}


@experiment(
    "syscall_graphwalk",
    title="Pointer-chasing graph traversal (page-divergent, TLB stress)",
    columns=(Column("tlb", role="param", numeric=False),
             Column("cycles", unit="cycles", role="measured"),
             Column("cycles_per_edge", unit="cycles", role="measured"),
             Column("speedup", unit="x", role="derived"),
             Column("tlb_hits", role="measured"),
             Column("tlb_misses", role="measured")),
    grid=syscall_graphwalk_grid,
    fold=syscall_graphwalk_fold,
    trend=syscall_graphwalk_trend,
    notes="Every lane chases a private chain through a permutation "
          "next-pointer file via per-lane vector seek: each hop is a "
          "32-way page-divergent dereference, the worst case for the "
          "block TLB.  Final nodes are pwritten to a shared output "
          "file and verified against a numpy chase.",
)
def syscall_graphwalk_point(*, scale: str, tlb: bool) -> list:
    """Pointer chase with per-lane divergence, TLB on vs off."""
    from repro.workloads.graphwalk import run_graphwalk

    nwarps, steps, nnodes = _sizes(
        scale, (4, 16, 64 * 1024), (32, 32, 256 * 1024))
    r = run_graphwalk(nwarps=nwarps, steps=steps, nnodes=nnodes,
                      use_tlb=tlb)
    if not r.verified:
        raise AssertionError(
            f"graphwalk (tlb={tlb}) walked to wrong nodes")
    return [{
        "tlb": tlb,
        "cycles": round(r.cycles),
        "cycles_per_edge": round(r.cycles_per_edge, 1),
        "tlb_hits": r.tlb_hits,
        "tlb_misses": r.tlb_misses,
    }]


#: CLI listing order (kept from the pre-registry harness; it differs
#: from the registry's insertion order).
_EXPERIMENT_ORDER = (
    "table1", "table2", "table3", "figure6a", "figure6b", "figure6c",
    "figure7", "figure9", "unaligned", "ablation_prefetch",
    "ablation_batching", "ablation_registers", "ablation_eviction",
    "ablation_readahead", "ablation_future_hw",
    "ablation_io_preemption",
    "syscall_kvstore", "syscall_grepscan", "syscall_graphwalk",
)
