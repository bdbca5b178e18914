"""Deterministic sharded epoch execution for multi-GPU launches.

:func:`launch_cluster` (public as :func:`repro.gpu.multigpu.launch_cluster`)
runs each device of a cluster on its **own engine** — in process for
``jobs=1``, one spawn worker per device otherwise — and recombines the
results so that the merged stats, profiles, traces, time series, and
memory contents are identical regardless of the job count.

Synchronisation model
---------------------

Inside one device every resource (SMs, DRAM, PCIe, atomics) is private,
so shards never need to coordinate about them.  The only shared server
is the **host CPU**, which the parent owns:

* Every shard engine is host-gated (:meth:`Engine.gate_host`): the
  moment a warp yields :class:`HostCompute` the shard *parks* — it
  stops draining immediately (strict stop), so no later event consumes
  a sequence number before the host result is known.
* Shards otherwise advance in **epochs** of ``epoch_cycles`` simulated
  cycles (default: the PCIe round-trip, the minimum latency of any
  cross-device interaction), reporting at each epoch barrier.
* When every shard is parked, at a barrier, or finished, the parent
  serves the globally earliest parked request — ordered by ``(arrival
  cycle, shard index)`` — against the shared ``host_avail`` clock and
  resumes only that shard.  The grant is conservative-safe: unparked
  shards have drained past the barrier horizon, so none can still
  produce an earlier host request.

The decision sequence depends only on simulated time, never on wall
clock or scheduling, which is what makes ``jobs=1`` and ``jobs=N``
bit-identical.  Host requests arriving on different devices at the same
cycle are served in shard order.

Cross-process observability
---------------------------

Tracers and samplers cannot cross process boundaries as live objects,
so each shard runs its *own* :class:`~repro.gpu.trace.Tracer` /
:class:`~repro.telemetry.timeseries.TimeseriesSampler` and spills the
results to per-shard JSONL files (``trace-shardNNN.jsonl`` /
``series-shardNNN.jsonl``), every record stamped with ``(shard,
device, epoch)``.  The parent merges them deterministically in shard
order: SM ids rebase to the global range (shard *i* owns SMs ``[i *
num_sms, (i+1) * num_sms)``, matching :meth:`EngineProfile.merged`),
and causal request ids rebase their device prefix to the shard index.
``jobs=1`` runs the *same* spill-and-merge pipeline, so traces and
series are bit-identical across job counts exactly as stats already
are.  Component counter sections of an ambient profiler reflect
parent-process stats objects only (spawn workers mutate their own
copies), so they are meaningful under ``jobs=1`` and zero under
``jobs>1`` — engine stats, traces, series, and attribution merge
either way.

Worker RNGs are seeded with the stable per-shard
:func:`repro.harness.runner.point_seed` before block factories run;
the in-process path restores the caller's ``random`` / ``np.random``
state afterwards.  Progress heartbeats reuse the rate-limited
:class:`repro.harness.heartbeat.HeartbeatSender`.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import tempfile
from dataclasses import dataclass
from queue import Empty

import numpy as np

from repro.gpu.device import KernelLaunch, LaunchResult
from repro.gpu.engine import Engine, EngineProfile, EngineStats
from repro.gpu.launch import EngineHooks
from repro.gpu.trace import Tracer

#: Seconds without any worker message before the parent checks futures
#: for crashed workers (and ultimately gives up).  Overridable through
#: the environment (:data:`WORKER_TIMEOUT_ENV`) for slow CI machines.
WORKER_TIMEOUT = 120.0

#: Environment variable overriding :data:`WORKER_TIMEOUT` (seconds,
#: positive number); validated by :func:`worker_timeout`.
WORKER_TIMEOUT_ENV = "REPRO_WORKER_TIMEOUT"


def worker_timeout() -> float:
    """The effective worker timeout: :data:`WORKER_TIMEOUT_ENV` when
    set (validated — a number of seconds > 0), else the
    :data:`WORKER_TIMEOUT` default."""
    raw = os.environ.get(WORKER_TIMEOUT_ENV)
    if raw is None:
        return WORKER_TIMEOUT
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"{WORKER_TIMEOUT_ENV} must be a number of seconds, "
            f"got {raw!r}") from None
    if math.isnan(value) or value <= 0:
        raise ValueError(
            f"{WORKER_TIMEOUT_ENV} must be positive, got {raw!r}")
    return value


def default_epoch_cycles(spec) -> float:
    """Epoch barrier spacing: the minimum cross-device interaction
    latency.  Devices only interact through the host, and nothing
    reaches the host faster than one PCIe round-trip."""
    return max(1.0, spec.pcie_latency_cycles())


@dataclass(frozen=True)
class _ShardInstrument:
    """Picklable per-shard instrumentation request.

    Travels to spawn workers in place of live tracer/sampler objects;
    each shard constructs its own instruments from it and spills their
    output to ``spill_dir`` (see module docstring).
    """

    profile: bool = False
    trace: bool = False
    max_trace_events: int = 200_000
    timeseries: bool = False
    window_cycles: float = 0.0
    epoch_cycles: float = 1.0
    spill_dir: str = ""

    @property
    def spills(self) -> bool:
        return self.trace or self.timeseries


# ---------------------------------------------------------------------------
# Shard-side execution (shared by the in-process and worker paths).


def _build_shard(launch, blocks_per_sm: int, inst: _ShardInstrument):
    """One single-device engine for one :class:`ClusterLaunch`, gated
    on the host server and seeded with the device's block factories
    (:meth:`Device.block_factories`, under the device's sanitizer when
    it has one).  Returns ``(engine, tracer, sampler)`` — the
    shard-local instruments."""
    device = launch.device
    spec = device.spec
    tracer = (Tracer(max_events=inst.max_trace_events)
              if inst.trace else None)
    sampler = None
    if inst.timeseries:
        from repro.telemetry.timeseries import TimeseriesSampler
        sampler = TimeseriesSampler(num_sms=spec.num_sms,
                                    window_cycles=inst.window_cycles,
                                    tracer=tracer)
    hooks = EngineHooks(
        tracer=tracer,
        profile=EngineProfile.for_sms(spec.num_sms) if inst.profile
        else None,
        sampler=sampler)
    engine = Engine(spec, blocks_per_sm, hooks=hooks)
    engine.gate_host()
    engine.begin(device.block_factories(
        KernelLaunch(launch.kernel, launch.grid, launch.block_threads,
                     launch.args, launch.regs_per_thread,
                     launch.scratchpad_bytes),
        tracer, device.sanitizer))
    return engine, tracer, sampler


def _shard_status(engine: Engine, horizon: float) -> tuple:
    """Advance one shard to its next blocking point.

    Returns ``("parked", arrival, seconds)``, ``("waiting",)`` (epoch
    barrier reached), or ``("done",)``.
    """
    nxt = engine.advance(horizon)
    if engine.parked:
        arrival, seconds = engine.parked_host()
        return ("parked", arrival, seconds)
    if nxt == math.inf:
        return ("done",)
    return ("waiting",)


def _pick_grant(status: dict) -> tuple | None:
    """The globally earliest parked request, ordered by
    ``(arrival cycle, shard index)``."""
    parked = [(s[1], idx, s[2]) for idx, s in status.items()
              if s[0] == "parked"]
    if not parked:
        return None
    return min(parked)


def _shard_seed(base_seed: int, index: int) -> int:
    from repro.harness.runner import point_seed
    return point_seed("gpu.sharded", index, {"shard": index},
                      base_seed=base_seed)


# ---------------------------------------------------------------------------
# Per-shard event spill files and their deterministic merge.


def _trace_spill_path(spill_dir: str, index: int) -> str:
    return os.path.join(spill_dir, f"trace-shard{index:03d}.jsonl")


def _series_spill_path(spill_dir: str, index: int) -> str:
    return os.path.join(spill_dir, f"series-shard{index:03d}.jsonl")


def _finish_shard(index: int, engine: Engine, inst: _ShardInstrument,
                  tracer, sampler) -> float:
    """Drain the shard and spill its event streams: ``engine.finish()``
    first (so late counter-mirror windows still land in the tracer),
    then one JSONL file per stream, every record stamped ``(shard,
    device, epoch)``."""
    cycles = engine.finish()
    if sampler is not None:
        sampler.finish(cycles)
    if not inst.spills:
        return cycles
    epoch = inst.epoch_cycles
    if tracer is not None:
        with open(_trace_spill_path(inst.spill_dir, index), "w") as f:
            f.write(json.dumps({
                "shard": index, "device": index,
                "epoch_cycles": epoch,
                "events": len(tracer.events),
                "dropped": tracer.dropped,
            }) + "\n")
            for e in tracer.events:
                f.write(json.dumps({
                    "warp": e.warp, "block": e.block, "kind": e.kind,
                    "start": e.start, "end": e.end,
                    "detail": e.detail, "sm": e.sm, "req": e.req,
                    "shard": index, "device": index,
                    "epoch": int(e.start // epoch),
                }) + "\n")
    if sampler is not None:
        with open(_series_spill_path(inst.spill_dir, index), "w") as f:
            f.write(json.dumps({
                "shard": index, "device": index,
                "epoch_cycles": epoch,
                "window_cycles": sampler.window_cycles,
                "windows": (len(sampler.windows)
                            + sampler.dropped_windows),
                "dropped_windows": sampler.dropped_windows,
            }) + "\n")
            for record in sampler.windows:
                out = dict(record)
                out["shard"] = index
                out["device"] = index
                out["epoch"] = int(record["t0"] // epoch)
                f.write(json.dumps(out) + "\n")
    return cycles


def _merge_spills(inst: _ShardInstrument, n: int, num_sms: int,
                  tracer) -> dict | None:
    """Deterministically merge the per-shard spill files, shard order.

    Trace events replay into ``tracer`` (when tracing was on) with SM
    ids rebased to shard *i*'s global range and causal request ids
    rebased to the shard's device prefix; counter mirrors (``sm ==
    -1``) stay unrebased.  Returns the merged
    ``components.timeseries`` section, or ``None`` when sampling was
    off.
    """
    series: list[dict] = []
    enabled = 0
    windows = 0
    dropped_windows = 0
    window_cycles = 0.0
    for index in range(n):
        base = index * num_sms
        tpath = _trace_spill_path(inst.spill_dir, index)
        if tracer is not None and os.path.exists(tpath):
            with open(tpath) as f:
                meta = json.loads(f.readline())
                tracer.dropped += int(meta.get("dropped", 0))
                for line in f:
                    rec = json.loads(line)
                    sm = rec["sm"]
                    if sm >= 0:
                        sm += base
                    req = rec["req"]
                    if req:
                        req = f"{index}{req[req.index(':'):]}"
                    tracer.record(rec["warp"], rec["block"],
                                  rec["kind"], rec["start"],
                                  rec["end"], rec["detail"], sm=sm,
                                  req=req)
        spath = _series_spill_path(inst.spill_dir, index)
        if inst.timeseries and os.path.exists(spath):
            with open(spath) as f:
                meta = json.loads(f.readline())
                enabled = 1
                windows += int(meta.get("windows", 0))
                dropped_windows += int(meta.get("dropped_windows", 0))
                window_cycles = max(window_cycles,
                                    float(meta.get("window_cycles",
                                                   0.0)))
                for line in f:
                    series.append(json.loads(line))
    if not inst.timeseries:
        return None
    return {
        "enabled": enabled,
        "window_cycles": window_cycles,
        "windows": windows,
        "dropped_windows": dropped_windows,
        "series": series,
    }


# ---------------------------------------------------------------------------
# jobs=1: every shard engine lives in this process; the state machine
# below is the reference implementation the worker protocol mirrors.


def _run_inprocess(launches, blocks_per_sm: int, epoch: float,
                   base_seed: int, inst: _ShardInstrument,
                   on_beat=None):
    from repro.harness.runner import _seed_rngs

    spec = launches[0].device.spec
    engines = []
    instruments = []
    for index, launch in enumerate(launches):
        _seed_rngs(_shard_seed(base_seed, index))
        engine, tracer, sampler = _build_shard(launch, blocks_per_sm,
                                               inst)
        engines.append(engine)
        instruments.append((tracer, sampler))
    horizon = epoch
    host_avail = 0.0
    status = {i: _shard_status(eng, horizon)
              for i, eng in enumerate(engines)}
    while True:
        grant = _pick_grant(status)
        if grant is not None:
            arrival, index, seconds = grant
            start = max(arrival, host_avail)
            done = start + seconds * spec.clock_hz
            host_avail = done
            engines[index].grant_host(start, done)
            status[index] = _shard_status(engines[index], horizon)
            continue
        waiting = [i for i, s in status.items() if s[0] == "waiting"]
        if not waiting:
            break
        horizon += epoch
        if on_beat is not None:
            on_beat({"kind": "window", "horizon": horizon,
                     "shards_waiting": len(waiting)})
        for index in waiting:
            status[index] = _shard_status(engines[index], horizon)
    cycles = [_finish_shard(i, eng, inst, *instruments[i])
              for i, eng in enumerate(engines)]
    stats = [eng.stats for eng in engines]
    profiles = ([eng.profile for eng in engines] if inst.profile
                else None)
    return cycles, stats, profiles, None


# ---------------------------------------------------------------------------
# jobs>1: one spawn worker per shard, coordinated over Manager queues.


def _shard_worker(index: int, launch, blocks_per_sm: int, epoch: float,
                  seed: int, inst: _ShardInstrument,
                  cmd_q, rep_q, heartbeat_interval: float):
    """Worker side of the epoch protocol.  Messages to the parent:
    ``("parked", index, arrival, seconds)``, ``("waiting", index)``,
    ``("done", index)``, ``("beat", index, payload)``; commands from
    the parent: ``("grant", start, done)`` and ``("advance", horizon)``.
    Event streams never ride the queues — shards spill them to
    ``inst.spill_dir`` (see :func:`_finish_shard`).
    """
    from repro.harness.heartbeat import HeartbeatSender
    from repro.harness.runner import _seed_rngs

    _seed_rngs(seed)
    engine, tracer, sampler = _build_shard(launch, blocks_per_sm, inst)
    beats = HeartbeatSender(
        lambda beat: rep_q.put(("beat", index, beat)),
        min_interval=heartbeat_interval)
    horizon = epoch
    while True:
        state = _shard_status(engine, horizon)
        if state[0] == "parked":
            rep_q.put(("parked", index, state[1], state[2]))
            cmd = cmd_q.get()
            engine.grant_host(cmd[1], cmd[2])
            continue
        if state[0] == "done":
            rep_q.put(("done", index))
            break
        beats.send({"kind": "window", "shard": index,
                    "horizon": horizon})
        rep_q.put(("waiting", index))
        cmd = cmd_q.get()
        horizon = cmd[1]
    cycles = _finish_shard(index, engine, inst, tracer, sampler)
    memory = launch.device.memory.data.tobytes()
    return (index, cycles, engine.stats,
            engine.profile if inst.profile else None, memory)


def _run_workers(launches, blocks_per_sm: int, epoch: float,
                 base_seed: int, inst: _ShardInstrument, on_beat=None):
    import multiprocessing

    from repro.harness.runner import spawn_executor

    spec = launches[0].device.spec
    timeout = worker_timeout()
    n = len(launches)
    # Every shard must be live for the barrier to close, so the pool
    # holds one worker per shard regardless of the jobs value.
    with multiprocessing.Manager() as manager, \
            spawn_executor(n) as pool:
        rep_q = manager.Queue()
        cmd_qs = [manager.Queue() for _ in range(n)]
        futures = [
            pool.submit(_shard_worker, i, launch, blocks_per_sm, epoch,
                        _shard_seed(base_seed, i), inst,
                        cmd_qs[i], rep_q, 2.0)
            for i, launch in enumerate(launches)]
        status: dict[int, tuple] = {}
        horizon = epoch
        host_avail = 0.0
        pending = set(range(n))     # shards we await a message from

        def collect():
            while pending:
                try:
                    msg = rep_q.get(timeout=timeout)
                except Empty:
                    for fut in futures:
                        if fut.done():
                            fut.result()  # surfaces worker tracebacks
                    raise TimeoutError(
                        "sharded workers made no progress for "
                        f"{timeout}s")
                if msg[0] == "beat":
                    if on_beat is not None:
                        on_beat(msg[2])
                    continue
                index = msg[1]
                pending.discard(index)
                if msg[0] == "parked":
                    status[index] = ("parked", msg[2], msg[3])
                elif msg[0] == "waiting":
                    status[index] = ("waiting",)
                else:
                    status[index] = ("done",)

        while True:
            collect()
            grant = _pick_grant(status)
            if grant is not None:
                arrival, index, seconds = grant
                start = max(arrival, host_avail)
                done = start + seconds * spec.clock_hz
                host_avail = done
                cmd_qs[index].put(("grant", start, done))
                pending.add(index)
                continue
            waiting = [i for i, s in status.items()
                       if s[0] == "waiting"]
            if not waiting:
                break
            horizon += epoch
            for index in waiting:
                cmd_qs[index].put(("advance", horizon))
                pending.add(index)

        results = [fut.result() for fut in futures]
    results.sort()
    cycles = [r[1] for r in results]
    stats = [r[2] for r in results]
    profiles = [r[3] for r in results] if inst.profile else None
    memories = [r[4] for r in results]
    return cycles, stats, profiles, memories


# ---------------------------------------------------------------------------


def launch_cluster(launches, *,
                   jobs: int = 1,
                   epoch_cycles: float | None = None,
                   base_seed: int = 0,
                   profile: bool = False,
                   trace: bool = False,
                   tracer=None,
                   timeseries: bool = False,
                   window_cycles: float | None = None,
                   spill_dir: str | None = None,
                   on_beat=None) -> LaunchResult:
    """Run all launches concurrently; returns combined timing.

    Every device must share one :class:`GPUSpec` (a homogeneous
    cluster).  The returned result's ``cycles`` is the makespan across
    devices; ``stats`` aggregates all of them.

    Each device runs on its own engine.  ``jobs=1`` drives every shard
    in this process; any larger value spawns one worker per device (the
    protocol needs every shard live to close its barrier, so the pool
    is sized by the cluster, not by ``jobs``).  Results are
    bit-identical across job counts.  A device carrying a
    ``sanitizer`` runs under it, which needs ``jobs=1``: a spawn
    worker's violations could not come back, so ``jobs>1`` raises
    ``ValueError`` before spawning.  ``epoch_cycles`` bounds how far a
    shard runs ahead between barriers (default: the PCIe round-trip,
    the minimum cross-device interaction latency).

    ``trace=True`` (or a supplied ``tracer``) merges per-shard traces
    into ``result.tracer``; ``timeseries=True`` merges per-shard
    cycle-window series into ``result.series`` (the
    ``components.timeseries`` shape).  ``spill_dir`` keeps the
    per-shard JSONL spill files for inspection; by default they live
    in a temporary directory removed after the merge.  Under an
    ambient profiler (:func:`repro.telemetry.capture`) tracing,
    sampling, and profiling follow the profiler's configuration and
    the merged launch lands in ``profiler.profiles``.
    """
    from repro.gpu.multigpu import _validate_cluster
    from repro.telemetry import hooks as telemetry_hooks
    from repro.telemetry.timeseries import DEFAULT_WINDOW_CYCLES

    spec, occupancies = _validate_cluster(launches)
    blocks_per_sm = min(o.blocks_per_sm for o in occupancies)
    epoch = (default_epoch_cycles(spec) if epoch_cycles is None
             else float(epoch_cycles))
    if epoch <= 0:
        raise ValueError("epoch_cycles must be positive")
    if jobs > 1 and len(launches) > 1 and any(
            launch.device.sanitizer is not None for launch in launches):
        raise ValueError(
            "a sanitized device needs jobs=1: a spawn worker's "
            "sanitizer violations cannot come back to the parent")

    max_trace_events = 200_000
    profiler = telemetry_hooks.current()
    if profiler is not None:
        profile = True
        if tracer is None and profiler.trace \
                and len(profiler.traces) < profiler.max_traces:
            trace = True
            max_trace_events = profiler.max_trace_events
        if profiler.timeseries:
            timeseries = True
            if window_cycles is None:
                window_cycles = profiler.window_cycles
    if tracer is not None:
        trace = True
        max_trace_events = tracer.max_events

    tmp_dir = None
    if (trace or timeseries) and spill_dir is None:
        tmp_dir = tempfile.mkdtemp(prefix="repro-shards-")
        spill_dir = tmp_dir
    elif spill_dir is not None:
        os.makedirs(spill_dir, exist_ok=True)
    inst = _ShardInstrument(
        profile=profile,
        trace=trace,
        max_trace_events=max_trace_events,
        timeseries=timeseries,
        window_cycles=(float(window_cycles) if window_cycles
                       else DEFAULT_WINDOW_CYCLES),
        epoch_cycles=epoch,
        spill_dir=spill_dir or "")

    # The in-process shards reseed the global RNGs; the caller's
    # streams resume where they were once the cluster is done.
    py_rng_state = random.getstate()
    np_rng_state = np.random.get_state()
    try:
        if jobs <= 1 or len(launches) == 1:
            cycles, stats, profiles, memories = _run_inprocess(
                launches, blocks_per_sm, epoch, base_seed, inst,
                on_beat)
        else:
            cycles, stats, profiles, memories = _run_workers(
                launches, blocks_per_sm, epoch, base_seed, inst,
                on_beat)

        merged_tracer = None
        series = None
        if inst.spills:
            if trace:
                merged_tracer = tracer if tracer is not None else \
                    Tracer(max_events=max_trace_events * len(launches))
            series = _merge_spills(inst, len(launches), spec.num_sms,
                                   merged_tracer)
    finally:
        random.setstate(py_rng_state)
        np.random.set_state(np_rng_state)
        if tmp_dir is not None:
            shutil.rmtree(tmp_dir, ignore_errors=True)

    if memories is not None:
        # Worker shards mutated their own copy of device memory; fold
        # the bytes back into the parent's devices.
        for launch, memory in zip(launches, memories):
            data = launch.device.memory.data
            data[:] = np.frombuffer(memory, dtype=np.uint8)

    makespan = max(cycles)
    for launch in launches:
        launch.device.total_cycles += makespan
        launch.device.launches += 1
    result = LaunchResult(
        cycles=makespan,
        seconds=spec.cycles_to_seconds(makespan),
        stats=EngineStats.merged(stats),
        occupancy=occupancies[0],
        tracer=merged_tracer,
        series=series,
    )
    if profile:
        result.profile = EngineProfile.merged(profiles)
    if profiler is not None:
        profiler.record_cluster(
            spec=spec, launches=launches, occ=occupancies[0],
            cycles=makespan, stats=result.stats,
            engine_profile=result.profile, tracer=merged_tracer,
            series=series)
    return result
