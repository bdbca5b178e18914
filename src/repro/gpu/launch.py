"""Consolidated engine launch API: :class:`LaunchPlan` + :class:`EngineHooks`.

These small objects replace the keyword-argument sprawl that
the engine's constructor and entry points accumulated PR over PR:

* :class:`EngineHooks` bundles every instrumentation hook a launch can
  carry — Chrome-trace tracer, :class:`~repro.gpu.engine.EngineProfile`
  deep counters, the cycle-window time-series sampler, and the runtime
  sanitizer — into one object passed as ``Engine(..., hooks=...)`` (or
  ``Device.launch(..., hooks=...)``).
* :class:`EngineObserver` is the one seam through which the engine
  reports what it simulates: per launch it turns the bundle's sinks
  into one observer (``None``, the sink itself, or a :class:`FanOut`)
  and sends each event once, behind one ``is not None`` test.
* :class:`LaunchPlan` describes *what* to run on one device: its block
  factories, the resident-blocks-per-SM occupancy, and the hooks.
  ``Engine.launch(plan)`` is the single entry point.

None of them imports the engine, so they are cheap to construct and
safe to build in caller modules without circular imports.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence


class EngineObserver:
    """The events the engine sends to instrumentation, each once.

    Every method is a no-op; a sink overrides the events it needs and
    only reads what it is given.  ``warp`` is the engine's handle of one
    warp (``warp.block``, and ``warp.warp_id`` as the kernel sees it);
    times are cycles.

    * ``advance`` — the event loop reached ``now`` (monotonic).
    * ``issue`` — ``warp`` held ``sm``'s issue server for ``cycles``
      from ``start``, issuing ``count`` warp-instructions.
    * ``stall`` — ``warp`` did not issue during ``[start, end]``;
      ``kind`` is the mechanical reason (``memory``, ``lock``, ...),
      ``tag`` the request's activity tag (``translation``, ...) or "".
    * ``op`` — request ``req`` occupied ``[start, end]``.
    * ``dram`` / ``pcie`` — one access or transfer: ``busy`` server
      cycles, after ``queue`` cycles of waiting for the DRAM server.
    * ``translation`` — one request's translation share: ``iss`` issue
      cycles, ``lat`` cycles its chains delayed the warp, ``hid`` chain
      cycles the memory bubble or bandwidth queue absorbed.
    """

    def advance(self, now):
        pass

    def issue(self, warp, sm, start, cycles, count):
        pass

    def stall(self, warp, kind, tag, start, end):
        pass

    def op(self, warp, req, start, end):
        pass

    def dram(self, start, nbytes, transactions, busy, queue):
        pass

    def pcie(self, start, nbytes, busy):
        pass

    def translation(self, warp, start, end, iss, lat, hid):
        pass


def _broadcast(name: str, calls: tuple) -> Callable:
    """A function taking event ``name``'s parameters that passes them to
    each of ``calls`` in turn.  It is generated with fixed arity, the way
    :mod:`dataclasses` generates ``__init__``: on the engine's hot path a
    ``*args`` loop costs more than the sinks' own work."""
    params = ", ".join(
        list(inspect.signature(getattr(EngineObserver, name)).parameters)[1:])
    scope = {f"call{i}": call for i, call in enumerate(calls)}
    exec(f"def {name}({params}):\n"
         + "".join(f"    {c}({params})\n" for c in scope), scope)
    return scope[name]


class FanOut(EngineObserver):
    """An :class:`EngineObserver` that sends each event to every sink
    that handles it, in sink order (an event only one sink handles goes
    straight to that sink's method)."""

    def __init__(self, sinks: Sequence[EngineObserver]):
        sinks = tuple(sinks)
        for name, noop in vars(EngineObserver).items():
            if name.startswith("_"):
                continue
            calls = tuple(getattr(sink, name) for sink in sinks
                          if getattr(type(sink), name) is not noop)
            if calls:    # else the inherited no-op
                setattr(self, name, calls[0] if len(calls) == 1
                        else _broadcast(name, calls))


@dataclass
class EngineHooks:
    """Every instrumentation hook one launch can carry, in one bundle.

    All fields default to ``None`` (= off); a launch with the null
    bundle pays one pointer test per event and nothing else.

    * ``tracer`` — Chrome-trace event recorder
      (:class:`repro.gpu.trace.Tracer`); also drives the attribution
      overlay of :mod:`repro.telemetry.attribution`.
    * ``profile`` — :class:`repro.gpu.engine.EngineProfile` deep
      per-launch counters (per-SM busy, stall mix, DRAM queueing).
    * ``sampler`` — cycle-window time-series sampler
      (:mod:`repro.telemetry.timeseries`).
    * ``sanitizer`` — runtime sanitizer
      (:mod:`repro.analysis.sanitizer`); consumed by
      :meth:`Device.block_factories` when building warp contexts (the
      engine itself never calls it).
    """

    tracer: Any = None
    profile: Any = None
    sampler: Any = None
    sanitizer: Any = None


@dataclass
class LaunchPlan:
    """What one engine launch executes.

    ``factories`` lists the device's block factories in launch order;
    each is a zero-argument callable returning ``(BlockContext, [warp
    generators])``.  ``blocks_per_sm`` (the occupancy-derived
    resident-block limit) and ``hooks`` override the engine's
    constructor defaults when set.
    """

    factories: Sequence[Callable]
    blocks_per_sm: Optional[int] = None
    hooks: Optional[EngineHooks] = field(default=None, repr=False)


__all__ = ["EngineHooks", "EngineObserver", "FanOut", "LaunchPlan"]
