"""Consolidated engine launch API: :class:`LaunchPlan` + :class:`EngineHooks`.

These two small value objects replace the keyword-argument sprawl that
the engine's constructor and entry points accumulated PR over PR:

* :class:`EngineHooks` bundles every instrumentation hook a launch can
  carry — Chrome-trace tracer, :class:`~repro.gpu.engine.EngineProfile`
  deep counters, the cycle-window time-series sampler, and the runtime
  sanitizer — into one object passed as ``Engine(..., hooks=...)`` (or
  ``Device.launch(..., hooks=...)``).  Instrumented and uninstrumented
  launches are cycle-bit-identical; the engine only ever tests each
  hook against ``None``.
* :class:`LaunchPlan` describes *what* to run on one device: its block
  factories, the resident-blocks-per-SM occupancy, and the hooks.
  ``Engine.launch(plan)`` is the single entry point.

Neither class imports the engine, so they are cheap to construct and
safe to build in caller modules without circular imports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence


@dataclass
class EngineHooks:
    """Every instrumentation hook one launch can carry, in one bundle.

    All fields default to ``None`` (= off); a launch with the null
    bundle pays one pointer test per hook per event and nothing else.

    * ``tracer`` — Chrome-trace event recorder
      (:class:`repro.gpu.trace.Tracer`); also drives the attribution
      overlay of :mod:`repro.telemetry.attribution`.
    * ``profile`` — :class:`repro.gpu.engine.EngineProfile` deep
      per-launch counters (per-SM busy, stall mix, DRAM queueing).
    * ``sampler`` — cycle-window time-series sampler
      (:mod:`repro.telemetry.timeseries`).
    * ``sanitizer`` — runtime sanitizer
      (:mod:`repro.analysis.sanitizer`); consumed by
      :meth:`Device.launch_cfg` when building warp contexts (the
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


__all__ = ["EngineHooks", "LaunchPlan"]
