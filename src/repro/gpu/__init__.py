"""GPU hardware simulator substrate.

This package models a commodity discrete GPU (parameterised as an NVIDIA
Tesla K80 / GK210, the machine used in the paper) at *warp granularity*:

* Kernels are Python coroutines executed in SIMT lockstep; each warp holds
  32 lanes whose per-lane values are numpy vectors.
* An event-driven scheduler (:mod:`repro.gpu.engine`) models per-SM
  instruction issue bandwidth, a shared DRAM bandwidth server, memory
  access latency, barriers, locks and PCIe transfers.  The GPU's natural
  latency hiding — the "free-computation bubble" of the paper's §VI-A —
  emerges from this scheduler.
* CUDA warp intrinsics (``__all``/``__ballot``/``__shfl``/``__ffs``/
  ``__popc``) are provided with identical semantics.

The substrate knows nothing about ActivePointers: it executes whatever
kernels it is given and charges time for what they do.
"""

from repro.gpu.device import Device, KernelLaunch, LaunchResult
from repro.gpu.specs import GPUSpec, K80_SPEC
from repro.gpu.kernel import WarpContext
from repro.gpu.memory import GlobalMemory, LaneRange, Scratchpad
from repro.gpu.occupancy import OccupancyLimits, occupancy_limits
from repro.gpu.trace import Tracer, render_timeline

__all__ = [
    "Device",
    "KernelLaunch",
    "LaunchResult",
    "GPUSpec",
    "K80_SPEC",
    "WarpContext",
    "GlobalMemory",
    "LaneRange",
    "Scratchpad",
    "OccupancyLimits",
    "occupancy_limits",
    "Tracer",
    "render_timeline",
]
