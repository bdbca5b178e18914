"""Multi-GPU co-simulation: run kernels on several devices at once.

Each device owns its SMs, DRAM bandwidth, and PCIe link; the host CPU
(RPC service) and simulated time are shared.  This is the substrate the
DSM layer (:mod:`repro.dsm`) uses for genuinely concurrent cluster
execution, and it models the multi-GPU node the paper's introduction
envisions.

Usage::

    results = launch_cluster([
        ClusterLaunch(device0, kernel_a, grid=4, block_threads=256),
        ClusterLaunch(device1, kernel_b, grid=4, block_threads=256),
    ])

Every cluster runs one engine per device with a deterministic epoch
barrier and a parent-owned host server (see :mod:`repro.gpu.sharded`):
``jobs=1`` (the default) drives the shards in-process, ``jobs>1``
spreads them over a spawn-safe process pool, and both produce identical
merged results.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.device import Device
from repro.gpu.kernel import KernelFn
from repro.gpu.occupancy import occupancy_limits
from repro.gpu.sharded import launch_cluster

__all__ = ["ClusterLaunch", "launch_cluster"]


@dataclass
class ClusterLaunch:
    """One device's kernel in a concurrent multi-GPU launch."""

    device: Device
    kernel: KernelFn
    grid: int
    block_threads: int
    args: tuple = ()
    regs_per_thread: int = 64
    scratchpad_bytes: int = 0

    def __post_init__(self):
        if self.grid <= 0 or self.block_threads <= 0:
            raise ValueError("grid and block must be positive")


def _validate_cluster(launches: list[ClusterLaunch]):
    """Check the cluster once and return ``(spec, occupancies)``.

    Every device must share one :class:`GPUSpec`, carry one launch, and
    fit its kernel on an SM."""
    if not launches:
        raise ValueError("no launches")
    spec = launches[0].device.spec
    for launch in launches:
        if launch.device.spec is not spec:
            raise ValueError("all devices must share one GPUSpec")
    seen = set()
    for launch in launches:
        if id(launch.device) in seen:
            raise ValueError("one launch per device")
        seen.add(id(launch.device))
    occupancies = []
    for launch in launches:
        occ = occupancy_limits(spec, launch.block_threads,
                               launch.regs_per_thread,
                               launch.scratchpad_bytes)
        if not occ.is_schedulable:
            raise ValueError(
                f"unschedulable kernel: {occ.limiting_factor}")
        occupancies.append(occ)
    return spec, occupancies
