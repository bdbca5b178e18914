"""The benchmark's workloads: seeded instances of the public drivers in
``repro.workloads``.

An instance is one generated input, one launch and one oracle check.
The drivers generate their inputs from the seed they are given, so the
program receives only what the benchmark's seed produces.
"""

from __future__ import annotations

import json
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.gpu.device import Device
from repro.workloads import run_graphwalk, run_kvstore, run_memcpy
from repro.workloads.filebench import run_sequential_file_read
from simbench.layers import ROOT

SPEC_PATH = Path(__file__).with_name("spec.json")


def _memcpy(seed: int, params: dict):
    params = dict(params)
    device = Device(memory_bytes=params.pop("device_memory_bytes"))
    return run_memcpy(device, seed=seed, **params)


DRIVERS = {
    "repro.workloads.run_memcpy": _memcpy,
    "repro.workloads.run_graphwalk":
        lambda seed, params: run_graphwalk(seed=seed, **params),
    "repro.workloads.filebench.run_sequential_file_read":
        lambda seed, params: run_sequential_file_read(seed=seed, **params),
    "repro.workloads.run_kvstore":
        lambda seed, params: run_kvstore(seed=seed, **params),
}


def load_spec() -> dict:
    with open(SPEC_PATH) as f:
        return json.load(f)


def instance_seed(seed: int, index: int) -> int:
    """The seed of instance ``index`` of a run seeded with ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class Instance:
    """One instance's outcome."""

    seed: int
    seconds: float
    cycles: float = 0.0
    instructions: float = 0.0
    verified: bool = False
    error: str = ""


class LaunchRecorder:
    """Records every ``Device.launch`` result while installed."""

    def __init__(self):
        self.results: list = []
        self._original = None

    def __enter__(self):
        original = self._original = Device.__dict__["launch"]
        results = self.results

        def launch(*args, **kwargs):
            result = original(*args, **kwargs)
            results.append(result)
            return result

        Device.launch = launch
        return self

    def __exit__(self, *exc):
        Device.launch = self._original
        return False


def run_instance(spec: dict, seed: int, recorder: LaunchRecorder,
                 log=None) -> Instance:
    """Run one instance; an exception is recorded, never raised.

    With a :class:`~simbench.spans.SpanLog`, the driver call is the
    instance's root span, timed inside the instance's own interval.
    """
    driver = DRIVERS[spec["driver"]]
    recorder.results.clear()
    start = perf_counter()
    root = log.open(ROOT) if log is not None else -1
    try:
        result = driver(seed, spec["params"])
    except Exception:
        return Instance(seed=seed, seconds=perf_counter() - start,
                        error=traceback.format_exc(limit=3))
    finally:
        if log is not None:
            log.close(root)
    seconds = perf_counter() - start
    return Instance(
        seed=seed,
        seconds=seconds,
        cycles=sum(r.cycles for r in recorder.results),
        instructions=sum(r.stats.instructions for r in recorder.results),
        verified=bool(result.verified),
        error="" if result.verified else "oracle returned verified=False",
    )
