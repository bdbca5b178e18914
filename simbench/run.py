"""Host-time benchmark of the simulator on four seeded workloads.

    python3 simbench/run.py --workload memcpy-stream --seed 1 \\
        --seconds 20 --trace 0

Closed loop, one process, no threads: seeded instances of one workload
run one after another (each is one generated input, one launch and one
oracle check).  Instance ``k`` of a run uses ``instance_seed(seed, k %
instances_per_set)``; the run times at least one full set and keeps
cycling through it until ``--seconds`` have passed.  A repeated seed
must reproduce its simulated cycles and oracle result exactly.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
instance twice, untraced and then under span wrappers and
``repro.telemetry.capture()``, and reports per-layer metrics; it exits
non-zero if the traced cycles differ from the untraced ones or if the
layer self times do not account for the traced instance time.  When the
run ends it writes the first traced instance's spans, and every traced
instance's self times and accounting residual, to ``simbench/out/``.

Host times of the untraced run are divided by a calibration loop run
between instances (``simbench/calibrate.py``), which cancels most of
the drift of a shared host.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SRC = CHECKOUT / "src"

#: Setup-time samples per run: this process plus fresh probe processes.
SETUP_PROBES = 4
#: Traced runs time at least this many untraced/traced pairs.
MIN_TRACE_PAIRS = 5
#: The layer self times plus the root's must match the traced instance
#: time within this share of it (the rest is the root span's own
#: bookkeeping, a few microseconds).
ACCOUNTING_TOLERANCE = 0.01


def tail_percentile(n: int, want: float = 75.0, beyond: int = 10) -> float:
    """The highest percentile up to ``want`` with at least ``beyond`` of
    ``n`` samples above it (0 when there are too few samples)."""
    return max(0.0, min(want, 100.0 * (n - beyond) / n)) if n else 0.0


def percentile(values, pct: float) -> float:
    """Linearly interpolated percentile of ``values``."""
    ordered = sorted(values)
    rank = pct / 100.0 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse any other
    copy of the program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"simbench: program source not found in {SRC}")
    sys.path[:0] = [str(SRC), str(CHECKOUT)]
    import repro
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"simbench: imported repro from {repro.__file__},"
                         f" not from {SRC}")


def _emit(correct: bool, attempted: int, failed: int,
          metrics: dict[str, tuple[float, str, int]]) -> None:
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:<36} {value:>16.6f} {unit:<7} n={samples}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))


def _report_failure(inst, why: str) -> None:
    print(f"simbench: instance seed {inst.seed} failed: {why}",
          file=sys.stderr)


def _setup_probes(workload: str, seed: int) -> list[float]:
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise SystemExit(f"simbench: setup probe failed:\n{proc.stderr}")
        out.append(float(proc.stdout.split()[-1]))
    return out


def run_untraced(wl: dict, seeds: list[int], warm, recorder,
                 setup_s: float, args) -> int:
    from simbench import calibrate
    from simbench.workloads import run_instance

    reference = {0: (warm.cycles, warm.verified)}
    timed = []
    cal = [calibrate.loop_seconds()]
    failed = 0
    start = perf_counter()
    while len(timed) < len(seeds) or perf_counter() - start < args.seconds:
        k = len(timed) % len(seeds)
        gc.collect()
        inst = run_instance(wl, seeds[k], recorder)
        cal.append(calibrate.loop_seconds())
        timed.append(inst)
        outcome = (inst.cycles, inst.verified)
        if k in reference and reference[k] != outcome:
            failed += 1
            _report_failure(inst, f"seed repeated with {outcome}, "
                                  f"first run gave {reference[k]}")
        elif not inst.verified:
            failed += 1
            _report_failure(inst, inst.error)
        reference.setdefault(k, outcome)
    setups = [setup_s] + _setup_probes(args.workload, args.seed)

    # Each instance is scaled by the calibration loops on either side.
    times = [inst.seconds * 2 * calibrate.REFERENCE_S / (before + after)
             for inst, before, after in zip(timed, cal, cal[1:])]
    n = len(times)
    tail = tail_percentile(n)
    metrics = {
        "instance_s.p50": (statistics.median(times), "s", n),
        f"instance_s.p{tail:g}": (percentile(times, tail), "s", n),
        "sim_kinst_per_s": (
            sum(inst.instructions for inst in timed) / sum(times) / 1e3,
            "kinst/s", n),
        "sim_cycles": (sum(reference[k][0] for k in range(len(seeds))),
                       "cycles", len(seeds)),
        "oracle_pass_ratio": ((n - failed) / n, "ratio", n),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MB", 1),
    }
    print(f"# {args.workload} seed {args.seed}: {n} instances over "
          f"{len(seeds)} seeds, oracle_fail_ratio {failed / n:g}, "
          f"uncalibrated instance p50 "
          f"{statistics.median(i.seconds for i in timed):.6f} s, "
          f"calibration loop p50 {statistics.median(cal):.6f} s")
    _emit(failed == 0, n, failed, metrics)
    return 0


def run_traced(wl: dict, seeds: list[int], recorder, args) -> int:
    from repro.telemetry import capture
    from simbench import layers
    from simbench.spans import Patch, SpanLog, self_times
    from simbench.workloads import run_instance

    targets = layers.targets()
    totals: dict[str, float] = {}
    plain_times, traced_times, summaries = [], [], []
    first_log = None
    problems = []
    start = perf_counter()
    i = 0
    while i < MIN_TRACE_PAIRS or perf_counter() - start < args.seconds:
        k = i % len(seeds)
        gc.collect()
        plain = run_instance(wl, seeds[k], recorder)
        log = SpanLog()
        log.instance = i
        log.request_layer = "gpu.kernel"
        gc.collect()
        with capture(trace=False) as prof, Patch(log, targets):
            traced = run_instance(wl, seeds[k], recorder, log=log)
        i += 1
        for inst in (plain, traced):
            if not inst.verified:
                problems.append(f"seed {inst.seed}: {inst.error}")
        if (traced.cycles, traced.verified) != (plain.cycles,
                                                plain.verified):
            problems.append(
                f"seed {traced.seed}: traced run gave cycles "
                f"{traced.cycles!r}, untraced {plain.cycles!r}; the span "
                "wrappers perturbed the model")
        if len(prof.profiles) != 1:
            problems.append(f"seed {traced.seed}: expected one launch, "
                            f"profiled {len(prof.profiles)}")
            continue
        selfs = self_times(log.names, log.starts, log.ends, log.parents)
        residual = traced.seconds - sum(selfs.values())
        if abs(residual) > ACCOUNTING_TOLERANCE * traced.seconds:
            problems.append(
                f"seed {traced.seed}: layer self times sum to "
                f"{sum(selfs.values()):.6f} s of a {traced.seconds:.6f} s "
                "instance")
        counts = layers.instance_counts(prof.profiles[0], selfs,
                                        log.calls, log.requests)
        for key, value in counts.items():
            totals[key] = totals.get(key, 0.0) + value
        plain_times.append(plain.seconds)
        traced_times.append(traced.seconds)
        summaries.append({"instance": i - 1, "seed": traced.seed,
                          "seconds": traced.seconds, "residual_s": residual,
                          "spans": len(log), "self_s": selfs})
        if first_log is None:
            first_log = log

    n = len(traced_times)
    if n:
        values = layers.layer_metrics(
            totals, n,
            statistics.median(traced_times) / statistics.median(plain_times))
    else:
        values = {metric: 0.0 for metric in layers.METRICS}
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "instances": summaries,
                   "first_instance": (first_log.to_json()
                                      if first_log is not None else None)},
                  f)
    for problem in problems:
        print(f"simbench: {problem}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {n} traced instances, "
          f"spans in {path.relative_to(CHECKOUT)}")
    _emit(not problems, max(n, 1), len(problems),
          {metric: (value, layers.unit(metric), n)
           for metric, value in values.items()})
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    from simbench import calibrate
    from simbench.workloads import (
        LaunchRecorder,
        instance_seed,
        load_spec,
        run_instance,
    )

    spec = load_spec()
    by_name = {wl["name"]: wl for wl in spec["workloads"]}
    if args.workload not in by_name:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(by_name)}")
    wl = by_name[args.workload]
    seeds = [instance_seed(args.seed, k)
             for k in range(spec["instances_per_set"])]
    with LaunchRecorder() as recorder:
        warm = run_instance(wl, seeds[0], recorder)
        setup_s = perf_counter() - PROCESS_START
        setup_s *= calibrate.REFERENCE_S / statistics.median(
            calibrate.loop_seconds() for _ in range(3))
        if args.setup_probe:
            print(setup_s)
            return 0
        if args.trace:
            return run_traced(wl, seeds, recorder, args)
        return run_untraced(wl, seeds, warm, recorder, setup_s, args)


if __name__ == "__main__":
    sys.exit(main())
