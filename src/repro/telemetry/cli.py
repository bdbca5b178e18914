"""``repro-attr`` — attribute traces and gate the perf trend record.

Two modes:

* **Attribution** (default): read trace JSON written by
  ``repro-experiments --profile-dir`` (or any
  :meth:`~repro.gpu.trace.Tracer.to_chrome_trace` export), run the
  cycle-attribution analyzer, and print the hidden-vs-exposed
  translation report.  Directories are scanned for ``trace-*.json``;
  ``--validate`` also schema-checks every ``profile-*.json`` found,
  lifting archived versions with :func:`~repro.telemetry.upgrade_profile`
  first.
* **Trend compare** (``--compare``): diff the latest ``BENCH_trend.json``
  row against the previous one; exit 1 on a >10% regression of a
  tier-1 metric.  This is the CI perf gate.

Exit codes: 0 ok, 1 regression found, 2 usage / analysis error
(truncated trace, bad schema, missing files).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys


def _iter_inputs(paths: list) -> tuple[list, list]:
    """Expand CLI paths into (trace files, profile files)."""
    traces, profiles = [], []
    for path in paths:
        if os.path.isdir(path):
            traces.extend(sorted(glob.glob(
                os.path.join(path, "trace-*.json"))))
            profiles.extend(sorted(glob.glob(
                os.path.join(path, "profile-*.json"))))
        elif os.path.basename(path).startswith("profile-"):
            profiles.append(path)
        else:
            traces.append(path)
    return traces, profiles


def _cmd_attribute(args) -> int:
    from repro.harness.reporting import format_attribution
    from repro.telemetry.attribution import (
        TruncatedTraceError,
        attribute_chrome_trace,
    )
    from repro.telemetry.profile import (
        SCHEMA_VERSION,
        upgrade_profile,
        validate_profile,
    )

    traces, profiles = _iter_inputs(args.paths)
    if args.validate:
        for path in profiles:
            with open(path) as f:
                on_disk = json.load(f)
            try:
                doc = upgrade_profile(on_disk)
                validate_profile(doc)
            except ValueError as exc:
                print(f"{path}: INVALID profile: {exc}",
                      file=sys.stderr)
                return 2
            note = ""
            if on_disk["version"] != SCHEMA_VERSION:
                note = f", upgraded to v{SCHEMA_VERSION}"
            series = doc["components"]["timeseries"]
            if series["enabled"]:
                note += (f", {series['windows']} sampled windows @ "
                         f"{series['window_cycles']:g} cycles")
            print(f"{path}: valid profile "
                  f"(schema v{on_disk['version']}{note})")
    if not traces:
        if args.validate and profiles:
            return 0
        print("repro-attr: no trace files found "
              "(expected trace-*.json; run repro-experiments with "
              "--profile-dir)", file=sys.stderr)
        return 2
    status = 0
    reports = []
    for path in traces:
        with open(path) as f:
            trace = json.load(f)
        try:
            report = attribute_chrome_trace(trace)
        except TruncatedTraceError as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            status = 2
            continue
        except ValueError as exc:
            print(f"{path}: cannot attribute: {exc}", file=sys.stderr)
            status = 2
            continue
        reports.append((path, report))
        if args.json:
            continue
        print(f"-- {path}")
        if report.events and not report.warp_rows:
            print("(trace has no attribution events; profile with "
                  "attribution enabled — repro-experiments "
                  "--attribute)")
        else:
            print(format_attribution(report, markdown=args.markdown))
        print()
    if args.json:
        json.dump({path: r.to_dict() for path, r in reports},
                  sys.stdout, indent=2, sort_keys=True)
        print()
    return status


def _cmd_compare(args) -> int:
    from repro.telemetry.trend import compare, load_trend

    try:
        doc = load_trend(args.trend_file)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"repro-attr: cannot read trend file "
              f"{args.trend_file}: {exc}", file=sys.stderr)
        return 2
    regressions, lines = compare(doc, threshold=args.threshold)
    print(f"trend file: {args.trend_file} "
          f"({len(doc.get('runs', []))} runs)")
    for line in lines:
        print(line)
    if regressions:
        print(f"\n{len(regressions)} tier-1 regression(s) beyond "
              f"{args.threshold:.0%}:", file=sys.stderr)
        for reg in regressions:
            print(f"  {reg.describe()}", file=sys.stderr)
        return 1
    print("no tier-1 regressions")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-attr",
        description="Cycle attribution for profile/trace output, and "
                    "the benchmark trend gate.")
    parser.add_argument(
        "paths", nargs="*",
        help="trace JSON files or --profile-dir directories to "
             "attribute")
    parser.add_argument(
        "--markdown", action="store_true",
        help="render reports as Markdown instead of text")
    parser.add_argument(
        "--json", action="store_true",
        help="dump full reports as JSON instead of rendering")
    parser.add_argument(
        "--validate", action="store_true",
        help="schema-validate every profile-*.json found alongside "
             "the traces")
    parser.add_argument(
        "--compare", action="store_true",
        help="compare the two latest trend rows instead of "
             "attributing traces; exit 1 on a tier-1 regression")
    parser.add_argument(
        "--trend-file", default="BENCH_trend.json",
        help="trend record to compare (default: %(default)s)")
    parser.add_argument(
        "--threshold", type=float, default=0.10,
        help="relative tier-1 regression that fails --compare "
             "(default: %(default)s)")
    args = parser.parse_args(argv)

    if args.compare:
        return _cmd_compare(args)
    if not args.paths:
        parser.error("give trace files / profile directories, "
                     "or --compare")
    return _cmd_attribute(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
