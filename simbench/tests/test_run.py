"""Percentile rule, seeding, and agreement between spec and BENCHMARK.json."""

import json

import pytest

from simbench import layers
from simbench.run import CHECKOUT, percentile, tail_percentile
from simbench.workloads import (
    DRIVERS,
    LaunchRecorder,
    instance_seed,
    load_spec,
    run_instance,
)


@pytest.mark.parametrize("n, expected", [
    (40, 75.0), (200, 75.0), (30, 100 * 20 / 30), (11, 100 / 11),
    (10, 0.0), (3, 0.0), (0, 0.0),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    pct = tail_percentile(n)
    assert pct == pytest.approx(expected)
    if pct:
        assert n * (1 - pct / 100) >= 10 - 1e-9


def test_percentile_interpolates():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 75) == 4.0
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 5.0
    assert percentile([1.0, 2.0], 25) == pytest.approx(1.25)


def test_instance_seeds_are_reproducible_and_distinct():
    seeds = [instance_seed(7, k) for k in range(40)]
    assert seeds == [instance_seed(7, k) for k in range(40)]
    assert len(set(seeds)) == 40
    assert seeds != [instance_seed(8, k) for k in range(40)]


def test_same_seed_reproduces_cycles_and_oracle():
    spec = {wl["name"]: wl for wl in load_spec()["workloads"]}
    wl = spec["kvstore-writeback"]
    with LaunchRecorder() as recorder:
        first = run_instance(wl, 11, recorder)
        again = run_instance(wl, 11, recorder)
    assert first.verified and again.verified
    assert first.cycles == again.cycles > 0
    assert first.instructions == again.instructions > 0


def test_spec_matches_benchmark_json():
    bench = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    spec = load_spec()
    assert ([wl["name"] for wl in bench["workloads"]]
            == [wl["name"] for wl in spec["workloads"]])
    assert all(wl["driver"] in DRIVERS for wl in spec["workloads"])
    assert ({m["name"] for m in bench["end_to_end"]}
            == set(spec["end_to_end"]))
    assert [m["name"] for m in bench["per_layer"]] == list(layers.METRICS)
    for m in bench["per_layer"]:
        assert m["unit"] == layers.unit(m["name"])
    described = {f"{layer}.{name}"
                 for layer, entry in spec["per_layer"].items()
                 for name in entry["metrics"]}
    assert described == set(layers.METRICS)
