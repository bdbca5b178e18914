"""CLI behaviour: markdown output, profile-dir wiring, failure paths."""

import json
import os

import pytest

from repro.harness import cli
from repro.harness.registry import REGISTRY, Column, Experiment
from repro.telemetry import validate_profile


def _boom_grid(scale):
    raise RuntimeError("synthetic failure")


def _install_boom(monkeypatch):
    """Make ``table1`` an experiment whose run raises from inside
    ``run_experiment`` (its grid fails before any point runs)."""
    monkeypatch.setitem(REGISTRY, "table1", Experiment(
        name="boom", title="grid raises",
        columns=(Column("value", role="param"),),
        point=lambda *, scale, value: [], grid=_boom_grid))


class TestMarkdownOutput:
    def test_creates_missing_parent_directories(self, tmp_path, capsys):
        target = tmp_path / "deep" / "nested" / "results.md"
        rc = cli.main(["table1", "--markdown", str(target)])
        assert rc == 0
        text = target.read_text()
        assert text.startswith("# Reproduction results")
        assert "wall time:" in text

    def test_failed_experiment_writes_partial_markdown(
            self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "results.md"
        _install_boom(monkeypatch)
        with pytest.raises(RuntimeError, match="synthetic failure"):
            cli.main(["table1", "--markdown", str(target)])
        text = target.read_text()
        assert "PARTIAL" in text
        assert "table1 — FAILED" in text
        assert "partial results" in capsys.readouterr().err

    def test_failure_without_markdown_still_raises(self, monkeypatch,
                                                   capsys):
        _install_boom(monkeypatch)
        with pytest.raises(RuntimeError, match="synthetic failure"):
            cli.main(["table1"])


class TestProfileDir:
    def test_profiles_written_and_schema_valid(self, tmp_path, capsys):
        rc = cli.main(["table1", "--profile-dir", str(tmp_path)])
        assert rc == 0
        out_dir = tmp_path / "table1"
        profiles = sorted(out_dir.glob("profile-*.json"))
        traces = sorted(out_dir.glob("trace-*.json"))
        assert profiles
        assert traces
        for path in profiles:
            validate_profile(json.loads(path.read_text()))
        # the textual summary reaches the terminal too
        assert "warp stalls" in capsys.readouterr().out

    def test_no_profiles_without_flag(self, tmp_path, capsys):
        rc = cli.main(["table1"])
        assert rc == 0
        assert not os.listdir(tmp_path)


class TestEvictionPolicyFlag:
    def test_policy_reaches_experiments_that_take_it(self, capsys):
        rc = cli.main(["ablation_eviction", "--eviction-policy", "lru"])
        assert rc == 0
        out = capsys.readouterr().out
        # The sweep collapsed to the requested policy only.
        assert "lru" in out
        assert "fifo" not in out and "random" not in out

    def test_experiments_without_the_knob_still_run(self, capsys):
        rc = cli.main(["table1", "--eviction-policy", "lru"])
        assert rc == 0

    def test_unknown_policy_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["ablation_eviction", "--eviction-policy", "mru"])


class TestArgErrors:
    def test_unknown_experiment_is_an_error(self, capsys):
        assert cli.main(["not-an-experiment"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_no_experiments_is_an_error(self, capsys):
        assert cli.main([]) == 2
