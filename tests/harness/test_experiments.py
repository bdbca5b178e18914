"""Tests for the experiment harness (fast experiments only; the heavy
sweeps run in benchmarks/)."""

import pytest

from repro.harness import (
    REGISTRY,
    ExperimentPointError,
    format_result,
    run_named,
)
from repro.harness.experiments import TABLE1_PAPER, ExperimentResult
from repro.harness.reporting import format_markdown

#: ``repro-experiments --list`` output, in order: ``--all`` runs this
#: sequence, which differs from the registry's insertion order.
LISTING = (
    "table1", "table2", "table3", "figure6a", "figure6b", "figure6c",
    "figure7", "figure9", "unaligned", "ablation_prefetch",
    "ablation_batching", "ablation_registers", "ablation_eviction",
    "ablation_readahead", "ablation_future_hw",
    "ablation_io_preemption",
    "syscall_kvstore", "syscall_grepscan", "syscall_graphwalk",
)


def _run(name, **kwargs):
    """Run a registered experiment; a crashed grid point fails the test."""
    report = run_named(name, progress=False, **kwargs)
    if report.result.errors:
        raise ExperimentPointError(name, report.result.errors)
    return report.result


class TestRegistry:
    def test_all_tables_and_figures_present(self):
        expected = {"table1", "table2", "table3", "figure6a", "figure6b",
                    "figure6c", "figure7", "figure9", "unaligned",
                    "ablation_prefetch", "ablation_batching",
                    "ablation_registers", "ablation_eviction",
                    "ablation_readahead", "ablation_future_hw",
                    "ablation_io_preemption"}
        assert expected <= set(REGISTRY)

    def test_registry_entries_accept_scale(self):
        result = _run("table1", scale="quick")
        assert isinstance(result, ExperimentResult)


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return _run("table1")

    def test_has_all_paper_cells(self, result):
        assert len(result.rows) == len(TABLE1_PAPER)

    def test_every_cell_close_to_paper(self, result):
        for row in result.rows:
            assert row["measured"] == pytest.approx(row["paper"],
                                                    rel=0.10)

    def test_row_lookup(self, result):
        row = result.row_by(implementation="Compiler", op="inc")
        assert row["paper"] == 152

    def test_row_lookup_missing_raises(self, result):
        with pytest.raises(KeyError):
            result.row_by(implementation="nope")


class TestAblations:
    def test_prefetch_helps_latency(self):
        result = _run("ablation_prefetch")
        pf = result.row_by(variant="prefetching")
        ptx = result.row_by(variant="optimized_ptx")
        assert pf["read_latency_cycles"] < ptx["read_latency_cycles"]

    def test_batching_helps(self):
        result = _run("ablation_batching")
        on = result.row_by(batching=True)
        off = result.row_by(batching=False)
        assert on["cycles"] < off["cycles"]

    def test_register_pressure_halves_occupancy(self):
        result = _run("ablation_registers")
        assert result.row_by(regs_per_thread=128)["blocks_per_sm"] == 1
        assert result.row_by(regs_per_thread=128)["slowdown_vs_64"] > 1.2

    def test_future_hw_cuts_increment_cost(self):
        result = _run("ablation_future_hw")
        hw = result.row_by(variant="hw_assisted")
        sw = result.row_by(variant="prefetching")
        assert hw["inc_latency_cycles"] < sw["inc_latency_cycles"] / 2

    def test_removed_wrapper_names_are_gone(self):
        import repro.harness as harness
        for name in ("table1", "figure7", "ablation_prefetch"):
            assert not hasattr(harness, name)


class TestReporting:
    @pytest.fixture(scope="class")
    def result(self):
        return _run("table1")

    def test_text_table_contains_all_rows(self, result):
        text = format_result(result)
        assert "table1" in text
        assert "Prefetching" in text
        assert text.count("\n") >= len(result.rows) + 2

    def test_markdown_table(self, result):
        md = format_markdown(result)
        assert md.startswith("### table1")
        assert md.count("|") > len(result.rows) * 3


class TestCLI:
    def test_list(self, capsys):
        from repro.harness.cli import main
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert tuple(out.splitlines()) == LISTING

    def test_unknown_experiment_rejected(self, capsys):
        from repro.harness.cli import main
        assert main(["not-an-experiment"]) == 2

    def test_no_args_is_usage_error(self, capsys):
        from repro.harness.cli import main
        assert main([]) == 2

    def test_runs_and_writes_markdown(self, tmp_path, capsys):
        from repro.harness.cli import main
        md = tmp_path / "out.md"
        assert main(["table1", "--markdown", str(md)]) == 0
        assert "Prefetching" in md.read_text()
