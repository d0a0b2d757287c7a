"""Tests for the experiment harness: runner, results schema, and CLI."""

import json

import numpy as np
import pytest

from repro.errors import StreamError
from repro.experiments import (
    ExperimentResult,
    ExperimentRunner,
    checkpoint_schedule,
    make_partitioner,
)
from repro.experiments.cli import main


class TestCheckpointSchedule:
    def test_even_spacing_ends_at_n_events(self):
        assert checkpoint_schedule(10_000, 5) == [
            2_000, 4_000, 6_000, 8_000, 10_000
        ]

    def test_more_checkpoints_than_events(self):
        assert checkpoint_schedule(3, 10) == [1, 2, 3]


class TestPartitionerFactory:
    def test_known_names(self):
        assert make_partitioner("uniform", 4, seed=0).n_sites == 4
        assert make_partitioner("round-robin", 4).n_sites == 4
        zipf = make_partitioner("zipf", 4, seed=0, exponent=2.0)
        shares = zipf.site_shares(20_000)
        assert shares[0] > shares[-1]

    def test_unknown_name(self):
        with pytest.raises(StreamError):
            make_partitioner("hash-ring", 4)


class TestExperimentRunner:
    def test_run_one_exact(self, alarm_net):
        runner = ExperimentRunner(eval_events=300, seed=0)
        run = runner.run_one(
            alarm_net, "exact", n_sites=5, n_events=2_000, checkpoints=4
        )
        assert run.algorithm == "exact"
        assert [c.events for c in run.checkpoints] == [500, 1_000, 1_500, 2_000]
        # Message counts are cumulative and exact costs 2n per event.
        totals = [c.total_messages for c in run.checkpoints]
        assert totals == sorted(totals)
        assert run.total_messages == 2 * alarm_net.n_variables * 2_000
        assert run.runtime["runtime_seconds"] > 0
        assert run.wall_seconds > 0

    def test_accuracy_improves_with_data(self, alarm_net):
        runner = ExperimentRunner(eval_events=500, seed=1)
        run = runner.run_one(
            alarm_net, "exact", n_sites=5, n_events=8_000, checkpoints=4
        )
        first = run.checkpoints[0].mean_abs_log_error
        last = run.checkpoints[-1].mean_abs_log_error
        assert first is not None and last is not None
        assert last < first

    def test_run_grid_shape_and_roundtrip(self, alarm_net, tmp_path):
        runner = ExperimentRunner(eval_events=200, seed=2)
        result = runner.run_grid(
            "unit-grid",
            networks=[alarm_net],
            algorithms=["exact", "nonuniform"],
            eps_values=[0.2],
            site_counts=[3, 6],
            n_events=1_000,
            checkpoints=2,
        )
        assert len(result.runs) == 4
        assert {run.n_sites for run in result.runs} == {3, 6}
        path = result.save(tmp_path / "BENCH_unit.json")
        loaded = ExperimentResult.load(path)
        assert loaded.name == "unit-grid"
        assert len(loaded.runs) == 4
        for original, restored in zip(result.runs, loaded.runs):
            assert original.algorithm == restored.algorithm
            assert original.total_messages == restored.total_messages
            assert original.final.mean_abs_log_error == pytest.approx(
                restored.final.mean_abs_log_error
            )
        assert loaded.runs_for(algorithm="exact", n_sites=3)[0].n_events == 1_000

    def test_deterministic_given_seed(self, alarm_net):
        runs = [
            ExperimentRunner(eval_events=200, seed=33).run_one(
                alarm_net, "nonuniform", eps=0.3, n_sites=4, n_events=1_000,
                checkpoints=2,
            )
            for _ in range(2)
        ]
        assert runs[0].total_messages == runs[1].total_messages
        assert (
            runs[0].final.mean_abs_log_error
            == runs[1].final.mean_abs_log_error
        )


class TestCLI:
    def test_messages_subcommand_writes_json(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        rc = main([
            "messages", "--network", "alarm",
            "--algorithms", "exact,nonuniform",
            "--events", "1000", "--sites", "5", "--eval-events", "150",
            "--checkpoints", "2", "--out", str(out),
        ])
        assert rc == 0
        document = json.loads(out.read_text())
        assert document["schema"] == "repro-bench-v1"
        by_algorithm = {r["algorithm"]: r for r in document["results"]}
        assert set(by_algorithm) == {"exact", "nonuniform"}
        for payload in by_algorithm.values():
            assert payload["total_messages"] > 0
            assert payload["mean_abs_log_error"] is not None
            assert len(payload["checkpoints"]) == 2
        summary = capsys.readouterr().err
        assert "messages-vs-stream" in summary

    def test_stdout_when_no_out_flag(self, capsys):
        rc = main([
            "messages", "--network", "alarm", "--algorithms", "exact",
            "--events", "500", "--sites", "3", "--eval-events", "100",
            "--checkpoints", "1",
        ])
        assert rc == 0
        document = json.loads(capsys.readouterr().out)
        assert document["benchmark"] == "messages-vs-stream"

    def test_eps_sweep_subcommand(self, tmp_path):
        out = tmp_path / "eps.json"
        rc = main([
            "eps", "--network", "alarm", "--algorithms", "nonuniform",
            "--events", "600", "--sites", "3", "--eval-events", "100",
            "--checkpoints", "1", "--eps-values", "0.2,0.4",
            "--out", str(out),
        ])
        assert rc == 0
        document = json.loads(out.read_text())
        assert sorted(r["eps"] for r in document["results"]) == [0.2, 0.4]

    def test_help_lists_the_nine_paper_subcommands(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
        usage = capsys.readouterr().out
        listed = usage[usage.index("{") + 1:usage.index("}")].split(",")
        assert listed == [
            "messages", "eps", "sites", "accuracy", "runtime", "classify",
            "separation", "long-crossover", "figures",
        ]

    @pytest.mark.parametrize("content, message", [
        (None, "No such file"),
        ('{"benchmark": "x"}', "not a benchmark document"),
        ('{"benchmark": "x", "results": []}', "no plottable rows"),
        ("{", "error: "),
    ])
    def test_figures_errors_are_one_line(
        self, tmp_path, capsys, content, message
    ):
        path = tmp_path / "doc.json"
        if content is not None:
            path.write_text(content)
        assert main(["figures", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_spec_error_is_one_line(self, capsys):
        rc = main([
            "messages", "--network", "alarm", "--algorithms", "bogus",
            "--events", "100", "--sites", "2", "--eval-events", "10",
            "--checkpoints", "1",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
