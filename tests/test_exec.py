"""Tests for the execution layer: tasks, executors, and equivalence.

The load-bearing guarantees:

- serial, multiprocess, and chunked executors produce **identical**
  ``repro-bench-v1`` documents for the same grid (wall-clock fields
  canonicalized away by ``strip_timing`` — everything else is a pure
  function of the task descriptors);
- a chunked run killed mid-stream and resumed matches an uninterrupted
  one, and a chunked run whose segment worker dies abruptly recovers
  from the last snapshot bundle;
- resume caching keys on the full descriptor hash, so reordered or
  extended grids reuse exactly the matching cells.
"""

import json
import os
import sys
import types

import pytest

from repro.errors import EvaluationError, ExecutionError
from repro.exec import (
    ChunkedExecutor,
    MultiprocessExecutor,
    RunTask,
    SerialExecutor,
    executor_names,
    get_executor,
    make_executor,
    register_executor,
)
from repro.experiments import ExperimentRunner, strip_timing
from repro.experiments import figures
from repro.experiments.cli import main
from repro.experiments.presets import long_crossover_experiment
from repro.utils.tabletext import format_ascii_plot

#: One small grid reused across equivalence tests (two algorithms so the
#: multiprocess pool actually fans out).
GRID = dict(
    networks=["alarm"],
    algorithms=["uniform", "nonuniform"],
    eps_values=[0.2],
    site_counts=[3],
    n_events=800,
    checkpoints=4,
)


def canonical(result) -> str:
    """A document's bytes with wall-clock measurements zeroed."""
    return json.dumps(strip_timing(result.to_dict()), sort_keys=True)


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(eval_events=100, seed=7)


@pytest.fixture(scope="module")
def reference(runner):
    """The serial executor's document for GRID (the contract baseline)."""
    return canonical(runner.run_grid("equivalence", **GRID))


class TestRunTask:
    def test_roundtrip_and_json(self):
        task = RunTask(
            network="alarm", algorithm="nonuniform", n_events=1000,
            checkpoints=(500, 1000),
        )
        payload = json.loads(json.dumps(task.to_dict()))
        assert RunTask.from_dict(payload) == task

    def test_validation(self):
        with pytest.raises(ExecutionError):
            RunTask(network="alarm", algorithm="nonuniform",
                    n_events=1000, checkpoints=())
        with pytest.raises(ExecutionError):
            RunTask(network="alarm", algorithm="nonuniform",
                    n_events=1000, checkpoints=(500, 900))
        with pytest.raises(ExecutionError):
            RunTask(network=42, algorithm="nonuniform",
                    n_events=1000, checkpoints=(1000,))

    def test_cache_key_covers_every_field(self):
        task = RunTask(
            network="alarm", algorithm="nonuniform", n_events=1000,
            checkpoints=(500, 1000),
        )
        variants = [
            task.replace(eps=0.3),
            task.replace(seed=1),
            task.replace(chunk_size=5000),
            task.replace(eval_events=500),
            task.replace(checkpoints=(250, 500, 1000)),
        ]
        keys = {task.cache_key, *(v.cache_key for v in variants)}
        assert len(keys) == 1 + len(variants)

    def test_inline_network_resolves(self, alarm_net):
        from repro.bn.io import network_to_dict

        task = RunTask(
            network={"inline": network_to_dict(alarm_net)},
            algorithm="exact", n_events=100, checkpoints=(100,),
        )
        assert task.network_name == alarm_net.name
        assert task.resolve_network().n_variables == alarm_net.n_variables


class TestRegistry:
    def test_builtins_registered(self):
        assert set(executor_names()) >= {"serial", "multiprocess", "chunked"}
        assert get_executor("serial").name == "serial"

    def test_duplicate_rejected(self):
        with pytest.raises(ExecutionError):
            register_executor("serial", lambda options: SerialExecutor())

    def test_make_executor(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        built = make_executor("multiprocess", jobs=2)
        assert isinstance(built, MultiprocessExecutor) and built.jobs == 2
        with pytest.raises(ExecutionError):
            make_executor("serial", jobs=2)
        with pytest.raises(ExecutionError):
            make_executor("no-such-executor")
        instance = ChunkedExecutor(segment_events=100)
        assert make_executor(instance) is instance
        with pytest.raises(ExecutionError):
            make_executor(instance, jobs=2)

    def test_duplicate_tasks_rejected(self, runner):
        task = runner.plan_grid(**GRID)[0]
        with pytest.raises(ExecutionError, match="duplicate"):
            SerialExecutor().run([task, task])


class TestExecutorEquivalence:
    def test_multiprocess_matches_serial(self, runner, reference):
        result = runner.run_grid(
            "equivalence", executor="multiprocess", jobs=2, **GRID
        )
        assert canonical(result) == reference

    def test_chunked_matches_serial(self, runner, reference):
        result = runner.run_grid(
            "equivalence", executor=ChunkedExecutor(jobs=2), **GRID
        )
        assert canonical(result) == reference

    def test_segment_events_coarsening_matches_serial(self, runner, reference):
        result = runner.run_grid(
            "equivalence",
            executor=ChunkedExecutor(segment_events=400),
            **GRID,
        )
        assert canonical(result) == reference

    def test_resume_cache_shared_across_executors(
        self, runner, reference, tmp_path
    ):
        first = runner.run_grid(
            "equivalence", resume_dir=tmp_path, **GRID
        )
        cached = runner.run_grid(
            "equivalence", executor="multiprocess", jobs=2,
            resume_dir=tmp_path, **GRID
        )
        # The second invocation loads every cell from cache, so even the
        # wall-clock fields survive verbatim.
        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
            cached.to_dict(), sort_keys=True
        )
        assert canonical(cached) == reference


class TestChunkedRecovery:
    def test_interrupt_then_resume_matches_uninterrupted(
        self, runner, reference, tmp_path
    ):
        resume = tmp_path / "resume"
        partial = runner.run_grid(
            "equivalence", executor="chunked", resume_dir=resume,
            stop_after=400, **GRID
        )
        assert len(partial.runs) == 0
        assert len(partial.params["incomplete_runs"]) == 2
        assert list(resume.glob("*.ckpt"))
        finished = runner.run_grid(
            "equivalence", executor="chunked", resume_dir=resume, **GRID
        )
        assert "incomplete_runs" not in finished.params
        assert canonical(finished) == reference

    def test_worker_death_recovers_from_bundle(
        self, runner, reference, tmp_path
    ):
        from dist_faults import DieOnceMarker

        marker = DieOnceMarker(tmp_path)
        executor = ChunkedExecutor()
        executor._fault_marker = marker.path
        result = runner.run_grid("equivalence", executor=executor, **GRID)
        assert marker.fired  # a worker did die
        assert canonical(result) == reference

    def test_permanent_failure_raises(self, runner, tmp_path):
        from dist_faults import DieOnceMarker

        marker = DieOnceMarker(tmp_path)
        executor = ChunkedExecutor(max_retries=0)
        executor._fault_marker = marker.path
        with pytest.raises(ExecutionError, match="segment worker"):
            runner.run_grid("equivalence", executor=executor, **GRID)
        assert marker.fired


class TestStreamResume:
    """A resumed segment continues the stream from the bundle's sampler
    and partitioner state instead of re-drawing the prefix; a bundle
    without that state (as older runners wrote) still resumes by
    replay.  Either way the result equals an uninterrupted run."""

    RUN = dict(eps=0.2, n_sites=3, n_events=800, checkpoints=4)

    @staticmethod
    def _count_draws(monkeypatch) -> list:
        from repro.bn.sampling import ForwardSampler

        drawn = []
        real = ForwardSampler.sample_into

        def counting(self, out):
            drawn.append(out.shape[0])
            return real(self, out)

        monkeypatch.setattr(ForwardSampler, "sample_into", counting)
        return drawn

    def _resume(self, runner, bundle, monkeypatch, *, strip_stream: bool):
        assert runner.run_one(
            "alarm", "nonuniform", snapshot_path=bundle, stop_after=400,
            **self.RUN
        ) is None
        if strip_stream:
            meta_path = bundle / "meta.json"
            meta = json.loads(meta_path.read_text())
            del meta["extra"]["runner"]["sampler"]
            del meta["extra"]["runner"]["partitioner"]
            meta_path.write_text(json.dumps(meta))
        drawn = self._count_draws(monkeypatch)
        result = runner.run_one(
            "alarm", "nonuniform", snapshot_path=bundle, **self.RUN
        )
        return result, sum(drawn)

    def test_resumed_segment_draws_only_the_rest(
        self, runner, tmp_path, monkeypatch
    ):
        uninterrupted = runner.run_one("alarm", "nonuniform", **self.RUN)
        result, rows = self._resume(
            runner, tmp_path / "bundle", monkeypatch, strip_stream=False
        )
        # The remaining 400 events plus the evaluation set.
        assert rows == 400 + runner.eval_events
        assert canonical(result) == canonical(uninterrupted)

    def test_bundle_without_stream_state_replays(
        self, runner, tmp_path, monkeypatch
    ):
        uninterrupted = runner.run_one("alarm", "nonuniform", **self.RUN)
        result, rows = self._resume(
            runner, tmp_path / "bundle", monkeypatch, strip_stream=True
        )
        assert rows == 800 + runner.eval_events
        assert canonical(result) == canonical(uninterrupted)


class TestSnapshotAtomicity:
    """The bundle invariants the chunked recovery path stands on."""

    def _session(self):
        from repro.api import EstimatorSpec

        return EstimatorSpec(
            "alarm", "nonuniform", eps=0.3, n_sites=3, seed=0
        ).session()

    def test_resnapshot_leaves_one_consistent_arrays_file(self, tmp_path):
        from repro.api import MonitoringSession
        from repro.bn.sampling import ForwardSampler

        session = self._session()
        sampler = ForwardSampler(session.network, seed=1)
        bundle = tmp_path / "snap"
        session.ingest(sampler.sample(200))
        session.snapshot(bundle)
        session.ingest(sampler.sample(200))
        session.snapshot(bundle)
        meta = MonitoringSession.peek(bundle)
        npz = [p.name for p in bundle.glob("*.npz")]
        assert npz == [meta["arrays"]]
        assert not list(bundle.glob(".tmp-*"))
        restored = MonitoringSession.restore(bundle)
        assert restored.events_seen == 400

    def test_corrupt_meta_raises_session_error(self, tmp_path):
        from repro.api import MonitoringSession
        from repro.errors import SessionError

        bundle = tmp_path / "snap"
        bundle.mkdir()
        (bundle / "meta.json").write_text('{"schema": "repro-sess')
        with pytest.raises(SessionError, match="corrupt"):
            MonitoringSession.peek(bundle)
        # The chunked driver treats such a bundle as position 0 instead
        # of crashing the whole grid at plan time.
        assert ChunkedExecutor._snapshot_position(bundle) == 0

    def test_meta_referencing_missing_arrays_rejected(self, tmp_path):
        from repro.api import MonitoringSession
        from repro.bn.sampling import ForwardSampler
        from repro.errors import SessionError

        session = self._session()
        bundle = tmp_path / "snap"
        session.ingest(ForwardSampler(session.network, seed=1).sample(100))
        session.snapshot(bundle)
        for path in bundle.glob("*.npz"):
            path.unlink()
        with pytest.raises(SessionError, match="missing arrays"):
            MonitoringSession.restore(bundle)


class TestDescriptorHashCaching:
    def test_reordered_and_extended_grid_reuses_cells(self, runner, tmp_path):
        first = runner.run_grid(
            "grid", resume_dir=tmp_path,
            networks=["alarm"], algorithms=["uniform", "nonuniform"],
            eps_values=[0.2], site_counts=[3], n_events=600, checkpoints=2,
        )
        caches = sorted(tmp_path.glob("*.result.json"))
        assert len(caches) == 2
        stamps = {p.name: p.stat().st_mtime_ns for p in caches}
        # Reversed algorithm order plus one new cell: the two finished
        # cells load from cache (bytes untouched), only "exact" runs.
        second = runner.run_grid(
            "grid", resume_dir=tmp_path,
            networks=["alarm"], algorithms=["nonuniform", "uniform", "exact"],
            eps_values=[0.2], site_counts=[3], n_events=600, checkpoints=2,
        )
        assert len(second.runs) == 3
        for path in caches:
            assert path.stat().st_mtime_ns == stamps[path.name]
        by_algorithm = {r.algorithm: r for r in second.runs}
        for run in first.runs:
            assert (
                by_algorithm[run.algorithm].to_dict() == run.to_dict()
            )

    def test_changed_parameter_does_not_reuse_cache(self, runner, tmp_path):
        grid = dict(
            networks=["alarm"], algorithms=["nonuniform"], eps_values=[0.2],
            site_counts=[3], n_events=600, checkpoints=2,
        )
        runner.run_grid("grid", resume_dir=tmp_path, **grid)
        assert len(list(tmp_path.glob("*.result.json"))) == 1
        changed = dict(grid, eps_values=[0.3])
        runner.run_grid("grid", resume_dir=tmp_path, **changed)
        assert len(list(tmp_path.glob("*.result.json"))) == 2


class TestLongCrossoverPreset:
    def test_tiny_sweep_document(self, tmp_path):
        document = long_crossover_experiment(
            events_values=(400, 800), eps=0.4, n_sites=3,
            checkpoints=2, eval_events=50, seed=0,
            executor="serial",
        )
        assert document["benchmark"] == "long-crossover"
        assert document["schema"] == "repro-bench-v1"
        assert [r["n_events"] for r in document["results"]] == [400, 800]
        for row in document["results"]:
            assert row["uniform_messages"] > 0
            assert row["uniform_over_nonuniform"] > 0
        assert len(document["runs"]) == 4
        assert {r["algorithm"] for r in document["runs"]} == {
            "uniform", "nonuniform"
        }

    def test_chunked_matches_serial_executor(self):
        kwargs = dict(
            events_values=(400,), eps=0.4, n_sites=3, checkpoints=2,
            eval_events=50, seed=1,
        )
        serial = long_crossover_experiment(executor="serial", **kwargs)
        chunked = long_crossover_experiment(executor="chunked", **kwargs)
        assert json.dumps(strip_timing(serial), sort_keys=True) == json.dumps(
            strip_timing(chunked), sort_keys=True
        )


class TestFigures:
    def test_ascii_plot_renders_series_and_legend(self):
        text = format_ascii_plot(
            {"a": [(1, 10), (10, 100)], "b": [(1, 20), (10, 50)]},
            width=20, height=6, title="t", x_label="m", y_label="msgs",
            logx=True, logy=True,
        )
        assert text.splitlines()[0] == "t"
        assert "  o a" in text and "  x b" in text
        assert "log" in text

    def test_ascii_plot_rejects_empty(self):
        with pytest.raises(ValueError):
            format_ascii_plot({"a": []})

    def test_figures_cli_views(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main([
            "messages", "--network", "alarm", "--algorithms",
            "uniform,nonuniform", "--events", "600", "--sites", "3",
            "--eval-events", "100", "--checkpoints", "2",
            "--out", str(out),
        ]) == 0
        assert main(["figures", str(out)]) == 0
        rendered = capsys.readouterr().out
        assert "messages along the stream" in rendered
        assert "uniform" in rendered
        # The grid document has no ratio rows: one error line, no traceback.
        assert main(["figures", str(out), "--view", "ratio"]) == 2
        assert "error: document supports views ['messages']" in (
            capsys.readouterr().err
        )

    def test_figures_ratio_view(self, tmp_path, capsys):
        document = long_crossover_experiment(
            events_values=(400, 800), eps=0.4, n_sites=3,
            checkpoints=2, eval_events=50, executor="serial",
        )
        path = tmp_path / "lc.json"
        path.write_text(json.dumps(document))
        assert main(["figures", str(path), "--view", "ratio"]) == 0
        rendered = capsys.readouterr().out
        assert "message ratio" in rendered

    @staticmethod
    def _ratio_document() -> dict:
        return {
            "benchmark": "separation",
            "crossover_events": 800,
            "results": [
                {"n_events": 400, "uniform_messages": 90,
                 "nonuniform_messages": 120},
                {"n_events": 800, "uniform_messages": 200,
                 "nonuniform_messages": 180},
            ],
        }

    @staticmethod
    def _fake_matplotlib(monkeypatch):
        """Install a minimal matplotlib stand-in that records savefig."""
        class FakeAxes:
            def __getattr__(self, name):
                return lambda *args, **kwargs: None

        class FakeFigure:
            def tight_layout(self):
                pass

            def savefig(self, path, dpi=None):
                with open(path, "wb") as handle:
                    handle.write(b"\x89PNG-fake")

        pyplot = types.ModuleType("matplotlib.pyplot")
        pyplot.subplots = lambda rows, cols, figsize, squeeze: (
            FakeFigure(), [[FakeAxes()] for _ in range(rows)]
        )
        pyplot.close = lambda fig: None
        matplotlib = types.ModuleType("matplotlib")
        matplotlib.use = lambda backend: None
        matplotlib.pyplot = pyplot
        monkeypatch.setitem(sys.modules, "matplotlib", matplotlib)
        monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)

    def test_render_png_without_matplotlib(self, tmp_path, monkeypatch):
        # A None entry makes ``import matplotlib`` raise ImportError even
        # on hosts that do have it installed.
        monkeypatch.setitem(sys.modules, "matplotlib", None)
        assert not figures.matplotlib_available()
        with pytest.raises(EvaluationError, match="matplotlib"):
            figures.render_png(
                self._ratio_document(), tmp_path / "out.png", view="ratio"
            )
        assert not (tmp_path / "out.png").exists()

    def test_render_png_with_matplotlib(self, tmp_path, monkeypatch):
        self._fake_matplotlib(monkeypatch)
        assert figures.matplotlib_available()
        out = tmp_path / "out.png"
        assert figures.render_png(
            self._ratio_document(), out, view="ratio"
        ) == str(out)
        assert out.read_bytes().startswith(b"\x89PNG")
        # View validation still happens before any matplotlib work.
        with pytest.raises(EvaluationError):
            figures.render_png(self._ratio_document(), out, view="messages")

    def test_figures_cli_png_falls_back_to_ascii(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setitem(sys.modules, "matplotlib", None)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(self._ratio_document()))
        png = tmp_path / "doc.png"
        assert main(["figures", str(path), "--png", str(png)]) == 0
        captured = capsys.readouterr()
        assert "falling back" in captured.err
        assert "message ratio" in captured.out
        assert not png.exists()

    def test_figures_cli_png_writes_file(self, tmp_path, monkeypatch, capsys):
        self._fake_matplotlib(monkeypatch)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(self._ratio_document()))
        png = tmp_path / "doc.png"
        assert main(["figures", str(path), "--png", str(png)]) == 0
        assert png.exists()
        assert str(png) in capsys.readouterr().err


class TestCLIExecutors:
    def test_multiprocess_flag_matches_serial(self, tmp_path):
        base = [
            "messages", "--network", "alarm", "--algorithms",
            "uniform,nonuniform", "--events", "600", "--sites", "3",
            "--eval-events", "100", "--checkpoints", "2",
        ]
        serial_out = tmp_path / "serial.json"
        mp_out = tmp_path / "mp.json"
        assert main(base + ["--out", str(serial_out)]) == 0
        assert main(
            base + ["--executor", "multiprocess", "--jobs", "2",
                    "--out", str(mp_out)]
        ) == 0
        a = strip_timing(json.loads(serial_out.read_text()))
        b = strip_timing(json.loads(mp_out.read_text()))
        assert a == b
