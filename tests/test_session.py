"""Tests for the monitoring session lifecycle and snapshot/resume.

The central contract (the PR's acceptance criterion): a session
snapshotted mid-stream and restored — as from a fresh process, since the
restore path rebuilds everything from the serialized bundle — finishes
the stream with estimates, message counts, and RNG state byte-identical
to a session that never stopped.
"""

import json
import re
import zipfile

import numpy as np
import pytest

from ingest_oracle import state_sha256
from repro import (
    EstimatorSpec,
    ForwardSampler,
    MonitoringSession,
    naive_bayes_network,
)
from repro.errors import EvaluationError, SessionError
from repro.experiments import ExperimentRunner, classification_experiment
from repro.experiments.cli import EXIT_INCOMPLETE, main
from repro.experiments.presets import separation_experiment


def _stream(net, m, seed=1):
    return ForwardSampler(net, seed=seed).sample(m)


def _snapshot_resume_identical(net, spec, tmp_path, *, m=1_200):
    """Assert interrupted+restored == uninterrupted, byte for byte."""
    data = _stream(net, m)
    half = m // 2

    uninterrupted = MonitoringSession(spec, network=net)
    uninterrupted.ingest(data[:half])
    uninterrupted.ingest(data[half:])

    interrupted = MonitoringSession(spec, network=net)
    interrupted.ingest(data[:half])
    bundle = interrupted.snapshot(tmp_path / "snap")
    assert (bundle / "meta.json").is_file()
    meta = MonitoringSession.peek(bundle)
    assert (bundle / meta["arrays"]).is_file()

    resumed = MonitoringSession.restore(bundle, network=net)
    assert resumed.events_seen == half
    resumed.ingest(data[half:])

    assert np.array_equal(uninterrupted.estimates(), resumed.estimates())
    assert uninterrupted.total_messages == resumed.total_messages
    assert np.array_equal(
        uninterrupted.message_log.site_messages,
        resumed.message_log.site_messages,
    )
    assert uninterrupted.metrics() == resumed.metrics()
    bank_a, bank_b = uninterrupted.estimator.bank, resumed.estimator.bank
    assert np.array_equal(bank_a._local, bank_b._local)
    if hasattr(bank_a, "_rng"):
        # RNG continuation: after the same total draw history the
        # bit-generator states must coincide exactly.
        assert bank_a._rng.bit_generator.state == bank_b._rng.bit_generator.state
    return uninterrupted, resumed


#: Ways a bundle's ``(meta, arrays)`` can lack or garble restorable state.
BUNDLE_DAMAGE = {
    "no_estimator": lambda meta, arrays: meta.pop("estimator"),
    "no_message_log": lambda meta, arrays: meta.pop("message_log"),
    "no_partitioner": lambda meta, arrays: meta.pop("partitioner"),
    "no_coordinator_sent":
        lambda meta, arrays: meta["message_log"].pop("coordinator_sent"),
    "no_log_per_site": lambda meta, arrays: arrays.pop("log.per_site"),
    "spec_not_object": lambda meta, arrays: meta.update(spec="small"),
    "spec_without_network": lambda meta, arrays: meta["spec"].pop("network"),
    "partitioner_without_rng":
        lambda meta, arrays: meta["partitioner"].pop("rng_state"),
    "events_seen_not_int":
        lambda meta, arrays: meta["estimator"].update(events_seen="abc"),
    "negative_events_seen":
        lambda meta, arrays: meta["estimator"].update(events_seen=-1),
    "negative_epoch": lambda meta, arrays: meta["message_log"].update(epoch=-1),
    "float_epoch": lambda meta, arrays: meta["message_log"].update(epoch=2.9),
    "string_kind_count":
        lambda meta, arrays: meta["message_log"]["per_kind"].update(report="7"),
    "bool_coordinator_sent":
        lambda meta, arrays: meta["message_log"].update(coordinator_sent=True),
    "float_site_counts": lambda meta, arrays: arrays.update(
        {"log.per_site": arrays["log.per_site"].astype(np.float64)}),
    "negative_kind_count":
        lambda meta, arrays: meta["message_log"]["per_kind"].update(report=-5),
    "negative_site_count":
        lambda meta, arrays: arrays["log.per_site"].__setitem__(0, -1),
}

#: Ways the arrays file itself can be damaged on disk, each for a stored
#: (``np.savez``) and a deflated (``np.savez_compressed``) file:
#: ``(damage the file bytes, write the arrays)``.
ARRAYS_FILE_DAMAGE = {
    f"{name}_{kind}": (cut, writer)
    for name, cut in (
        ("flipped_byte", lambda blob: (
            blob[:len(blob) // 2] + bytes([blob[len(blob) // 2] ^ 0xFF])
            + blob[len(blob) // 2 + 1:])),
        ("cut_in_half", lambda blob: blob[:len(blob) // 2]),
    )
    for kind, writer in (("stored", np.savez),
                         ("deflated", np.savez_compressed))
}


def _member_types(arrays_path) -> set:
    with zipfile.ZipFile(arrays_path) as archive:
        return {info.compress_type for info in archive.infolist()}


def _session_digests(session) -> list:
    return [
        state_sha256(session.estimator.bank.state_dict()),
        state_sha256(session.message_log.state_dict()),
        state_sha256(session.partitioner.state_dict()),
        session.events_seen,
    ]


class TestSnapshotResumeMatrix:
    @pytest.mark.parametrize(
        "algorithm", ["exact", "baseline", "uniform", "nonuniform"]
    )
    def test_all_algorithms(self, small_net, tmp_path, algorithm):
        spec = EstimatorSpec(
            small_net, algorithm, eps=0.3, n_sites=4, seed=17,
        )
        _snapshot_resume_identical(small_net, spec, tmp_path)

    def test_deterministic_backend(self, small_net, tmp_path):
        spec = EstimatorSpec(
            small_net, "uniform", eps=0.4, n_sites=3, seed=5,
            counter_backend="deterministic",
        )
        _snapshot_resume_identical(small_net, spec, tmp_path)

    def test_naive_bayes_on_its_network(self, tmp_path):
        net = naive_bayes_network(n_features=5)
        spec = EstimatorSpec(net, "naive-bayes", eps=0.2, n_sites=3, seed=2)
        _snapshot_resume_identical(net, spec, tmp_path)

    def test_inline_network_restores_without_override(self, tmp_path):
        # An inline-embedded network must rebuild the *identical* counter
        # layout from the bundle alone (no network= override): the
        # serialized parents mapping is order-significant and seeds the
        # restored DAG's topological order.
        from repro import alarm

        net = alarm()
        spec = EstimatorSpec(net, "nonuniform", eps=0.3, n_sites=3, seed=6)
        data = _stream(net, 800)

        full = MonitoringSession(spec, network=net)
        full.ingest(data[:400])
        full.ingest(data[400:])

        half = MonitoringSession(spec, network=net)
        half.ingest(data[:400])
        half.snapshot(tmp_path / "inline")

        resumed = MonitoringSession.restore(tmp_path / "inline")
        assert resumed.network.node_names == net.node_names
        resumed.ingest(data[400:])
        assert np.array_equal(full.estimates(), resumed.estimates())
        assert full.total_messages == resumed.total_messages

    def test_network_by_name_cross_bundle(self, tmp_path):
        # Name-referenced networks rebuild from the repository on restore.
        spec = EstimatorSpec("alarm", "nonuniform", eps=0.3, n_sites=3, seed=4)
        net = spec.resolve_network()
        data = _stream(net, 600)
        session = spec.session()
        session.ingest(data)
        session.snapshot(tmp_path / "named")
        resumed = MonitoringSession.restore(tmp_path / "named")
        assert resumed.network.name == "alarm"
        assert np.array_equal(session.estimates(), resumed.estimates())

    def test_zipf_partitioner_state_resumes(self, small_net, tmp_path):
        spec = EstimatorSpec(
            small_net, "uniform", eps=0.3, n_sites=4, seed=8,
            partitioner="zipf", zipf_exponent=1.3,
        )
        _snapshot_resume_identical(small_net, spec, tmp_path)

    def test_snapshot_roundtrips_extra(self, small_net, tmp_path):
        session = EstimatorSpec(small_net, "exact", n_sites=2).session()
        session.ingest(_stream(small_net, 50))
        session.snapshot(tmp_path / "x", extra={"cursor": 50, "tag": "grid"})
        restored = MonitoringSession.restore(tmp_path / "x")
        assert restored.restored_extra == {"cursor": 50, "tag": "grid"}

    def test_restore_errors(self, small_net, tmp_path):
        with pytest.raises(SessionError):
            MonitoringSession.restore(tmp_path / "missing")
        session = EstimatorSpec(small_net, "exact", n_sites=2).session()
        session.ingest(_stream(small_net, 20))
        bundle = session.snapshot(tmp_path / "bad")
        meta = json.loads((bundle / "meta.json").read_text())
        meta["schema"] = "repro-session-v99"
        (bundle / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(SessionError):
            MonitoringSession.restore(bundle)

    @pytest.mark.parametrize(
        "damage", [*BUNDLE_DAMAGE, *ARRAYS_FILE_DAMAGE]
    )
    def test_malformed_bundle_is_a_session_error(
        self, small_net, tmp_path, damage
    ):
        session = EstimatorSpec(
            small_net, "nonuniform", eps=0.3, n_sites=2, seed=1
        ).session()
        session.ingest(_stream(small_net, 40))
        bundle = session.snapshot(tmp_path / "bad")
        meta = json.loads((bundle / "meta.json").read_text())
        arrays_path = bundle / meta["arrays"]
        with np.load(arrays_path) as handle:
            arrays = {key: handle[key] for key in handle.files}
        if damage in BUNDLE_DAMAGE:
            BUNDLE_DAMAGE[damage](meta, arrays)
            (bundle / "meta.json").write_text(json.dumps(meta))
            np.savez_compressed(arrays_path, **arrays)
        else:
            cut, writer = ARRAYS_FILE_DAMAGE[damage]
            writer(arrays_path, **arrays)
            arrays_path.write_bytes(cut(arrays_path.read_bytes()))
        with pytest.raises(SessionError, match=re.escape(str(bundle))):
            MonitoringSession.restore(bundle, network=small_net)


class TestArraysFileFormat:
    """Snapshots store their arrays uncompressed; bundles written with
    deflated arrays (the format before) still restore."""

    def test_fresh_bundle_members_are_stored(self, small_net, tmp_path):
        session = EstimatorSpec(
            small_net, "nonuniform", eps=0.3, n_sites=3, seed=2
        ).session()
        session.ingest(_stream(small_net, 200))
        bundle = session.snapshot(tmp_path / "snap")
        arrays_path = bundle / MonitoringSession.peek(bundle)["arrays"]
        assert _member_types(arrays_path) == {zipfile.ZIP_STORED}

    def test_deflated_bundle_restores_and_continues_identically(
        self, small_net, tmp_path
    ):
        spec = EstimatorSpec(small_net, "nonuniform", eps=0.3, n_sites=4,
                             seed=17)
        data = _stream(small_net, 1_200)
        session = MonitoringSession(spec, network=small_net)
        session.ingest(data[:600])
        bundle = session.snapshot(tmp_path / "snap")
        stored = MonitoringSession.restore(bundle, network=small_net)

        arrays_path = bundle / MonitoringSession.peek(bundle)["arrays"]
        with np.load(arrays_path) as handle:
            arrays = {key: handle[key] for key in handle.files}
        np.savez_compressed(arrays_path, **arrays)
        assert _member_types(arrays_path) == {zipfile.ZIP_DEFLATED}
        deflated = MonitoringSession.restore(bundle, network=small_net)
        assert _session_digests(deflated) == _session_digests(stored)
        assert _session_digests(deflated) == _session_digests(session)

        for live in (session, stored, deflated):
            live.ingest(data[600:])
        assert _session_digests(deflated) == _session_digests(session)
        assert _session_digests(stored) == _session_digests(session)
        assert np.array_equal(deflated.estimates(), session.estimates())


class TestSessionLifecycle:
    def test_ingest_with_and_without_sites(self, small_net):
        session = EstimatorSpec(small_net, "exact", n_sites=4, seed=0).session()
        data = _stream(small_net, 100)
        assert session.ingest(data[:40], np.arange(40) % 4) == 40
        assert session.ingest(data[40:]) == 60  # partitioner assigns
        assert session.ingest(data[0]) == 1     # single event promoted
        assert session.events_seen == 101
        assert session.total_messages == 2 * small_net.n_variables * 101

    def test_ingest_stream_mixed_items(self, small_net):
        session = EstimatorSpec(small_net, "exact", n_sites=3, seed=1).session()
        data = _stream(small_net, 90)

        def batches():
            yield data[:30], np.arange(30) % 3      # explicit pair
            yield data[30:60]                       # partitioner assigns
            yield data[60:], np.zeros(30, dtype=np.int64)

        assert session.ingest_stream(batches()) == 90
        assert session.events_seen == 90

    def test_queries_delegate(self, small_net):
        session = EstimatorSpec(small_net, "exact", n_sites=2, seed=3).session()
        data = _stream(small_net, 2_000)
        session.ingest(data)
        row = data[0]
        assert session.query(row) == pytest.approx(
            np.exp(session.log_query(row))
        )
        batch = session.log_query_batch(data[:10])
        assert batch.shape == (10,)
        assert batch[0] == pytest.approx(session.log_query(row))
        learned = session.estimated_network()
        assert learned.n_variables == small_net.n_variables

    def test_metrics_shape(self, small_net):
        session = EstimatorSpec(
            small_net, "nonuniform", eps=0.3, n_sites=5, seed=6
        ).session()
        session.ingest(_stream(small_net, 500))
        metrics = session.metrics()
        assert metrics["events_seen"] == 500
        assert metrics["n_sites"] == 5
        assert metrics["algorithm"] == "nonuniform"
        assert metrics["counter_backend"] == "hyz"
        assert len(metrics["site_messages"]) == 5
        assert metrics["total_messages"] == metrics["messages_by_kind"]["total"]
        assert (
            metrics["max_site_messages"] == max(metrics["site_messages"])
        )
        json.dumps(metrics)  # JSON-ready

    def test_classifier_anytime(self):
        net = naive_bayes_network(n_features=4)
        session = EstimatorSpec(net, "exact", n_sites=2, seed=0).session()
        data = ForwardSampler(net, seed=2).sample(3_000)
        session.ingest(data)
        classifier = session.classifier()
        predictions = classifier.predict_batch(["C"] * 50, data[:50])
        class_idx = net.variable_index("C")
        # Better than chance on its own training distribution.
        assert np.mean(predictions == data[:50, class_idx]) > 1.0 / 3.0

    def test_same_seed_sessions_identical(self, small_net):
        spec = EstimatorSpec(small_net, "nonuniform", eps=0.3, n_sites=4, seed=9)
        data = _stream(small_net, 400)
        a, b = spec.session(), spec.session()
        a.ingest(data)
        b.ingest(data)
        assert np.array_equal(a.estimates(), b.estimates())
        assert a.total_messages == b.total_messages


class TestRunnerResume:
    def test_stop_resume_matches_uninterrupted(self, tmp_path):
        runner = ExperimentRunner(eval_events=100, seed=3)
        kwargs = dict(
            eps=0.3, n_sites=4, n_events=800, checkpoints=4,
        )
        full = runner.run_one("alarm", "nonuniform", **kwargs)
        snapshot_path = tmp_path / "ck"
        partial = runner.run_one(
            "alarm", "nonuniform", snapshot_path=snapshot_path,
            stop_after=400, **kwargs,
        )
        assert partial is None
        assert (snapshot_path / "meta.json").is_file()
        resumed = runner.run_one(
            "alarm", "nonuniform", snapshot_path=snapshot_path, **kwargs
        )
        assert not (snapshot_path / "meta.json").exists()  # cleaned up
        assert resumed.total_messages == full.total_messages
        assert [c.to_dict() for c in resumed.checkpoints] == [
            c.to_dict() for c in full.checkpoints
        ]
        assert resumed.to_dict()["mean_abs_log_error"] == (
            full.to_dict()["mean_abs_log_error"]
        )

    def test_resume_rejects_changed_parameters(self, tmp_path):
        runner = ExperimentRunner(eval_events=100, seed=3)
        snapshot_path = tmp_path / "ck"
        runner.run_one(
            "alarm", "exact", n_sites=3, n_events=600, checkpoints=3,
            snapshot_path=snapshot_path, stop_after=200,
        )
        with pytest.raises(EvaluationError):
            runner.run_one(
                "alarm", "exact", n_sites=3, n_events=900, checkpoints=3,
                snapshot_path=snapshot_path,
            )

    def test_object_network_stop_resume(self, alarm_net, tmp_path):
        # Inline-embedded networks must resume too: the spec guard
        # compares structure, not CPD floats (which drift one ULP across
        # the serialize/renormalize round-trip).
        runner = ExperimentRunner(eval_events=100, seed=3)
        kwargs = dict(eps=0.2, n_sites=3, n_events=400, checkpoints=2)
        full = runner.run_one(alarm_net, "nonuniform", **kwargs)
        snapshot_path = tmp_path / "obj"
        assert runner.run_one(
            alarm_net, "nonuniform", snapshot_path=snapshot_path,
            stop_after=200, **kwargs,
        ) is None
        resumed = runner.run_one(
            alarm_net, "nonuniform", snapshot_path=snapshot_path, **kwargs
        )
        assert resumed.total_messages == full.total_messages

    def test_resume_rejects_changed_spec(self, tmp_path):
        runner = ExperimentRunner(eval_events=100, seed=3)
        snapshot_path = tmp_path / "ck"
        runner.run_one(
            "alarm", "nonuniform", eps=0.3, n_sites=3, n_events=600,
            checkpoints=3, snapshot_path=snapshot_path, stop_after=200,
        )
        with pytest.raises(EvaluationError, match="different"):
            runner.run_one(
                "alarm", "uniform", eps=0.3, n_sites=3, n_events=600,
                checkpoints=3, snapshot_path=snapshot_path,
            )

    def test_stop_after_requires_snapshot_path(self):
        runner = ExperimentRunner(eval_events=100, seed=3)
        with pytest.raises(EvaluationError):
            runner.run_one(
                "alarm", "exact", n_sites=3, n_events=600, stop_after=200
            )
        with pytest.raises(EvaluationError):
            runner.run_grid("x", n_events=600, stop_after=200)

    def test_zipf_partitioner_rejects_changed_exponent(self):
        from repro.errors import StreamError
        from repro.monitoring.stream import ZipfPartitioner

        state = ZipfPartitioner(4, exponent=2.0, seed=1).state_dict()
        with pytest.raises(StreamError):
            ZipfPartitioner(4, exponent=1.0, seed=1).load_state_dict(state)

    def test_grid_snapshots_reference_networks_by_name(self, tmp_path):
        import json as _json

        runner = ExperimentRunner(eval_events=100, seed=5)
        resume_dir = tmp_path / "grid"
        runner.run_grid(
            "named", networks=["alarm"], algorithms=["nonuniform"],
            eps_values=[0.3], site_counts=[3], n_events=600, checkpoints=3,
            resume_dir=resume_dir, stop_after=200,
        )
        bundles = list(resume_dir.glob("*.ckpt"))
        assert len(bundles) == 1
        meta = _json.loads((bundles[0] / "meta.json").read_text())
        # Name-referenced spec: the snapshot stays small, no inline CPDs.
        assert meta["spec"]["network"] == "alarm"

    def test_grid_resume_dir_caches_and_completes(self, tmp_path):
        runner = ExperimentRunner(eval_events=100, seed=5)
        grid = dict(
            networks=["alarm"], algorithms=["exact", "nonuniform"],
            eps_values=[0.3], site_counts=[3], n_events=600, checkpoints=3,
        )
        reference = runner.run_grid("ref", **grid)
        resume_dir = tmp_path / "grid"
        first = runner.run_grid(
            "resumable", resume_dir=resume_dir, stop_after=200, **grid
        )
        assert len(first.runs) == 0
        assert len(first.params["incomplete_runs"]) == 2
        second = runner.run_grid("resumable", resume_dir=resume_dir, **grid)
        assert "incomplete_runs" not in second.params
        assert [r.total_messages for r in second.runs] == [
            r.total_messages for r in reference.runs
        ]
        # Results are cached: a third call loads them without re-running.
        third = runner.run_grid("resumable", resume_dir=resume_dir, **grid)
        assert [r.to_dict() for r in third.runs] == [
            r.to_dict() for r in second.runs
        ]


class TestCLI:
    def test_messages_resume_roundtrip(self, tmp_path, capsys):
        base = [
            "messages", "--network", "alarm", "--algorithms", "nonuniform",
            "--events", "600", "--sites", "3", "--eval-events", "100",
            "--checkpoints", "3",
        ]
        out_full = tmp_path / "full.json"
        assert main(base + ["--out", str(out_full)]) == 0
        resume_dir = tmp_path / "resume"
        out_part = tmp_path / "part.json"
        code = main(
            base
            + ["--resume-dir", str(resume_dir), "--stop-after", "200",
               "--out", str(out_part)]
        )
        assert code == EXIT_INCOMPLETE
        out_done = tmp_path / "done.json"
        code = main(
            base + ["--resume-dir", str(resume_dir), "--out", str(out_done)]
        )
        assert code == 0
        full = json.loads(out_full.read_text())
        done = json.loads(out_done.read_text())
        assert [r["total_messages"] for r in done["results"]] == [
            r["total_messages"] for r in full["results"]
        ]

    def test_stop_after_requires_resume_dir(self, capsys):
        assert main(["messages", "--stop-after", "100"]) == 2

    def test_classify_subcommand(self, tmp_path):
        out = tmp_path / "cls.json"
        code = main([
            "classify", "--features", "4", "--events", "1500",
            "--eval-events", "300", "--sites", "3", "--out", str(out),
        ])
        assert code == 0
        document = json.loads(out.read_text())
        assert document["benchmark"] == "classification"
        assert document["schema"] == "repro-bench-v1"
        rows = {r["algorithm"]: r for r in document["results"]}
        assert set(rows) == {"exact", "naive-bayes", "nonuniform"}
        for name in ("naive-bayes", "nonuniform"):
            assert 0.0 <= rows[name]["agreement_vs_exact"] <= 1.0
            assert "error_rate_gap" in rows[name]
            assert rows[name]["total_messages"] > 0

    def test_separation_subcommand(self, tmp_path):
        out = tmp_path / "sep.json"
        code = main([
            "separation", "--events-values", "400,800",
            "--example-events", "500", "--eval-events", "50",
            "--sites", "3", "--out", str(out),
        ])
        assert code == 0
        document = json.loads(out.read_text())
        assert document["benchmark"] == "separation"
        assert document["schema"] == "repro-bench-v1"
        assert document["theory"]["ratio"] > 1.0
        assert document["example"]["theory"]["ratio"] > 1.0
        assert len(document["results"]) == 2
        for row in document["results"]:
            assert row["uniform_messages"] > 0
            assert row["nonuniform_messages"] > 0


class TestPresetFunctions:
    def test_classification_document_paired_training(self):
        document = classification_experiment(
            n_features=4, n_events=4_000, eval_events=200, n_sites=3, seed=1,
            eps=0.5, algorithms=("naive-bayes",),
        )
        rows = {r["algorithm"]: r for r in document["results"]}
        # Exact counting costs exactly 2n per event; with a generous eps
        # on a long-enough stream the approximation must beat it.
        n = document["params"]["n_features"] + 1
        assert rows["exact"]["total_messages"] == 2 * n * 4_000
        assert rows["naive-bayes"]["total_messages"] < (
            rows["exact"]["total_messages"]
        )
        assert 0 <= document["params"]["ground_truth_error_rate"] <= 1

    def test_separation_document_shape(self):
        document = separation_experiment(
            events_values=(300,), example_events=300, eval_events=50,
            n_sites=3, seed=2,
        )
        assert document["crossover_events"] in (None, 300)
        assert document["example"]["n_events"] == 300
        assert document["params"]["events_values"] == [300]
