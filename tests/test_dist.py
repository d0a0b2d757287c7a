"""Tests for the multiprocess site/coordinator runtime (``repro.dist``).

The load-bearing guarantee is the conformance contract: for any
``EstimatorSpec`` and seeded stream, :class:`~repro.dist.DistributedSession`
produces the **same per-site message counts and the same final
estimates** as the in-process :class:`~repro.api.MonitoringSession`
reference — across the full algorithm × counter-backend matrix, under
pipelining, and across worker kills (SIGKILL included) with
state_dict-based respawn.  The suite also covers the transport layer's
backpressure and fault-injection machinery, the ``MessageLog`` edge
cases, the executor/CLI integration, and the auto-mode sampler.
"""

import os
import queue
import signal
import time

import numpy as np
import pytest

from dist_faults import DieOnceMarker, delay_recv, delay_send, kill_after, merge
from repro.api.session import MonitoringSession
from repro.api.spec import EstimatorSpec
from repro.bn.sampling import ForwardSampler
from repro.dist import (
    FAULT_EXIT_CODE,
    DistributedSession,
    QueueTransport,
    SiteShard,
    TransportClosed,
    create_once,
)
from repro.errors import ExecutionError, SessionError
from repro.exec.sampler import ShardedSampler
from repro.experiments.results import strip_timing
from repro.monitoring.channel import MessageKind, MessageLog


def spec_for(algorithm="nonuniform", backend="hyz", *, eps=0.2, k=5, seed=42):
    return EstimatorSpec(
        "alarm", algorithm, eps=eps, n_sites=k, seed=seed,
        counter_backend=backend,
    )


def batches_for(net, *, rounds=3, size=60, seed=2024):
    sampler = ForwardSampler(net, seed=seed)
    return [sampler.sample(size) for _ in range(rounds)]


def assert_conformant(ref: MonitoringSession, dist: DistributedSession):
    """The contract: identical tallies, per-site counts, and estimates."""
    assert dist.metrics() == ref.metrics()
    assert np.array_equal(
        dist.message_log.site_messages, ref.message_log.site_messages
    )
    assert np.array_equal(dist.estimates(), ref.estimates())
    assert dist.events_seen == ref.events_seen


def run_pair(spec, batches, **dist_kwargs):
    """Feed identical batches to a reference and a distributed session."""
    ref = MonitoringSession(spec)
    dist = DistributedSession(spec, **dist_kwargs)
    try:
        for batch in batches:
            ref.ingest(batch, validate=False)
            dist.ingest(batch, validate=False)
        assert_conformant(ref, dist)
    finally:
        dist.close()
    return ref, dist


# ----------------------------------------------------------------------
# Transport layer
# ----------------------------------------------------------------------
class TestCreateOnce:
    def test_first_creator_wins(self, tmp_path):
        marker = tmp_path / "marker"
        assert create_once(marker) is True
        assert create_once(marker) is False

    def test_die_once_marker_helper(self, tmp_path):
        marker = DieOnceMarker(tmp_path)
        assert not marker.fired
        assert marker.arm() is True
        assert marker.fired
        assert marker.arm() is False
        marker.reset()
        assert not marker.fired
        spec = kill_after(3, marker)
        assert spec == {"kill_after_sends": 3, "once_marker": marker.path}
        assert merge(spec, delay_send(0.1), delay_recv(0.2)) == {
            "kill_after_sends": 3, "once_marker": marker.path,
            "delay_send": 0.1, "delay_recv": 0.2,
        }


class TestQueueTransport:
    def test_roundtrip_counts_frames(self):
        transport = QueueTransport(queue.Queue())
        transport.send("a")
        transport.send("b")
        assert transport.recv() == "a"
        assert transport.try_recv() == "b"
        assert transport.sent == 2
        assert transport.received == 2
        assert transport.blocked_sends == 0

    def test_empty_queue_returns_none(self):
        transport = QueueTransport(queue.Queue())
        assert transport.try_recv() is None
        assert transport.recv(timeout=0.01) is None

    def test_full_queue_blocks_then_times_out(self):
        transport = QueueTransport(queue.Queue(maxsize=1))
        transport.send("fill")
        with pytest.raises(TransportClosed, match="backpressure"):
            transport.send("blocked", timeout=0.15)
        assert transport.blocked_sends == 1
        assert transport.blocked_seconds > 0.0

    def test_send_to_dead_peer_raises(self):
        transport = QueueTransport(queue.Queue(maxsize=1), name="inbox")
        transport.send("fill")
        with pytest.raises(TransportClosed, match="died"):
            transport.send("lost", alive=lambda: False)

    def test_recv_drains_before_reporting_death(self):
        transport = QueueTransport(queue.Queue())
        transport.queue.put("last-words")
        assert transport.recv(alive=lambda: False) == "last-words"
        with pytest.raises(TransportClosed, match="died"):
            transport.recv(alive=lambda: False)

    def test_delay_faults_slow_the_endpoint(self):
        slow = QueueTransport(queue.Queue(), fault=merge(
            delay_send(0.05), delay_recv(0.05)
        ))
        t0 = time.monotonic()
        slow.send("x")
        assert time.monotonic() - t0 >= 0.05
        t0 = time.monotonic()
        assert slow.recv() == "x"
        assert time.monotonic() - t0 >= 0.05

    def test_stats_are_json_ready(self):
        transport = QueueTransport(queue.Queue())
        transport.send("x")
        transport.recv()
        assert transport.stats() == {
            "sent": 1, "received": 1,
            "blocked_sends": 0, "blocked_seconds": 0.0,
        }

    def test_fault_exit_code_is_distinct(self):
        # 43 must differ from the chunked executor's 23 and from Python
        # traceback exits, so post-mortems can tell the faults apart.
        assert FAULT_EXIT_CODE == 43


# ----------------------------------------------------------------------
# Site shard (the worker's half, in-process)
# ----------------------------------------------------------------------
class TestSiteShard:
    def _shard(self, spec, sites):
        return SiteShard(spec, sites)

    def test_encode_emits_bulk_add_site_slices(self):
        spec = spec_for("exact", "exact", k=4)
        shard = self._shard(spec, range(4))
        net = spec.resolve_network()
        data = ForwardSampler(net, seed=1).sample(50)
        site_ids = np.arange(50) % 4
        aggregates = shard.encode(1, data, site_ids)
        sites = [a.site for a in aggregates]
        assert sites == sorted(sites)
        for agg in aggregates:
            assert np.all(np.diff(agg.counter_ids) > 0)  # unique ascending
            assert np.all(agg.counts > 0)
            assert agg.n_events == int((site_ids == agg.site).sum())
        assert shard.events_seen == 50
        assert shard.next_seq == 2

    def test_silent_sites_are_omitted(self):
        spec = spec_for("exact", "exact", k=6)
        shard = self._shard(spec, range(6))
        net = spec.resolve_network()
        data = ForwardSampler(net, seed=1).sample(20)
        site_ids = np.full(20, 3, dtype=np.int64)  # one busy site
        aggregates = shard.encode(1, data, site_ids)
        assert [a.site for a in aggregates] == [3]

    def test_aggregates_replay_into_a_real_bank(self):
        # Applying the shipped aggregates reproduces a direct update.
        spec = spec_for("exact", "exact", k=4)
        net = spec.resolve_network()
        data = ForwardSampler(net, seed=7).sample(80)
        site_ids = np.arange(80) % 4
        reference = spec.build(network=net)
        reference.update_batch(data, site_ids)
        shard = self._shard(spec, range(4))
        replayed = spec.build(network=net)
        for agg in shard.encode(1, data, site_ids):
            replayed.bank.bulk_add_site(agg.site, agg.counter_ids, agg.counts)
        assert np.array_equal(
            replayed.bank.estimates(), reference.bank.estimates()
        )

    def test_state_dict_roundtrip(self):
        spec = spec_for("exact", "exact", k=4)
        shard = self._shard(spec, (1, 2))
        shard.events_seen = 17
        shard.next_seq = 5
        fresh = self._shard(spec, (1, 2))
        fresh.load_state_dict(shard.state_dict())
        assert fresh.events_seen == 17
        assert fresh.next_seq == 5

    def test_load_state_dict_rejects_mismatches(self):
        spec = spec_for("exact", "exact", k=4)
        shard = self._shard(spec, (1, 2))
        with pytest.raises(ValueError, match="cannot"):
            shard.load_state_dict({"kind": "something-else"})
        other = self._shard(spec, (0, 3))
        with pytest.raises(ValueError, match="hosts"):
            shard.load_state_dict(other.state_dict())


# ----------------------------------------------------------------------
# The conformance matrix (the contract, across all algorithms x banks)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["exact", "deterministic", "hyz"])
@pytest.mark.parametrize(
    "algorithm", ["exact", "baseline", "uniform", "nonuniform"]
)
class TestConformanceMatrix:
    def test_channel_equals_distributed(self, algorithm, backend):
        spec = spec_for(algorithm, backend)
        batches = batches_for(spec.resolve_network())
        run_pair(spec, batches, procs=2)


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
class TestFaultInjection:
    def test_killed_worker_recovers_mid_round(self, tmp_path):
        marker = DieOnceMarker(tmp_path)
        spec = spec_for("nonuniform", "hyz")
        batches = batches_for(spec.resolve_network(), rounds=5)
        _, dist = run_pair(
            spec, batches, procs=2,
            worker_faults={0: kill_after(2, marker)},
        )
        assert marker.fired
        assert dist.wire_stats()["worker_respawns"] == 1

    def test_sigkill_between_rounds_recovers(self):
        spec = spec_for("nonuniform", "hyz")
        batches = batches_for(spec.resolve_network(), rounds=6)
        ref = MonitoringSession(spec)
        with DistributedSession(spec, procs=2) as dist:
            for index, batch in enumerate(batches):
                ref.ingest(batch, validate=False)
                dist.ingest(batch, validate=False)
                if index == 2:
                    victim = dist._workers[1].process
                    os.kill(victim.pid, signal.SIGKILL)
                    victim.join(timeout=5.0)
            assert_conformant(ref, dist)
            assert dist.wire_stats()["worker_respawns"] == 1

    def test_unrecoverable_worker_raises(self, tmp_path):
        # Without a die-once marker every respawned incarnation dies
        # again; the coordinator must give up instead of looping.
        spec = spec_for("nonuniform", "hyz")
        batches = batches_for(spec.resolve_network(), rounds=2)
        dist = DistributedSession(
            spec, procs=2, max_respawns=2,
            worker_faults={0: kill_after(0)},
        )
        try:
            with pytest.raises(ExecutionError, match="died"):
                for batch in batches:
                    dist.ingest(batch, validate=False)
        finally:
            dist._closed = True  # workers are already gone

    def test_backpressure_under_slow_consumer(self, tmp_path):
        # A slow site worker (delayed inbox consumption), a 1-slot
        # inbox, and pipelined rounds: ingest must stall (bounded
        # memory), record the stall, and still satisfy the contract.
        spec = spec_for("nonuniform", "hyz")
        batches = batches_for(spec.resolve_network(), rounds=4, size=40)
        _, dist = run_pair(
            spec, batches, procs=2, inbox_slots=1, max_pending=3,
            worker_inbox_faults={0: delay_recv(0.3)},
        )
        stats = dist.wire_stats()
        assert stats["blocked_sends"] > 0
        assert stats["blocked_seconds"] > 0.0

    def test_slow_reporter_still_conforms(self):
        spec = spec_for("uniform", "deterministic")
        batches = batches_for(spec.resolve_network(), rounds=3, size=40)
        run_pair(
            spec, batches, procs=2,
            worker_faults={1: delay_send(0.1)},
        )

    def test_kill_with_sampler_stream(self, tmp_path):
        # The fused ingest_sampler path must survive a kill too.
        marker = DieOnceMarker(tmp_path)
        spec = spec_for("nonuniform", "hyz")
        ref = MonitoringSession(spec)
        ref.ingest_sampler(ref.sampler(seed=9), 300, chunk=60)
        with DistributedSession(
            spec, procs=2, worker_faults={0: kill_after(2, marker)},
        ) as dist:
            dist.ingest_sampler(dist.sampler(seed=9), 300, chunk=60)
            assert_conformant(ref, dist)
            assert dist.wire_stats()["worker_respawns"] == 1


# ----------------------------------------------------------------------
# Deterministic replay pins (message-log values frozen in this file)
# ----------------------------------------------------------------------
class TestDeterministicReplay:
    def test_pinned_message_log_nonuniform_hyz(self):
        spec = spec_for("nonuniform", "hyz")  # eps=.2, k=5, seed=42
        batches = batches_for(spec.resolve_network(), rounds=3, size=80)
        with DistributedSession(spec, procs=2) as dist:
            for batch in batches:
                dist.ingest(batch, validate=False)
            assert dist.message_log.snapshot() == {
                "report": 17760, "broadcast": 10185, "sync": 0,
                "total": 27945,
            }
            assert dist.message_log.site_messages.tolist() == [
                3700, 2738, 3922, 3848, 3552,
            ]

    def test_pinned_message_log_with_syncs(self):
        # eps=.4 pushes HYZ report probabilities below 1, so round
        # advances emit SYNC traffic — pinned through the wire.
        spec = spec_for("uniform", "hyz", eps=0.4)
        batches = batches_for(spec.resolve_network(), rounds=6, size=400)
        with DistributedSession(spec, procs=2) as dist:
            for batch in batches:
                dist.ingest(batch, validate=False)
            assert dist.message_log.snapshot() == {
                "report": 158949, "broadcast": 24005, "sync": 110,
                "total": 183064,
            }
            assert dist.message_log.site_messages.tolist() == [
                33693, 31073, 32360, 31867, 30066,
            ]

    def test_same_seed_replays_identically(self):
        spec = spec_for("nonuniform", "hyz")
        batches = batches_for(spec.resolve_network(), rounds=2)
        logs, estimates = [], []
        for _ in range(2):
            with DistributedSession(spec, procs=2) as dist:
                for batch in batches:
                    dist.ingest(batch, validate=False)
                logs.append(dist.message_log.state_dict())
                estimates.append(dist.estimates())
        assert np.array_equal(logs[0]["per_site"], logs[1]["per_site"])
        assert logs[0]["per_kind"] == logs[1]["per_kind"]
        assert np.array_equal(estimates[0], estimates[1])


# ----------------------------------------------------------------------
# MessageLog edge cases (previously untested)
# ----------------------------------------------------------------------
class TestMessageLogEdges:
    def test_empty_stream_log_is_all_zero(self):
        log = MessageLog(4)
        assert log.total == 0
        assert all(log.count(kind) == 0 for kind in MessageKind)
        assert log.site_messages.tolist() == [0, 0, 0, 0]
        assert log.snapshot() == {
            "report": 0, "broadcast": 0, "sync": 0, "total": 0,
        }

    def test_record_syncs_all_order_commutes(self):
        # Tallies are counters, so any interleaving of bulk records
        # lands on the same state — the property the coordinator's
        # batched ThresholdUpdate fan-out relies on.
        first, second = MessageLog(3), MessageLog(3)
        first.record_broadcast_all(2)
        first.record_syncs_all(1)
        first.record(MessageKind.REPORT, 1, 5)
        second.record(MessageKind.REPORT, 1, 5)
        second.record_syncs_all(1)
        second.record_broadcast_all(2)
        assert first.snapshot() == second.snapshot()
        assert np.array_equal(first.site_messages, second.site_messages)
        # Broadcasts are coordinator-sent (never in per-site tallies);
        # SYNC touches every site, REPORT only its own.
        assert first.count(MessageKind.BROADCAST) == 6
        assert first.count(MessageKind.SYNC) == 3
        assert first.coordinator_messages_sent == 6
        assert first.site_messages.tolist() == [1, 6, 1]

    def test_state_dict_roundtrip(self):
        log = MessageLog(3)
        log.record_broadcast_all()
        log.record_syncs_all()
        log.record(MessageKind.REPORT, 2, 4)
        restored = MessageLog(3)
        restored.load_state_dict(log.state_dict())
        assert restored.snapshot() == log.snapshot()
        assert np.array_equal(restored.site_messages, log.site_messages)

    def test_load_state_dict_rejects_wrong_shape(self):
        log = MessageLog(3)
        state = log.state_dict()
        wrong = dict(state)
        wrong["per_site"] = np.zeros(5, dtype=np.int64)
        with pytest.raises(Exception):
            MessageLog(3).load_state_dict(wrong)

    def test_empty_stream_through_distributed_session(self):
        spec = spec_for("nonuniform", "hyz", k=3)
        net = spec.resolve_network()
        with DistributedSession(spec, procs=2) as dist:
            empty = np.empty((0, net.n_variables), dtype=np.int64)
            assert dist.ingest(empty) == 0
            assert dist.total_messages == 0
            assert dist.events_seen == 0
            assert dist.message_log.site_messages.tolist() == [0, 0, 0]


# ----------------------------------------------------------------------
# The session API surface
# ----------------------------------------------------------------------
class TestDistributedSessionAPI:
    def _pair(self, rounds=2):
        spec = spec_for("nonuniform", "hyz")
        batches = batches_for(spec.resolve_network(), rounds=rounds)
        ref = MonitoringSession(spec)
        dist = DistributedSession(spec, procs=2)
        for batch in batches:
            ref.ingest(batch, validate=False)
            dist.ingest(batch, validate=False)
        return ref, dist

    def test_queries_match_reference(self):
        ref, dist = self._pair()
        try:
            event = ForwardSampler(ref.network, seed=5).sample(4)
            assert dist.query(event[0]) == ref.query(event[0])
            assert dist.log_query(event[1]) == ref.log_query(event[1])
            assert np.array_equal(
                dist.log_query_batch(event), ref.log_query_batch(event)
            )
            named = {
                v.name: int(s)
                for v, s in zip(ref.network.variables(), event[2])
            }
            assert dist.query_event(named) == ref.query_event(named)
            assert np.array_equal(
                dist.estimated_network().log_probability_batch(event),
                ref.estimated_network().log_probability_batch(event),
            )
            assert dist.classifier() is not None
        finally:
            dist.close()

    def test_snapshot_restores_into_distributed(self, tmp_path):
        spec = spec_for("nonuniform", "hyz")
        batches = batches_for(spec.resolve_network(), rounds=4)
        ref = MonitoringSession(spec)
        with DistributedSession(spec, procs=2) as dist:
            for batch in batches[:2]:
                ref.ingest(batch, validate=False)
                dist.ingest(batch, validate=False)
            dist.snapshot(tmp_path / "bundle")
        resumed = DistributedSession.restore(tmp_path / "bundle", procs=2)
        try:
            for batch in batches[2:]:
                ref.ingest(batch, validate=False)
                resumed.ingest(batch, validate=False)
            assert_conformant(ref, resumed)
        finally:
            resumed.close()

    def test_snapshots_are_runtime_agnostic(self, tmp_path):
        spec = spec_for("nonuniform", "hyz")
        batches = batches_for(spec.resolve_network(), rounds=4)
        ref = MonitoringSession(spec)
        with DistributedSession(spec, procs=2) as dist:
            for batch in batches[:2]:
                ref.ingest(batch, validate=False)
                dist.ingest(batch, validate=False)
            dist.snapshot(tmp_path / "bundle")
        resumed = MonitoringSession.restore(tmp_path / "bundle")
        for batch in batches[2:]:
            ref.ingest(batch, validate=False)
            resumed.ingest(batch, validate=False)
        assert resumed.metrics() == ref.metrics()
        assert np.array_equal(resumed.estimates(), ref.estimates())

    def test_generator_seed_is_rejected(self):
        spec = EstimatorSpec(
            "alarm", "nonuniform", eps=0.2, n_sites=4,
            seed=np.random.default_rng(0),
        )
        with pytest.raises(SessionError, match="serializable"):
            DistributedSession(spec, procs=2)

    def test_closed_session_rejects_ingest(self):
        spec = spec_for("exact", "exact", k=3)
        dist = DistributedSession(spec, procs=2)
        dist.close()
        dist.close()  # idempotent
        with pytest.raises(SessionError, match="closed"):
            dist.ingest(np.zeros((1, 37), dtype=np.int64))

    def test_procs_validation_and_clamping(self):
        spec = spec_for("exact", "exact", k=3)
        with pytest.raises(SessionError, match="positive"):
            DistributedSession(spec, procs=0)
        with DistributedSession(spec, procs=16) as dist:
            assert dist.procs == 3  # clamped to k
            sites = [s for w in dist._workers for s in w.sites]
            assert sites == [0, 1, 2]  # contiguous ascending shards

    def test_pipelined_rounds_conform(self):
        spec = spec_for("nonuniform", "hyz")
        batches = batches_for(spec.resolve_network(), rounds=6, size=40)
        run_pair(spec, batches, procs=2, max_pending=3)

    def test_validation_catches_bad_events(self):
        spec = spec_for("exact", "exact", k=3)
        with DistributedSession(spec, procs=2) as dist:
            bad = np.full((2, 37), 999, dtype=np.int64)
            with pytest.raises(Exception, match="out-of-range"):
                dist.ingest(bad)

    def test_ingest_sampler_matches_reference(self):
        spec = spec_for("nonuniform", "hyz")
        ref = MonitoringSession(spec)
        ref.ingest_sampler(ref.sampler(seed=3), 240, chunk=80)
        with DistributedSession(spec, procs=2) as dist:
            assert dist.ingest_sampler(dist.sampler(seed=3), 240, chunk=80) == 240
            assert_conformant(ref, dist)


# ----------------------------------------------------------------------
# Executor / CLI integration
# ----------------------------------------------------------------------
class TestRunTaskRuntime:
    CHECKPOINTS = (200, 400)

    def _task(self, **kwargs):
        from repro.exec import RunTask

        return RunTask(
            network="alarm", algorithm="nonuniform", eps=0.3, n_sites=4,
            n_events=400, checkpoints=self.CHECKPOINTS, **kwargs
        )

    def test_default_runtime_keeps_legacy_cache_keys(self):
        task = self._task()
        payload = task.to_dict()
        # Serialized form (and therefore the cache key) is identical to
        # the pre-runtime-field schema for default descriptors.
        assert "runtime" not in payload
        assert "sites_procs" not in payload
        assert task.cache_key == self._task(runtime="inprocess").cache_key

    def test_distributed_runtime_round_trips(self):
        from repro.exec import RunTask

        task = self._task(runtime="distributed", sites_procs=2)
        payload = task.to_dict()
        assert payload["runtime"] == "distributed"
        assert payload["sites_procs"] == 2
        assert RunTask.from_dict(payload) == task
        assert task.cache_key != self._task().cache_key

    def test_invalid_runtime_fields_raise(self):
        with pytest.raises(ExecutionError, match="runtime"):
            self._task(runtime="cluster")
        with pytest.raises(ExecutionError, match="sites_procs"):
            self._task(sites_procs=0)

    def test_run_one_distributed_matches_inprocess(self):
        from repro.experiments.runner import ExperimentRunner

        runner = ExperimentRunner(eval_events=100, seed=0)
        kwargs = dict(
            eps=0.3, n_sites=4, n_events=400, checkpoints=2,
        )
        ref = runner.run_one("alarm", "nonuniform", **kwargs)
        dist = runner.run_one(
            "alarm", "nonuniform", runtime="distributed", sites_procs=2,
            **kwargs
        )
        assert strip_timing(dist.to_dict()) == strip_timing(ref.to_dict())


# ----------------------------------------------------------------------
# Auto-mode sampler (ingest_sampler shard auto-selection)
# ----------------------------------------------------------------------
class TestSamplerAutoMode:
    def test_auto_mode_resolves_from_cpu_count(self):
        spec = spec_for("exact", "exact", k=3)
        session = MonitoringSession(spec)
        sampler = session.sampler(seed=1, mode="auto")
        assert isinstance(sampler, ShardedSampler)
        cores = os.cpu_count() or 1
        assert sampler.shards == cores
        assert sampler.mode == ("serial" if cores == 1 else "thread")

    def test_auto_mode_bytes_match_every_explicit_mode(self):
        # The draw layout depends only on the shard count, so auto mode
        # (whatever it resolves to) reproduces serial/thread/process
        # byte-identically at the same count.
        spec = spec_for("exact", "exact", k=3)
        session = MonitoringSession(spec)
        auto = session.sampler(seed=11, mode="auto", shards=3).sample(500)
        for mode in ("serial", "thread", "process"):
            explicit = session.sampler(seed=11, mode=mode, shards=3)
            assert explicit.shards == 3
            assert np.array_equal(explicit.sample(500), auto)

    def test_auto_mode_ingest_sampler_unchanged(self):
        # Ingesting through an auto-mode sampler changes nothing about
        # the protocol stream (the satellite's byte-identity pin).
        spec = spec_for("nonuniform", "hyz", k=3)
        explicit = MonitoringSession(spec)
        explicit.ingest_sampler(
            explicit.sampler(seed=4, mode="serial", shards=2), 200, chunk=50
        )
        auto = MonitoringSession(spec)
        auto.ingest_sampler(
            auto.sampler(seed=4, mode="auto", shards=2), 200, chunk=50
        )
        assert auto.metrics() == explicit.metrics()
        assert np.array_equal(auto.estimates(), explicit.estimates())
