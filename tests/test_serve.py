"""The read-serving subsystem: epochs, snapshots, caches, staleness.

Layers covered:

- ``MessageLog.epoch`` — every record path advances the sync epoch
  exactly once per call carrying messages (the bulk REPORT call once
  per non-zero site); no-op calls never do.
- ``ModelSnapshot`` / ``QueryServer`` — served answers are bit-identical
  to the live session's scalar walks at every sync epoch, snapshots are
  rebuilt only on epoch advances, and all three LRUs behave.
- Theorem-3 staleness policy — exposed margin/threshold math, cached
  decisions served across epochs only while the margin provably holds.
- The satellite fixes — ``log_query_batch(strict=)`` unification with
  the scalar zero-denominator semantics, and the precomputed
  ``log_query_event`` plans.
- The batched read walk — live and served point batches walk the
  ingest encoder's rows in their own workspace, byte-identical to the
  per-family loop of ``tests/ingest_oracle.py`` on ALARM and LINK;
  every batch path rejects out-of-range states before reading a
  counter; snapshot builds log each distinct estimate once and match
  the per-counter ``math.log`` table.
"""

import math

import numpy as np
import pytest

from ingest_oracle import (
    assert_states_equal,
    reference_encode,
    reference_log_query_batch,
    reference_snapshot_terms,
)
from repro.api.session import MonitoringSession
from repro.api.spec import EstimatorSpec
from repro.bn.cpd import TabularCPD
from repro.bn.network import BayesianNetwork
from repro.bn.repository import link_like
from repro.bn.variable import Variable
from repro.errors import QueryError
from repro.monitoring.channel import MessageKind, MessageLog
from repro.serve import ModelSnapshot, QueryServer, QueryWorkload
from repro.graph.dag import DAG
from repro.serve.snapshot import ServePlan
from serve_oracle import (
    assert_servers_equal,
    reference_classify_batch,
    reference_log_event_batch,
)


@pytest.fixture(scope="module")
def link_net():
    return link_like()


def _session(net, *, backend="hyz", algorithm="nonuniform",
             eps=0.2, sites=4, seed=11, events=2500):
    spec = EstimatorSpec(
        network=net, algorithm=algorithm, eps=eps, n_sites=sites,
        seed=seed, counter_backend=backend,
    )
    session = MonitoringSession(spec, network=net)
    sampler = session.sampler(seed=seed + 1)
    session.ingest_sampler(sampler, events, chunk=500)
    return session, sampler


# ---------------------------------------------------------------------------
# MessageLog sync epoch
# ---------------------------------------------------------------------------
class TestMessageLogEpoch:
    def test_fresh_log_is_epoch_zero(self):
        assert MessageLog(3).epoch == 0

    def test_record_advances_once_per_call(self):
        log = MessageLog(3)
        log.record(MessageKind.REPORT, 0, 5)
        assert log.epoch == 1
        log.record(MessageKind.SYNC, 2, 1)
        assert log.epoch == 2
        log.record(MessageKind.BROADCAST, 1, 3)
        assert log.epoch == 3

    def test_zero_count_record_is_a_noop_epoch(self):
        log = MessageLog(3)
        log.record(MessageKind.REPORT, 0, 0)
        assert log.epoch == 0

    def test_broadcast_all_advances_once(self):
        log = MessageLog(5)
        log.record_broadcast_all(2)
        assert log.epoch == 1
        log.record_broadcast_all(0)
        assert log.epoch == 1

    def test_syncs_all_advances_once_per_batch(self):
        log = MessageLog(5)
        log.record_syncs_all(3)
        assert log.epoch == 1
        log.record_syncs_all()
        assert log.epoch == 2
        log.record_syncs_all(0)
        assert log.epoch == 2

    def test_reports_bulk_matches_per_site_records(self):
        # One epoch per non-zero entry, exactly the equivalent record()
        # calls: a dense apply and a per-site walk must agree on it.
        sites, counts = np.array([0, 1, 2, 3]), np.array([5, 0, 2, 9])
        bulk, walk = MessageLog(4), MessageLog(4)
        bulk.record_reports_bulk(sites, counts)
        for site, count in zip(sites, counts):
            walk.record(MessageKind.REPORT, int(site), int(count))
        assert bulk.epoch == 3
        assert_states_equal(walk.state_dict(), bulk.state_dict())

    def test_reports_bulk_empty_and_zero_are_noops(self):
        log = MessageLog(4)
        log.record_reports_bulk(np.array([], dtype=np.int64),
                                np.array([], dtype=np.int64))
        assert log.epoch == 0
        log.record_reports_bulk(np.array([1, 2]), np.array([0, 0]))
        assert log.epoch == 0

    def test_state_dict_roundtrip_carries_epoch(self):
        log = MessageLog(2)
        log.record(MessageKind.REPORT, 0, 2)
        log.record_syncs_all()
        state = log.state_dict()
        assert state["epoch"] == 2
        other = MessageLog(2)
        other.load_state_dict(state)
        assert other.epoch == 2

    def test_load_tolerates_pre_epoch_bundles(self):
        log = MessageLog(2)
        log.record(MessageKind.REPORT, 0, 2)
        state = log.state_dict()
        del state["epoch"]
        other = MessageLog(2)
        other.load_state_dict(state)
        assert other.epoch == 0

    def test_every_ingest_advances_each_backend(self, alarm_net):
        for backend in ("exact", "deterministic", "hyz"):
            session, sampler = _session(
                alarm_net, backend=backend,
                algorithm="exact" if backend == "exact" else "nonuniform",
                events=300,
            )
            before = session.message_log.epoch
            assert before > 0
            session.ingest(sampler.sample(50))
            assert session.message_log.epoch > before

    def test_empty_ingest_is_a_noop_round(self, alarm_net):
        session, _ = _session(alarm_net, events=300)
        before = session.message_log.epoch
        session.ingest(np.empty((0, alarm_net.n_variables), dtype=np.int64))
        assert session.message_log.epoch == before


# ---------------------------------------------------------------------------
# Snapshot lifecycle
# ---------------------------------------------------------------------------
class TestSnapshotLifecycle:
    def test_snapshot_reused_within_epoch(self, alarm_net):
        session, _ = _session(alarm_net)
        server = session.serve()
        first = server.snapshot()
        again = server.snapshot()
        assert again is first
        assert server.snapshot_refreshes == 1

    def test_epoch_advance_rebuilds_exactly_once(self, alarm_net):
        session, sampler = _session(alarm_net)
        server = session.serve()
        server.snapshot()
        session.ingest(sampler.sample(100))
        rebuilt = server.snapshot()
        assert server.snapshot_refreshes == 2
        assert rebuilt.version == 2
        assert rebuilt.epoch == session.message_log.epoch
        assert server.snapshot() is rebuilt

    def test_noop_round_does_not_rebuild(self, alarm_net):
        session, _ = _session(alarm_net)
        server = session.serve()
        server.snapshot()
        session.ingest(np.empty((0, alarm_net.n_variables), dtype=np.int64))
        server.snapshot()
        assert server.snapshot_refreshes == 1

    def test_snapshot_arrays_are_immutable(self, alarm_net):
        session, _ = _session(alarm_net)
        snap = session.serve().snapshot()
        with pytest.raises(ValueError):
            snap.terms[0] = 0.0
        with pytest.raises(ValueError):
            snap.neg[0] = True

    def test_terms_match_live_estimates(self, alarm_net):
        session, _ = _session(alarm_net, backend="exact", algorithm="exact")
        estimator = session.estimator
        snap = session.serve().snapshot()
        estimates = estimator.bank.estimates()
        plan = ServePlan(estimator)
        for jid in range(0, estimator.n_joint_counters, 97):
            num = estimates[jid]
            den = estimates[plan.parent_of_joint[jid]]
            if num > 0 and den > 0:
                assert snap.terms[jid] == math.log(num) - math.log(den)
            else:
                assert snap.terms[jid] == -math.inf

    def test_value_caches_cleared_on_refresh(self, alarm_net):
        session, sampler = _session(alarm_net)
        server = session.serve()
        workload = QueryWorkload(alarm_net, seed=5)
        event = workload.events(1, pool_size=1)[0]
        server.log_event(event)
        server.log_event(event)
        assert server.stats()["event_cache"]["hits"] == 1
        session.ingest(sampler.sample(100))
        value = server.log_event(event)
        assert server.stats()["event_cache"]["size"] == 1
        assert value == session.estimator.log_query_event(event)


# ---------------------------------------------------------------------------
# Bit-identity to the live session at every sync epoch
# ---------------------------------------------------------------------------
class TestServedConformance:
    @pytest.mark.parametrize("backend,algorithm", [
        ("exact", "exact"),
        ("deterministic", "nonuniform"),
        ("hyz", "nonuniform"),
    ])
    def test_bit_identity_across_epochs(self, alarm_net, backend, algorithm):
        session, sampler = _session(
            alarm_net, backend=backend, algorithm=algorithm, events=1500
        )
        server = session.serve()
        workload = QueryWorkload(alarm_net, seed=3)
        rows = workload.assignments(60)
        events = workload.events(30, pool_size=8)
        targets, data = workload.classification_batch(30, pool_size=8)
        classifier = session.classifier()
        for _ in range(3):  # fresh epoch each pass
            for row in rows[:20]:
                assert server.log_joint(row) == session.log_query(row)
                assert server.joint(row) == session.query(row)
            live = np.array([session.log_query(r) for r in rows])
            assert np.array_equal(server.log_joint_batch(rows), live)
            for event in events:
                assert server.log_event(event) == \
                    session.estimator.log_query_event(event)
                assert server.event_probability(event) == \
                    session.query_event(event)
            assert np.array_equal(
                server.log_event_batch(events),
                np.array([
                    session.estimator.log_query_event(e) for e in events
                ]),
            )
            assert np.array_equal(
                server.classify_batch(targets, data),
                classifier.predict_batch(targets, data),
            )
            session.ingest(sampler.sample(120))

    def test_scores_and_predict_bitwise(self, alarm_net):
        session, _ = _session(alarm_net, events=1200)
        server = session.serve()
        classifier = session.classifier()
        workload = QueryWorkload(alarm_net, seed=9)
        rows = workload.assignments(10)
        names = alarm_net.node_names
        for target in (names[0], names[len(names) // 2], names[-1]):
            for row in rows:
                evidence = {
                    name: int(row[i])
                    for i, name in enumerate(names) if name != target
                }
                assert np.array_equal(
                    server.scores(target, evidence),
                    classifier.scores(target, evidence),
                )
                assert server.classify(target, evidence) == \
                    classifier.predict(target, evidence)

    def test_unseen_configuration_serves_neg_inf(self, small_net):
        spec = EstimatorSpec(
            network=small_net, algorithm="exact", n_sites=2, seed=0,
            counter_backend="exact",
        )
        session = MonitoringSession(spec, network=small_net)
        session.ingest(np.zeros((5, 4), dtype=np.int64))
        server = session.serve()
        unseen = np.array([1, 2, 1, 1], dtype=np.int64)
        assert session.log_query(unseen) == -math.inf
        assert server.log_joint(unseen) == -math.inf
        assert server.joint(unseen) == 0.0

    def test_error_parity_with_live_paths(self, alarm_net):
        session, _ = _session(alarm_net, events=500)
        server = session.serve()
        names = alarm_net.node_names
        with pytest.raises(QueryError):
            server.log_event({"no-such-variable": 0})
        # A child assigned without its parent: not ancestrally closed.
        child = next(n for n in names if alarm_net.dag.parents(n))
        with pytest.raises(QueryError):
            server.log_event({child: 0})
        with pytest.raises(QueryError):
            server.scores("no-such-variable", {})
        with pytest.raises(QueryError):
            server.classify(names[0], {})  # missing evidence
        full = {n: 0 for n in names}
        with pytest.raises(QueryError):
            server.classify(names[0], full)  # target in evidence
        # The batch methods raise the same error as their scalar forms.
        classifier = session.classifier()
        rows = QueryWorkload(alarm_net, seed=1).assignments(4)
        for unknown in ("NOPE", 3):
            targets = [names[0], names[1], unknown, names[2]]
            with pytest.raises(QueryError, match="unknown target"):
                classifier.scores(unknown, {})
            with pytest.raises(QueryError, match="unknown target"):
                classifier.predict_batch(targets, rows)
            with pytest.raises(QueryError, match="unknown target"):
                server.classify_batch(targets, rows)
            with pytest.raises(QueryError, match="unknown target"):
                server.classify(unknown, {})
        good = {name: 0 for name in names if not alarm_net.dag.parents(name)}
        for bad in ({"no-such-variable": 0}, {child: 0}):
            with pytest.raises(QueryError):
                session.estimator.log_query_event(bad)
            with pytest.raises(QueryError):
                server.log_event_batch([good, bad, good])

    def test_distributed_session_serve(self, alarm_net):
        from repro.dist import DistributedSession

        spec = EstimatorSpec(
            network=alarm_net, algorithm="nonuniform", eps=0.2, n_sites=3,
            seed=21, counter_backend="hyz",
        )
        ref = MonitoringSession(spec, network=alarm_net)
        sampler = ref.sampler(seed=22)
        batches = [sampler.sample(200) for _ in range(3)]
        for batch in batches:
            ref.ingest(batch, validate=False)
        workload = QueryWorkload(alarm_net, seed=23)
        rows = workload.assignments(20)
        with DistributedSession(spec, procs=2) as dist:
            for batch in batches:
                dist.ingest(batch, validate=False)
            server = dist.serve()
            assert np.array_equal(
                server.log_joint_batch(rows),
                np.array([ref.log_query(r) for r in rows]),
            )
            assert server.snapshot().epoch == ref.message_log.epoch


# ---------------------------------------------------------------------------
# Caches
# ---------------------------------------------------------------------------
class TestServerCaches:
    def test_event_lru_hits_on_repeats(self, alarm_net):
        session, _ = _session(alarm_net)
        server = session.serve()
        events = QueryWorkload(alarm_net, seed=2).events(
            100, pool_size=5, zipf_exponent=1.3
        )
        served = server.log_event_batch(events)
        stats = server.stats()["event_cache"]
        assert stats["misses"] == 5
        assert stats["hits"] == 95
        live = np.array([
            session.estimator.log_query_event(e) for e in events
        ])
        assert np.array_equal(served, live)

    def test_event_lru_evicts_beyond_capacity(self, alarm_net):
        session, _ = _session(alarm_net)
        server = session.serve(event_cache_size=3)
        events = QueryWorkload(alarm_net, seed=2).events(8, pool_size=8)
        for event in events:
            server.log_event(event)
        assert server.stats()["event_cache"]["size"] <= 3

    def test_decision_cache_same_epoch_hit(self, alarm_net):
        session, _ = _session(alarm_net)
        server = session.serve()
        targets, data = QueryWorkload(alarm_net, seed=4).classification_batch(
            10, pool_size=10
        )
        first = server.classify_batch(targets, data)
        again = server.classify_batch(targets, data)
        assert np.array_equal(first, again)
        distinct = len({
            (t, row.tobytes()) for t, row in zip(targets, data)
        })
        stats = server.stats()["decision_cache"]
        assert stats["misses"] == distinct
        assert stats["hits"] == 20 - distinct
        assert stats["stale_hits"] == 0


# ---------------------------------------------------------------------------
# Theorem-3 staleness policy
# ---------------------------------------------------------------------------
class TestStalenessBound:
    def test_decision_margin_math(self):
        margin = QueryServer.decision_margin
        assert margin(np.array([-1.0, -3.0])) == 2.0
        assert margin(np.array([-3.0, -1.0])) == 2.0
        assert margin(np.array([-1.0, -1.0])) == 0.0
        assert margin(np.array([-1.0])) == math.inf
        assert margin(np.array([-1.0, -math.inf])) == math.inf
        assert margin(np.array([-math.inf, -math.inf])) == 0.0

    def test_family_drift_zero_for_exact(self, alarm_net):
        session, _ = _session(
            alarm_net, backend="exact", algorithm="exact", events=500
        )
        server = session.serve()
        assert np.all(server.family_drift == 0.0)
        assert server.staleness_threshold(alarm_net.node_names[0]) == 0.0

    def test_family_drift_formula(self, alarm_net):
        session, _ = _session(alarm_net, events=500)
        server = session.serve()
        estimator = session.estimator
        eps = np.asarray(estimator.bank.eps, dtype=np.float64)
        for i, layout in enumerate(estimator._layouts[:5]):
            family = np.concatenate([
                eps[layout.joint_offset:
                    layout.joint_offset
                    + layout.cardinality * layout.k_configs],
                eps[layout.parent_offset:
                    layout.parent_offset + layout.k_configs],
            ])
            worst = float(family.max())
            expected = math.log((1 + worst) / (1 - worst))
            assert server.family_drift[i] == pytest.approx(expected)
            assert server.family_drift[i] > 0.0

    def test_threshold_sums_affected_families(self, alarm_net):
        session, _ = _session(alarm_net, events=500)
        server = session.serve()
        target = alarm_net.node_names[0]
        affected = [target, *alarm_net.dag.children(target)]
        expected = 2.0 * sum(
            float(server.family_drift[alarm_net.variable_index(name)])
            for name in affected
        )
        assert server.staleness_threshold(target) == pytest.approx(expected)

    def test_exact_decisions_survive_epoch_advances(self, alarm_net):
        session, sampler = _session(
            alarm_net, backend="exact", algorithm="exact", events=2000
        )
        server = session.serve()
        targets, data = QueryWorkload(alarm_net, seed=6).classification_batch(
            10, pool_size=10
        )
        first = server.classify_batch(targets, data)
        session.ingest(sampler.sample(50))
        again = server.classify_batch(targets, data)
        # Exact counters: delta = 0, so any positive margin keeps the
        # cached decision valid across the epoch advance.
        stats = server.stats()["decision_cache"]
        assert stats["stale_hits"] > 0
        assert np.array_equal(again, first)
        # ... and the served decisions still match a fresh computation.
        assert np.array_equal(
            again, session.classifier().predict_batch(targets, data)
        )

    def test_small_margin_invalidates_on_epoch_advance(self, alarm_net):
        session, sampler = _session(alarm_net, events=2000)
        server = session.serve()
        targets, data = QueryWorkload(alarm_net, seed=6).classification_batch(
            10, pool_size=10
        )
        server.classify_batch(targets, data)
        # Force every cached margin below its threshold: the policy must
        # invalidate all of them once the epoch moves.
        for entry in server._decision_cache.data.values():
            entry.margin = 0.0
        session.ingest(sampler.sample(50))
        served = server.classify_batch(targets, data)
        distinct = len({
            (t, row.tobytes()) for t, row in zip(targets, data)
        })
        stats = server.stats()["decision_cache"]
        assert stats["stale_hits"] == 0
        assert stats["invalidations"] == distinct
        assert np.array_equal(
            served, session.classifier().predict_batch(targets, data)
        )

    def test_within_epoch_serving_is_unconditional(self, alarm_net):
        session, _ = _session(alarm_net, events=2000)
        server = session.serve()
        targets, data = QueryWorkload(alarm_net, seed=6).classification_batch(
            5, pool_size=5
        )
        server.classify_batch(targets, data)
        for entry in server._decision_cache.data.values():
            entry.margin = 0.0  # even a zero margin serves within-epoch
        served = server.classify_batch(targets, data)
        assert np.array_equal(
            served, session.classifier().predict_batch(targets, data)
        )
        assert server.stats()["decision_cache"]["invalidations"] == 0


# ---------------------------------------------------------------------------
# Coalesced batch reads vs the per-request loop
# ---------------------------------------------------------------------------
def _assert_batches_match(coalesced, reference, events, targets, data):
    """Run the batches on ``coalesced`` and the per-request loop on
    ``reference`` (two servers over one session), and compare."""
    if events is not None:
        got = coalesced.log_event_batch(events)
        want = reference_log_event_batch(reference, events)
        assert _same_bytes(got, want)
    if targets is not None:
        got = coalesced.classify_batch(targets, data)
        want = reference_classify_batch(reference, targets, data)
        assert np.array_equal(got, want) and got.dtype == want.dtype
    assert_servers_equal(coalesced, reference)


@pytest.fixture(scope="module")
def wide_net():
    """``W -> Y -> Z``: ``W`` has 300 states, so a row key narrowed to
    one byte would merge states 1 and 257."""
    dag = DAG({"W": (), "Y": ("W",), "Z": ("Y",)})
    variables = [Variable("W", 300), Variable("Y", 2), Variable("Z", 2)]
    flat = np.full((300, 1), 1 / 300)
    half = np.full((2, 300), 0.5)
    cpds = [
        TabularCPD("W", 300, (), (), flat),
        TabularCPD("Y", 2, ("W",), (300,), half),
        TabularCPD("Z", 2, ("Y",), (2,), np.full((2, 2), 0.5)),
    ]
    return BayesianNetwork(dag, variables, cpds, name="wide")


class TestCoalescedBatches:
    def test_duplicates_match_per_request_loop(self, alarm_net):
        session, sampler = _session(alarm_net, events=1500)
        coalesced, reference = session.serve(), session.serve()
        workload = QueryWorkload(alarm_net, seed=12)
        events = workload.events(300, pool_size=12, zipf_exponent=1.1)
        targets, data = workload.classification_batch(
            300, pool_size=16, zipf_exponent=1.1
        )
        # Fresh copies: grouping is by value, never by object identity.
        events = [dict(event) for event in events]
        for _ in range(2):  # misses, then the same epoch's hits
            _assert_batches_match(
                coalesced, reference, events, targets, data
            )
        session.ingest(sampler.sample(60))  # value caches drop
        _assert_batches_match(coalesced, reference, events, targets, data)
        stats = coalesced.stats()
        assert stats["event_cache"]["misses"] == 24
        assert stats["queries_served"] == 1800

    def test_one_row_under_two_targets(self, alarm_net):
        session, _ = _session(alarm_net, events=1500)
        coalesced, reference = session.serve(), session.serve()
        names = alarm_net.node_names
        first, second = names[3], names[20]
        row = QueryWorkload(alarm_net, seed=2).assignments(1)[0]
        # Zero in both target columns: only the target tells them apart.
        row[alarm_net.variable_index(first)] = 0
        row[alarm_net.variable_index(second)] = 0
        targets = [first, second] * 5
        data = np.tile(row, (10, 1))
        _assert_batches_match(coalesced, reference, None, targets, data)
        assert coalesced.stats()["decision_cache"]["misses"] == 2
        assert np.array_equal(
            coalesced.classify_batch(targets, data),
            session.classifier().predict_batch(targets, data),
        )

    def test_epoch_advance_mixes_stale_hits_and_invalidations(
        self, alarm_net
    ):
        session, sampler = _session(alarm_net, events=2000)
        coalesced, reference = session.serve(), session.serve()
        workload = QueryWorkload(alarm_net, seed=6)
        targets, data = workload.classification_batch(
            200, pool_size=20, zipf_exponent=1.1
        )
        _assert_batches_match(coalesced, reference, None, targets, data)
        # Every other entry can no longer certify its decision.
        for server in (coalesced, reference):
            for i, entry in enumerate(server._decision_cache.data.values()):
                entry.margin = 0.0 if i % 2 else math.inf
        session.ingest(sampler.sample(50))
        more_targets, more_data = workload.classification_batch(
            100, pool_size=20, zipf_exponent=1.1
        )
        targets = targets[:150] + more_targets
        data = np.concatenate([data[:150], more_data])
        _assert_batches_match(coalesced, reference, None, targets, data)
        decisions = coalesced.stats()["decision_cache"]
        assert decisions["stale_hits"] > 0
        assert decisions["invalidations"] > 0

    def test_lru_beyond_capacity_keeps_last_keys(self, alarm_net):
        session, _ = _session(alarm_net, events=1500)
        server = session.serve(event_cache_size=4, decision_cache_size=4)
        workload = QueryWorkload(alarm_net, seed=8)
        events = workload.events(60, pool_size=10)
        targets, data = workload.classification_batch(60, pool_size=10)
        server.log_event_batch(events)
        server.classify_batch(targets, data)
        stats = server.stats()
        # A duplicate within one batch is always a hit.
        assert stats["event_cache"]["misses"] == len(
            {(*e, *e.values()) for e in events})
        assert stats["decision_cache"]["misses"] == len(
            {(t, row.tobytes()) for t, row in zip(targets, data)})
        # The cache keeps the four most recently requested keys.
        recent = list(dict.fromkeys(
            (*e, *e.values()) for e in reversed(events)))[:4]
        assert list(server._event_cache.data) == recent[::-1]

    def test_wide_states_are_not_merged(self, wide_net):
        spec = EstimatorSpec(
            network=wide_net, algorithm="exact", n_sites=2, seed=0,
            counter_backend="exact",
        )
        session = MonitoringSession(spec, network=wide_net)
        # Y follows W = 1 as 0 and W = 257 as 1; Z is noise.
        session.ingest(np.array(
            [[1, 0, 0], [1, 0, 1], [257, 1, 0], [257, 1, 1]] * 3
        ))
        coalesced, reference = session.serve(), session.serve()
        # With Y hidden, the rows differ in W alone.
        data = np.array([[1, 1, 0], [257, 0, 0]] * 4)
        targets = ["Y"] * len(data)
        _assert_batches_match(coalesced, reference, None, targets, data)
        served = coalesced.classify_batch(targets, data)
        assert served.tolist() == [0, 1] * 4
        assert np.array_equal(
            served, session.classifier().predict_batch(targets, data)
        )
        assert coalesced.stats()["decision_cache"]["misses"] == 2


class TestFailedBatchLeavesServerUnchanged:
    @staticmethod
    def _state(server):
        return (
            server.stats(),
            list(server._event_cache.data.items()),
            list(server._slice_cache.data),
            [
                (key, entry.decision, entry.margin, entry.epoch)
                for key, entry in server._decision_cache.data.items()
            ],
        )

    def test_classify_batch_unknown_target(self, alarm_net):
        session, sampler = _session(alarm_net, events=1500)
        server = session.serve()
        workload = QueryWorkload(alarm_net, seed=5)
        targets, data = workload.classification_batch(50, pool_size=8)
        server.classify_batch(targets[:20], data[:20])
        before = self._state(server)
        session.ingest(sampler.sample(40))  # the refresh must wait too
        bad = list(targets)
        bad[30] = "NOPE"
        with pytest.raises(QueryError, match="NOPE"):
            server.classify_batch(bad, data)
        assert self._state(server) == before

    def test_log_event_batch_bad_event(self, alarm_net):
        session, sampler = _session(alarm_net, events=1500)
        server = session.serve()
        events = QueryWorkload(alarm_net, seed=5).events(10, pool_size=4)
        server.log_event_batch(events[:3])
        before = self._state(server)
        session.ingest(sampler.sample(40))
        child = next(
            n for n in alarm_net.node_names if alarm_net.dag.parents(n)
        )
        assigned = next(iter(events[0]))
        # A state equal to a valid one but of a refused type is refused
        # in a batch too, even right behind its valid twin.
        root, twin = "HYPOVOLEMIA", {"HYPOVOLEMIA": 1}
        for bad in ({"no-such-variable": 0}, {child: 0},
                    {**events[0], assigned: 10 ** 6},
                    {root: True}, {root: 1.0}, {root: np.float64(1.0)}):
            if root in bad:
                with pytest.raises(QueryError):
                    server.log_event(bad)
            with pytest.raises(QueryError):
                server.log_event_batch(events[:5] + [twin, bad] + events[5:])
            assert self._state(server) == before


# ---------------------------------------------------------------------------
# Satellite: scalar/batch zero-denominator unification
# ---------------------------------------------------------------------------
def _poisoned_estimator(small_net):
    """Joint counter incremented without its parent family: the
    inconsistent state the scalar paths guard with QueryError."""
    spec = EstimatorSpec(
        network=small_net, algorithm="exact", n_sites=2, seed=0,
        counter_backend="exact",
    )
    session = MonitoringSession(spec, network=small_net)
    estimator = session.estimator
    # Make the all-zeros row walk cleanly through A, B, C (num and
    # den positive) so the scalar reaches D; there the joint counter
    # is positive but the (B=0, C=0) parent counter stays 0.
    ids, vals = [], []
    for layout in estimator._layouts[:3]:
        ids += [layout.joint_offset, layout.parent_offset]
        vals += [3, 3]
    ids.append(estimator._layouts[3].joint_offset)  # D=0 | B=0, C=0
    vals.append(3)
    estimator.bank.bulk_add_site(0, np.array(ids), np.array(vals))
    return session, estimator


class TestStrictBatchSemantics:
    def test_scalar_raises_batch_default_folds(self, small_net):
        session, estimator = _poisoned_estimator(small_net)
        bad_row = np.zeros((1, 4), dtype=np.int64)
        with pytest.raises(QueryError):
            estimator.log_query(bad_row[0])
        folded = estimator.log_query_batch(bad_row)
        assert folded[0] == -math.inf

    def test_strict_batch_matches_scalar_raise(self, small_net):
        session, estimator = _poisoned_estimator(small_net)
        bad_row = np.zeros((1, 4), dtype=np.int64)
        with pytest.raises(QueryError):
            estimator.log_query_batch(bad_row, strict=True)
        with pytest.raises(QueryError):
            session.log_query_batch(bad_row, strict=True)

    def test_strict_batch_replicates_short_circuit_order(self, small_net):
        # Row whose *first* degenerate family has a zero numerator: the
        # scalar walk returns -inf there and never reaches the poisoned
        # later family, so strict mode must not raise either.
        session, estimator = _poisoned_estimator(small_net)
        row = np.array([[1, 0, 0, 0]], dtype=np.int64)  # A=1 never seen
        assert estimator.log_query(row[0]) == -math.inf
        strict = estimator.log_query_batch(row, strict=True)
        assert strict[0] == -math.inf

    def test_strict_matches_default_on_consistent_data(self, alarm_net):
        session, _ = _session(alarm_net, events=800)
        rows = QueryWorkload(alarm_net, seed=8).assignments(50)
        assert np.array_equal(
            session.log_query_batch(rows, strict=True),
            session.log_query_batch(rows),
        )

    def test_served_strict_batch_parity(self, small_net):
        session, estimator = _poisoned_estimator(small_net)
        server = session.serve()
        bad_row = np.zeros((1, 4), dtype=np.int64)
        with pytest.raises(QueryError):
            server.log_joint_batch(bad_row, strict=True)
        assert server.log_joint_batch(bad_row)[0] == -math.inf
        with pytest.raises(QueryError):
            server.log_joint(bad_row[0])


# ---------------------------------------------------------------------------
# Batched reads walk the ingest encoder's rows
# ---------------------------------------------------------------------------
def _same_bytes(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _assert_build_matches_reference(estimator, estimates=None) -> None:
    plan = ServePlan(estimator)
    for layout in estimator._layouts:
        block = np.arange(layout.cardinality * layout.k_configs)
        assert np.array_equal(
            plan.parent_of_joint[layout.joint_offset + block],
            layout.parent_offset + block % layout.k_configs,
        )
    if estimates is None:
        estimates = estimator.bank.estimates()
    snap = ModelSnapshot.build(estimates, plan, epoch=0, version=1)
    reference = reference_snapshot_terms(estimates, plan)
    for got, want in zip((snap.terms, snap.neg, snap.bad), reference):
        assert _same_bytes(got, want)


class TestBatchReadWalk:
    @pytest.mark.parametrize("net_name", ["alarm", "link"])
    def test_live_batch_matches_per_family_loop(
        self, net_name, alarm_net, link_net
    ):
        net = alarm_net if net_name == "alarm" else link_net
        session, _ = _session(net, sites=10, eps=0.1, events=1500)
        rows = QueryWorkload(net, seed=4).assignments(300)
        for strict in (False, True):
            got = session.log_query_batch(rows, strict=strict)
            want = reference_log_query_batch(
                session.estimator, rows, strict=strict
            )
            assert _same_bytes(got, want)
        # Few events: unseen configurations give -inf rows too.
        assert np.isinf(got).any() and np.isfinite(got).any()

    def test_poisoned_batch_matches_per_family_loop(self, small_net):
        _, estimator = _poisoned_estimator(small_net)
        rows = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 1, 1]])
        assert _same_bytes(
            estimator.log_query_batch(rows),
            reference_log_query_batch(estimator, rows),
        )
        with pytest.raises(QueryError):
            reference_log_query_batch(estimator, rows, strict=True)
        with pytest.raises(QueryError):
            estimator.log_query_batch(rows, strict=True)

    def test_served_point_batch_at_link_scale(self, link_net):
        session, sampler = _session(link_net, sites=10, eps=0.1, events=1500)
        server = session.serve()
        rows = QueryWorkload(link_net, seed=3).assignments(150)
        for _ in range(2):  # fresh epoch each pass
            live = np.array([session.log_query(r) for r in rows])
            assert _same_bytes(server.log_joint_batch(rows), live)
            assert _same_bytes(server.log_joint_batch(rows, strict=True), live)
            session.ingest(sampler.sample(300))

    def test_every_layout_walks_to_the_same_ids(self, link_net):
        estimator = EstimatorSpec(
            network=link_net, algorithm="exact", n_sites=2, seed=0,
            counter_backend="exact",
        ).session().estimator
        # 700 rows: two whole transpose blocks and a partial one.
        rows = QueryWorkload(link_net, seed=7).assignments(700)
        padded = np.zeros((700, 2 * rows.shape[1]), dtype=np.int64)
        padded[:, ::2] = rows
        layouts = {
            "C-order": np.ascontiguousarray(rows),
            "F-order": np.asfortranarray(rows),
            "strided columns": padded[:, ::2],
            "strided rows": np.repeat(rows, 2, axis=0)[::2],
        }
        want = reference_encode(estimator, rows)
        for name, data in layouts.items():
            assert np.array_equal(data, rows)
            walk = estimator._joint_id_rows(data, "query")
            for index, block, ids in walk:
                assert np.array_equal(ids + block.start, want[:, index]), \
                    (name, index)

    def test_reads_leave_ingest_buffers_untouched(self, alarm_net):
        session, _ = _session(alarm_net, events=1500)  # 500-event chunks
        estimator = session.estimator
        ingest = dict(estimator._buffers)
        assert ingest
        rows = QueryWorkload(alarm_net, seed=3).assignments(123)
        session.serve().log_joint_batch(rows)
        session.log_query_batch(rows, strict=True)
        for key, array in ingest.items():
            assert estimator._buffers[key] is array, key
        assert estimator._buffers["query.dataT"].shape == (
            alarm_net.n_variables, 123,
        )

    @pytest.mark.parametrize("backend,algorithm", [
        ("exact", "exact"),
        ("deterministic", "nonuniform"),
        ("hyz", "nonuniform"),
    ])
    def test_snapshot_build_matches_per_counter_logs(
        self, alarm_net, backend, algorithm
    ):
        session, _ = _session(
            alarm_net, backend=backend, algorithm=algorithm, events=800
        )
        _assert_build_matches_reference(session.estimator)

    def test_snapshot_build_matches_on_arbitrary_floats(self, link_net):
        # Non-integer estimates, where array np.log and math.log can
        # disagree by an ulp, plus zero and negative ones.
        estimator = EstimatorSpec(link_net, "nonuniform", n_sites=2).build(
            network=link_net
        )
        rng = np.random.default_rng(5)
        estimates = rng.uniform(0.5, 1e5, estimator.n_counters)
        estimates[rng.random(estimates.size) < 0.1] = 0.0
        estimates[rng.random(estimates.size) < 0.05] *= -1.0
        estimates[:50] = estimates[50:100]  # repeated values
        _assert_build_matches_reference(estimator, estimates)

    def test_poisoned_snapshot_build_matches_per_counter_logs(
        self, small_net
    ):
        _, estimator = _poisoned_estimator(small_net)
        _assert_build_matches_reference(estimator)
        snap = ModelSnapshot.build(
            estimator.bank.estimates(), ServePlan(estimator), epoch=0,
            version=1,
        )
        assert snap.bad.any() and snap.neg.any()

    @pytest.mark.parametrize("state", ["too-large", "negative"])
    def test_out_of_range_rows_raise_before_any_read(self, alarm_net, state):
        session, _ = _session(alarm_net, events=500)
        server = session.serve()
        classifier = session.classifier()
        rows = QueryWorkload(alarm_net, seed=2).assignments(5)
        column = 7
        rows[3, column] = (
            alarm_net.variable(alarm_net.node_names[column]).cardinality
            if state == "too-large" else -1
        )
        targets = [alarm_net.node_names[0]] * len(rows)
        with pytest.raises(QueryError):
            session.log_query(rows[3])  # the scalar rule

        def untouchable():
            raise AssertionError("counters read before the range check")

        session.estimator.bank.estimates = untouchable
        try:
            for strict in (False, True):
                with pytest.raises(QueryError, match="row 3"):
                    session.log_query_batch(rows, strict=strict)
                with pytest.raises(QueryError, match="row 3"):
                    server.log_joint_batch(rows, strict=strict)
            with pytest.raises(QueryError, match="row 3"):
                classifier.predict_batch(targets, rows)
            with pytest.raises(QueryError, match="row 3"):
                server.classify_batch(targets, rows)
        finally:
            del session.estimator.bank.estimates
        assert server.snapshot_refreshes == 0
        assert server.queries_served == 0


# ---------------------------------------------------------------------------
# Satellite: precomputed event-query plans
# ---------------------------------------------------------------------------
class TestEventQueryPrecompute:
    def test_plans_are_static_and_complete(self, alarm_net):
        session, _ = _session(alarm_net, events=300)
        estimator = session.estimator
        assert set(estimator._event_plans) == set(alarm_net.node_names)
        assert set(estimator._name_to_layout) == set(alarm_net.node_names)
        for name, (layout, parents, strides, _) in \
                estimator._event_plans.items():
            assert parents == alarm_net.cpd(name).parent_names
            assert len(strides) == len(parents)
            assert all(isinstance(s, int) for s in strides)

    def test_event_matches_full_query_on_closure_of_all(self, alarm_net):
        session, _ = _session(alarm_net, events=1500)
        rows = QueryWorkload(alarm_net, seed=1).assignments(20)
        names = alarm_net.node_names
        for row in rows:
            full_event = {name: int(row[i]) for i, name in enumerate(names)}
            assert session.estimator.log_query_event(full_event) == \
                session.log_query(row)


# ---------------------------------------------------------------------------
# Workload generator
# ---------------------------------------------------------------------------
class TestQueryWorkload:
    def test_seeded_determinism(self, alarm_net):
        a = QueryWorkload(alarm_net, seed=42)
        b = QueryWorkload(alarm_net, seed=42)
        assert np.array_equal(a.assignments(20), b.assignments(20))
        assert a.events(20, pool_size=4) == b.events(20, pool_size=4)
        ta, da = a.classification_batch(20, pool_size=4)
        tb, db = b.classification_batch(20, pool_size=4)
        assert ta == tb
        assert np.array_equal(da, db)

    def test_events_are_ancestrally_closed(self, alarm_net):
        for event in QueryWorkload(alarm_net, seed=7).events(
            30, pool_size=16
        ):
            for name in event:
                for parent in alarm_net.dag.parents(name):
                    assert parent in event

    def test_zipf_stream_repeats_hot_keys(self, alarm_net):
        events = QueryWorkload(alarm_net, seed=7).events(
            200, pool_size=10, zipf_exponent=1.5
        )
        distinct = {tuple(e.items()) for e in events}
        assert len(distinct) <= 10
        assert len(events) == 200

    def test_classification_targets_valid(self, alarm_net):
        workload = QueryWorkload(alarm_net, seed=7)
        targets, data = workload.classification_batch(25, pool_size=6)
        assert len(targets) == 25
        assert data.shape == (25, alarm_net.n_variables)
        assert set(targets) <= set(alarm_net.node_names)
        with pytest.raises(ValueError):
            workload.classification_batch(5, target="nope")

    def test_pinned_target_classification(self, alarm_net):
        target = alarm_net.node_names[3]
        targets, _ = QueryWorkload(alarm_net, seed=7).classification_batch(
            10, target=target
        )
        assert targets == [target] * 10
