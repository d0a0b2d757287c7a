"""Integer widths on the wire and in the WAL (``repro.dist``).

Event batches travel in the narrowest unsigned dtype holding the
network's state indices, report (and therefore WAL) arrays in the
narrowest holding their bounds.  The codec is untouched — frames carry
each array's dtype — so what needs pinning is the *producers'* choice:
the boundary table, that narrowing is lossless or refused, that the
conformance contract survives it on a network that does not fit a byte
(over the wire, and across a SIGKILL replay from the narrow buffers),
and that WALs written with int64 aggregates still recover.
"""

import os
import pickle
import signal

import numpy as np
import pytest

from dist_faults import delay_send
from repro import BayesianNetwork
from repro.api.session import MonitoringSession
from repro.api.spec import EstimatorSpec
from repro.bn.cpd import TabularCPD
from repro.bn.sampling import ForwardSampler
from repro.bn.variable import Variable
from repro.dist import (
    DistributedSession,
    DurableCoordinator,
    SiteShard,
    load_recovery,
)
from repro.dist.coordinator import event_wire_dtype
from repro.dist.messages import SiteAggregate
from repro.dist.recovery import WAL_NAME
from repro.errors import StreamError
from repro.graph.dag import DAG
from test_dist import assert_conformant


def single_variable_net(cardinality: int) -> BayesianNetwork:
    cpd = TabularCPD(
        "A", cardinality, (), (), np.full((cardinality, 1), 1.0 / cardinality)
    )
    return BayesianNetwork(
        DAG({"A": ()}), [Variable("A", cardinality)], [cpd],
        name=f"single-{cardinality}",
    )


@pytest.fixture(scope="module")
def wide_net():
    """A (300 states) -> B (2), A -> C (3): state indices above 255 and
    more than 256 counters, so neither event nor id arrays fit a byte."""
    rng = np.random.default_rng(5)

    def table(states, configs):
        raw = rng.dirichlet(np.ones(states), size=configs).T
        return 0.9 * raw + 0.1 / states

    cpds = [
        TabularCPD("A", 300, (), (), np.full((300, 1), 1.0 / 300)),
        TabularCPD("B", 2, ("A",), (300,), table(2, 300)),
        TabularCPD("C", 3, ("A",), (300,), table(3, 300)),
    ]
    variables = [Variable("A", 300), Variable("B", 2), Variable("C", 3)]
    dag = DAG({"A": (), "B": ("A",), "C": ("A",)})
    return BayesianNetwork(dag, variables, cpds, name="wide")


def frozen(session) -> bytes:
    """Every byte of protocol state: bank (RNG included) and tallies."""
    return pickle.dumps((
        session.estimator.bank.state_dict(),
        session.message_log.state_dict(),
    ))


def wide_spec(net):
    return EstimatorSpec(net, "nonuniform", eps=0.2, n_sites=4, seed=42)


def alarm_spec(algorithm="exact"):
    return EstimatorSpec("alarm", algorithm, eps=0.2, n_sites=4, seed=7)


# ----------------------------------------------------------------------
# Width selection
# ----------------------------------------------------------------------
class TestWidthTable:
    @pytest.mark.parametrize("cardinality, dtype", [
        (2, np.uint8), (256, np.uint8), (257, np.uint16),
        (65536, np.uint16), (65537, np.uint32),
    ])
    def test_event_dtype_follows_max_cardinality(self, cardinality, dtype):
        assert event_wire_dtype(single_variable_net(cardinality)) == dtype

    def test_event_dtype_uses_the_widest_variable(self, wide_net, alarm_net):
        assert event_wire_dtype(wide_net) == np.uint16
        assert event_wire_dtype(alarm_net) == np.uint8

    @pytest.mark.parametrize("n_counters, dtype", [
        (256, np.uint8), (257, np.uint16), (65536, np.uint16),
        (65537, np.uint32),
    ])
    def test_report_id_dtype_follows_n_counters(self, n_counters, dtype):
        # One variable of c states has c joint counters and one parent
        # counter; its last state's joint id and the parent id are the
        # two largest ids.
        net = single_variable_net(n_counters - 1)
        spec = EstimatorSpec(net, "exact", n_sites=1)
        shard = SiteShard(spec, (0,), network=net)
        data = np.array([[0], [n_counters - 2]], dtype=event_wire_dtype(net))
        (aggregate,) = shard.encode(1, data, np.zeros(2, dtype=np.int64))
        assert aggregate.counter_ids.dtype == dtype
        assert np.array_equal(aggregate.counter_ids,
                              [0, n_counters - 2, n_counters - 1])

    def test_report_counts_hold_a_count_past_uint16(self):
        # A count is bounded by the sub-batch's rows, never wrapped: 70 000
        # copies of one event at one site give counts of 70 000 in uint32.
        net = single_variable_net(2)
        spec = EstimatorSpec(net, "exact", n_sites=1)
        shard = SiteShard(spec, (0,), network=net)
        rows = 70_000
        data = np.ones((rows, 1), dtype=np.uint8)
        (aggregate,) = shard.encode(1, data, np.zeros(rows, dtype=np.int64))
        assert aggregate.counts.dtype == np.uint32
        assert aggregate.counts.tolist() == [rows, rows]

    @pytest.mark.parametrize("rows, dtype", [
        (255, np.uint8), (256, np.uint16),
    ])
    def test_report_count_dtype_follows_sub_batch_rows(self, alarm_net, rows,
                                                       dtype):
        spec = EstimatorSpec("alarm", "exact", eps=0.2, n_sites=2, seed=1)
        shard = SiteShard(spec, (0, 1), network=alarm_net)
        # One repeated event at one site: every touched counter receives
        # exactly ``rows`` increments — the bound itself.
        data = np.repeat(ForwardSampler(alarm_net, seed=3).sample(1), rows, 0)
        (aggregate,) = shard.encode(1, data, np.zeros(rows, dtype=np.int64))
        assert aggregate.counts.dtype == dtype
        assert aggregate.counter_ids.dtype == np.uint16  # ALARM: 995 counters
        assert int(aggregate.counts.max()) == rows == aggregate.n_events
        assert np.all(np.diff(aggregate.counter_ids.astype(np.int64)) > 0)


# ----------------------------------------------------------------------
# Conformance on a network that does not fit a byte
# ----------------------------------------------------------------------
class TestWideNetworkConformance:
    def test_distributed_equals_inprocess(self, wide_net):
        spec = wide_spec(wide_net)
        sampler = ForwardSampler(wide_net, seed=9)
        batches = [sampler.sample(400) for _ in range(3)]
        assert max(int(b.max()) for b in batches) > 255
        ref = MonitoringSession(spec)
        with DistributedSession(spec, procs=2) as dist:
            assert dist._wire_dtype == np.uint16
            for index, batch in enumerate(batches):
                ref.ingest(batch, validate=bool(index % 2))
                dist.ingest(batch, validate=bool(index % 2))
            assert_conformant(ref, dist)

    def test_sigkill_replays_from_the_narrow_buffers(self, wide_net):
        spec = wide_spec(wide_net)
        sampler = ForwardSampler(wide_net, seed=10)
        batches = [sampler.sample(300) for _ in range(5)]
        ref = MonitoringSession(spec)
        with DistributedSession(
            spec, procs=2, max_pending=2,
            worker_faults={1: delay_send(0.2)},
        ) as dist:
            for index, batch in enumerate(batches):
                ref.ingest(batch, validate=False)
                dist.ingest(batch, validate=False)
                if index == 2:
                    # max_pending=2 returns with this round in flight,
                    # and the slow reporter cannot have answered yet:
                    # its sub-batch sits in the replay buffer as shipped.
                    buffered = dist._workers[1].unreported
                    assert sorted(buffered) == [3]
                    assert buffered[3][0].dtype == np.uint16
                    victim = dist._workers[1].process
                    os.kill(victim.pid, signal.SIGKILL)
                    victim.join(timeout=5.0)
            assert_conformant(ref, dist)
            assert dist.wire_stats()["worker_respawns"] == 1


# ----------------------------------------------------------------------
# Lossless or refused
# ----------------------------------------------------------------------
class TestNarrowingIsRefusedNotWrapped:
    @pytest.mark.parametrize("bad_value", [256, -1])
    def test_trusted_batch_outside_the_wire_range(self, alarm_net, bad_value):
        spec = alarm_spec("nonuniform")
        sampler = ForwardSampler(alarm_net, seed=8)
        first, second = sampler.sample(80), sampler.sample(80)
        bad = sampler.sample(80)
        bad[17, 5] = bad_value
        ref = MonitoringSession(spec)
        with DistributedSession(spec, procs=2) as dist:
            assert dist._wire_dtype == np.uint8
            ref.ingest(first, validate=False)
            dist.ingest(first, validate=False)
            before = dist.wire_stats()
            with pytest.raises(StreamError, match="uint8 wire range"):
                dist.ingest(bad, validate=False)
            # Nothing was registered, buffered or shipped ...
            after = dist.wire_stats()
            assert after["batch_frames_sent"] == before["batch_frames_sent"]
            assert dist._seq == dist._applied_seq == 1
            assert not dist._rounds
            assert not any(h.unreported for h in dist._workers)
            # ... the partitioner did not move, and the session goes on
            # exactly as the reference that never saw the bad batch.
            ref.ingest(second, validate=False)
            dist.ingest(second, validate=False)
            assert_conformant(ref, dist)

    def test_validated_batch_is_refused_as_before(self, alarm_net):
        spec = alarm_spec()
        bad = ForwardSampler(alarm_net, seed=8).sample(10)
        bad[0, 0] = 256
        with DistributedSession(spec, procs=2) as dist:
            with pytest.raises(StreamError, match="out-of-range state"):
                dist.ingest(bad)
            assert dist._seq == 0 and not dist._rounds
            assert dist.wire_stats()["batch_frames_sent"] == 0


# ----------------------------------------------------------------------
# Byte counters
# ----------------------------------------------------------------------
class TestWireByteCounters:
    def test_tcp_session_counts_both_directions(self, alarm_net):
        spec = alarm_spec()
        batch = ForwardSampler(alarm_net, seed=8).sample(500)
        with DistributedSession(spec, procs=2) as dist:
            dist.ingest(batch, validate=False)
            stats = dist.wire_stats()
            # One byte per state index plus int64 site ids and headers:
            # far below the 8 bytes per index an int64 batch would take.
            payload = batch.size + 8 * batch.shape[0]
            assert payload <= stats["bytes_sent"] < 2 * payload
            assert stats["bytes_received"] > 0
            channels = [h.channel for h in dist._workers]
            for key in ("bytes_sent", "bytes_received"):
                assert stats[key] == sum(c.stats()[key] for c in channels)


# ----------------------------------------------------------------------
# WAL compatibility: int64 aggregates (pre-narrowing logs) still recover
# ----------------------------------------------------------------------
class TestWalWidthCompatibility:
    def _write_wal(self, directory, net, spec, batches, *, widen: bool):
        """Log and apply ``batches`` the way the coordinator does, with
        the shard's aggregates as shipped or widened to int64."""
        inner = MonitoringSession(spec, network=net)
        durable = DurableCoordinator(directory, inner, fsync="off")
        shard = SiteShard(spec, range(spec.n_sites), network=net)
        bank = inner.estimator.bank
        for seq, batch in enumerate(batches, start=1):
            site_ids = inner.partitioner.assign(batch.shape[0])
            aggregates = shard.encode(seq, batch, site_ids)
            if widen:
                aggregates = [
                    SiteAggregate(
                        a.site, a.counter_ids.astype(np.int64),
                        a.counts.astype(np.int64), a.n_events,
                    )
                    for a in aggregates
                ]
            else:
                assert all(
                    a.counter_ids.dtype.itemsize < 8
                    and a.counts.dtype.itemsize < 8 for a in aggregates
                )
            record = {
                "m": batch.shape[0], "got": {0: aggregates},
                "partitioner": inner.partitioner.state_dict(),
            }
            durable.log_round(seq, record)
            for agg in aggregates:
                bank.bulk_add_site(agg.site, agg.counter_ids, agg.counts)
            inner.estimator.events_seen += batch.shape[0]
            durable.after_apply(seq, record)
        durable.wal.close()  # no checkpoint: recovery must replay it all
        return inner

    @pytest.mark.parametrize("backend", ["exact", "hyz"])
    def test_wide_and_narrow_wals_recover_identically(self, tmp_path,
                                                      alarm_net, backend):
        spec = EstimatorSpec(
            "alarm", "nonuniform", eps=0.2, n_sites=4, seed=3,
            counter_backend=backend,
        )
        sampler = ForwardSampler(alarm_net, seed=4)
        batches = [sampler.sample(200) for _ in range(4)]
        live = {
            name: self._write_wal(
                tmp_path / name, alarm_net, spec, batches,
                widen=(name == "wide"),
            )
            for name in ("wide", "narrow")
        }
        sizes = {
            name: (tmp_path / name / WAL_NAME).stat().st_size
            for name in live
        }
        assert sizes["wide"] > 2 * sizes["narrow"]
        recovered = {}
        for name in live:
            inner, _, info = load_recovery(tmp_path / name, network=alarm_net)
            assert info["replayed_rounds"] == len(batches)
            recovered[name] = inner
        for session in (recovered["narrow"], live["wide"], live["narrow"]):
            assert_conformant(recovered["wide"], session)
            assert frozen(session) == frozen(recovered["wide"])
