"""Tests for the sampler fast path: draws, sharding, and snapshots.

The contract:

- **determinism** — for a fixed seed every drawing surface (``sample``,
  ``sample_into``, ``sample_stream`` with and without buffer reuse)
  produces byte-identical draws at the same batch-size sequence (the
  seed-0 LINK stream itself is frozen in ``tests/test_golden_pins.py``);
- **statistical identity** — the stream passes a per-CPD chi-squared
  goodness-of-fit against the ground-truth network, so the fast path
  cannot buy speed with a skewed distribution;
- **sharded equivalence** — the sharded parallel sampler draws the same
  stream across ``serial`` / ``thread`` / ``process`` modes and across
  shard counts (per-chunk child seeds, never worker identity);
- **snapshots** — both samplers restore mid-stream byte-identically and
  refuse, with :class:`StreamError`, any state they cannot continue.
"""

import numpy as np
import pytest

from repro import EstimatorSpec, ForwardSampler, MonitoringSession, link_like
from repro.errors import StreamError
from repro.exec import SHARD_MODES, ShardedSampler
from sampler_oracle import CHI2_Z_THRESHOLD, max_cpd_chi2_z


@pytest.fixture(scope="module")
def link_net():
    return link_like()


class TestDrawContract:
    def test_drawing_surfaces_byte_identical(self, alarm_net):
        m, chunk = 3_000, 700
        reference = ForwardSampler(alarm_net, seed=11).sample(m)
        assert reference.shape == (m, alarm_net.n_variables)

        storage = np.empty((alarm_net.n_variables, m), dtype=np.int64)
        into = ForwardSampler(alarm_net, seed=11)
        assert np.array_equal(into.sample_into(storage.T), reference)

        streamed = np.concatenate(list(
            ForwardSampler(alarm_net, seed=11).sample_stream(m, chunk=chunk)
        ))
        reused = np.concatenate([
            batch.copy()
            for batch in ForwardSampler(alarm_net, seed=11)
            .sample_stream(m, chunk=chunk, reuse_buffer=True)
        ])
        # Chunked streams consume randomness per chunk, so they match
        # each other exactly but need not match the one-shot draw.
        assert np.array_equal(streamed, reused)

    def test_statistical_identity_on_alarm(self, alarm_net):
        data = ForwardSampler(alarm_net, seed=3).sample(40_000)
        assert max_cpd_chi2_z(alarm_net, data) < CHI2_Z_THRESHOLD

    def test_statistical_identity_on_link(self, link_net):
        # LINK exercises the searchsorted path (cardinalities above the
        # count-inversion crossover) and deep topological levels.
        data = ForwardSampler(link_net, seed=4).sample(15_000)
        assert max_cpd_chi2_z(link_net, data) < CHI2_Z_THRESHOLD


class TestSampleEvent:
    def test_deterministic_and_closed(self, alarm_net):
        name = alarm_net.node_names[-1]
        a = ForwardSampler(alarm_net, seed=9)
        b = ForwardSampler(alarm_net, seed=9)
        for _ in range(50):
            event_a = a.sample_event([name])
            assert event_a == b.sample_event([name])
            assert name in event_a
            for node, value in event_a.items():
                cardinality = alarm_net.variable(node).cardinality
                assert 0 <= value < cardinality

    def test_empty_nodes_rejected(self, alarm_net):
        with pytest.raises(StreamError):
            ForwardSampler(alarm_net, seed=0).sample_event([])


class TestForwardSamplerSnapshot:
    def test_restore_mid_stream(self, alarm_net):
        sampler = ForwardSampler(alarm_net, seed=21)
        stream = sampler.sample_stream(4_000, chunk=500)
        prefix = [next(stream) for _ in range(4)]
        snapshot = sampler.state_dict()
        tail = list(stream)

        resumed = ForwardSampler(alarm_net, seed=999)
        resumed.load_state_dict(snapshot)
        resumed_tail = list(resumed.sample_stream(2_000, chunk=500))
        assert len(prefix) == 4
        for a, b in zip(tail, resumed_tail):
            assert np.array_equal(a, b)

    def test_legacy_cdf_engine_entry_restores(self, alarm_net):
        # States written while the sampler had selectable engines carry
        # "engine": "cdf"; they continue the same stream.
        sampler = ForwardSampler(alarm_net, seed=1)
        sampler.sample(100)
        snapshot = {**sampler.state_dict(), "engine": "cdf"}
        expected = sampler.sample(200)
        resumed = ForwardSampler(alarm_net, seed=2)
        resumed.load_state_dict(snapshot)
        assert np.array_equal(resumed.sample(200), expected)
        sharded = ShardedSampler(alarm_net, shards=1, seed=3, mode="serial")
        state = {**sharded.state_dict(), "engine": "cdf"}
        expected = sharded.sample(300, chunk=100)
        sharded.load_state_dict(state)
        assert np.array_equal(sharded.sample(300, chunk=100), expected)

    def test_kind_mismatch_rejected(self, alarm_net):
        sampler = ForwardSampler(alarm_net, seed=1)
        sharded = ShardedSampler(alarm_net, shards=2, seed=1, mode="serial")
        with pytest.raises(StreamError):
            sampler.load_state_dict(sharded.state_dict())
        with pytest.raises(StreamError):
            sharded.load_state_dict(sampler.state_dict())


_FORWARD = {"kind": "forward-sampler"}
_SHARDED = {"kind": "sharded-sampler", "entropy": 5, "next_chunk": 0}


@pytest.mark.parametrize("sampler_kind,state", [
    ("forward", {"kind": "forward-sampler", "engine": "cdf"}),
    ("forward", {**_FORWARD, "rng_state": "not-a-dict"}),
    ("forward", {**_FORWARD, "rng_state": {"bit_generator": "PCG64"}}),
    ("forward", {**_FORWARD, "rng_state": {"bit_generator": "NoSuchBG"}}),
    ("forward", {**_FORWARD, "engine": "reference", "rng_state": "valid"}),
    ("forward", ["not", "a", "dict"]),
    ("sharded", {"kind": "sharded-sampler", "next_chunk": 0}),
    ("sharded", {**_SHARDED, "entropy": "garbled"}),
    ("sharded", {**_SHARDED, "next_chunk": -3}),
    ("sharded", {**_SHARDED, "next_chunk": 1.5}),
    ("sharded", {**_SHARDED, "engine": "reference"}),
    ("sharded", {**_FORWARD, "rng_state": "valid"}),
])
def test_malformed_sampler_state_is_a_stream_error(alarm_net, sampler_kind,
                                                   state):
    if sampler_kind == "forward":
        sampler = ForwardSampler(alarm_net, seed=1)
    else:
        sampler = ShardedSampler(alarm_net, shards=1, seed=1, mode="serial")
    if isinstance(state, dict) and state.get("rng_state") == "valid":
        state = {**state, "rng_state": ForwardSampler(
            alarm_net, seed=0).state_dict()["rng_state"]}
    before = sampler.state_dict()
    with pytest.raises(StreamError):
        sampler.load_state_dict(state)
    # A refused state leaves the stream position untouched.
    assert sampler.state_dict() == before


class TestShardedSampler:
    def test_modes_and_shard_counts_byte_identical(self, alarm_net):
        m, chunk = 4_000, 600
        reference = ShardedSampler(
            alarm_net, shards=1, seed=7, mode="serial"
        ).sample(m, chunk=chunk)
        for mode in ("serial", "thread"):
            for shards in (2, 3):
                stream = ShardedSampler(
                    alarm_net, shards=shards, seed=7, mode=mode
                ).sample(m, chunk=chunk)
                assert np.array_equal(reference, stream), (mode, shards)

    def test_process_mode_byte_identical(self, alarm_net):
        m, chunk = 1_200, 400
        reference = ShardedSampler(
            alarm_net, shards=2, seed=7, mode="serial"
        ).sample(m, chunk=chunk)
        stream = ShardedSampler(
            alarm_net, shards=2, seed=7, mode="process"
        ).sample(m, chunk=chunk)
        assert np.array_equal(reference, stream)

    def test_statistical_identity(self, alarm_net):
        data = ShardedSampler(
            alarm_net, shards=2, seed=8, mode="thread"
        ).sample(40_000, chunk=10_000)
        assert max_cpd_chi2_z(alarm_net, data) < CHI2_Z_THRESHOLD

    def test_cursor_snapshot_resumes(self, alarm_net):
        sampler = ShardedSampler(alarm_net, shards=2, seed=9, mode="serial")
        stream = sampler.sample_stream(3_000, chunk=500)
        for _ in range(3):
            next(stream)
        snapshot = sampler.state_dict()
        tail = np.concatenate(list(stream))

        resumed = ShardedSampler(alarm_net, shards=3, seed=0, mode="thread")
        resumed.load_state_dict(snapshot)
        resumed_tail = resumed.sample(1_500, chunk=500)
        assert np.array_equal(tail, resumed_tail)

    def test_validation(self, alarm_net):
        with pytest.raises(StreamError):
            ShardedSampler(alarm_net, mode="fork")
        with pytest.raises(StreamError):
            ShardedSampler(alarm_net, seed=np.random.default_rng(0))
        assert SHARD_MODES == ("serial", "thread", "process")


class TestSessionIntegration:
    def test_session_sampler_feeds_ingest(self, alarm_net):
        def session():
            spec = EstimatorSpec(
                network=alarm_net, algorithm="exact", eps=0.3, n_sites=4,
                seed=13,
            )
            return MonitoringSession(spec, network=alarm_net)

        direct = session()
        direct.ingest_sampler(
            ForwardSampler(alarm_net, seed=5), 2_000, chunk=500
        )
        via_api = session()
        via_api.ingest_sampler(via_api.sampler(seed=5), 2_000, chunk=500)
        assert direct.total_messages == via_api.total_messages
        assert np.array_equal(
            direct.estimator.bank._local, via_api.estimator.bank._local
        )

    def test_session_sampler_sharded(self, alarm_net):
        spec = EstimatorSpec(
            network=alarm_net, algorithm="exact", eps=0.3, n_sites=4,
            seed=13,
        )
        serial = MonitoringSession(spec, network=alarm_net)
        serial.ingest_sampler(
            serial.sampler(seed=5, mode="serial", shards=2),
            2_000, chunk=500,
        )
        threaded = MonitoringSession(spec, network=alarm_net)
        threaded.ingest_sampler(
            threaded.sampler(seed=5, mode="thread", shards=2),
            2_000, chunk=500,
        )
        assert serial.total_messages == threaded.total_messages
        assert np.array_equal(
            serial.estimator.bank._local, threaded.estimator.bank._local
        )

