"""Tests for the sampler fast path: draws, sharding, and snapshots.

The contract:

- **determinism** — for a fixed seed every drawing surface (``sample``,
  ``sample_into``, ``sample_stream`` with and without buffer reuse)
  produces byte-identical draws at the same batch-size sequence (the
  seed-0 LINK stream itself is frozen in ``tests/test_golden_pins.py``),
  and the live inversion loop draws exactly what the plain reference
  loop (``tests/sampler_oracle.py::reference_sample_into``) draws;
- **statistical identity** — the stream passes a per-CPD chi-squared
  goodness-of-fit against the ground-truth network, so the fast path
  cannot buy speed with a skewed distribution;
- **sharded equivalence** — the sharded parallel sampler draws the same
  stream across ``serial`` / ``thread`` / ``process`` modes and across
  shard counts (per-chunk child seeds, never worker identity);
- **snapshots** — both samplers restore mid-stream byte-identically and
  refuse, with :class:`StreamError`, any state they cannot continue.
"""

import functools
import hashlib
import math

import numpy as np
import pytest

from repro import (
    BayesianNetwork, EstimatorSpec, ForwardSampler, MonitoringSession,
    link_like,
)
from repro.bn.cpd import TabularCPD
from repro.bn.repository import munin_like
from repro.bn.variable import Variable
from repro.errors import StreamError
from repro.exec import SHARD_MODES, ShardedSampler
from repro.graph.dag import DAG
from sampler_oracle import (
    CHI2_Z_THRESHOLD, max_cpd_chi2_z, reference_sample_into,
)
from test_wire_widths import wide_net  # noqa: F401  (J = 300: packed root)


@pytest.fixture(scope="module")
def link_net():
    return link_like()


@pytest.fixture(scope="module")
def munin_net():
    return munin_like()


def _random_net(name, families):
    """``families`` is ``(variable, cardinality, parents)`` in topological
    order; CPD columns are seeded Dirichlet draws."""
    rng = np.random.default_rng(17)
    cards, variables, cpds, dag = {}, [], [], {}
    for variable, cardinality, parents in families:
        cards[variable] = cardinality
        parent_cards = tuple(cards[p] for p in parents)
        configs = math.prod(parent_cards)
        values = rng.dirichlet(np.ones(cardinality), size=configs).T
        cpds.append(TabularCPD(variable, cardinality, parents, parent_cards,
                               values))
        variables.append(Variable(variable, cardinality))
        dag[variable] = tuple(parents)
    return BayesianNetwork(DAG(dag), variables, cpds, name=name)


@pytest.fixture(scope="module")
def unit_net():
    """Cardinality-1 variables as root, child and parent (so a family can
    have only stride-1 parents), and wide (J > 32, packed-table) children
    with several parents and with one stride-1 parent."""
    return _random_net("unit", [
        ("A", 2, ()),
        ("U", 1, ()),
        ("B", 1, ("A",)),
        ("C", 3, ("A", "B")),
        ("D", 2, ("B",)),
        ("E", 40, ("A", "C")),
        ("F", 33, ("C",)),
        ("G", 5, ("E", "F", "A")),
    ])


@pytest.fixture(scope="module")
def roots_net():
    return _random_net("roots", [
        ("R1", 2, ()), ("R2", 5, ()), ("R3", 1, ()), ("R4", 40, ()),
    ])


@pytest.fixture(scope="module")
def wide_family_net():
    """J > 256 variables with and without parents (uint16 states),
    where a uint16 code would wrap: ``Y``'s parent ``W`` has stride 260
    (299 x 260 > 65 535, gather-and-count path) and the packed child
    ``V`` scales its lone parent by 300 (259 x 300 > 65 535)."""
    return _random_net("wide family", [
        ("A", 3, ()),
        ("W", 300, ("A",)),
        ("Z", 260, ()),
        ("Y", 3, ("W", "Z")),
        ("V", 300, ("Z",)),
    ])


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

    @pytest.mark.parametrize("dtype", [
        np.int32, np.uint16, np.int8, np.uint64, np.float64, bool,
    ])
    def test_other_dtypes_refused_before_drawing(self, alarm_net, dtype):
        # ALARM's state dtype is uint8: int64 and uint8 are the only
        # buffers it draws into.
        sampler = ForwardSampler(alarm_net, seed=5)
        before = sampler.state_dict()
        buffer = np.zeros((10, alarm_net.n_variables), dtype=dtype)
        with pytest.raises(StreamError, match="int64 or uint8 buffer"):
            sampler.sample_into(buffer)
        assert sampler.state_dict() == before
        assert not buffer.any()

    def test_read_only_buffer_refused_before_drawing(self, alarm_net):
        sampler = ForwardSampler(alarm_net, seed=5)
        before = sampler.state_dict()
        buffer = np.zeros((10, alarm_net.n_variables), dtype=np.int64)
        buffer.setflags(write=False)
        with pytest.raises(StreamError, match="writeable"):
            sampler.sample_into(buffer)
        assert sampler.state_dict() == before


@pytest.mark.parametrize("chunks", [(1, 1, 1), (20_000,)])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("net_fixture", [
    "alarm_net", "link_net", "munin_net", "wide_net", "unit_net", "roots_net",
])
def test_live_loop_matches_reference_loop(request, net_fixture, order, chunks):
    """Same bytes and generator state as the plain loop, chunk by chunk.

    Both sides fill one buffer (pre-filled with -1, so a skipped write
    shows) and are compared by digest, to hold one paper-scale chunk at a
    time; a packed-table draw that scaled its parent's column in place
    would change that column here.
    """
    net = request.getfixturevalue(net_fixture)
    live = ForwardSampler(net, seed=31)
    reference = ForwardSampler(net, seed=31)
    n = net.n_variables
    for m in chunks:
        storage = np.empty((n, m) if order == "F" else (m, n), np.int64)
        out = storage.T if order == "F" else storage
        digests = []
        for draw in (live.sample_into,
                     functools.partial(reference_sample_into, reference)):
            storage.fill(-1)
            assert draw(out) is out
            digests.append(hashlib.sha256(storage).hexdigest())
        assert digests[0] == digests[1], m
        assert live.state_dict() == reference.state_dict()


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("net_fixture, state_dtype", [
    ("alarm_net", np.uint8), ("link_net", np.uint8),
    ("unit_net", np.uint8),  # J = 40 and 33 children: packed tables
    ("wide_net", np.uint16), ("wide_family_net", np.uint16),
])
def test_narrow_buffer_draws_the_int64_values(request, net_fixture,
                                              state_dtype, order):
    """A buffer in the network's state dtype holds exactly the int64
    draw, generator state included, through every inversion path."""
    net = request.getfixturevalue(net_fixture)
    assert net.state_dtype == state_dtype
    narrow, wide = ForwardSampler(net, seed=23), ForwardSampler(net, seed=23)
    n = net.n_variables
    for m in (1, 2_000):
        drawn = []
        for sampler, dtype in ((narrow, state_dtype), (wide, np.int64)):
            storage = np.empty((n, m) if order == "F" else (m, n), dtype)
            out = storage.T if order == "F" else storage
            assert sampler.sample_into(out) is out
            drawn.append(out)
        assert np.array_equal(drawn[0], drawn[1]), m
        assert narrow.state_dict() == wide.state_dict()
    if state_dtype == np.uint16:
        assert int(drawn[1].max()) > 255


def test_reused_chunk_is_state_dtype_and_sample_stays_int64(wide_net):
    sampler = ForwardSampler(wide_net, seed=3)
    (chunk,) = sampler.sample_stream(50, chunk=50, reuse_buffer=True)
    assert chunk.dtype == np.uint16 and chunk.flags.f_contiguous
    assert ForwardSampler(wide_net, seed=3).sample(50).dtype == np.int64
    assert np.array_equal(chunk, ForwardSampler(wide_net, seed=3).sample(50))


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

