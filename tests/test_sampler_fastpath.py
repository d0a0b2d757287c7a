"""Tests for the sampler fast path: draws and snapshots.

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
- **snapshots** — the sampler restores mid-stream byte-identically and
  refuses, with :class:`StreamError`, any state it cannot continue.
"""

import functools
import hashlib
import json
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
from repro.dist import DistributedSession
from repro.errors import StreamError
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


@pytest.mark.parametrize("draw,error", [
    (lambda sampler: sampler.sample(0), ValueError),
    (lambda sampler: sampler.sample(1.5), TypeError),
    (lambda sampler: next(sampler.sample_stream(-4)), ValueError),
    (lambda sampler: next(sampler.sample_stream(100, chunk=0)), ValueError),
])
def test_batch_sizes_validated_before_drawing(alarm_net, draw, error):
    sampler = ForwardSampler(alarm_net, seed=6)
    before = sampler.state_dict()
    with pytest.raises(error):
        draw(sampler)
    assert sampler.state_dict() == before


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

    @pytest.mark.parametrize("reuse_buffer", [False, True])
    def test_cursor_snapshot_resumes(self, alarm_net, reuse_buffer):
        # A snapshot taken between chunks continues the chunked stream,
        # whether or not the chunks share one narrow buffer.
        sampler = ForwardSampler(alarm_net, seed=9)
        stream = sampler.sample_stream(3_000, chunk=500,
                                       reuse_buffer=reuse_buffer)
        for _ in range(3):
            next(stream)
        snapshot = sampler.state_dict()
        tail = np.concatenate([batch.copy() for batch in stream])

        resumed = ForwardSampler(alarm_net, seed=0)
        resumed.load_state_dict(snapshot)
        resumed_tail = np.concatenate([
            batch.copy() for batch in resumed.sample_stream(
                1_500, chunk=500, reuse_buffer=reuse_buffer)
        ])
        assert tail.shape == resumed_tail.shape == (1_500,
                                                    alarm_net.n_variables)
        assert np.array_equal(tail, resumed_tail)

    def test_snapshot_survives_json(self, alarm_net):
        sampler = ForwardSampler(alarm_net, seed=4)
        sampler.sample(250)
        snapshot = json.loads(json.dumps(sampler.state_dict()))
        expected = sampler.sample(400)
        resumed = ForwardSampler(alarm_net, seed=5)
        resumed.load_state_dict(snapshot)
        assert np.array_equal(resumed.sample(400), expected)

    def test_kind_mismatch_rejected(self, alarm_net):
        # A usable generator state is still refused under any other kind
        # (or none), and so is a counter bank's snapshot.
        sampler = ForwardSampler(alarm_net, seed=1)
        rng_state = ForwardSampler(alarm_net, seed=0).state_dict()[
            "rng_state"]
        bank = EstimatorSpec(alarm_net, "exact").session().estimator.bank
        before = sampler.state_dict()
        for state in ({"kind": "sharded-sampler", "rng_state": rng_state},
                      {"rng_state": rng_state},
                      bank.state_dict()):
            with pytest.raises(StreamError, match="forward-sampler"):
                sampler.load_state_dict(state)
        assert sampler.state_dict() == before


_FORWARD = {"kind": "forward-sampler"}


@pytest.mark.parametrize("state", [
    {"kind": "forward-sampler", "engine": "cdf"},
    {**_FORWARD, "rng_state": "not-a-dict"},
    {**_FORWARD, "rng_state": {"bit_generator": "PCG64"}},
    {**_FORWARD, "rng_state": {"bit_generator": "NoSuchBG"}},
    {**_FORWARD, "engine": "reference", "rng_state": "valid"},
    ["not", "a", "dict"],
    # A bundle written while the library had a sharded sampler.
    {"kind": "sharded-sampler", "entropy": 5, "next_chunk": 0},
])
def test_malformed_sampler_state_is_a_stream_error(alarm_net, state):
    sampler = ForwardSampler(alarm_net, seed=1)
    if isinstance(state, dict) and state.get("rng_state") == "valid":
        state = {**state, "rng_state": ForwardSampler(
            alarm_net, seed=0).state_dict()["rng_state"]}
    before = sampler.state_dict()
    with pytest.raises(StreamError):
        sampler.load_state_dict(state)
    # A refused state leaves the stream position untouched.
    assert sampler.state_dict() == before


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

    @pytest.mark.parametrize("runtime", ["in-process", "distributed"])
    def test_session_sampler_is_a_seeded_forward_sampler(self, alarm_net,
                                                         runtime):
        spec = EstimatorSpec(network=alarm_net, algorithm="exact", n_sites=4,
                             seed=13)
        if runtime == "in-process":
            session = MonitoringSession(spec, network=alarm_net)
        else:
            session = DistributedSession(spec, procs=1)
        try:
            sampler = session.sampler(seed=5)
            assert type(sampler) is ForwardSampler
            assert sampler.network is session.network
            assert np.array_equal(
                sampler.sample(300),
                ForwardSampler(alarm_net, seed=5).sample(300),
            )
            # The sharding options are gone from both sessions.
            for removed in ({"shards": 2}, {"mode": "auto"}):
                with pytest.raises(TypeError):
                    session.sampler(seed=5, **removed)
        finally:
            if runtime == "distributed":
                session.close()
