"""The paper-scale ingest fast path: encoder, threshold pass, zero-copy.

Pins the determinism contracts of the fast path:

- the encoder equivalence matrix — the sparse segment-sum encoder and
  the per-variable-loop reference of ``tests/ingest_oracle.py`` produce
  byte-identical counter ids, and the table ingest leaves every bank
  byte-identical to the reference ingest on ALARM and the LINK/MUNIN
  stand-ins;
- the deterministic counter bank's vectorized threshold pass is
  byte-identical to the scalar reference loop;
- ``bulk_add_table`` (the dense-histogram bank entry point) matches the
  per-site ``bulk_add_site`` walk and the ``bulk_add_grouped`` adapter
  for every bank;
- the fused zero-copy sampler/session path (``sample_into``,
  ``reuse_buffer`` streams, ``ingest_sampler``, ``validate=False``)
  reproduces the allocating path byte-for-byte, and both sessions
  refuse a sampler drawing another network's domains before anything
  moves;
- the partitioner fixes — ``site_shares`` no longer perturbs the live
  assignment stream, and the Zipf searchsorted draw matches the old
  ``rng.choice`` stream;
- ``strip_timing`` zeroes the measured ``wall_seconds`` and nothing else.
"""

import pickle

import numpy as np
import pytest

from ingest_oracle import (
    ScalarThresholdBank, bulk_add, reference_encode, reference_ingest,
)
from repro import EstimatorSpec, ForwardSampler, UniformPartitioner
from repro.bn.repository import link_like, munin_like, new_alarm
from repro.counters.deterministic import DeterministicCounterBank
from repro.counters.exact import ExactCounterBank
from repro.counters.hyz import HYZCounterBank
from repro.dist import DistributedSession
from repro.errors import CounterError, StreamError
from repro.experiments.results import strip_timing
from repro.monitoring.stream import (
    RoundRobinPartitioner,
    ZipfPartitioner,
    make_partitioner,
)
from test_sampler_fastpath import _random_net


@pytest.fixture(scope="module")
def link_net():
    return link_like()


@pytest.fixture(scope="module")
def munin_net():
    return munin_like()


def _workload(net, m, k, *, seed=0):
    data = ForwardSampler(net, seed=seed).sample(m)
    sites = UniformPartitioner(k, seed=seed + 1).assign(m)
    return data, sites


# ---------------------------------------------------------------------------
# Encoder equivalence matrix
# ---------------------------------------------------------------------------
def _net_by_name(name, alarm_net, link_net, munin_net):
    return {"alarm": alarm_net, "link": link_net, "munin": munin_net}[name]


@pytest.mark.parametrize("net_name", ["alarm", "link", "munin"])
def test_encoders_emit_identical_joint_ids(
    net_name, alarm_net, link_net, munin_net
):
    net = _net_by_name(net_name, alarm_net, link_net, munin_net)
    data, _ = _workload(net, 400, 4)
    sparse = EstimatorSpec(net, "exact", n_sites=4).build(network=net)
    joint_ref = reference_encode(sparse, data)[:, : net.n_variables]
    # The walk yields one row per variable, relative to the family block.
    rows = [
        ids.astype(np.int64) + block.start
        for _, block, ids in sparse._joint_id_rows(data, "sparse")
    ]
    assert np.array_equal(np.stack(rows, axis=1), joint_ref)


@pytest.mark.parametrize("net_name,m", [
    ("alarm", 2_000), ("link", 600), ("munin", 500),
])
@pytest.mark.parametrize("algorithm", ["exact", "nonuniform"])
def test_encoder_matrix_byte_identical_banks(
    net_name, m, algorithm, alarm_net, link_net, munin_net
):
    """The table ingest must match the reference ingest."""
    net = _net_by_name(net_name, alarm_net, link_net, munin_net)
    k = 5
    data, sites = _workload(net, m, k, seed=3)
    spec = EstimatorSpec(net, algorithm, eps=0.3, n_sites=k, seed=11)

    def run(reference):
        estimator = spec.build(network=net)
        # Two chunks so buffer reuse spans update calls.
        for chunk in (slice(None, m // 2), slice(m // 2, None)):
            if reference:
                reference_ingest(estimator, data[chunk], sites[chunk])
            else:
                estimator.update_batch(data[chunk], sites[chunk])
        return (
            estimator.bank._local.copy(),
            estimator.bank.estimates(),
            estimator.total_messages,
            estimator.bank.message_log.snapshot(),
        )

    expected, actual = run(True), run(False)
    assert np.array_equal(expected[0], actual[0])
    assert np.array_equal(expected[1], actual[1])
    assert expected[2] == actual[2]
    assert expected[3] == actual[3]


# ---------------------------------------------------------------------------
# Deterministic bank: vectorized threshold pass vs the scalar loop
# ---------------------------------------------------------------------------
def _deterministic_pair(n_counters, n_sites, eps):
    return (
        DeterministicCounterBank(n_counters, n_sites, eps),
        ScalarThresholdBank(n_counters, n_sites, eps),
    )


def test_deterministic_engines_byte_identical_random_traffic():
    rng = np.random.default_rng(19)
    eps = rng.uniform(0.02, 0.6, size=60)
    vectorized, scalar = _deterministic_pair(60, 7, eps)
    for _ in range(12):
        size = int(rng.integers(1, 200))
        counter_ids = rng.integers(0, 60, size=size)
        site_ids = rng.integers(0, 7, size=size)
        counts = rng.integers(1, 500, size=size)
        for bank in (vectorized, scalar):
            bulk_add(bank, counter_ids, site_ids, counts)
    assert np.array_equal(vectorized._local, scalar._local)
    assert np.array_equal(vectorized._reported, scalar._reported)
    assert np.array_equal(
        vectorized._next_threshold, scalar._next_threshold
    )
    assert np.array_equal(vectorized.estimates(), scalar.estimates())
    assert vectorized.total_messages == scalar.total_messages
    assert (
        vectorized.message_log.snapshot() == scalar.message_log.snapshot()
    )
    lower_v, upper_v = vectorized.guaranteed_bounds()
    lower_s, upper_s = scalar.guaranteed_bounds()
    assert np.array_equal(lower_v, lower_s)
    assert np.array_equal(upper_v, upper_s)


def test_deterministic_engines_identical_through_estimator(alarm_net):
    data, sites = _workload(alarm_net, 2_000, 6, seed=9)
    spec = EstimatorSpec(
        alarm_net, "uniform", eps=0.4, n_sites=6, seed=5,
        counter_backend="deterministic",
    )
    states = {}
    for name in ("vectorized", "scalar"):
        estimator = spec.build(network=alarm_net)
        if name == "scalar":
            bank = estimator.bank
            estimator.bank = ScalarThresholdBank(
                bank.n_counters, bank.n_sites, bank.eps,
                message_log=bank.message_log,
            )
        estimator.update_batch(data, sites)
        states[name] = (
            estimator.bank._local.copy(),
            estimator.bank.estimates(),
            estimator.total_messages,
        )
    vectorized, scalar = states["vectorized"], states["scalar"]
    assert np.array_equal(vectorized[0], scalar[0])
    assert np.array_equal(vectorized[1], scalar[1])
    assert vectorized[2] == scalar[2]


# ---------------------------------------------------------------------------
# bulk_add_table
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("bank_factory", [
    lambda: ExactCounterBank(40, 5),
    lambda: DeterministicCounterBank(40, 5, 0.25),
    lambda: ScalarThresholdBank(40, 5, 0.25),
    lambda: HYZCounterBank(40, 5, 0.3, seed=21),
])
def test_bulk_add_table_matches_grouped(bank_factory):
    rng = np.random.default_rng(33)
    via_table, via_triples, via_walk = (bank_factory() for _ in range(3))
    for _ in range(5):
        table = rng.integers(0, 30, size=(5, 40))
        table[rng.random(table.shape) < 0.4] = 0
        via_table.bulk_add_table(table)
        flat = np.flatnonzero(table)
        via_triples.bulk_add_grouped(
            flat // 40, flat % 40, table.ravel()[flat]
        )
        for site in range(5):
            ids = np.flatnonzero(table[site])
            if ids.size:
                via_walk.bulk_add_site(site, ids, table[site, ids])
    for other in (via_triples, via_walk):
        assert np.array_equal(via_table._local, other._local)
        assert np.array_equal(via_table.estimates(), other.estimates())
        assert via_table.total_messages == other.total_messages
        assert via_table.message_log.snapshot() == other.message_log.snapshot()


def test_bulk_add_table_validation():
    bank = ExactCounterBank(8, 3)
    with pytest.raises(CounterError):
        bank.bulk_add_table(np.zeros((2, 8), dtype=np.int64))
    with pytest.raises(CounterError):
        bank.bulk_add_table(np.full((3, 8), -1))
    bank.bulk_add_table(np.zeros((3, 8), dtype=np.int64))  # silent no-op
    assert bank.total_messages == 0


# ---------------------------------------------------------------------------
# Zero-copy sampling and fused session ingest
# ---------------------------------------------------------------------------
def test_sample_into_matches_sample(alarm_net):
    reference = ForwardSampler(alarm_net, seed=12).sample(500)
    buffer = np.empty((500, alarm_net.n_variables), dtype=np.int64)
    out = ForwardSampler(alarm_net, seed=12).sample_into(buffer)
    assert out is buffer
    assert np.array_equal(reference, buffer)
    # F-ordered buffers (the fused-pipeline layout) draw the same values.
    storage = np.empty((alarm_net.n_variables, 500), dtype=np.int64)
    ForwardSampler(alarm_net, seed=12).sample_into(storage.T)
    assert np.array_equal(reference, storage.T)
    with pytest.raises(StreamError):
        ForwardSampler(alarm_net, seed=12).sample_into(
            np.empty((5, 3), dtype=np.int64)
        )
    with pytest.raises(StreamError):
        ForwardSampler(alarm_net, seed=12).sample_into(
            np.empty((5, alarm_net.n_variables), dtype=np.int32)
        )


def test_sample_stream_reuse_buffer(alarm_net):
    reference = np.concatenate(
        list(ForwardSampler(alarm_net, seed=4).sample_stream(700, chunk=300))
    )
    chunks = []
    stream = ForwardSampler(alarm_net, seed=4).sample_stream(
        700, chunk=300, reuse_buffer=True
    )
    base = None
    for batch in stream:
        if base is not None:
            assert batch.base is base.base or batch.base is base
        base = batch
        chunks.append(batch.copy())  # views are overwritten next iteration
    assert [c.shape[0] for c in chunks] == [300, 300, 100]
    assert np.array_equal(np.concatenate(chunks), reference)


def test_ingest_sampler_matches_allocating_path(link_net):
    spec = EstimatorSpec(link_net, "nonuniform", eps=0.3, n_sites=4, seed=42)
    fused = spec.session()
    total = fused.ingest_sampler(
        ForwardSampler(link_net, seed=8), 900, chunk=400
    )
    assert total == 900
    reference = spec.session()
    reference.ingest_stream(
        ForwardSampler(link_net, seed=8).sample_stream(900, chunk=400)
    )
    assert np.array_equal(fused.estimates(), reference.estimates())
    assert fused.metrics() == reference.metrics()


class _Chunks:
    """A sampler stand-in without a ``network``: trusted as before."""

    def __init__(self, sampler):
        self.sample_stream = sampler.sample_stream


@pytest.mark.parametrize("runtime", ["in-process", "distributed"])
def test_ingest_sampler_refuses_another_networks_domains(runtime):
    """NEW-ALARM has ALARM's structure and domains up to 20; its chunks
    would be counted into another site's bins (or fail to reshape after
    the partitioner drew), so the sampler is refused up front."""
    spec = EstimatorSpec("alarm", "exact", n_sites=30, seed=3,
                         counter_backend="exact")
    if runtime == "in-process":
        session = spec.session()
    else:
        session = DistributedSession(spec, procs=1)
    foreign = ForwardSampler(new_alarm(), seed=1)

    def frozen():
        return pickle.dumps((
            session.estimator.bank.state_dict(),
            session.message_log.state_dict(),
            session.partitioner.state_dict(),
            session.events_seen,
            foreign.state_dict(),
        ))

    try:
        session.ingest_sampler(session.sampler(seed=2), 200, chunk=50)
        before = frozen()
        with pytest.raises(StreamError, match="domains differ"):
            session.ingest_sampler(foreign, 40, chunk=1)
        assert frozen() == before
        chunks = _Chunks(session.sampler(seed=4))
        assert session.ingest_sampler(chunks, 100, chunk=50) == 100
        assert session.events_seen == 300
    finally:
        if runtime == "distributed":
            session.close()


def test_narrow_batch_walked_in_place_equals_the_int64_walk():
    """An F-ordered uint8 batch is walked without a workspace copy, and
    its joint ids equal the int64 walk's where state x K passes 255
    (``C``: 19 x 60, ``D``: 8 x 600), so no multiply may run in uint8."""
    net = _random_net("wide walk", [
        ("A", 2, ()),
        ("B", 30, ("A",)),
        ("C", 20, ("B", "A")),
        ("D", 9, ("C", "B")),
    ])
    data = ForwardSampler(net, seed=4).sample(3_000)
    narrow = np.asfortranarray(data, dtype=np.uint8)
    estimator = EstimatorSpec(net, "exact", n_sites=2).build(network=net)
    walks = {}
    for workspace, batch in (("wide", data), ("narrow", narrow)):
        walks[workspace] = [
            (index, block, ids.copy())
            for index, block, ids in estimator._joint_id_rows(batch, workspace)
        ]
    assert "wide.dataT" in estimator._buffers
    assert "narrow.dataT" not in estimator._buffers
    assert max(int(ids.max()) for _, _, ids in walks["wide"]) > 255
    for (i, block, ids), (j, narrow_block, narrow_ids) in zip(
        walks["wide"], walks["narrow"], strict=True
    ):
        assert (i, block) == (j, narrow_block)
        assert np.array_equal(ids, narrow_ids), i


def test_update_batch_validate_flag(alarm_net):
    data, sites = _workload(alarm_net, 300, 4)
    spec = EstimatorSpec(alarm_net, "exact", n_sites=4, seed=1)
    checked = spec.build(network=alarm_net)
    checked.update_batch(data, sites)
    trusted = spec.build(network=alarm_net)
    trusted.update_batch(data, sites, validate=False)
    assert np.array_equal(checked.bank._local, trusted.bank._local)
    bad = data.copy()
    bad[0, 0] = 99
    with pytest.raises(StreamError):
        checked.update_batch(bad, sites)
    # Shape errors surface even without validation.
    with pytest.raises(StreamError):
        trusted.update_batch(data[:, :-1], sites, validate=False)


# ---------------------------------------------------------------------------
# Partitioner fixes
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", ["uniform", "zipf", "round-robin"])
def test_site_shares_does_not_perturb_stream(name):
    probe = make_partitioner(name, 6, seed=31)
    untouched = make_partitioner(name, 6, seed=31)
    probe.assign(100)
    untouched.assign(100)
    shares = probe.site_shares(2_000)
    assert shares.shape == (6,)
    assert shares.sum() == pytest.approx(1.0)
    # The live stream continues byte-identically after the probe.
    assert np.array_equal(probe.assign(300), untouched.assign(300))


@pytest.mark.parametrize("name", ["uniform", "zipf", "round-robin"])
def test_preview_matches_next_assign(name):
    partitioner = make_partitioner(name, 5, seed=13)
    partitioner.assign(57)
    upcoming = partitioner.preview(200)
    assert np.array_equal(upcoming, partitioner.assign(200))


def test_zipf_searchsorted_matches_choice_stream():
    """The precomputed-CDF draw consumes the identical uniform stream
    ``Generator.choice(p=...)`` did, so the site assignments match the
    pre-searchsorted implementation draw for draw."""
    partitioner = ZipfPartitioner(8, exponent=1.3, seed=99)
    reference_rng = np.random.default_rng(99)
    expected = reference_rng.choice(
        8, size=5_000, p=partitioner._probabilities
    )
    assert np.array_equal(partitioner.assign(5_000), expected)


def test_zipf_statistical_shares():
    partitioner = ZipfPartitioner(5, exponent=1.0, seed=3)
    shares = partitioner.site_shares(200_000)
    assert np.allclose(shares, partitioner._probabilities, atol=0.01)
    # Snapshot round-trip keeps the assignment stream byte-identical.
    state = partitioner.state_dict()
    first = partitioner.assign(400)
    partitioner.load_state_dict(state)
    assert np.array_equal(first, partitioner.assign(400))


def test_round_robin_site_shares_keeps_cursor():
    partitioner = RoundRobinPartitioner(4, start=2)
    partitioner.site_shares(10)
    assert np.array_equal(partitioner.assign(4), [2, 3, 0, 1])


# ---------------------------------------------------------------------------
# Timing canonicalization
# ---------------------------------------------------------------------------
def test_strip_timing_zeroes_wall_seconds_only():
    payload = {
        "wall_seconds": 1.5,
        "runtime": {"runtime_seconds": 42.0},
        "model": {"modeled_runtime_seconds": 3.0},
        "results": [{"wall_seconds": 9.9, "total_messages": 7}],
    }
    stripped = strip_timing(payload)
    assert stripped["wall_seconds"] == 0.0
    assert stripped["results"][0] == {"wall_seconds": 0.0, "total_messages": 7}
    # Modeled runtimes are deterministic functions of the descriptors and
    # must survive.
    assert stripped["runtime"]["runtime_seconds"] == 42.0
    assert stripped["model"]["modeled_runtime_seconds"] == 3.0
