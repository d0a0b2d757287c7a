"""A site worker's reports, pinned against the per-site reference.

``SiteShard.encode`` counts its sub-batch through the estimator's
``count_table`` over its hosted sites' rows and ships each row's
non-zero entries.  Each report must equal the per-site-mask slices of
``tests/ingest_oracle.py::reference_site_slices`` — site order, ids,
counts — in the narrow wire dtypes, on ALARM and the LINK/MUNIN
stand-ins, for the first and the last of the coordinator's contiguous
shards.  The WAL a durable session writes from those reports is pinned
to the bytes the earlier per-site (argsort) grouping wrote.
"""

import hashlib

import numpy as np
import pytest

from ingest_oracle import reference_site_slices
from repro import EstimatorSpec, ForwardSampler, UniformPartitioner, alarm
from repro.bn.repository import network_by_name
from repro.dist import DistributedSession, SiteShard
from repro.dist.recovery import WAL_NAME

#: network -> (k, events per round): the benchmark's round shapes, cut
#: down so the per-variable reference stays cheap.
CASES = {"alarm": (8, 500), "link": (10, 300), "munin": (30, 200)}
SHARDS = 3


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    name = request.param
    k, m = CASES[name]
    net = network_by_name(name)
    data = ForwardSampler(net, seed=5).sample(m)
    sites = UniformPartitioner(k, seed=6).assign(m)
    reference = EstimatorSpec(net, "exact", n_sites=k).build(network=net)
    return net, k, data, sites, reference


def _shards(k):
    """Hosted sites of the first and the last shard, as the coordinator
    lays them out: contiguous and ascending."""
    bounds = np.linspace(0, k, SHARDS + 1).astype(np.int64)
    return [range(int(bounds[0]), int(bounds[1])),
            range(int(bounds[-2]), int(bounds[-1]))]


def _assert_reports_match(net, k, reference, hosted, data, sites):
    spec = EstimatorSpec(net, "nonuniform", eps=0.1, n_sites=k, seed=1)
    shard = SiteShard(spec, hosted, network=net)
    wire = data.astype(net.state_dtype)
    aggregates = shard.encode(3, wire, sites)
    expected = reference_site_slices(reference, data, sites)
    assert [a.site for a in aggregates] == [s for s, _, _ in expected]
    id_dtype = np.min_scalar_type(reference.n_counters - 1)
    count_dtype = np.min_scalar_type(data.shape[0])
    for agg, (site, ids, counts) in zip(aggregates, expected):
        assert agg.counter_ids.dtype == id_dtype
        assert agg.counts.dtype == count_dtype
        assert np.array_equal(agg.counter_ids, ids)
        assert np.array_equal(agg.counts, counts)
        assert agg.n_events == int(np.sum(sites == site))
    assert shard.events_seen == data.shape[0]
    assert shard.next_seq == 4
    return aggregates


@pytest.mark.parametrize("which", ["first", "last"])
def test_round_matches_reference_slices(case, which):
    net, k, data, sites, reference = case
    hosted = _shards(k)[0 if which == "first" else 1]
    mask = np.isin(sites, hosted)
    aggregates = _assert_reports_match(
        net, k, reference, hosted, data[mask], sites[mask])
    assert [a.site for a in aggregates] == list(hosted)


def test_shard_counts_without_a_bank(case):
    """A shard's estimator only counts: it holds no counter bank, its
    table has one row per hosted site, and its reports are unchanged."""
    net, k, data, sites, reference = case
    hosted = _shards(k)[1]
    spec = EstimatorSpec(net, "nonuniform", eps=0.1, n_sites=k, seed=1)
    shard = SiteShard(spec, hosted, network=net)
    assert shard.estimator.bank is None
    assert shard.estimator.n_sites == len(hosted)
    mask = np.isin(sites, hosted)
    shard.encode(1, data[mask].astype(net.state_dtype), sites[mask])
    assert shard.estimator._buffers["dense.table"].shape == (
        len(hosted), reference.n_counters)
    _assert_reports_match(net, k, reference, hosted, data[mask], sites[mask])


@pytest.mark.parametrize("which", ["first", "last"])
def test_silent_hosted_site_is_omitted(case, which):
    net, k, data, sites, reference = case
    hosted = _shards(k)[0 if which == "first" else 1]
    silent = hosted[1]
    mask = np.isin(sites, hosted) & (sites != silent)
    aggregates = _assert_reports_match(
        net, k, reference, hosted, data[mask], sites[mask])
    assert [a.site for a in aggregates] == [s for s in hosted if s != silent]


@pytest.mark.parametrize("which", ["first", "last"])
def test_one_event_round(case, which):
    net, k, data, sites, reference = case
    hosted = _shards(k)[0 if which == "first" else 1]
    one = np.array([hosted[-1]])
    (aggregate,) = _assert_reports_match(
        net, k, reference, hosted, data[:1], one)
    # One event touches one joint and one parent counter per variable,
    # once each (distinct families never share an id).
    assert aggregate.counter_ids.size == 2 * net.n_variables
    assert aggregate.counts.dtype == np.uint8 and set(aggregate.counts) == {1}


#: A seeded durable ALARM HYZ run (k = 4, two workers, eight 200-event
#: rounds, fsync off): total bytes and sha256 of the WAL file read after
#: every round, as written when workers grouped by argsort.
WAL_PIN = (
    269_555,
    "9b6434985e87b1506391f28ea451445a44abe15dbd92aa3e60ae0e307abfe1f9",
)


def test_durable_run_writes_the_pinned_wal_bytes(tmp_path):
    net = alarm()
    spec = EstimatorSpec(net, "nonuniform", eps=0.1, n_sites=4, seed=1,
                         counter_backend="hyz")
    sampler = ForwardSampler(net, seed=0)
    wal = tmp_path / "wal"
    digest, total = hashlib.sha256(), 0
    with DistributedSession(spec, network=net, procs=2, wal_dir=str(wal),
                            wal_fsync="off") as dist:
        for _ in range(8):
            dist.ingest(sampler.sample(200), validate=False)
            dist.flush()
            written = (wal / WAL_NAME).read_bytes()
            total += len(written)
            digest.update(written)
    assert (total, digest.hexdigest()) == WAL_PIN
