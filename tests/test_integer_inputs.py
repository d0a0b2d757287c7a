"""Only integers are state indices and site ids.

An int64 cast truncates a float batch — state 0.9 would be counted as
state 0, site 1.7 as site 1 — and accepts bool and object arrays.  Every
ingest and batch-read entry point therefore refuses a non-integer dtype
before anything moves: ``StreamError`` from both sessions' ``ingest``
(whatever ``validate`` says) and from the estimator's own
``update_batch``, ``QueryError`` from the query paths (the network's
``log_probability_batch`` and the classifier's ``error_rate`` included).
``bool`` is refused too: ``True`` is not a state index, as it is not a
count in a snapshot's message tallies.  The counter banks' entry points
refuse the same arrays (ids, counts, tables) and any site that is not an
``int`` or a numpy integer with ``CounterError``: a float site used to
land on its truncation, and a float table to add its truncated zeros.

The mapping forms (``{name: state}`` assignments, events and evidence)
resolve each entry through ``Variable.state_index``, which refuses the
same values one at a time — a float (0.5 used to read as state 0),
``bool`` and numpy floats — and raises ``QueryError``, not a bare
``ValueError``, for an unknown label or out-of-range index.
"""

import pickle

import numpy as np
import pytest

from inference_oracle import VariableElimination
from repro import (
    DeterministicCounterBank, EstimatorSpec, ExactCounterBank, ForwardSampler,
    HYZCounterBank, MonitoringSession,
)
from repro.dist import DistributedSession
from repro.errors import CounterError, QueryError, StreamError

#: Each maps a valid integer array to one a cast would have accepted.
NON_INTEGER = {
    "fractional-float": lambda a: a.astype(np.float64) + 0.25,
    "integer-valued-float": lambda a: a.astype(np.float64),
    "object": lambda a: a.astype(object),
    "bool": lambda a: a > 0,
}


def _spec():
    return EstimatorSpec("alarm", "nonuniform", eps=0.2, n_sites=4, seed=7)


@pytest.fixture(scope="module")
def batch(alarm_net):
    return ForwardSampler(alarm_net, seed=3).sample(60)


def _frozen(session) -> bytes:
    """Bank (RNG included), message log, partitioner, stream position."""
    return pickle.dumps((
        session.estimator.bank.state_dict(),
        session.message_log.state_dict(),
        session.partitioner.state_dict(),
        session.events_seen,
    ))


@pytest.mark.parametrize("kind", list(NON_INTEGER))
@pytest.mark.parametrize("validate", [True, False])
def test_session_ingest_refuses_non_integer_data(batch, kind, validate):
    session = MonitoringSession(_spec())
    session.ingest(batch[:20])
    before = _frozen(session)
    bad = NON_INTEGER[kind](batch[20:])
    with pytest.raises(StreamError, match="integers"):
        session.ingest(bad, validate=validate)
    with pytest.raises(StreamError, match="integers"):
        session.ingest(bad[0], validate=validate)  # one promoted event
    assert _frozen(session) == before


@pytest.mark.parametrize("kind", list(NON_INTEGER))
@pytest.mark.parametrize("validate", [True, False])
def test_session_ingest_refuses_non_integer_sites(batch, kind, validate):
    session = MonitoringSession(_spec())
    session.ingest(batch[:20])
    before = _frozen(session)
    sites = NON_INTEGER[kind](np.arange(40) % 4)
    with pytest.raises(StreamError, match="site_ids"):
        session.ingest(batch[20:], sites, validate=validate)
    assert _frozen(session) == before


def test_list_input_and_integer_widths(batch):
    # A list of floats is refused like an array (0.2 and 1.7 used to
    # land on sites 0 and 1); integers of any width still go in.
    session = MonitoringSession(_spec())
    with pytest.raises(StreamError, match="site_ids"):
        session.ingest(batch[:2], [0.2, 1.7])
    assert session.events_seen == 0
    assert session.ingest(batch[:2].astype(np.uint8), np.array(
        [0, 1], dtype=np.int16)) == 2


def test_distributed_ingest_refuses_before_dispatch(batch):
    with DistributedSession(_spec(), procs=2) as dist:
        dist.ingest(batch[:20])
        dist.flush()
        partitioner = dist.partitioner.state_dict()
        frames = dist.wire_stats()["batch_frames_sent"]
        for kind, bad in NON_INTEGER.items():
            for validate in (True, False):
                with pytest.raises(StreamError, match="integers"):
                    dist.ingest(bad(batch[20:]), validate=validate)
                with pytest.raises(StreamError, match="site_ids"):
                    dist.ingest(batch[20:], bad(np.arange(40) % 4),
                                validate=validate)
        assert dist._seq == dist._applied_seq == 1
        assert not dist._rounds
        assert dist.wire_stats()["batch_frames_sent"] == frames
        assert dist.partitioner.state_dict() == partitioner
        assert dist.events_seen == 20


@pytest.mark.parametrize("kind", list(NON_INTEGER))
def test_batch_reads_refuse_non_integer_rows(alarm_net, batch, kind):
    session = MonitoringSession(_spec())
    session.ingest(batch)
    server = session.serve()
    rows = NON_INTEGER[kind](batch[:5])
    targets = [alarm_net.node_names[0]] * len(rows)
    for strict in (False, True):
        with pytest.raises(QueryError, match="integers"):
            session.log_query_batch(rows, strict=strict)
        with pytest.raises(QueryError, match="integers"):
            server.log_joint_batch(rows, strict=strict)
    with pytest.raises(QueryError, match="integers"):
        session.log_query(rows[0])
    with pytest.raises(QueryError, match="integers"):
        session.classifier().predict_batch(targets, rows)
    with pytest.raises(QueryError, match="integers"):
        server.classify_batch(targets, rows)
    assert server.snapshot_refreshes == 0
    assert server.queries_served == 0


@pytest.mark.parametrize("kind", list(NON_INTEGER))
def test_estimator_update_batch_refuses_non_integers(batch, kind):
    # 0.7 and sites [1.7, 2.9] used to count two all-state-0 events at
    # sites 1 and 2.
    estimator = _spec().build()
    estimator.update_batch(batch[:20], np.arange(20) % 4)
    before = _bank_frozen(estimator.bank)
    bad = NON_INTEGER[kind]
    with pytest.raises(StreamError, match="event data"):
        estimator.update_batch(bad(batch[20:22]), [1, 2])
    with pytest.raises(StreamError, match="site_ids"):
        estimator.update_batch(batch[20:22], bad(np.array([1, 2])))
    assert _bank_frozen(estimator.bank) == before
    assert estimator.events_seen == 20
    # Any integer width goes in uncopied, as int64 would.
    estimator.update_batch(batch[20:22].astype(np.uint8),
                           np.array([1, 2], dtype=np.int16))
    assert estimator.events_seen == 22


@pytest.mark.parametrize("kind", list(NON_INTEGER))
def test_offline_batch_entry_points_refuse_non_integers(alarm_net, batch,
                                                        kind):
    from repro.core.classification import BayesianClassifier

    rows = NON_INTEGER[kind](batch[:5])
    with pytest.raises(QueryError, match="integers"):
        alarm_net.log_probability_batch(rows)
    targets = [alarm_net.node_names[0]] * len(rows)
    with pytest.raises(QueryError, match="integers"):
        BayesianClassifier(alarm_net).error_rate(targets, rows)


# ----------------------------------------------------------------------
# Counter-bank entry points
# ----------------------------------------------------------------------
BANKS = {
    "exact": lambda: ExactCounterBank(10, 3),
    "deterministic": lambda: DeterministicCounterBank(10, 3, 0.2),
    "hyz": lambda: HYZCounterBank(10, 3, 0.2, seed=5),
}

IDS, COUNTS = np.array([2, 5]), np.array([3, 1])
SITES = np.array([0, 1])


def _table():
    table = np.zeros((3, 10), dtype=np.int64)
    table[1, [2, 5]] = [3, 1]
    return table


#: Each applies a valid call with one argument made non-integer by
#: ``bad``; the ``bulk_add_sites`` cases put it behind a valid slice.
BANK_CALLS = {
    "bulk_add_site-ids": lambda b, bad: b.bulk_add_site(1, bad(IDS), COUNTS),
    "bulk_add_site-counts":
        lambda b, bad: b.bulk_add_site(1, IDS, bad(COUNTS)),
    "bulk_add_sites-ids": lambda b, bad: b.bulk_add_sites(
        [(0, IDS, COUNTS), (1, bad(IDS), COUNTS)]),
    "bulk_add_sites-counts": lambda b, bad: b.bulk_add_sites(
        [(0, IDS, COUNTS), (1, IDS, bad(COUNTS))]),
    "bulk_add_table": lambda b, bad: b.bulk_add_table(bad(_table())),
    "bulk_add_table-unchecked":
        lambda b, bad: b.bulk_add_table(bad(_table()), check=False),
    "bulk_add_grouped-sites":
        lambda b, bad: b.bulk_add_grouped(bad(SITES), IDS, COUNTS),
    "bulk_add_grouped-ids":
        lambda b, bad: b.bulk_add_grouped(SITES, bad(IDS), COUNTS),
    "bulk_add_grouped-counts":
        lambda b, bad: b.bulk_add_grouped(SITES, IDS, bad(COUNTS)),
}

#: Sites a cast would have accepted: 1.7 landed on site 1, as did True.
BAD_SITES = {
    "fractional-float": 1.7,
    "integer-valued-float": 1.0,
    "np.float64": np.float64(1.0),
    "bool": True,
    "np.bool_": np.bool_(True),
}


def _bank_frozen(bank) -> bytes:
    """Every byte of protocol state, RNG and message log included."""
    return pickle.dumps((bank.state_dict(), bank.message_log.state_dict()))


def _live_bank(backend):
    bank = BANKS[backend]()
    bank.bulk_add_site(0, np.arange(10), np.full(10, 30))
    return bank


@pytest.mark.parametrize("backend", sorted(BANKS))
@pytest.mark.parametrize("kind", list(NON_INTEGER))
@pytest.mark.parametrize("call", list(BANK_CALLS))
def test_bank_entry_points_refuse_non_integer_arrays(backend, kind, call):
    bank = _live_bank(backend)
    before = _bank_frozen(bank)
    with pytest.raises(CounterError, match="integers"):
        BANK_CALLS[call](bank, NON_INTEGER[kind])
    assert _bank_frozen(bank) == before
    # The valid twin still applies, so the refusal left nothing behind.
    BANK_CALLS[call](bank, lambda a: a)
    assert _bank_frozen(bank) != before


@pytest.mark.parametrize("backend", sorted(BANKS))
@pytest.mark.parametrize("kind", list(BAD_SITES))
def test_bank_entry_points_refuse_non_integer_sites(backend, kind):
    bank = _live_bank(backend)
    before = _bank_frozen(bank)
    site = BAD_SITES[kind]
    with pytest.raises(CounterError, match="site"):
        bank.bulk_add_site(site, IDS, COUNTS)
    with pytest.raises(CounterError, match="site"):
        bank.bulk_add_sites([(0, IDS, COUNTS), (site, IDS, COUNTS)])
    assert _bank_frozen(bank) == before
    for site in (1, np.int64(1), np.uint8(1)):
        bank.bulk_add_site(site, IDS, COUNTS)
    assert np.array_equal(bank.true_totals()[IDS], 30 + 3 * COUNTS)


# ----------------------------------------------------------------------
# Mapping forms: one entry at a time through Variable.state_index
# ----------------------------------------------------------------------
#: Each maps a variable and one of its valid states to a mapping entry
#: that a cast would have accepted, or that raised a bare ValueError.
BAD_STATES = {
    "fractional-float": lambda var, state: state + 0.5,
    "integer-valued-float": lambda var, state: float(state),
    "bool": lambda var, state: True,
    "np.float64": lambda var, state: np.float64(state),
    "out-of-range": lambda var, state: var.cardinality,
    "unknown-label": lambda var, state: "no-such-state",
}


@pytest.fixture(scope="module")
def mapping_case(alarm_net, batch):
    """A trained session, its server, a full assignment as a mapping,
    the classification target and the variable whose entry goes bad
    (a parent, so both the parent and the child lookups see it)."""
    session = MonitoringSession(
        EstimatorSpec("alarm", "exact", n_sites=4, seed=7,
                      counter_backend="exact")
    )
    session.ingest(ForwardSampler(alarm_net, seed=5).sample(500))
    event = {name: int(v) for name, v in zip(alarm_net.node_names, batch[0])}
    bad_name = next(n for n in alarm_net.node_names
                    if alarm_net.dag.children(n))
    target = next(n for n in alarm_net.node_names if n != bad_name)
    return session, session.serve(), event, target, bad_name


def _mapping_entry_points(session, server, target, net):
    engine = VariableElimination(net)

    def evidence(event):
        return {k: v for k, v in event.items() if k != target}

    return {
        "log_query": session.log_query,
        "query": session.query,
        "query_event": session.query_event,
        "served-log_joint": server.log_joint,
        "served-log_event": server.log_event,
        "served-classify": lambda e: server.classify(target, evidence(e)),
        "classifier": lambda e: session.classifier().predict(
            target, evidence(e)),
        "inference": lambda e: engine.query([target], evidence(e)).values,
    }


MAPPING_ENTRY_POINTS = [
    "log_query", "query", "query_event", "served-log_joint",
    "served-log_event", "served-classify", "classifier", "inference",
]


@pytest.mark.parametrize("kind", list(BAD_STATES))
@pytest.mark.parametrize("entry", MAPPING_ENTRY_POINTS)
def test_mapping_states_refuse_non_integers(alarm_net, mapping_case,
                                            entry, kind):
    session, server, event, target, bad_name = mapping_case
    call = _mapping_entry_points(session, server, target, alarm_net)[entry]
    var = alarm_net.variable(bad_name)
    bad = {**event, bad_name: BAD_STATES[kind](var, event[bad_name])}
    with pytest.raises(QueryError, match=repr(bad_name)):
        call(bad)


@pytest.mark.parametrize("entry", MAPPING_ENTRY_POINTS)
def test_mapping_states_accept_numpy_integers_and_labels(
    alarm_net, mapping_case, entry
):
    session, server, event, target, _ = mapping_case
    call = _mapping_entry_points(session, server, target, alarm_net)[entry]
    expected = call(event)
    as_numpy = {k: np.int64(v) for k, v in event.items()}
    as_labels = {k: alarm_net.variable(k).states[v] for k, v in event.items()}
    for form in (as_numpy, as_labels):
        assert np.array_equal(call(form), expected)
