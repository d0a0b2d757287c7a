"""Every batch entry point reads a batch alike in any memory layout.

``ForwardSampler.sample`` returns an F-ordered (variable-major) batch;
callers may also hand in C-ordered copies or strided views.  For each
layout of :func:`batch_layouts.layouts`, ingest must leave bitwise-equal
bank, message-log and stream state (in-process, and conformant across
the distributed runtime), and every batch read must return
bitwise-equal answers.  An out-of-range state must raise the same typed
error in every layout.
"""

import pickle

import numpy as np
import pytest

from batch_layouts import layouts
from repro import EstimatorSpec, ForwardSampler, MonitoringSession
from repro.dist import DistributedSession
from repro.errors import QueryError, StreamError
from repro.serve import QueryWorkload
from test_dist import assert_conformant

#: 700 rows: two whole 256-row transpose blocks and a partial one.
ROWS = 700


def _spec():
    return EstimatorSpec("alarm", "nonuniform", eps=0.2, n_sites=4, seed=11)


@pytest.fixture(scope="module")
def rows(alarm_net):
    return ForwardSampler(alarm_net, seed=5).sample(ROWS)


def _same_bytes(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _state(session) -> bytes:
    return pickle.dumps((
        session.estimator.bank.state_dict(),
        session.message_log.state_dict(),
        session.partitioner.state_dict(),
        session.events_seen,
    ))


def test_sample_is_f_ordered_and_draws_the_sample_into_stream(alarm_net):
    drawn = ForwardSampler(alarm_net, seed=9)
    into = ForwardSampler(alarm_net, seed=9)
    for m in (1, 300, 700):
        batch = drawn.sample(m)
        assert batch.flags.f_contiguous and batch.dtype == np.int64
        buffer = np.empty((m, alarm_net.n_variables), dtype=np.int64)
        assert np.array_equal(batch, into.sample_into(buffer))
        assert drawn.state_dict() == into.state_dict()


@pytest.mark.parametrize("validate", [True, False])
def test_session_ingest_same_state_in_every_layout(rows, validate):
    states = {}
    for name, data in layouts(rows).items():
        session = MonitoringSession(_spec())
        session.ingest(data[:300], validate=validate)
        session.ingest(data[300:], validate=validate)
        states[name] = _state(session)
    assert len(set(states.values())) == 1, sorted(states)


def test_distributed_ingest_conformant_in_every_layout(rows):
    ref = MonitoringSession(_spec())
    ref.ingest(rows)
    for name, data in layouts(rows).items():
        with DistributedSession(_spec(), procs=2) as dist:
            dist.ingest(data)
            dist.flush()
            assert_conformant(ref, dist)


def test_batch_reads_same_answers_in_every_layout(alarm_net, rows):
    session = MonitoringSession(_spec())
    session.ingest(rows)
    targets, queries = QueryWorkload(alarm_net, seed=4).classification_batch(
        200, pool_size=40
    )
    reads = {
        "log_query_batch": session.log_query_batch,
        "log_query_batch-strict":
            lambda d: session.log_query_batch(d, strict=True),
        "serve-log_joint_batch": lambda d: session.serve().log_joint_batch(d),
        "serve-classify_batch":
            lambda d: session.serve().classify_batch(targets, d),
        "predict_batch":
            lambda d: session.classifier().predict_batch(targets, d),
        "log_probability_batch": alarm_net.log_probability_batch,
    }
    for read, call in reads.items():
        want = call(np.ascontiguousarray(queries))
        for name, data in layouts(queries).items():
            assert _same_bytes(call(data), want), (read, name)


def test_out_of_range_state_same_error_in_every_layout(alarm_net, rows):
    bad = np.array(rows[:40])
    bad[17, 5] = alarm_net.cardinalities()[5]
    session = MonitoringSession(_spec())
    session.ingest(rows[:100])
    before = _state(session)
    targets = [alarm_net.node_names[0]] * len(bad)
    calls = {
        # The partitioner draws sites only after the range scan, so a
        # refused batch leaves its stream (part of ``_state``) alone.
        "ingest": (StreamError, session.ingest),
        "log_query_batch": (QueryError, session.log_query_batch),
        "serve-log_joint_batch":
            (QueryError, lambda d: session.serve().log_joint_batch(d)),
        "predict_batch": (QueryError,
                          lambda d: session.classifier().predict_batch(
                              targets, d)),
        "log_probability_batch":
            (QueryError, alarm_net.log_probability_batch),
    }
    for entry, (error, call) in calls.items():
        messages = set()
        for name, data in layouts(bad).items():
            with pytest.raises(error) as raised:
                call(data)
            messages.add(str(raised.value))
        assert len(messages) == 1, (entry, messages)
    assert _state(session) == before


def test_refused_batch_leaves_the_assignment_stream(alarm_net, rows):
    """A batch refused for an out-of-range state moves no session state:
    in-process and distributed, the partitioner has drawn no sites, and
    the stream continues as if the batch was never offered."""
    bad = np.array(rows[:40])
    bad[17, 5] = alarm_net.cardinalities()[5]
    ref = MonitoringSession(_spec())
    ref.ingest(rows[:100])
    ref.ingest(rows[100:])
    session = MonitoringSession(_spec())
    session.ingest(rows[:100])
    before = _state(session)
    with pytest.raises(StreamError, match="out-of-range state"):
        session.ingest(bad)
    assert _state(session) == before
    session.ingest(rows[100:])
    assert _state(session) == _state(ref)
    with DistributedSession(_spec(), procs=2) as dist:
        dist.ingest(rows[:100])
        before = dist.partitioner.state_dict()
        with pytest.raises(StreamError, match="out-of-range state"):
            dist.ingest(bad)
        assert dist.partitioner.state_dict() == before
        dist.ingest(rows[100:])
        dist.flush()
        assert_conformant(ref, dist)
        assert dist.partitioner.state_dict() == ref.partitioner.state_dict()
