"""Regression pinning: the table ingest leaves banks byte-identical.

``update_batch`` counts a batch into one per-site table and applies it
whole; that must reproduce the per-site-mask reference ingest
(``tests/ingest_oracle.py``) exactly — including the randomized HYZ
bank, whose RNG stream must be consumed in the order the per-site walk
consumes it.  "Exactly" means the whole ``bank.state_dict()`` (every
protocol array plus the bit-generator state) and the whole
``message_log.state_dict()``, sync epoch included, which the reference
walk advances once per site record.
"""

import numpy as np
import pytest

from ingest_oracle import assert_states_equal, reference_ingest
from repro import EstimatorSpec, ForwardSampler, UniformPartitioner, link_like


def make_estimator(net, algorithm, **kwargs):
    return EstimatorSpec(net, algorithm, **kwargs).build()


def _ingest(estimator, data, sites, reference: bool) -> None:
    if reference:
        reference_ingest(estimator, data, sites)
    else:
        estimator.update_batch(data, sites)


def _states_after(net, algorithm, reference, *, eps=0.3, k=10, m=3_000,
                  seed=7):
    estimator = make_estimator(net, algorithm, eps=eps, n_sites=k, seed=seed)
    data = ForwardSampler(net, seed=1).sample(m)
    sites = UniformPartitioner(k, seed=2).assign(m)
    # Two chunks so round transitions span update calls.
    for chunk in (slice(None, m // 2), slice(m // 2, None)):
        _ingest(estimator, data[chunk], sites[chunk], reference)
    return estimator.bank.state_dict(), estimator.bank.message_log.state_dict()


@pytest.mark.parametrize("algorithm", ["exact", "nonuniform", "baseline"])
def test_table_ingest_byte_identical(alarm_net, algorithm):
    bank_ref, log_ref = _states_after(alarm_net, algorithm, True)
    bank, log = _states_after(alarm_net, algorithm, False)
    assert_states_equal(bank_ref, bank, "bank")
    assert_states_equal(log_ref, log, "log")


def test_link_paper_chunk_dense_ingest_byte_identical():
    """One ``inproc_link``-sized chunk: 20 000 LINK rows, k = 10,
    NONUNIFORM, through the per-family dense histogram."""
    net = link_like()
    data = ForwardSampler(net, seed=1).sample(20_000)
    sites = UniformPartitioner(10, seed=2).assign(20_000)
    states = []
    for reference in (True, False):
        estimator = make_estimator(net, "nonuniform", eps=0.1, n_sites=10,
                                   seed=7)
        _ingest(estimator, data, sites, reference)
        states.append((estimator.bank.state_dict(),
                       estimator.bank.message_log.state_dict()))
    assert_states_equal(states[0][0], states[1][0], "bank")
    assert_states_equal(states[0][1], states[1][1], "log")


@pytest.mark.parametrize("m", [1, 7, 2_000])
def test_deterministic_backend_table_ingest_identical(alarm_net, m):
    """Down to a 1-event batch, where the table is nearly all zeros."""
    data = ForwardSampler(alarm_net, seed=3).sample(m)
    sites = UniformPartitioner(6, seed=4).assign(m)
    states = []
    for reference in (True, False):
        estimator = make_estimator(
            alarm_net, "uniform", eps=0.4, n_sites=6, seed=5,
            counter_backend="deterministic",
        )
        _ingest(estimator, data, sites, reference)
        states.append((estimator.bank._local.copy(), estimator.total_messages))
    assert np.array_equal(states[0][0], states[1][0])
    assert states[0][1] == states[1][1]
