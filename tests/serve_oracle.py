"""The per-request read loops the coalesced server batches replaced.

``QueryServer.log_event_batch`` and ``classify_batch`` answer each
distinct request once and account for its duplicates arithmetically.
These are the loops they replaced, one request at a time through the
event LRU and the decision cache, kept so the tests can check the
coalesced batches against them — answers bitwise, and ``stats()``,
decision entries and the order of all three LRUs:

- :func:`reference_log_event_batch` — one ``snapshot()`` check, event
  LRU ``get`` and, on a miss, evaluation and ``put`` per request;
- :func:`reference_classify_batch` — one target plan, evidence vector
  and decision-cache walk (same-epoch hit, stale hit, invalidation or
  miss) per request.

:func:`assert_servers_equal` compares two servers' observable state.
"""

import numpy as np

from repro.serve.server import _DecisionEntry


def reference_log_event_batch(server, events) -> np.ndarray:
    """``server.log_event_batch(events)``, one request at a time."""
    out = []
    for event in events:
        snap = server.snapshot()
        key = (*event, *event.values())
        value = server._event_cache.get(key)
        if value is None:
            value = server._event_value(
                snap, server._estimator._event_ids(event)
            )
            server._event_cache.put(key, value)
        server.queries_served += 1
        out.append(value)
    return np.array(out, dtype=np.float64)


def reference_classify_batch(server, targets, data) -> np.ndarray:
    """``server.classify_batch(targets, data)``, one request at a time."""
    data = server._network._as_index_rows(data)
    out = np.empty(len(targets), dtype=np.int64)
    for r, target in enumerate(targets):
        snap = server.snapshot()
        plan = server._target_plan(target)
        vec = data[r].copy()
        vec[plan.target_index] = 0
        out[r] = _reference_decide(server, snap, target, plan, vec)
    return out


def _reference_decide(server, snap, target, plan, vec) -> int:
    cache = server._decision_cache
    key = (plan.target_index, vec.tobytes())
    entry = cache.get(key)
    if entry is not None:
        if entry.epoch == snap.epoch:
            server.queries_served += 1
            return entry.decision
        if entry.margin > server.staleness_threshold(target):
            server.decision_stale_hits += 1
            server.queries_served += 1
            return entry.decision
        server.decision_invalidations += 1
        cache.misses += 1
        cache.hits -= 1  # the get above counted a hit
    scores = server._scores_from_vec(snap, plan, vec)
    decision = int(np.argmax(scores))
    cache.put(
        key,
        _DecisionEntry(decision, server.decision_margin(scores), snap.epoch),
    )
    server.queries_served += 1
    return decision


def assert_servers_equal(a, b) -> None:
    """Equal ``stats()``, LRU contents in equal recency order, and equal
    decision entries (decision, margin and epoch)."""
    assert a.stats() == b.stats()
    for name in ("_event_cache", "_slice_cache", "_decision_cache"):
        left, right = getattr(a, name).data, getattr(b, name).data
        assert list(left) == list(right), name
    for key, value in a._event_cache.data.items():
        assert np.array_equal(value, b._event_cache.data[key])
    for key, value in a._slice_cache.data.items():
        assert np.array_equal(value, b._slice_cache.data[key])
    for key, entry in a._decision_cache.data.items():
        other = b._decision_cache.data[key]
        assert (entry.decision, entry.margin, entry.epoch) == \
            (other.decision, other.margin, other.epoch)
