"""Reference implementations the ingest fast paths are tested against.

The estimator has one encoder and the deterministic bank one threshold
pass; these are the slow, obviously-correct versions they replaced, kept
here so the byte-identity tests have something independent to compare
with:

- :func:`reference_encode` — the per-variable Python loop that encodes
  all ``2n`` counter ids of every event;
- :func:`reference_ingest` — that encoding, one ``bincount`` per site and
  ``bank.bulk_add_site`` in ascending site order (the original
  boolean-mask ingest);
- :class:`ScalarThresholdBank` — a deterministic bank that advances each
  crossing counter with the scalar ``while`` loop of
  :func:`advance_thresholds`.

:func:`assert_states_equal` and :func:`state_sha256` compare and pin
whole ``state_dict()`` payloads of banks and message logs.
"""

import hashlib
import json
import math

import numpy as np

from repro.counters.deterministic import DeterministicCounterBank
from repro.monitoring.channel import MessageKind


def reference_encode(estimator, data) -> np.ndarray:
    """Flat counter ids of every event: ``(m, 2n)``, joint ids first.

    Columns ``[0, n)`` hold each variable's joint counter id, columns
    ``[n, 2n)`` its parent counter id, from the estimator's layout.
    """
    data = np.asarray(data, dtype=np.int64)
    n = len(estimator._layouts)
    ids = np.empty((data.shape[0], 2 * n), dtype=np.int64)
    for layout in estimator._layouts:
        pstate = layout.parent_state_batch(data)
        ids[:, layout.index] = (
            layout.joint_offset
            + data[:, layout.index] * layout.k_configs
            + pstate
        )
        ids[:, n + layout.index] = layout.parent_offset + pstate
    return ids


def reference_ingest(estimator, data, sites) -> None:
    """Feed a batch through the per-site mask loop (no fast path).

    Encodes with :func:`reference_encode`, histograms each site's rows
    and hands the touched counters to ``bank.bulk_add_site`` site by
    site, ascending — the order every grouping strategy must reproduce.
    """
    ids = reference_encode(estimator, data)
    sites = np.asarray(sites, dtype=np.int64)
    for site in range(estimator.n_sites):
        mask = sites == site
        if not mask.any():
            continue
        dense = np.bincount(ids[mask].ravel(), minlength=estimator.n_counters)
        touched = np.flatnonzero(dense)
        estimator.bank.bulk_add_site(site, touched, dense[touched])
    estimator.events_seen += int(sites.size)


def assert_states_equal(expected: dict, actual: dict, label=None) -> None:
    """Two ``state_dict()`` payloads hold the same keys, dtypes and values."""
    assert expected.keys() == actual.keys(), label
    for key, value in expected.items():
        if isinstance(value, np.ndarray):
            assert value.dtype == actual[key].dtype, (label, key)
            assert np.array_equal(value, actual[key]), (label, key)
        else:
            assert value == actual[key], (label, key)


def state_sha256(state: dict) -> str:
    """Digest of a ``state_dict()`` payload: keys sorted, arrays as
    dtype + shape + C-order bytes, everything else as sorted-key JSON."""
    digest = hashlib.sha256()
    for key in sorted(state):
        value = state[key]
        digest.update(key.encode())
        if isinstance(value, np.ndarray):
            digest.update(f"{value.dtype.str}{value.shape}".encode())
            digest.update(np.ascontiguousarray(value).tobytes())
        else:
            digest.update(json.dumps(value, sort_keys=True).encode())
    return digest.hexdigest()


def advance_thresholds(bank, c: int, site: int) -> None:
    """Report and re-arm counter ``c`` at ``site`` until it clears.

    Per-increment semantics: the report fires the moment the local count
    reaches the threshold, carrying exactly that value.
    """
    local = int(bank._local[c, site])
    messages = 0
    threshold = int(bank._next_threshold[c, site])
    eps = float(bank.eps[c])
    last_report = int(bank._reported[c, site])
    while local >= threshold:
        messages += 1
        last_report = threshold
        threshold = int(math.floor(threshold * (1.0 + eps))) + 1
    if messages:
        delta = last_report - int(bank._reported[c, site])
        bank._reported[c, site] = last_report
        bank._reported_sum[c] += delta
        bank._next_threshold[c, site] = threshold
        bank.message_log.record(MessageKind.REPORT, site, messages)


class ScalarThresholdBank(DeterministicCounterBank):
    """A deterministic bank advancing one crossing counter at a time."""

    def _advance_thresholds_bulk(self, site, crossing) -> None:
        for c in crossing:
            advance_thresholds(self, int(c), site)
