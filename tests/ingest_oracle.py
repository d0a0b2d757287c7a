"""Reference implementations the ingest fast paths are tested against.

The estimator has one encoder and the deterministic bank one threshold
pass; these are the slow, obviously-correct versions they replaced, kept
here so the byte-identity tests have something independent to compare
with:

- :func:`parent_state_batch` — one family's parent configuration per
  row, by fancy-indexing the parent columns;
- :func:`reference_encode` — the per-variable Python loop that encodes
  all ``2n`` counter ids of every event;
- :func:`reference_log_query_batch` — batched Algorithm 3 as that same
  per-family loop, the live ``log_query_batch`` before it shared the
  encoder's row walk;
- :func:`reference_snapshot_terms` — a snapshot's term table with one
  ``math.log`` pair per joint counter, the build before it logged each
  distinct estimate once;
- :func:`reference_ingest` — that encoding, one ``bincount`` per site and
  ``bank.bulk_add_site`` in ascending site order (the original
  boolean-mask ingest);
- :func:`reference_apply_round` — a distributed round's aggregates fed
  through ``bank.bulk_add_site`` one site at a time, the coordinator's
  apply before it handed whole rounds to ``bank.bulk_add_sites``;
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
from repro.errors import QueryError
from repro.monitoring.channel import MessageKind


def parent_state_batch(layout, data) -> np.ndarray:
    """``layout``'s parent configuration index for each row of ``data``."""
    if layout.parent_positions.size == 0:
        return np.zeros(data.shape[0], dtype=np.int64)
    return data[:, layout.parent_positions] @ layout.parent_strides


def reference_encode(estimator, data) -> np.ndarray:
    """Flat counter ids of every event: ``(m, 2n)``, joint ids first.

    Columns ``[0, n)`` hold each variable's joint counter id, columns
    ``[n, 2n)`` its parent counter id, from the estimator's layout.
    """
    data = np.asarray(data, dtype=np.int64)
    n = len(estimator._layouts)
    ids = np.empty((data.shape[0], 2 * n), dtype=np.int64)
    for layout in estimator._layouts:
        pstate = parent_state_batch(layout, data)
        ids[:, layout.index] = (
            layout.joint_offset
            + data[:, layout.index] * layout.k_configs
            + pstate
        )
        ids[:, n + layout.index] = layout.parent_offset + pstate
    return ids


def reference_log_query_batch(estimator, data, *, strict=False):
    """Batched ``log_query`` family by family over in-range rows.

    Default mode folds every degenerate family into ``-inf``; ``strict``
    raises :class:`QueryError` for a row whose first degenerate family
    has a positive numerator over a zero denominator.
    """
    data = np.asarray(data, dtype=np.int64)
    estimates = estimator.bank.estimates()
    n = len(estimator._layouts)
    total = np.zeros(data.shape[0], dtype=np.float64)
    first_neg = np.full(data.shape[0], n, dtype=np.int64)
    first_bad = np.full(data.shape[0], n, dtype=np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        for position, layout in enumerate(estimator._layouts):
            pstate = parent_state_batch(layout, data)
            num = estimates[
                layout.joint_offset
                + data[:, layout.index] * layout.k_configs
                + pstate
            ]
            den = estimates[layout.parent_offset + pstate]
            total += np.where(
                (num > 0) & (den > 0), np.log(num) - np.log(den), -np.inf
            )
            neg = num <= 0
            bad = ~neg & (den <= 0)
            np.minimum(first_neg, np.where(neg, position, n), out=first_neg)
            np.minimum(first_bad, np.where(bad, position, n), out=first_bad)
    if strict and np.any(first_bad < first_neg):
        raise QueryError("inconsistent counters under a positive numerator")
    return total


def reference_snapshot_terms(estimates, plan):
    """``(terms, neg, bad)`` with one ``math.log`` pair per joint counter."""
    num = estimates[: plan.n_joint]
    den = estimates[plan.parent_of_joint]
    neg = num <= 0.0
    bad = ~neg & (den <= 0.0)
    terms = np.full(plan.n_joint, -np.inf)
    ok = np.flatnonzero(~neg & ~bad)
    if ok.size:
        terms[ok] = [
            math.log(n) - math.log(d)
            for n, d in zip(num[ok].tolist(), den[ok].tolist())
        ]
    return terms, neg, bad


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


def reference_apply_round(bank, reports: dict) -> None:
    """Apply one round's ``{worker: [SiteAggregate, ...]}`` site by site.

    Workers ascending, then each worker's aggregates in shipped (site
    ascending) order: the per-site walk ``bank.bulk_add_sites`` must
    reproduce, epoch included.
    """
    for worker in sorted(reports):
        for agg in reports[worker]:
            bank.bulk_add_site(agg.site, agg.counter_ids, agg.counts)


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
