"""Deterministic (1+eps)-threshold distributed counters.

The style of counter studied by Keralapura et al. (paper reference [22]):
each site reports its local count when it grows by a (1+eps) factor since
its last report.  The coordinator's sum of last reports then satisfies the
deterministic sandwich ``A <= C <= (1+eps) * A + k`` — a per-site relative
guarantee with no coin flips, but the message cost is ``O(k/eps * log T)``
with no ``sqrt(k)`` saving, which is exactly the gap the paper's randomized
counters exploit.  Selectable as the ``deterministic`` counter backend
for ablations against the HYZ bank.

Threshold advancement is vectorized: every crossing counter at a site
advances together, each pass of the generation loop firing one report for
every still-crossing counter as a pure array update, so a batch that
triggers ``r`` total report generations costs ``O(r)`` numpy passes
instead of one Python loop iteration per (counter, report).  The protocol
has no randomness, so the result is byte-identical to the per-counter
``while`` loop in ``tests/ingest_oracle.py`` — pinned by
``tests/test_ingest_fastpath.py``.
"""

from __future__ import annotations

import numpy as np

from repro.counters.base import CounterBank
from repro.errors import CounterError
from repro.monitoring.channel import MessageKind


class DeterministicCounterBank(CounterBank):
    """Counters where each site reports on (1+eps)-factor growth.

    Parameters
    ----------
    eps:
        Scalar or per-counter array in (0, 1): the per-site relative slack.
    """

    def __init__(self, n_counters: int, n_sites: int, eps, *,
                 message_log=None) -> None:
        super().__init__(n_counters, n_sites, message_log=message_log)
        eps_arr = np.broadcast_to(
            np.asarray(eps, dtype=np.float64), (self.n_counters,)
        ).copy()
        if np.any(eps_arr <= 0) or np.any(eps_arr >= 1):
            raise CounterError("eps must lie in (0, 1) for every counter")
        self.eps = eps_arr
        self._reported = np.zeros((self.n_counters, self.n_sites), dtype=np.int64)
        self._reported_sum = np.zeros(self.n_counters, dtype=np.int64)
        # Next local value that triggers a report; the first item always
        # reports (threshold 1).
        self._next_threshold = np.ones(
            (self.n_counters, self.n_sites), dtype=np.int64
        )

    def _advance_thresholds_bulk(self, site: int, crossing: np.ndarray) -> None:
        """Report and re-arm every crossing counter until it clears.

        Per-increment semantics: a report fires the moment the local count
        reaches the threshold, carrying exactly that value.  One generation
        per pass: every still-crossing counter fires a report and re-arms
        together, so the loop runs ``max_c r_c`` times (the deepest report
        chain) instead of ``sum_c r_c``.  The threshold recurrence
        ``t <- floor(t * (1 + eps)) + 1`` is exact in float64 for every
        count this library can reach (< 2**53), so the result is
        byte-identical to a per-counter scalar loop.
        """
        local = self._local[crossing, site]
        threshold = self._next_threshold[crossing, site].copy()
        growth = 1.0 + self.eps[crossing]
        last_report = np.empty_like(threshold)
        messages = np.zeros(crossing.size, dtype=np.int64)
        # All entries cross at least once (the caller pre-filtered), so the
        # first pass runs on the full set and the active set only shrinks.
        active = np.arange(crossing.size)
        while active.size:
            messages[active] += 1
            last_report[active] = threshold[active]
            threshold[active] = (
                np.floor(threshold[active] * growth[active]).astype(np.int64) + 1
            )
            active = active[local[active] >= threshold[active]]
        delta = last_report - self._reported[crossing, site]
        self._reported[crossing, site] = last_report
        self._reported_sum[crossing] += delta
        self._next_threshold[crossing, site] = threshold
        self.message_log.record(MessageKind.REPORT, site, int(messages.sum()))

    def _apply_site(self, site, counter_ids, counts) -> None:
        self._local[counter_ids, site] += counts
        crossing = counter_ids[
            self._local[counter_ids, site]
            >= self._next_threshold[counter_ids, site]
        ]
        if crossing.size == 0:
            return
        self._advance_thresholds_bulk(site, crossing)

    def _apply_table(self, table) -> None:
        # Dense-table fast path: one whole-array add, then per-site
        # threshold advancement.  Scanning the full column for crossings is
        # equivalent to scanning only the incremented counters — the bank
        # invariant guarantees ``local < next_threshold`` everywhere after
        # each apply, so only counters this table touched can cross.
        self._local += table.T
        for site in range(self.n_sites):
            crossing = np.flatnonzero(
                self._local[:, site] >= self._next_threshold[:, site]
            )
            if crossing.size == 0:
                continue
            self._advance_thresholds_bulk(site, crossing)

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["reported"] = self._reported.copy()
        state["reported_sum"] = self._reported_sum.copy()
        state["next_threshold"] = self._next_threshold.copy()
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self._load_array(state, "reported", self._reported)
        self._load_array(state, "reported_sum", self._reported_sum)
        self._load_array(state, "next_threshold", self._next_threshold)

    def estimates(self) -> np.ndarray:
        """Sum of last reports; an underestimate within (1+eps) per site."""
        return self._reported_sum.astype(np.float64)

    def guaranteed_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic ``(lower, upper)`` bounds on every true count."""
        lower = self._reported_sum.astype(np.float64)
        # Each site may hold up to its next threshold minus one unreported.
        slack = (self._next_threshold - 1 - self._reported).clip(min=0)
        upper = lower + slack.sum(axis=1)
        return lower, upper
