"""Exact distributed counters: the EXACTMLE strawman's substrate.

Every increment at a site is forwarded to the coordinator, so the
coordinator always holds the exact count and the communication cost is one
message per increment (Lemma 5: ``O(mn)`` for ``m`` observations over an
``n``-variable network).
"""

from __future__ import annotations

import numpy as np

from repro.counters.base import CounterBank
from repro.monitoring.channel import MessageKind


class ExactCounterBank(CounterBank):
    """Counters maintained exactly at the coordinator."""

    def __init__(self, n_counters: int, n_sites: int, *, message_log=None) -> None:
        super().__init__(n_counters, n_sites, message_log=message_log)
        self._coordinator = np.zeros(self.n_counters, dtype=np.int64)

    def _apply_site(self, site, counter_ids, counts) -> None:
        self._local[counter_ids, site] += counts
        self._coordinator[counter_ids] += counts
        # One REPORT per increment, attributed to the observing site.
        self.message_log.record(MessageKind.REPORT, site, int(counts.sum()))

    def _apply_table(self, table) -> None:
        # The dense-table fast path degenerates to three whole-array adds:
        # no per-site slicing at all.
        self._local += table.T
        self._coordinator += table.sum(axis=0)
        per_site = table.sum(axis=1)
        touched = np.flatnonzero(per_site)
        if touched.size:
            self.message_log.record_reports_bulk(touched, per_site[touched])

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["coordinator"] = self._coordinator.copy()
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self._load_array(state, "coordinator", self._coordinator)

    def estimates(self) -> np.ndarray:
        return self._coordinator.astype(np.float64)

    def exact_values(self) -> np.ndarray:
        """Integer coordinator counts (identical to :meth:`true_totals`)."""
        return self._coordinator.copy()
