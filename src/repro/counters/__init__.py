"""Distributed counters for the continuous monitoring model.

All banks share one interface: ``bulk_add_table(table)`` applies a
``(n_sites, n_counters)`` table of increments observed at sites (and
``bulk_add_sites`` one distributed round of per-site slices), and
``estimates()`` returns the coordinator's current view of every counter.
Messages are tallied in a :class:`~repro.monitoring.channel.MessageLog`.

- :class:`ExactCounterBank` — one message per increment (EXACTMLE).
- :class:`HYZCounterBank` — the randomized counter of Huang, Yi & Zhang
  (PODS 2012), Lemma 4 of the paper: unbiased, ``Var <= (eps*C)^2``,
  ``O(sqrt(k)/eps * log T)`` messages.
- :class:`DeterministicCounterBank` — (1+eps)-threshold counters in the
  style of Keralapura et al. (paper ref [22]); deterministic guarantee,
  no ``sqrt(k)`` saving.  Used for counter ablations.
"""

from repro.counters.base import CounterBank
from repro.counters.deterministic import DeterministicCounterBank
from repro.counters.exact import ExactCounterBank
from repro.counters.hyz import HYZCounterBank

__all__ = [
    "CounterBank",
    "ExactCounterBank",
    "HYZCounterBank",
    "DeterministicCounterBank",
]
